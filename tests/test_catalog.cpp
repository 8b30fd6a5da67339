// Tests for the deterministic d1..d60 distribution catalog.
#include <gtest/gtest.h>

#include <optional>
#include <string_view>

#include "common/error.hpp"
#include "dist/catalog.hpp"

namespace genas {
namespace {

TEST(Catalog, HasSixtyNumberedEntries) {
  const DistributionCatalog catalog(100);
  for (int k = 1; k <= DistributionCatalog::kNumbered; ++k) {
    const auto d = catalog.numbered(k);
    EXPECT_EQ(d.size(), 100);
  }
  EXPECT_THROW(catalog.numbered(0), Error);
  EXPECT_THROW(catalog.numbered(61), Error);
}

TEST(Catalog, NumberedEntriesAreDeterministic) {
  const DistributionCatalog a(100);
  const DistributionCatalog b(100);
  for (int k : {1, 17, 37, 42, 60}) {
    EXPECT_DOUBLE_EQ(
        DiscreteDistribution::l1_distance(a.numbered(k), b.numbered(k)), 0.0)
        << "d" << k;
  }
}

TEST(Catalog, EntriesDifferFromEachOther) {
  const DistributionCatalog catalog(100);
  // Not a strict requirement for every pair, but the sampled pairs span
  // distinct seeds and must differ materially.
  EXPECT_GT(DiscreteDistribution::l1_distance(catalog.numbered(3),
                                              catalog.numbered(39)),
            0.05);
  EXPECT_GT(DiscreteDistribution::l1_distance(catalog.numbered(5),
                                              catalog.numbered(41)),
            0.05);
}

TEST(Catalog, ByNameResolvesNumberedAndNamedShapes) {
  const DistributionCatalog catalog(80);
  EXPECT_EQ(catalog.by_name("d17").size(), 80);
  EXPECT_DOUBLE_EQ(DiscreteDistribution::l1_distance(catalog.by_name("d17"),
                                                     catalog.numbered(17)),
                   0.0);
  EXPECT_NO_THROW(catalog.by_name("equal"));
  EXPECT_NO_THROW(catalog.by_name("uniform"));
  EXPECT_NO_THROW(catalog.by_name("gauss"));
  EXPECT_NO_THROW(catalog.by_name("gauss-low"));
  EXPECT_NO_THROW(catalog.by_name("gauss-high"));
  EXPECT_NO_THROW(catalog.by_name("falling"));
  EXPECT_NO_THROW(catalog.by_name("rising"));
  EXPECT_NO_THROW(catalog.by_name("95% high"));
  EXPECT_NO_THROW(catalog.by_name("90% low"));
  EXPECT_NO_THROW(catalog.by_name(" D5 "));  // trims and lower-cases
}

TEST(Catalog, ByNameFailures) {
  const DistributionCatalog catalog(80);
  EXPECT_THROW(catalog.by_name(""), Error);
  EXPECT_THROW(catalog.by_name("d0"), Error);
  EXPECT_THROW(catalog.by_name("d61"), Error);
  EXPECT_THROW(catalog.by_name("bogus"), Error);
  EXPECT_THROW(catalog.by_name("120% high"), Error);
  EXPECT_THROW(catalog.by_name("95% middle"), Error);
}

// Pins by_name's accept/reject result, error code and message for the
// numeric forms, padded and overflowing ones included: "d 5" and "5 % high"
// hold an integer only once their padding is trimmed.
TEST(Catalog, ByNameNumericKeyTable) {
  struct Row {
    const char* name;
    std::optional<ErrorCode> error;  // nullopt: accepted
    const char* message;
  };
  const Row rows[] = {
      {"d5", std::nullopt, ""},
      {"d0", ErrorCode::kNotFound, "no catalog entry named 'd0'"},
      {"d61", ErrorCode::kNotFound, "no catalog entry named 'd61'"},
      {"d 5", ErrorCode::kNotFound, "no catalog entry named 'd 5'"},
      {"d99999999999", ErrorCode::kNotFound,
       "no catalog entry named 'd99999999999'"},
      {"50% high", std::nullopt, ""},
      {"5 % high", ErrorCode::kInvalidArgument,
       "percent peak mass must lie in 1..100"},
      {"x% high", ErrorCode::kNotFound, "no catalog entry named 'x% high'"},
      {"150% low", ErrorCode::kInvalidArgument,
       "percent peak mass must lie in 1..100"},
      {"42", ErrorCode::kNotFound, "no catalog entry named '42'"},
      {"99999999999% high", ErrorCode::kInvalidArgument,
       "percent peak mass must lie in 1..100"},
      {"99999999999999999999% high", ErrorCode::kNotFound,
       "no catalog entry named '99999999999999999999% high'"},
  };
  const DistributionCatalog catalog(80);
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    if (!row.error.has_value()) {
      EXPECT_NO_THROW(catalog.by_name(row.name));
      continue;
    }
    try {
      catalog.by_name(row.name);
      ADD_FAILURE() << "accepted";
    } catch (const Error& error) {
      EXPECT_EQ(error.code(), *row.error);
      EXPECT_NE(std::string_view(error.what()).find(row.message),
                std::string_view::npos)
          << error.what();
    }
  }
}

TEST(Catalog, NamesListResolves) {
  const DistributionCatalog catalog(64);
  const auto names = catalog.names();
  EXPECT_EQ(names.size(), 10u + DistributionCatalog::kNumbered);
  for (const auto& name : names) {
    EXPECT_NO_THROW(catalog.by_name(name)) << name;
  }
}

TEST(Catalog, SameEntryScalesAcrossDomainSizes) {
  // The shape is defined on the normalized domain: coarse and fine
  // discretizations of d7 must put similar mass on the same halves.
  const DistributionCatalog coarse(50);
  const DistributionCatalog fine(500);
  const auto a = coarse.numbered(7);
  const auto b = fine.numbered(7);
  EXPECT_NEAR(a.mass(Interval{0, 24}), b.mass(Interval{0, 249}), 0.05);
}

}  // namespace
}  // namespace genas
