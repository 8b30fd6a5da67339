// Unit tests for the profile/event text parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/text.hpp"
#include "profile/parser.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = testutil::example1_schema();
};

TEST_F(ParserTest, ComparisonOperators) {
  const Profile p =
      parse_profile(schema_, "temperature >= 35 && humidity = 90");
  EXPECT_EQ(p.constrained_count(), 2u);
  ASSERT_NE(p.predicate(0), nullptr);
  EXPECT_EQ(p.predicate(0)->accepted(), IntervalSet({{65, 80}}));
  ASSERT_NE(p.predicate(1), nullptr);
  EXPECT_EQ(p.predicate(1)->accepted(), IntervalSet::point(90));
}

TEST_F(ParserTest, AllOperatorSpellings) {
  EXPECT_EQ(parse_profile(schema_, "humidity == 5").predicate(1)->accepted(),
            IntervalSet::point(5));
  EXPECT_EQ(parse_profile(schema_, "humidity != 0").predicate(1)->accepted(),
            IntervalSet({{1, 100}}));
  EXPECT_EQ(parse_profile(schema_, "humidity < 10").predicate(1)->accepted(),
            IntervalSet({{0, 9}}));
  EXPECT_EQ(parse_profile(schema_, "humidity <= 10").predicate(1)->accepted(),
            IntervalSet({{0, 10}}));
  EXPECT_EQ(parse_profile(schema_, "humidity > 90").predicate(1)->accepted(),
            IntervalSet({{91, 100}}));
  EXPECT_EQ(parse_profile(schema_, "humidity >= 90").predicate(1)->accepted(),
            IntervalSet({{90, 100}}));
}

TEST_F(ParserTest, RangeAndSetForms) {
  const Profile range = parse_profile(schema_, "radiation in [35, 50]");
  EXPECT_EQ(range.predicate(2)->accepted(), IntervalSet({{34, 49}}));

  const Profile outside = parse_profile(schema_, "radiation not in [35,50]");
  EXPECT_EQ(outside.predicate(2)->accepted(),
            IntervalSet({{0, 33}, {50, 99}}));

  const Profile set = parse_profile(schema_, "humidity in {1, 5, 9}");
  EXPECT_EQ(set.predicate(1)->accepted(),
            IntervalSet({{1, 1}, {5, 5}, {9, 9}}));
}

TEST_F(ParserTest, MatchAllForms) {
  EXPECT_EQ(parse_profile(schema_, "*").constrained_count(), 0u);
  EXPECT_EQ(parse_profile(schema_, "  ").constrained_count(), 0u);
}

TEST_F(ParserTest, NegativeNumbersParse) {
  const Profile p = parse_profile(schema_, "temperature in [-30, -20]");
  EXPECT_EQ(p.predicate(0)->accepted(), IntervalSet({{0, 10}}));
  // "temperature <= -20": the '=' inside "<=" must win over the '-' sign.
  const Profile q = parse_profile(schema_, "temperature <= -20");
  EXPECT_EQ(q.predicate(0)->accepted(), IntervalSet({{0, 10}}));
}

TEST_F(ParserTest, ParseFailures) {
  EXPECT_THROW(parse_profile(schema_, "pressure = 1"), Error);
  EXPECT_THROW(parse_profile(schema_, "humidity"), Error);
  EXPECT_THROW(parse_profile(schema_, "humidity in [1"), Error);
  EXPECT_THROW(parse_profile(schema_, "humidity in [1]"), Error);
  EXPECT_THROW(parse_profile(schema_, "humidity in (1,2)"), Error);
  EXPECT_THROW(parse_profile(schema_, "humidity = high"), Error);
  EXPECT_THROW(parse_profile(schema_, "humidity = 200"), Error);  // domain
  EXPECT_THROW(parse_profile(schema_, "humidity not = 5"), Error);
  EXPECT_THROW(parse_profile(nullptr, "humidity = 5"), Error);
}

TEST_F(ParserTest, EventParsing) {
  const Event event = parse_event(
      schema_, "temperature = 30; humidity = 90; radiation = 2", 7);
  EXPECT_EQ(event.time(), 7);
  EXPECT_EQ(event.value("temperature").as_int(), 30);
  EXPECT_EQ(event.value("radiation").as_int(), 2);
}

TEST_F(ParserTest, EventParsingFailures) {
  EXPECT_THROW(parse_event(schema_, "temperature = 30"), Error);  // missing
  EXPECT_THROW(
      parse_event(schema_, "temperature: 30; humidity = 9; radiation = 2"),
      Error);
  EXPECT_THROW(
      parse_event(schema_, "bogus = 1; humidity = 9; radiation = 2"), Error);
}

TEST_F(ParserTest, CategoricalScalars) {
  const SchemaPtr schema = SchemaBuilder()
                               .add_categorical("state", {"ok", "warn", "err"})
                               .add_integer("code", 0, 9)
                               .build();
  const Profile p = parse_profile(schema, "state = warn && code >= 5");
  EXPECT_EQ(p.predicate(0)->accepted(), IntervalSet::point(1));
  const Event e = parse_event(schema, "state = err; code = 3");
  EXPECT_EQ(e.index(0), 2);
}

TEST(ParseNumber, ParsesWholeSignedTokens) {
  EXPECT_EQ(parse_number<int>("42"), std::optional<int>(42));
  EXPECT_EQ(parse_number<int>("-7"), std::optional<int>(-7));
  EXPECT_EQ(parse_number<std::int64_t>("-9223372036854775808"),
            std::optional<std::int64_t>(
                std::numeric_limits<std::int64_t>::min()));
  EXPECT_EQ(parse_number<std::size_t>("3"), std::optional<std::size_t>(3));
  // from_chars takes no '+', and an unsigned target no '-'.
  EXPECT_EQ(parse_number<int>("+5"), std::nullopt);
  EXPECT_EQ(parse_number<std::size_t>("-1"), std::nullopt);
}

TEST(ParseNumber, RejectsOverflow) {
  EXPECT_EQ(parse_number<int>("2147483648"), std::nullopt);
  EXPECT_EQ(parse_number<int>("99999999999"), std::nullopt);
  EXPECT_EQ(parse_number<std::int64_t>("99999999999"),
            std::optional<std::int64_t>(99999999999));
  EXPECT_EQ(parse_number<std::int64_t>("9223372036854775808"), std::nullopt);
  EXPECT_EQ(parse_number<double>("1e999"), std::nullopt);
}

TEST(ParseNumber, RejectsTrailingBytesPaddingAndEmpty) {
  EXPECT_EQ(parse_number<int>("5x"), std::nullopt);
  EXPECT_EQ(parse_number<int>("5 "), std::nullopt);
  EXPECT_EQ(parse_number<int>(" 5"), std::nullopt);
  EXPECT_EQ(parse_number<int>("1.5"), std::nullopt);
  EXPECT_EQ(parse_number<double>("1.5.2"), std::nullopt);
  EXPECT_EQ(parse_number<int>(""), std::nullopt);
  EXPECT_EQ(parse_number<double>(""), std::nullopt);
  EXPECT_EQ(parse_number<std::size_t>("-"), std::nullopt);
}

TEST(ParseNumber, ParsesReals) {
  EXPECT_EQ(parse_number<double>("2.5"), std::optional<double>(2.5));
  EXPECT_EQ(parse_number<double>("-0.25"), std::optional<double>(-0.25));
  EXPECT_EQ(parse_number<double>("1e3"), std::optional<double>(1000.0));
  EXPECT_EQ(parse_number<double>("7"), std::optional<double>(7.0));
  EXPECT_EQ(parse_number<double>("abc"), std::nullopt);
}

}  // namespace
}  // namespace genas
