// Tests for service-configuration persistence (save/load round-trips).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ens/config_io.hpp"
#include "sim/workload.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

TEST(ConfigIo, RoundTripsSchemaAndProfiles) {
  const SchemaPtr schema = SchemaBuilder()
                               .add_integer("temperature", -30, 50)
                               .add_real("pressure", 0.0, 2.0, 0.5)
                               .add_categorical("state", {"ok", "warn"})
                               .build();
  ProfileSet set(schema);
  const ProfileId a = set.add(
      ProfileBuilder(schema).where("temperature", Op::kGe, 35).build());
  set.add(ProfileBuilder(schema).where("state", Op::kEq, "warn").build());
  set.add(ProfileBuilder(schema)
              .between("temperature", -30, -20)
              .where("pressure", Op::kLe, 1.0)
              .build());
  set.set_weight(a, 2.5);

  const std::string text = config_to_string(set);
  const ServiceConfig restored = config_from_string(text);

  EXPECT_EQ(restored.schema->attribute_count(), 3u);
  EXPECT_EQ(restored.schema->attribute(0).domain.size(), 81);
  EXPECT_EQ(restored.schema->attribute(1).domain.size(), 5);
  EXPECT_EQ(restored.schema->attribute(2).domain.size(), 2);
  ASSERT_EQ(restored.profiles.active_count(), 3u);
  EXPECT_DOUBLE_EQ(restored.profiles.weight(0), 2.5);
  EXPECT_DOUBLE_EQ(restored.profiles.weight(1), 1.0);

  // Semantics: each restored profile accepts the same index sets.
  for (const ProfileId id : set.active_ids()) {
    for (AttributeId attr = 0; attr < 3; ++attr) {
      const Predicate* original = set.profile(id).predicate(attr);
      const Predicate* loaded = restored.profiles.profile(id).predicate(attr);
      ASSERT_EQ(original == nullptr, loaded == nullptr);
      if (original != nullptr) {
        EXPECT_EQ(original->accepted(), loaded->accepted());
      }
    }
  }
}

TEST(ConfigIo, RandomWorkloadRoundTrips) {
  const SchemaPtr schema = SchemaBuilder()
                               .add_integer("a", 0, 63)
                               .add_integer("b", -10, 10)
                               .build();
  ProfileWorkloadOptions options;
  options.count = 40;
  options.dont_care_probability = 0.3;
  options.equality_only = false;
  options.range_width_mean = 0.2;
  options.seed = 5;
  const ProfileSet set = generate_profiles(
      schema, make_profile_distributions(schema, {"gauss"}), options);

  const ServiceConfig restored = config_from_string(config_to_string(set));
  ASSERT_EQ(restored.profiles.active_count(), set.active_count());
  const ServiceConfig twice =
      config_from_string(config_to_string(restored.profiles));
  EXPECT_EQ(config_to_string(restored.profiles),
            config_to_string(twice.profiles));  // fixpoint after one trip
}

TEST(ConfigIo, CommentsAndBlankLinesIgnored) {
  const ServiceConfig config = config_from_string(
      "# header\n"
      "\n"
      "attr x int 0 9\n"
      "  # indented comment\n"
      "profile x >= 5\n");
  EXPECT_EQ(config.profiles.active_count(), 1u);
}

TEST(ConfigIo, ParseFailuresCarryLineNumbers) {
  const auto expect_fail = [](const std::string& text,
                              const std::string& fragment) {
    try {
      config_from_string(text);
      FAIL() << "expected parse failure for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse);
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_fail("attr x int 0\n", "line 1");
  expect_fail("attr x bogus 0 9\n", "line 1");
  expect_fail("attr x int 0 9\nwhatever\n", "line 2");
  expect_fail("attr x int 0 9\nprofile y >= 1\n", "line 2");
  expect_fail("profile x >= 1\n", "precede");
  expect_fail("", "no attributes");
  expect_fail("attr x int 0 9\nprofile weight=0 x >= 1\n", "line 2");
}

TEST(ConfigIo, IntegerBoundsMustBeWholeInt64Values) {
  // A fraction is not truncated ([0.5, 9.7] is not [0, 9]) and an
  // out-of-range bound is not cast: both fail at their config line.
  for (const std::string text : {"# bounds\nattr x int 0.5 9.7\n",
                                 "# bounds\nattr x int -1e30 1e30\n"}) {
    try {
      config_from_string(text);
      FAIL() << "expected parse failure for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse);
      EXPECT_NE(std::string(e.what()).find("config line 2"), std::string::npos)
          << e.what();
    }
  }
  const ServiceConfig config = config_from_string("attr x int -5 9\n");
  EXPECT_EQ(config.schema->attribute(0).domain.numeric_lo(), -5.0);
  EXPECT_EQ(config.schema->attribute(0).domain.numeric_hi(), 9.0);
}

TEST(ConfigIo, CategoryNamesWithCommasAndEdgeWhitespaceRoundTrip) {
  // Regression: commas used to split the category payload blindly, and
  // leading/trailing whitespace was eaten by line trimming — both silently
  // corrupted the restored domain. Escaping must make these round-trip.
  const std::vector<std::string> names = {
      "plain",
      "with,comma",
      ",leading",
      "trailing,",
      " leading space",
      "trailing space ",
      "\ttab edge\t",
      "inner space ok",
      "back\\slash",
      "\\,messy\\ mix, ",
  };
  const SchemaPtr schema =
      SchemaBuilder().add_categorical("state", names).build();
  ProfileSet set(schema);
  set.add(ProfileBuilder(schema).where("state", Op::kEq, "with,comma").build());

  const std::string text = config_to_string(set);
  const ServiceConfig restored = config_from_string(text);
  const Domain& domain = restored.schema->attribute(0).domain;
  ASSERT_EQ(domain.size(), static_cast<std::int64_t>(names.size()));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(domain.value_at(static_cast<DomainIndex>(i)).as_category(),
              names[i])
        << "category " << i;
  }
  // And a second trip is a fixpoint.
  EXPECT_EQ(config_to_string(restored.profiles), text);
}

TEST(ConfigIo, HandWrittenCategoryListsStillTolerateSpacing) {
  // Unescaped whitespace around commas is formatting, not payload.
  const ServiceConfig config = config_from_string(
      "attr state cat ok, warn ,  err\n"
      "profile state = warn\n");
  const Domain& domain = config.schema->attribute(0).domain;
  ASSERT_EQ(domain.size(), 3);
  EXPECT_EQ(domain.value_at(0).as_category(), "ok");
  EXPECT_EQ(domain.value_at(1).as_category(), "warn");
  EXPECT_EQ(domain.value_at(2).as_category(), "err");
}

TEST(ConfigIo, CategoryEscapeFailuresAreRejected) {
  const auto expect_parse_fail = [](const std::string& text) {
    try {
      config_from_string(text);
      FAIL() << "expected parse failure for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse) << e.what();
    }
  };
  expect_parse_fail("attr state cat ok,bad\\\n");    // lone trailing backslash
  expect_parse_fail("attr state cat ok,bad\\x\n");   // unknown escape

  // Newlines cannot exist in a line-oriented format: save must refuse.
  const SchemaPtr schema =
      SchemaBuilder().add_categorical("state", {"multi\nline"}).build();
  const ProfileSet set(schema);
  try {
    config_to_string(set);
    FAIL() << "expected save failure for newline category";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
  }
}

TEST(ConfigIo, Example1ConfigurationRoundTrips) {
  const SchemaPtr schema = testutil::example1_schema();
  const ProfileSet set = testutil::example1_profiles(schema);
  const ServiceConfig restored = config_from_string(config_to_string(set));
  ASSERT_EQ(restored.profiles.active_count(), 5u);
  // The paper's event (30, 90, 2) must still match exactly P2 and P5.
  const Event event =
      Event::from_pairs(restored.schema, {{"temperature", 30},
                                          {"humidity", 90},
                                          {"radiation", 2}});
  std::vector<ProfileId> matched;
  for (const ProfileId id : restored.profiles.active_ids()) {
    if (restored.profiles.profile(id).matches(event)) matched.push_back(id);
  }
  EXPECT_EQ(matched, (std::vector<ProfileId>{1, 4}));
}

}  // namespace
}  // namespace genas
