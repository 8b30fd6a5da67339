// Tests for the composite-event algebra and detector: operator semantics,
// window boundaries (firing exactly at `window`, legitimate negative
// timestamps vs. the never-fired sentinel, zero-width neg windows),
// re-entrant add/remove from inside callbacks, simultaneous-stimulus
// (on_event) semantics, the watermark reorder stage, and the textual
// composite form.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "ens/composite.hpp"
#include "profile/parser.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

class CompositeTest : public ::testing::Test {
 protected:
  CompositeDetector detector_;
  std::vector<Timestamp> fired_;

  CompositeId add(const CompositeExprPtr& expr) {
    return detector_.add(
        expr, [this](const CompositeFiring& f) { fired_.push_back(f.time); });
  }
};

TEST_F(CompositeTest, SequenceFiresOnlyInOrderWithinWindow) {
  add(seq(primitive(1), primitive(2), 10));

  detector_.on_match(2, 1);   // B before A: nothing
  EXPECT_TRUE(fired_.empty());
  detector_.on_match(1, 5);   // A
  detector_.on_match(2, 12);  // B, 7 <= 10 after A -> fire
  ASSERT_EQ(fired_.size(), 1u);
  EXPECT_EQ(fired_[0], 12);

  // A was consumed: another B alone must not fire.
  detector_.on_match(2, 14);
  EXPECT_EQ(fired_.size(), 1u);
}

TEST_F(CompositeTest, SequenceWindowExpires) {
  add(seq(primitive(1), primitive(2), 10));
  detector_.on_match(1, 0);
  detector_.on_match(2, 11);  // outside window
  EXPECT_TRUE(fired_.empty());
}

TEST_F(CompositeTest, SequenceRequiresStrictOrder) {
  add(seq(primitive(1), primitive(2), 10));
  // Same timestamp (e.g., one event matching both profiles in one publish):
  // "then" means strictly after.
  detector_.on_match(1, 5);
  detector_.on_match(2, 5);
  EXPECT_TRUE(fired_.empty());
}

TEST_F(CompositeTest, ConjunctionFiresInAnyOrder) {
  add(conj(primitive(1), primitive(2), 10));
  detector_.on_match(2, 3);
  detector_.on_match(1, 8);  // within window, reversed order -> fire
  ASSERT_EQ(fired_.size(), 1u);
  EXPECT_EQ(fired_[0], 8);

  // Both were consumed.
  detector_.on_match(1, 9);
  EXPECT_EQ(fired_.size(), 1u);
  detector_.on_match(2, 15);
  EXPECT_EQ(fired_.size(), 2u);
}

TEST_F(CompositeTest, DisjunctionFiresOnEither) {
  add(disj(primitive(1), primitive(2)));
  detector_.on_match(1, 1);
  detector_.on_match(2, 2);
  detector_.on_match(3, 3);  // unrelated profile
  EXPECT_EQ(fired_, (std::vector<Timestamp>{1, 2}));
}

TEST_F(CompositeTest, NegationSuppressesWithinWindow) {
  // neg(absent=1, then=2, window=10): "2 with no 1 in the last 10".
  add(neg(primitive(1), primitive(2), 10));
  detector_.on_match(2, 5);  // no blocker ever: fire
  EXPECT_EQ(fired_.size(), 1u);

  detector_.on_match(1, 10);  // blocker
  detector_.on_match(2, 15);  // 5 <= 10 after blocker: suppressed
  EXPECT_EQ(fired_.size(), 1u);
  detector_.on_match(2, 21);  // 11 > 10 after blocker: fire
  EXPECT_EQ(fired_.size(), 2u);
}

TEST_F(CompositeTest, NestedExpressions) {
  // seq(disj(1,2), 3): either trigger, then 3.
  add(seq(disj(primitive(1), primitive(2)), primitive(3), 100));
  detector_.on_match(2, 1);
  detector_.on_match(3, 4);
  ASSERT_EQ(fired_.size(), 1u);
  EXPECT_EQ(fired_[0], 4);
}

TEST_F(CompositeTest, RemoveStopsFiring) {
  const CompositeId id = add(disj(primitive(1), primitive(2)));
  detector_.on_match(1, 1);
  detector_.remove(id);
  detector_.on_match(1, 2);
  EXPECT_EQ(fired_.size(), 1u);
  EXPECT_THROW(detector_.remove(id), Error);
  EXPECT_EQ(detector_.subscription_count(), 0u);
}

TEST_F(CompositeTest, MultipleSubscriptionsIndependent) {
  add(seq(primitive(1), primitive(2), 5));
  add(conj(primitive(1), primitive(3), 5));
  detector_.on_match(1, 1);
  detector_.on_match(3, 2);  // fires the conj only
  detector_.on_match(2, 3);  // fires the seq only
  EXPECT_EQ(fired_, (std::vector<Timestamp>{2, 3}));
}

TEST_F(CompositeTest, ExpressionToString) {
  const auto expr = neg(primitive(1), seq(primitive(2), primitive(3), 5), 7);
  const std::string s = expr->to_string();
  EXPECT_NE(s.find("seq"), std::string::npos);
  EXPECT_NE(s.find("p1"), std::string::npos);
  EXPECT_NE(s.find("w=5"), std::string::npos);
}

TEST_F(CompositeTest, Validation) {
  EXPECT_THROW(seq(nullptr, primitive(1), 5), Error);
  EXPECT_THROW(seq(primitive(1), primitive(2), 0), Error);
  EXPECT_THROW(conj(primitive(1), primitive(2), -1), Error);
  EXPECT_THROW(neg(primitive(1), primitive(2), -1), Error);
  EXPECT_THROW(detector_.add(nullptr, [](const CompositeFiring&) {}), Error);
  EXPECT_THROW(detector_.add(primitive(1), nullptr), Error);
}

// --- window boundaries ------------------------------------------------------

TEST_F(CompositeTest, SequenceFiresExactlyAtWindow) {
  add(seq(primitive(1), primitive(2), 10));
  detector_.on_match(1, 5);
  detector_.on_match(2, 15);  // B - A == window: inclusive, fires
  ASSERT_EQ(fired_.size(), 1u);
  EXPECT_EQ(fired_[0], 15);

  detector_.on_match(1, 20);
  detector_.on_match(2, 31);  // one past the window: expired
  EXPECT_EQ(fired_.size(), 1u);
}

TEST_F(CompositeTest, ConjunctionFiresExactlyAtWindow) {
  add(conj(primitive(1), primitive(2), 10));
  detector_.on_match(2, 0);
  detector_.on_match(1, 10);  // spread == window: fires
  ASSERT_EQ(fired_.size(), 1u);
  EXPECT_EQ(fired_[0], 10);
}

TEST_F(CompositeTest, NegativeTimestampsAreLegitimate) {
  // -1 must behave as an ordinary instant, not as "never fired": the
  // sentinel is kCompositeNever, far outside the timestamp range.
  add(seq(primitive(1), primitive(2), 10));
  detector_.on_match(1, -5);
  detector_.on_match(2, -1);  // 4 <= 10 after A: fires at time -1
  ASSERT_EQ(fired_.size(), 1u);
  EXPECT_EQ(fired_[0], -1);

  fired_.clear();
  CompositeDetector other;
  other.add(disj(primitive(1), primitive(2)),
            [this](const CompositeFiring& f) { fired_.push_back(f.time); });
  other.on_match(1, -1);  // a lone firing at -1 must surface
  EXPECT_EQ(fired_, (std::vector<Timestamp>{-1}));
}

TEST_F(CompositeTest, NegationZeroWidthWindow) {
  // window 0: only a simultaneous blocker suppresses.
  add(neg(primitive(1), primitive(2), 0));
  detector_.on_match(1, 4);
  detector_.on_match(2, 5);  // blocker 1 earlier: outside the zero window
  EXPECT_EQ(fired_, (std::vector<Timestamp>{5}));

  ProfileId both[] = {1, 2};
  detector_.on_event(both, 6);  // simultaneous blocker suppresses
  EXPECT_EQ(fired_.size(), 1u);
}

TEST_F(CompositeTest, NegationIgnoresBlockerAfterCompletion) {
  // A blocker *later* than the completion must not suppress it (possible
  // only with out-of-order feeds; the detector must not misfire on the
  // signed arithmetic).
  add(neg(primitive(1), primitive(2), 10));
  detector_.on_match(1, 50);  // future blocker arrives first
  detector_.on_match(2, 45);  // completion earlier than the blocker: fires
  EXPECT_EQ(fired_, (std::vector<Timestamp>{45}));
}

// --- simultaneous stimuli (on_event) ---------------------------------------

TEST_F(CompositeTest, SimultaneousConjunctionCompletesInOneInstant) {
  add(conj(primitive(1), primitive(2), 10));
  ProfileId both[] = {1, 2};
  detector_.on_event(both, 7);
  EXPECT_EQ(fired_, (std::vector<Timestamp>{7}));
}

TEST_F(CompositeTest, SimultaneousSequenceStaysStrict) {
  add(seq(primitive(1), primitive(2), 10));
  ProfileId both[] = {1, 2};
  detector_.on_event(both, 7);  // "then" is strict: no firing
  EXPECT_TRUE(fired_.empty());
  detector_.on_match(2, 9);  // the A of instant 7 is armed, though
  EXPECT_EQ(fired_, (std::vector<Timestamp>{9}));
}

TEST_F(CompositeTest, SimultaneousNegationBlockerWins) {
  add(neg(primitive(1), primitive(2), 10));
  ProfileId both[] = {1, 2};
  detector_.on_event(both, 7);  // deterministic: the blocker suppresses
  EXPECT_TRUE(fired_.empty());
}

// --- re-entrant mutation ----------------------------------------------------

TEST_F(CompositeTest, ReentrantRemoveFromCallback) {
  // Removing subscriptions from inside a callback must not invalidate the
  // sweep. Both entries match the same stimulus; the first callback removes
  // BOTH entries — the second must then not fire at all.
  std::vector<CompositeId> ids;
  std::size_t first_fired = 0;
  std::size_t second_fired = 0;
  ids.push_back(detector_.add(disj(primitive(1), primitive(2)),
                              [&](const CompositeFiring&) {
                                ++first_fired;
                                detector_.remove(ids[0]);
                                detector_.remove(ids[1]);
                              }));
  ids.push_back(detector_.add(disj(primitive(1), primitive(3)),
                              [&](const CompositeFiring&) {
                                ++second_fired;
                              }));
  detector_.on_match(1, 5);
  EXPECT_EQ(first_fired, 1u);
  EXPECT_EQ(second_fired, 0u);  // removed mid-sweep: skipped
  EXPECT_EQ(detector_.subscription_count(), 0u);
  detector_.on_match(1, 6);
  EXPECT_EQ(first_fired, 1u);
}

TEST_F(CompositeTest, ReentrantAddFromCallback) {
  // An entry added from inside a callback joins after the sweep and sees
  // only later stimuli.
  std::size_t added_fired = 0;
  detector_.add(disj(primitive(1), primitive(2)), [&](const CompositeFiring&) {
    if (detector_.subscription_count() == 1) {
      detector_.add(disj(primitive(1), primitive(3)),
                    [&](const CompositeFiring&) { ++added_fired; });
    }
  });
  detector_.on_match(1, 5);
  EXPECT_EQ(detector_.subscription_count(), 2u);
  EXPECT_EQ(added_fired, 0u);  // not fed the triggering stimulus
  detector_.on_match(1, 6);
  EXPECT_EQ(added_fired, 1u);
}

TEST_F(CompositeTest, ReentrantAddThenRemoveInSameSweep) {
  CompositeId added = 0;
  detector_.add(disj(primitive(1), primitive(2)), [&](const CompositeFiring&) {
    added = detector_.add(disj(primitive(1), primitive(3)),
                          [](const CompositeFiring&) {});
    detector_.remove(added);  // removing a pending add cancels it
  });
  detector_.on_match(1, 5);
  EXPECT_EQ(detector_.subscription_count(), 1u);
  EXPECT_THROW(detector_.remove(added), Error);
}

TEST_F(CompositeTest, ReentrantDoubleRemoveThrows) {
  std::size_t throws = 0;
  CompositeId id = 0;
  id = detector_.add(disj(primitive(1), primitive(2)),
                     [&](const CompositeFiring&) {
                       detector_.remove(id);
                       try {
                         detector_.remove(id);  // already pending: unknown
                       } catch (const Error& e) {
                         EXPECT_EQ(e.code(), ErrorCode::kNotFound);
                         ++throws;
                       }
                     });
  detector_.on_match(1, 5);
  EXPECT_EQ(throws, 1u);
  EXPECT_EQ(detector_.subscription_count(), 0u);
}

// --- armed-state garbage collection ----------------------------------------

TEST_F(CompositeTest, ExpireBeforeClearsOnlyExpiredArms) {
  add(seq(primitive(1), primitive(2), 10));
  add(conj(primitive(3), primitive(4), 5));
  detector_.on_match(1, 100);  // arms the seq
  detector_.on_match(3, 100);  // arms the conj's left
  EXPECT_EQ(detector_.armed_count(), 2u);

  // Horizons at the window edges: an in-order completion at exactly
  // armed + window still fires (inclusive window), so neither may expire.
  detector_.expire_before(105);
  EXPECT_EQ(detector_.armed_count(), 2u);

  // One past the conj's window (100 + 5): its arm can never complete off an
  // in-order stimulus again; the seq's (window 10) survives.
  detector_.expire_before(106);
  EXPECT_EQ(detector_.armed_count(), 1u);
  detector_.expire_before(111);  // one past the seq's window
  EXPECT_EQ(detector_.armed_count(), 0u);

  // A *late* B inside the cleared arm's window misses its combination —
  // the same out-of-order contract the watermark already implies (the
  // horizon only ever advances to the watermark).
  detector_.on_match(2, 109);
  EXPECT_TRUE(fired_.empty());
}

TEST_F(CompositeTest, ExpireBeforeClearsNegBlockers) {
  add(neg(primitive(1), primitive(2), 10));
  detector_.on_match(1, 50);  // blocker armed
  EXPECT_EQ(detector_.armed_count(), 1u);
  detector_.expire_before(61);  // blocker window fully passed
  EXPECT_EQ(detector_.armed_count(), 0u);
  detector_.on_match(2, 70);  // no live blocker: fires
  EXPECT_EQ(fired_, (std::vector<Timestamp>{70}));
}

// --- watermark reorder stage ------------------------------------------------

class IngressTest : public ::testing::Test {
 protected:
  CompositeDetector detector_;
  CompositeIngress ingress_{detector_};
  std::vector<Timestamp> fired_;

  void add(const CompositeExprPtr& expr) {
    detector_.add(expr, [this](const CompositeFiring& f) {
      fired_.push_back(f.time);
    });
  }
};

TEST_F(IngressTest, ReordersWithinSkew) {
  add(seq(primitive(1), primitive(2), 10));
  ingress_.set_skew(5);
  // Delivered out of order: B@8 arrives before A@6. With skew 5 the
  // instants buffer and release sorted, so the seq still completes.
  ingress_.push(2, 8);
  ingress_.push(1, 6);
  EXPECT_TRUE(fired_.empty());  // watermark (8-5) has not passed 8 yet
  ingress_.push(3, 20);         // advances the watermark past both
  EXPECT_EQ(fired_, (std::vector<Timestamp>{8}));
}

TEST_F(IngressTest, SkewZeroReleasesAllEarlierInstants) {
  add(seq(primitive(1), primitive(2), 10));
  ingress_.push(1, 5);
  ingress_.push(2, 7);   // releases instant 5 (A armed); 7 still buffered
  EXPECT_TRUE(fired_.empty());
  ingress_.push(3, 8);   // releases instant 7: the seq completes
  EXPECT_EQ(fired_, (std::vector<Timestamp>{7}));
  EXPECT_EQ(ingress_.buffered(), 1u);  // instant 8 held back
}

TEST_F(IngressTest, FlushReleasesEverything) {
  add(conj(primitive(1), primitive(2), 10));
  ingress_.set_skew(1000);
  ingress_.push(2, 9);
  ingress_.push(1, 3);
  EXPECT_TRUE(fired_.empty());
  ingress_.flush();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{9}));
  EXPECT_EQ(ingress_.buffered(), 0u);
}

TEST_F(IngressTest, SimultaneousStimuliStaySimultaneous) {
  // Two stimuli of one instant arriving separately must still evaluate as
  // one on_event batch (the neg blocker wins deterministically).
  add(neg(primitive(1), primitive(2), 10));
  ingress_.push(2, 5);
  ingress_.push(1, 5);
  ingress_.flush();
  EXPECT_TRUE(fired_.empty());
}

TEST_F(IngressTest, LateStimuliAreFedNotDropped) {
  add(disj(primitive(1), primitive(2)));
  ingress_.push(1, 100);  // watermark at 100
  ingress_.flush();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{100}));
  ingress_.push(2, 3);  // far beyond the (zero) skew: released immediately
  EXPECT_EQ(fired_, (std::vector<Timestamp>{100, 3}));
}

TEST_F(IngressTest, RejectsNegativeSkew) {
  EXPECT_THROW(ingress_.set_skew(-1), Error);
}

TEST_F(IngressTest, AdvanceToReleasesLikeAStimulusWithoutBufferingOne) {
  add(seq(primitive(1), primitive(2), 10));
  ingress_.set_skew(5);
  ingress_.push(1, 6);
  ingress_.push(2, 8);
  EXPECT_TRUE(fired_.empty());  // both instants inside the skew
  EXPECT_EQ(ingress_.buffered(), 2u);

  ingress_.advance_to(20);  // time-driven tick: watermark 15 passes both
  EXPECT_EQ(fired_, (std::vector<Timestamp>{8}));
  EXPECT_EQ(ingress_.buffered(), 0u);
  EXPECT_EQ(ingress_.watermark(), 15);

  // Moving time backwards is a no-op (the watermark is monotone).
  ingress_.advance_to(3);
  EXPECT_EQ(ingress_.watermark(), 15);
}

TEST_F(IngressTest, AdvanceToBoundsBufferedMemoryOnSparseStreams) {
  // Memory-growth regression: with a large skew and no later stimuli, the
  // reorder buffer grows without bound; periodic time-driven ticks keep it
  // at the skew window regardless of stream length.
  add(disj(primitive(1), primitive(2)));
  ingress_.set_skew(64);
  std::size_t max_buffered = 0;
  for (Timestamp t = 0; t < 4096; t += 16) {
    ingress_.push(1, t);
    ingress_.advance_to(t);  // the external clock keeps pace
    max_buffered = std::max(max_buffered, ingress_.buffered());
  }
  // Watermark trails `now` by the skew: at most 64/16 + 1 instants stay
  // buffered. 256 instants pushed; all but the final skew window released.
  EXPECT_LE(max_buffered, 5u);
  EXPECT_EQ(fired_.size(), 251u);
  ingress_.flush();
  EXPECT_EQ(fired_.size(), 256u);
}

// --- redelivery dedup (at-least-once ingress) -------------------------------

TEST_F(IngressTest, RedeliveredTokensAreDroppedWithinTheWindow) {
  add(seq(primitive(1), primitive(2), 10));

  EXPECT_TRUE(ingress_.push(1, 5, 101));
  EXPECT_FALSE(ingress_.push(1, 5, 101));  // redelivery: dropped
  EXPECT_TRUE(ingress_.push(2, 7, 102));
  EXPECT_FALSE(ingress_.push(2, 7, 102));
  ingress_.flush();

  // The seq fired once; the duplicate stimuli never reached the detector.
  EXPECT_EQ(fired_, (std::vector<Timestamp>{7}));
  EXPECT_EQ(ingress_.dropped_duplicates(), 2u);
}

TEST_F(IngressTest, TokenZeroIsNeverDeduped) {
  add(disj(primitive(1), primitive(2)));
  EXPECT_TRUE(ingress_.push(1, 1, 0));
  EXPECT_TRUE(ingress_.push(1, 2, 0));  // untracked: both accepted
  ingress_.flush();
  EXPECT_EQ(fired_.size(), 2u);
  EXPECT_EQ(ingress_.dropped_duplicates(), 0u);
}

TEST_F(IngressTest, SameTokenDifferentProfilesAreDistinctStimuli) {
  // One redelivered event can legitimately stimulate several decomposed
  // leaves; dedup keys on (token, profile), not token alone.
  add(conj(primitive(1), primitive(2), 10));
  EXPECT_TRUE(ingress_.push(1, 5, 77));
  EXPECT_TRUE(ingress_.push(2, 5, 77));   // same token, other leaf: kept
  EXPECT_FALSE(ingress_.push(1, 5, 77));  // true redelivery: dropped
  ingress_.flush();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{5}));
  EXPECT_EQ(ingress_.dropped_duplicates(), 1u);
}

TEST_F(IngressTest, WindowEvictsOldestTokenFirst) {
  add(disj(primitive(1), primitive(2)));

  // Tokens 1..kCompositeDedupWindow fill the window; one more evicts 1.
  constexpr std::uint64_t kNewest = kCompositeDedupWindow + 1;
  for (std::uint64_t token = 1; token <= kNewest; ++token) {
    EXPECT_TRUE(ingress_.push(1, static_cast<Timestamp>(token), token));
  }

  // A redelivery older than the window slips through (the documented
  // memory/exactness trade); fresher ones are still caught.
  EXPECT_TRUE(ingress_.push(1, 1, 1));
  EXPECT_FALSE(ingress_.push(1, static_cast<Timestamp>(kNewest), kNewest));
  EXPECT_EQ(ingress_.dropped_duplicates(), 1u);
}

// --- profile leaves and the textual form -----------------------------------

TEST(CompositeExprText, ProfileLeavesRoundTripThroughToString) {
  const SchemaPtr schema = testutil::example1_schema();
  const auto expr = parse_composite(
      schema,
      "neg({radiation >= 5}, seq({temperature >= 35}, {humidity >= 90}, "
      "w=10), w=7)");
  ASSERT_TRUE(has_profile_leaves(*expr));
  EXPECT_EQ(expr->kind(), CompositeExpr::Kind::kNeg);
  EXPECT_EQ(expr->window(), 7);
  EXPECT_EQ(expr->right()->kind(), CompositeExpr::Kind::kSeq);

  // to_string() emits the parseable form; a re-parse is structurally equal.
  const std::string text = expr->to_string();
  const auto again = parse_composite(schema, text);
  EXPECT_EQ(again->to_string(), text);

  const auto leaves = leaf_nodes(*expr);
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_TRUE(leaves[0]->leaf_profile()->matches(Event::from_pairs(
      schema,
      {{"temperature", 0}, {"humidity", 0}, {"radiation", 7}})));
}

TEST(CompositeExprText, WindowAcceptsBareIntegers) {
  const SchemaPtr schema = testutil::example1_schema();
  const auto expr =
      parse_composite(schema, "conj({temperature >= 35}, {humidity >= 90}, 4)");
  EXPECT_EQ(expr->window(), 4);
}

TEST(CompositeExprText, ParseFailures) {
  const SchemaPtr schema = testutil::example1_schema();
  const auto expect_parse_error = [&](std::string_view text) {
    try {
      parse_composite(schema, text);
      FAIL() << "expected Error{kParse} for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse) << text;
    }
  };
  expect_parse_error("");
  expect_parse_error("bogus({temperature >= 35}, {humidity >= 90}, 4)");
  expect_parse_error("seq({temperature >= 35}, {humidity >= 90})");  // window
  expect_parse_error("seq({temperature >= 35}, {humidity >= 90}, -3)");
  expect_parse_error("seq({temperature >= 35, {humidity >= 90}, 3)");
  expect_parse_error("disj({temperature >= 35}, {humidity >= 90}) junk");
  expect_parse_error("{not a profile}");
  expect_parse_error("seq({temperature >= 35}, {humidity >= 90}, 3");
}

TEST(CompositeExprText, IdLeavesDoNotClaimProfiles) {
  const auto expr = seq(primitive(1), primitive(2), 10);
  EXPECT_FALSE(has_profile_leaves(*expr));
  EXPECT_EQ(expr->left()->leaf_profile(), nullptr);
}

}  // namespace
}  // namespace genas
