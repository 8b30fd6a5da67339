// Tests for the adaptive controller: drift detection, cooldown, rebuilds.
#include <gtest/gtest.h>

#include "core/adaptive_filter.hpp"
#include "dist/sampler.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

SchemaPtr schema2() {
  return SchemaBuilder()
      .add_integer("x", 0, 19)
      .add_integer("y", 0, 19)
      .build();
}

using testutil::event_stream;
using testutil::peak_joint;

TEST(AdaptiveController, NoRebuildBeforeMinObservations) {
  const SchemaPtr schema = schema2();
  AdaptiveOptions options;
  options.min_observations = 100;
  AdaptiveController controller(schema, options);
  const auto stream = event_stream(peak_joint(schema, false), 100, 1);
  for (int i = 0; i < 99; ++i) controller.observe(stream[i]);
  EXPECT_FALSE(controller.should_rebuild());
  controller.observe(stream[99]);
  EXPECT_TRUE(controller.should_rebuild());  // no baseline yet
}

TEST(AdaptiveController, DriftTriggersRebuildAfterRegimeChange) {
  const SchemaPtr schema = schema2();
  AdaptiveOptions options;
  options.min_observations = 200;
  options.rebuild_cooldown = 200;
  options.drift_threshold = 0.5;
  options.decay = 0.995;  // forget the old regime
  AdaptiveController controller(schema, options);

  for (const Event& e : event_stream(peak_joint(schema, false), 500, 1)) {
    controller.observe(e);
  }
  controller.mark_rebuilt(controller.estimate());
  EXPECT_LT(controller.drift(), 0.2);
  EXPECT_FALSE(controller.should_rebuild());

  // Regime change: mass moves to the other end of x.
  for (const Event& e : event_stream(peak_joint(schema, true), 1500, 2)) {
    controller.observe(e);
  }
  EXPECT_GT(controller.drift(), 0.5);
  EXPECT_TRUE(controller.should_rebuild());

  controller.mark_rebuilt(controller.estimate());
  EXPECT_EQ(controller.rebuilds(), 2u);
  EXPECT_FALSE(controller.should_rebuild());  // cooldown + low drift
}

TEST(AdaptiveController, CooldownSuppressesThrashing) {
  const SchemaPtr schema = schema2();
  AdaptiveOptions options;
  options.min_observations = 10;
  options.rebuild_cooldown = 1000;
  options.drift_threshold = 0.0;  // always "drifted"
  AdaptiveController controller(schema, options);
  const auto stream = event_stream(peak_joint(schema, false), 550, 3);
  for (int i = 0; i < 50; ++i) controller.observe(stream[i]);
  controller.mark_rebuilt(controller.estimate());
  for (int i = 50; i < 550; ++i) controller.observe(stream[i]);
  EXPECT_FALSE(controller.should_rebuild()) << "cooldown must hold";
}

TEST(AdaptiveController, EstimateTracksObservedMarginals) {
  const SchemaPtr schema = schema2();
  AdaptiveController controller(schema, {});
  for (const Event& e : event_stream(peak_joint(schema, true), 3000, 4)) {
    controller.observe(e);
  }
  const JointDistribution estimate = controller.estimate();
  EXPECT_GT(estimate.marginal(0).mass(Interval{16, 19}), 0.8);
  EXPECT_EQ(controller.observations(), 3000u);
}

// Reference: the L1 distance between the smoothed estimate and the
// baseline's marginals, formed through DiscreteDistribution objects.
// drift() reads the histograms in place and must match it bit for bit.
double reference_drift(const AdaptiveController& controller) {
  if (!controller.baseline().has_value() || controller.observations() == 0) {
    return 0.0;
  }
  const JointDistribution estimate = controller.estimate();
  double worst = 0.0;
  for (AttributeId id = 0; id < estimate.schema()->attribute_count(); ++id) {
    worst = std::max(worst, DiscreteDistribution::l1_distance(
                                estimate.marginal(id),
                                controller.baseline()->marginal(id)));
  }
  return worst;
}

TEST(AdaptiveController, DriftEqualsEstimateFormulaAtEveryStep) {
  const SchemaPtr schema = schema2();
  AdaptiveOptions options;
  options.decay = 0.9;  // renormalizes the lazy decay scale every ~2,600 events
  options.smoothing = 0.25;
  AdaptiveController controller(schema, options);
  const JointDistribution low = peak_joint(schema, false);
  const JointDistribution high = peak_joint(schema, true);
  std::vector<Event> stream = event_stream(low, 2000, 11);
  const std::vector<Event> shifted = event_stream(high, 2000, 12);
  stream.insert(stream.end(), shifted.begin(), shifted.end());

  for (std::size_t i = 0; i < stream.size(); ++i) {
    controller.observe(stream[i]);
    if (i == 300 || i == 2500) controller.mark_rebuilt(controller.estimate());
    if (i == 1200) {
      // A mixture baseline, as a configured prior can be.
      controller.mark_rebuilt(JointDistribution::mixture(
          schema,
          {{low.marginal(0), low.marginal(1)},
           {high.marginal(0), high.marginal(1)}},
          {0.3, 0.7}));
    }
    ASSERT_EQ(controller.drift(), reference_drift(controller)) << "step " << i;
  }
  EXPECT_GT(controller.drift(), 0.0);
}

}  // namespace
}  // namespace genas
