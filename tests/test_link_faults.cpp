// Reliable mesh link tests: per-link sequencing, retransmission after
// drops, receiver-side duplicate/gap discard, quiescence with unacked
// frames in flight, and the FaultPlan's deterministic rule engine. A mesh
// sequences and acks its links exactly when it has a fault plan; the
// healthy-mesh cases use an empty plan.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "mesh/mesh.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

using mesh::MeshNetwork;
using mesh::MeshOptions;
using net::FaultAction;
using net::FaultPlan;
using net::kAnyLink;
using namespace std::chrono_literals;

MeshOptions reliable_options(
    std::shared_ptr<FaultPlan> plan = std::make_shared<FaultPlan>()) {
  MeshOptions options;
  options.fault_plan = std::move(plan);
  options.link_retransmit_interval = 500us;
  // One event per frame: the fault plans here meter drops/dups/reorders in
  // transmissions, and these tests size their bursts assuming each event is
  // one. (Batched frames under faults are covered by BatchedLinks below.)
  options.link_batch_max = 1;
  return options;
}

Event make_event(const SchemaPtr& schema, int temperature, Timestamp time) {
  return Event::from_pairs(
      schema,
      {{"temperature", temperature}, {"humidity", 95}, {"radiation", 1}},
      time);
}

/// Sums one LinkStats field across every link of every node.
template <typename Member>
std::uint64_t total(const MeshNetwork& mesh, std::size_t nodes, Member field) {
  std::uint64_t sum = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    for (const auto& link : mesh.link_stats(static_cast<mesh::NodeId>(n))) {
      sum += link.*field;
    }
  }
  return sum;
}

// ---------------------------------------------------------------------------
// FaultPlan rule engine.

TEST(FaultPlan, NthRulesFireExactlyOncePerDirectedLink) {
  FaultPlan plan(7);
  plan.drop_nth(1, 2, 3);

  EXPECT_EQ(plan.apply(1, 2), FaultAction::kNone);
  EXPECT_EQ(plan.apply(2, 1), FaultAction::kNone);  // other direction
  EXPECT_EQ(plan.apply(1, 2), FaultAction::kNone);
  EXPECT_EQ(plan.apply(1, 2), FaultAction::kDrop);  // the 3rd frame on 1->2
  EXPECT_EQ(plan.apply(1, 2), FaultAction::kNone);  // spent

  const FaultPlan::Stats stats = plan.stats();
  EXPECT_EQ(stats.frames, 5u);
  EXPECT_EQ(stats.dropped, 1u);
}

TEST(FaultPlan, WildcardMatchesEveryLinkButCountsPerLink) {
  FaultPlan plan(7);
  plan.duplicate_nth(kAnyLink, kAnyLink, 2);

  EXPECT_EQ(plan.apply(5, 6), FaultAction::kNone);
  EXPECT_EQ(plan.apply(8, 9), FaultAction::kNone);  // 1st on its own link
  EXPECT_EQ(plan.apply(5, 6), FaultAction::kDuplicate);
  EXPECT_EQ(plan.apply(8, 9), FaultAction::kNone);  // rule already spent
}

TEST(FaultPlan, ChanceRulesHonorTheirBudget) {
  FaultPlan plan(42);
  plan.drop_chance(kAnyLink, kAnyLink, 1.0, 3);

  std::uint64_t dropped = 0;
  for (int i = 0; i < 10; ++i) {
    if (plan.apply(0, 1) == FaultAction::kDrop) ++dropped;
  }
  EXPECT_EQ(dropped, 3u);
  EXPECT_EQ(plan.stats().dropped, 3u);
}

TEST(FaultPlan, UnboundedOrInvalidChanceRulesAreRejected) {
  FaultPlan plan(1);
  EXPECT_THROW(plan.drop_chance(0, 1, 0.5, 0), Error);   // no budget
  EXPECT_THROW(plan.drop_chance(0, 1, -0.1, 5), Error);  // bad probability
  EXPECT_THROW(plan.drop_chance(0, 1, 1.5, 5), Error);
}

TEST(FaultPlan, SameSeedSameSchedule) {
  const auto draw = [](std::uint64_t seed) {
    FaultPlan plan(seed);
    plan.drop_chance(kAnyLink, kAnyLink, 0.5, 1000);
    std::vector<int> actions;
    for (int i = 0; i < 64; ++i) {
      actions.push_back(static_cast<int>(plan.apply(0, 1)));
    }
    return actions;
  };
  EXPECT_EQ(draw(99), draw(99));
  EXPECT_NE(draw(99), draw(100));
}

TEST(FaultPlan, FirstMatchingRuleWins) {
  FaultPlan plan(7);
  plan.delay_nth(1, 2, 1);
  plan.drop_nth(1, 2, 1);  // shadowed by the delay rule
  EXPECT_EQ(plan.apply(1, 2), FaultAction::kDelay);
  EXPECT_EQ(plan.stats().delayed, 1u);
  EXPECT_EQ(plan.stats().dropped, 0u);
}

// ---------------------------------------------------------------------------
// Reliable links on a live mesh.

TEST(ReliableLinks, DroppedFramesAreRetransmittedAndDelivered) {
  const SchemaPtr schema = testutil::example1_schema();
  auto plan = std::make_shared<FaultPlan>(3);
  plan->drop_nth(0, 1, 2);
  plan->drop_chance(0, 1, 0.3, 10);

  MeshNetwork mesh(schema, reliable_options(plan));
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.start();

  std::mutex mutex;
  std::vector<Timestamp> seen;
  mesh.subscribe(1, "temperature >= 35",
                 [&](mesh::NodeId, SubscriptionId, const Event& event) {
                   const std::scoped_lock lock(mutex);
                   seen.push_back(event.time());
                 });
  mesh.wait_idle();

  constexpr int kEvents = 50;
  for (int i = 0; i < kEvents; ++i) {
    mesh.publish(0, make_event(schema, 40, i + 1));
  }
  mesh.wait_idle();

  {
    const std::scoped_lock lock(mutex);
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(kEvents));
  }
  EXPECT_GT(plan->stats().dropped, 0u);
  // Every drop forced at least one retransmission somewhere.
  EXPECT_GT(total(mesh, 2, &mesh::LinkStats::retransmits), 0u);
  EXPECT_EQ(mesh.first_error(), "");
  mesh.shutdown();
}

TEST(ReliableLinks, DuplicatedFramesAreDiscardedByTheReceiver) {
  const SchemaPtr schema = testutil::example1_schema();
  auto plan = std::make_shared<FaultPlan>(5);
  plan->duplicate_chance(0, 1, 1.0, 20);

  MeshNetwork mesh(schema, reliable_options(plan));
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.start();

  std::mutex mutex;
  std::vector<Timestamp> seen;
  mesh.subscribe(1, "temperature >= 35",
                 [&](mesh::NodeId, SubscriptionId, const Event& event) {
                   const std::scoped_lock lock(mutex);
                   seen.push_back(event.time());
                 });
  mesh.wait_idle();

  for (int i = 0; i < 30; ++i) {
    mesh.publish(0, make_event(schema, 40, i + 1));
  }
  mesh.wait_idle();

  {
    const std::scoped_lock lock(mutex);
    EXPECT_EQ(seen.size(), 30u);  // exactly once despite duplication
  }
  EXPECT_GT(plan->stats().duplicated, 0u);
  EXPECT_GT(total(mesh, 2, &mesh::LinkStats::dup_frames), 0u);
  EXPECT_EQ(mesh.first_error(), "");
  mesh.shutdown();
}

TEST(ReliableLinks, DelayedFramesAreReorderedButDeliveredExactlyOnce) {
  const SchemaPtr schema = testutil::example1_schema();
  auto plan = std::make_shared<FaultPlan>(11);
  plan->delay_chance(0, 1, 0.4, 15);

  MeshNetwork mesh(schema, reliable_options(plan));
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.start();

  std::mutex mutex;
  std::vector<Timestamp> seen;
  mesh.subscribe(1, "temperature >= 35",
                 [&](mesh::NodeId, SubscriptionId, const Event& event) {
                   const std::scoped_lock lock(mutex);
                   seen.push_back(event.time());
                 });
  mesh.wait_idle();

  for (int i = 0; i < 40; ++i) {
    mesh.publish(0, make_event(schema, 40, i + 1));
  }
  mesh.wait_idle();

  std::vector<Timestamp> sorted_seen;
  {
    const std::scoped_lock lock(mutex);
    sorted_seen = seen;
  }
  std::sort(sorted_seen.begin(), sorted_seen.end());
  ASSERT_EQ(sorted_seen.size(), 40u);
  for (std::size_t i = 0; i < sorted_seen.size(); ++i) {
    EXPECT_EQ(sorted_seen[i], static_cast<Timestamp>(i + 1));
  }
  EXPECT_GT(plan->stats().delayed, 0u);
  EXPECT_EQ(mesh.first_error(), "");
  mesh.shutdown();
}

TEST(ReliableLinks, SmallWindowStillDrainsUnderLoss) {
  // A window far smaller than the burst forces the sender to hold frames
  // back until acks arrive; combined with loss, wait_idle() must still
  // reach quiescence (every frame eventually acked).
  const SchemaPtr schema = testutil::example1_schema();
  auto plan = std::make_shared<FaultPlan>(17);
  plan->drop_chance(kAnyLink, kAnyLink, 0.2, 30);

  MeshOptions options = reliable_options(plan);
  options.link_window = 4;
  MeshNetwork mesh(schema, options);
  mesh.add_node();
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.connect(1, 2);
  mesh.start();

  std::mutex mutex;
  std::size_t count = 0;
  mesh.subscribe(2, "temperature >= 35",
                 [&](mesh::NodeId, SubscriptionId, const Event&) {
                   const std::scoped_lock lock(mutex);
                   ++count;
                 });
  mesh.wait_idle();

  constexpr int kEvents = 64;
  for (int i = 0; i < kEvents; ++i) {
    mesh.publish(0, make_event(schema, 40, i + 1));
  }
  mesh.wait_idle();

  {
    const std::scoped_lock lock(mutex);
    EXPECT_EQ(count, static_cast<std::size_t>(kEvents));
  }
  EXPECT_EQ(mesh.first_error(), "");
  mesh.shutdown();
}

TEST(ReliableLinks, StatsStayZeroOnAHealthyMesh) {
  const SchemaPtr schema = testutil::example1_schema();
  // A generous retransmit interval: this test asserts the counters stay
  // zero, and a worker descheduled past a 500us timer under parallel test
  // load would count a spurious (correct but unwanted here) retransmit.
  MeshOptions options = reliable_options();
  options.link_retransmit_interval = std::chrono::milliseconds(200);
  MeshNetwork mesh(schema, options);
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.start();

  mesh.subscribe(1, "temperature >= 35",
                 [](mesh::NodeId, SubscriptionId, const Event&) {});
  mesh.wait_idle();
  for (int i = 0; i < 10; ++i) {
    mesh.publish(0, make_event(schema, 40, i + 1));
  }
  mesh.wait_idle();

  EXPECT_EQ(total(mesh, 2, &mesh::LinkStats::dup_frames), 0u);
  EXPECT_EQ(total(mesh, 2, &mesh::LinkStats::gap_frames), 0u);
  EXPECT_EQ(mesh.first_error(), "");
  mesh.shutdown();
}

TEST(ReliableLinks, ShutdownWaitsForUnackedFramesUnderLoss) {
  // Publish a burst into lossy links and shut down immediately: shutdown
  // must wait for retransmission to finish, so nothing is lost.
  const SchemaPtr schema = testutil::example1_schema();
  auto plan = std::make_shared<FaultPlan>(23);
  plan->drop_chance(kAnyLink, kAnyLink, 0.25, 25);

  MeshNetwork mesh(schema, reliable_options(plan));
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.start();

  std::mutex mutex;
  std::size_t count = 0;
  mesh.subscribe(1, "temperature >= 35",
                 [&](mesh::NodeId, SubscriptionId, const Event&) {
                   const std::scoped_lock lock(mutex);
                   ++count;
                 });
  mesh.wait_idle();

  constexpr int kEvents = 40;
  for (int i = 0; i < kEvents; ++i) {
    mesh.publish(0, make_event(schema, 40, i + 1));
  }
  mesh.shutdown();  // no wait_idle: shutdown itself must drain the links

  EXPECT_EQ(count, static_cast<std::size_t>(kEvents));
  EXPECT_EQ(mesh.first_error(), "");
}

TEST(ReliableLinks, FaultCountersSurfaceRetransmitsDupsAndGaps) {
  // One seeded plan injecting both loss and duplication: after the burst
  // drains, retransmits (sender gave a frame a second try), dup_frames
  // (receiver discarded a redelivery), and gap_frames (a frame arrived
  // ahead of a dropped predecessor) are all nonzero — and the same totals
  // surface through the observability snapshot as labeled link metrics.
  const SchemaPtr schema = testutil::example1_schema();
  auto plan = std::make_shared<FaultPlan>(31);
  plan->drop_chance(0, 1, 0.3, 20);
  plan->duplicate_chance(0, 1, 0.3, 20);

  MeshNetwork mesh(schema, reliable_options(plan));
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.start();

  std::mutex mutex;
  std::size_t count = 0;
  mesh.subscribe(1, "temperature >= 35",
                 [&](mesh::NodeId, SubscriptionId, const Event&) {
                   const std::scoped_lock lock(mutex);
                   ++count;
                 });
  mesh.wait_idle();

  constexpr int kEvents = 80;
  for (int i = 0; i < kEvents; ++i) {
    mesh.publish(0, make_event(schema, 40, i + 1));
  }
  mesh.wait_idle();

  {
    const std::scoped_lock lock(mutex);
    EXPECT_EQ(count, static_cast<std::size_t>(kEvents));
  }
  EXPECT_GT(plan->stats().dropped, 0u);
  EXPECT_GT(plan->stats().duplicated, 0u);

  const std::uint64_t retransmits =
      total(mesh, 2, &mesh::LinkStats::retransmits);
  const std::uint64_t dups = total(mesh, 2, &mesh::LinkStats::dup_frames);
  const std::uint64_t gaps = total(mesh, 2, &mesh::LinkStats::gap_frames);
  EXPECT_GT(retransmits, 0u);
  EXPECT_GT(dups, 0u);
  EXPECT_GT(gaps, 0u);

  // The obs snapshot synthesizes the same counters, per directed link.
  const obs::StatsSnapshot snapshot = mesh.stats_snapshot();
  const auto link_total = [&](const char* base) {
    std::int64_t sum = 0;
    for (const obs::MetricSnapshot& metric : snapshot.metrics) {
      if (metric.name.rfind(base, 0) == 0) sum += metric.value;
    }
    return sum;
  };
  EXPECT_EQ(link_total("genas_mesh_link_retransmits_total"),
            static_cast<std::int64_t>(retransmits));
  EXPECT_EQ(link_total("genas_mesh_link_dup_frames_total"),
            static_cast<std::int64_t>(dups));
  EXPECT_EQ(link_total("genas_mesh_link_gap_frames_total"),
            static_cast<std::int64_t>(gaps));

  EXPECT_EQ(mesh.first_error(), "");
  mesh.shutdown();
}

TEST(ReliableLinks, FaultCountersStayZeroOnACleanRun) {
  const SchemaPtr schema = testutil::example1_schema();
  // See StatsStayZeroOnAHealthyMesh: zero-counter assertions need a timer
  // that cannot fire from scheduling noise alone.
  MeshOptions options = reliable_options();
  options.link_retransmit_interval = std::chrono::milliseconds(200);
  MeshNetwork mesh(schema, options);
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.start();

  mesh.subscribe(1, "temperature >= 35",
                 [](mesh::NodeId, SubscriptionId, const Event&) {});
  mesh.wait_idle();
  for (int i = 0; i < 20; ++i) {
    mesh.publish(0, make_event(schema, 40, i + 1));
  }
  mesh.wait_idle();

  EXPECT_EQ(total(mesh, 2, &mesh::LinkStats::retransmits), 0u);
  EXPECT_EQ(total(mesh, 2, &mesh::LinkStats::dup_frames), 0u);
  EXPECT_EQ(total(mesh, 2, &mesh::LinkStats::gap_frames), 0u);
  EXPECT_EQ(mesh.first_error(), "");
  mesh.shutdown();
}

}  // namespace
}  // namespace genas
