#include "support/hostile.hpp"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <utility>

#include "common/rng.hpp"
#include "event/event.hpp"
#include "profile/parser.hpp"
#include "profile/profile.hpp"

namespace genas::sim {

namespace {

/// Thread-safe observation sink (callbacks arrive from mesh workers).
class Log {
 public:
  void record(std::string entry) {
    const std::scoped_lock lock(mutex_);
    entries_.push_back(std::move(entry));
  }
  std::vector<std::string> sorted() {
    const std::scoped_lock lock(mutex_);
    std::vector<std::string> copy = entries_;
    std::sort(copy.begin(), copy.end());
    return copy;
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> entries_;
};

/// Overlapping plain subscriptions: coverage relations occur (kind >= 10
/// covers kind >= 40, …), so churn exercises promotion too.
const char* const kPlainProfiles[] = {
    "kind >= 10", "kind >= 40", "kind >= 70", "kind >= 85",
    "kind <= 25", "kind <= 55",
};

/// Composite expressions over the same attribute; windows generous enough
/// that the seeded stream completes them many times.
const char* const kComposites[] = {
    "seq({kind >= 60}, {kind <= 30}, w=40)",
    "conj({kind <= 20}, {kind >= 75}, w=60)",
    "disj({kind >= 90}, {kind <= 5})",
};

}  // namespace

SchemaPtr hostile_schema() {
  return SchemaBuilder()
      .add_integer("kind", 0, 99)
      .add_integer("id", 0, 1 << 20)
      .build();
}

HostileMeshRun run_hostile_mesh(const HostileMeshConfig& config) {
  const SchemaPtr schema = hostile_schema();
  constexpr std::size_t kPlainCount = std::size(kPlainProfiles);
  constexpr std::size_t kCompositeCount = std::size(kComposites);

  mesh::MeshOptions options;
  options.mode = config.mode;
  options.fault_plan = config.fault_plan;
  options.link_window = config.link_window;
  options.link_retransmit_interval = config.retransmit_interval;
  options.composite_skew = 1 << 20;  // buffer everything until flush

  mesh::MeshNetwork mesh(schema, options);
  for (std::size_t n = 0; n < config.nodes; ++n) mesh.add_node();
  for (std::size_t n = 1; n < config.nodes; ++n) {
    mesh.connect(static_cast<mesh::NodeId>(n - 1),
                 static_cast<mesh::NodeId>(n));
  }
  mesh.start();

  Log deliveries;
  Log firings;

  // Plain subscriptions round-robin over the chain, labeled by workload
  // index (stable across churn). Propagation is serialized per install —
  // covering state is install-order sensitive and the oracle needs both
  // runs to install identically.
  std::vector<SubscriptionId> plain_keys(kPlainCount);
  const auto subscribe_plain = [&](std::size_t index) {
    const auto at = static_cast<mesh::NodeId>(index % config.nodes);
    plain_keys[index] = mesh.subscribe(
        at, kPlainProfiles[index],
        [&deliveries, index, at](mesh::NodeId, SubscriptionId,
                                 const Event& event) {
          std::string entry = "s";
          entry += std::to_string(index);
          entry += "@n";
          entry += std::to_string(at);
          entry += ":e";
          entry += std::to_string(event.value("id").as_int());
          deliveries.record(std::move(entry));
        });
    mesh.wait_idle();
  };
  for (std::size_t i = 0; i < kPlainCount; ++i) subscribe_plain(i);

  for (std::size_t i = 0; i < kCompositeCount; ++i) {
    const auto at =
        static_cast<mesh::NodeId>((config.nodes - 1) - i % config.nodes);
    mesh.subscribe_composite(
        at, kComposites[i],
        [&firings, i](mesh::NodeId, SubscriptionId, Timestamp time) {
          std::string entry = "c";
          entry += std::to_string(i);
          entry += ":t";
          entry += std::to_string(time);
          firings.record(std::move(entry));
        });
    mesh.wait_idle();
  }

  // Seeded stream: publish at rotating nodes with unique timestamps.
  Rng rng(config.seed);
  const auto publish_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Event event = Event::from_pairs(
          schema, {{"kind", static_cast<std::int64_t>(rng.below(100))},
                   {"id", static_cast<std::int64_t>(i)}});
      event.set_time(static_cast<Timestamp>(i + 1));
      mesh.publish(static_cast<mesh::NodeId>(i % config.nodes),
                   std::move(event));
    }
  };

  const std::size_t half = config.events / 2;
  publish_range(0, half);

  if (config.churn) {
    // Barrier, then withdraw and re-register every other plain
    // subscription: unsubscribe propagation, covering promotion, and fresh
    // installs all run under the fault plan.
    mesh.wait_idle();
    for (std::size_t i = 0; i < kPlainCount; i += 2) {
      mesh.unsubscribe(plain_keys[i]);
      mesh.wait_idle();
    }
    for (std::size_t i = 0; i < kPlainCount; i += 2) subscribe_plain(i);
  }

  publish_range(half, config.events);

  mesh.wait_idle();
  mesh.flush_composites();
  mesh.shutdown();

  HostileMeshRun run;
  run.deliveries = deliveries.sorted();
  run.firings = firings.sorted();
  if (config.fault_plan != nullptr) run.faults = config.fault_plan->stats();
  run.first_error = mesh.first_error();
  return run;
}

}  // namespace genas::sim
