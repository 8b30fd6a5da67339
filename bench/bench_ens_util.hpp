// Shared fixture for the concurrency benches: the reference workload
// (10,000 equality profiles over a 3-attribute schema, gaussian event feed)
// served by the snapshot-based lock-free Broker.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dist/sampler.hpp"
#include "ens/broker.hpp"
#include "sim/workload.hpp"

namespace genas::bench {

/// The 10,000-profile equality workload of bench_throughput, wired into
/// the broker with a delivery-counting callback.
struct EnsFixture {
  SchemaPtr schema;
  JointDistribution joint;
  std::vector<Event> events;
  std::unique_ptr<Broker> snapshot_broker;
  /// Deliveries summed over publisher threads. The callback bumps a
  /// thread-local count (callbacks run on the publishing thread), so
  /// publishers never contend on a shared cache line per delivery; each
  /// publisher thread adds its count here once, via collect_deliveries(),
  /// when it finishes.
  std::atomic<std::uint64_t> delivered{0};

  void collect_deliveries() {
    delivered.fetch_add(std::exchange(thread_deliveries(), 0),
                        std::memory_order_relaxed);
  }

  explicit EnsFixture(std::size_t profile_count = 10000,
                      std::size_t event_count = 4096)
      : schema(SchemaBuilder()
                   .add_integer("a", 0, 99)
                   .add_integer("b", 0, 99)
                   .add_integer("c", 0, 99)
                   .build()),
        joint(make_event_distribution(schema, {"gauss"})) {
    ProfileWorkloadOptions options;
    options.count = profile_count;
    options.dont_care_probability = 0.2;
    options.equality_only = true;
    options.seed = 21;
    const ProfileSet profiles = generate_profiles(
        schema, make_profile_distributions(schema, {"gauss"}), options);

    snapshot_broker = std::make_unique<Broker>(schema);
    for (const ProfileId id : profiles.active_ids()) {
      snapshot_broker->subscribe(profiles.profile(id), [](const Notification&) {
        ++thread_deliveries();
      });
    }

    EventSampler sampler(joint, 22);
    events = sampler.sample_batch(event_count);

    // Prime the tree so the (expensive, one-off) 10k-profile build stays
    // out of the timed region.
    snapshot_broker->publish(events[0]);
    collect_deliveries();
  }

 private:
  /// This thread's uncollected deliveries (one fixture per process).
  static std::uint64_t& thread_deliveries() {
    thread_local std::uint64_t count = 0;
    return count;
  }
};

}  // namespace genas::bench
