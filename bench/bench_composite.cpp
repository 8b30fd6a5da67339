// Standalone composite-detection throughput report: events/sec through
// Broker::publish_batch with a population of composite subscriptions driving
// the detector, against the plain-subscription baseline on the identical
// workload, printed as `key = value` lines on stdout. Single-shot numbers
// for reading by hand; the repository's performance record is perfbench/.
//
//   ./bench_composite [--quick]
//
// Workload: 3-attribute schema, gauss events with an increasing timestamp
// axis; the composite population mixes seq/conj/disj/neg over range leaves.
// The baseline registers the same leaf profiles as plain subscriptions, so
// the delta is the detector + reorder-stage cost per delivered primitive.
//
// The *wide* workload is the dispatch-index case: hundreds of composites
// over selective bucket leaves, so each stimulus affects a handful of
// entries. It runs twice — per-leaf dispatch index on (the default) and off
// (the O(subscriptions) sweep) — and exits non-zero unless both produce
// the identical firing multiset; the two entries' ratio is the index speedup.
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "dist/sampler.hpp"
#include "ens/broker.hpp"
#include "sim/workload.hpp"

namespace {

using namespace genas;
using Clock = std::chrono::steady_clock;

std::vector<Event> make_events(const SchemaPtr& schema, std::size_t count) {
  const JointDistribution joint = make_event_distribution(schema, {"gauss"});
  EventSampler sampler(joint, 11);
  std::vector<Event> events = sampler.sample_batch(count);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].set_time(static_cast<Timestamp>(i));
  }
  return events;
}

/// Composite population: `count` subscriptions cycling through the four
/// operators, leaves sweeping the domain so selectivity varies.
void add_composites(Broker& broker, const SchemaPtr& schema,
                    std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t lo = static_cast<std::int64_t>((i * 7) % 80);
    const auto leaf = [&](const char* attr, std::int64_t at) {
      return primitive(ProfileBuilder(schema)
                           .where(attr, Op::kGe, Value(at))
                           .build());
    };
    CompositeExprPtr expr;
    switch (i % 4) {
      case 0:
        expr = seq(leaf("a0", lo), leaf("a1", lo / 2), 64);
        break;
      case 1:
        expr = conj(leaf("a1", lo), leaf("a2", lo / 2), 64);
        break;
      case 2:
        expr = disj(leaf("a0", lo + 10), leaf("a2", lo));
        break;
      default:
        expr = neg(leaf("a2", 90), leaf("a0", lo), 32);
        break;
    }
    broker.subscribe_composite(std::move(expr), [](const CompositeFiring&) {});
  }
}

/// The same leaves as plain subscriptions (the no-detector baseline).
void add_plain_leaves(Broker& broker, const SchemaPtr& schema,
                      std::size_t composites) {
  for (std::size_t i = 0; i < composites; ++i) {
    const std::int64_t lo = static_cast<std::int64_t>((i * 7) % 80);
    const auto sub = [&](const char* attr, std::int64_t at) {
      broker.subscribe(ProfileBuilder(schema)
                           .where(attr, Op::kGe, Value(at))
                           .build(),
                       [](const Notification&) {});
    };
    switch (i % 4) {
      case 0: sub("a0", lo); sub("a1", lo / 2); break;
      case 1: sub("a1", lo); sub("a2", lo / 2); break;
      case 2: sub("a0", lo + 10); sub("a2", lo); break;
      default: sub("a2", 90); sub("a0", lo); break;
    }
  }
}

/// Firing record of one run: count plus an order-insensitive multiset hash,
/// so index and sweep runs can assert bit-identical detection.
struct FiringDigest {
  std::uint64_t count = 0;
  std::uint64_t hash = 0;

  void record(const CompositeFiring& firing) {
    ++count;
    std::uint64_t h = firing.subscription * 0x9E3779B97F4A7C15ull;
    h ^= static_cast<std::uint64_t>(firing.time) + 0x517CC1B727220A95ull +
         (h << 6) + (h >> 2);
    hash += h;  // commutative: multiset equality, not order
  }

  bool operator==(const FiringDigest&) const = default;
};

/// Wide-subscription population: `count` composites over selective 2-wide
/// bucket leaves tiling each attribute domain, cycling the four operators.
/// Every event matches exactly one bucket per attribute, so a stimulus
/// affects ~count/50 entries — the workload the per-leaf dispatch index
/// exists for. Equal bucket leaves recur across composites, so the
/// refcounted dedup collapses the engine population to the distinct
/// buckets.
void add_wide_composites(Broker& broker, const SchemaPtr& schema,
                         std::size_t count, FiringDigest& digest) {
  const auto leaf = [&](const char* attr, std::size_t i,
                        std::size_t stride) {
    const auto lo = static_cast<std::int64_t>(((i + stride) * 2) % 100);
    return primitive(ProfileBuilder(schema)
                         .between(attr, Value(lo), Value(lo + 1))
                         .build());
  };
  for (std::size_t i = 0; i < count; ++i) {
    CompositeExprPtr expr;
    switch (i % 4) {
      case 0:
        expr = seq(leaf("a0", i, 0), leaf("a1", i, 17), 16);
        break;
      case 1:
        expr = conj(leaf("a1", i, 0), leaf("a2", i, 29), 16);
        break;
      case 2:
        expr = disj(leaf("a0", i, 11), leaf("a2", i, 0));
        break;
      default:
        expr = neg(leaf("a2", i, 7), leaf("a0", i, 3), 8);
        break;
    }
    broker.subscribe_composite(
        std::move(expr),
        [&digest](const CompositeFiring& f) { digest.record(f); });
  }
}

double measure(Broker& broker, const std::vector<Event>& events,
               bool flush_composites) {
  constexpr std::size_t kBatch = 256;
  // Warm-up pass builds trees and snapshots.
  broker.publish_batch({events.data(), std::min(kBatch, events.size())});

  const auto start = Clock::now();
  for (std::size_t at = 0; at < events.size(); at += kBatch) {
    const std::size_t n = std::min(kBatch, events.size() - at);
    broker.publish_batch({events.data() + at, n});
  }
  if (flush_composites) broker.flush_composites();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(events.size()) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  const SchemaPtr schema = SchemaBuilder()
                               .add_integer("a0", 0, 99)
                               .add_integer("a1", 0, 99)
                               .add_integer("a2", 0, 99)
                               .build();
  const std::vector<Event> events =
      make_events(schema, quick ? 20000 : 200000);
  const std::size_t composites = 120;

  std::vector<std::pair<std::string, double>> entries;

  {
    Broker broker(schema);
    add_plain_leaves(broker, schema, composites);
    const double rate = measure(broker, events, false);
    entries.emplace_back("composite_baseline_plain_events_per_sec", rate);
  }
  {
    Broker broker(schema);  // streaming detection: watermark at skew 64
    broker.set_composite_skew(64);
    add_composites(broker, schema, composites);
    const double rate = measure(broker, events, true);
    entries.emplace_back("composite_detect_skew64_events_per_sec", rate);
  }
  {
    Broker broker(schema);  // buffer-until-flush detection
    broker.set_composite_skew(1 << 30);
    add_composites(broker, schema, composites);
    const double rate = measure(broker, events, true);
    entries.emplace_back("composite_detect_flush_events_per_sec", rate);
  }

  // Wide-subscription case: dispatch index vs. the swept oracle baseline on
  // the identical workload; the firing multisets must agree exactly.
  const std::size_t wide = 480;
  FiringDigest index_digest;
  FiringDigest sweep_digest;
  {
    Broker broker(schema);
    broker.set_composite_skew(64);
    add_wide_composites(broker, schema, wide, index_digest);
    const double rate = measure(broker, events, true);
    entries.emplace_back("composite_detect_wide_index_events_per_sec", rate);
  }
  {
    Broker broker(schema);
    broker.set_composite_skew(64);
    broker.set_composite_index_enabled(false);  // O(subscriptions) sweep
    add_wide_composites(broker, schema, wide, sweep_digest);
    const double rate = measure(broker, events, true);
    entries.emplace_back("composite_detect_wide_sweep_events_per_sec", rate);
  }
  if (!(index_digest == sweep_digest)) {
    std::cerr << "FATAL: index and sweep firing multisets diverge ("
              << index_digest.count << " vs " << sweep_digest.count
              << " firings)\n";
    return 1;
  }
  std::cerr << "wide firing multiset identical across index/sweep: "
            << index_digest.count << " firings\n";

  for (const auto& [key, rate] : entries) {
    std::cout << key << " = " << static_cast<std::uint64_t>(rate) << "\n";
  }
  return 0;
}
