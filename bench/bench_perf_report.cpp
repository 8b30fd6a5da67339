// Standalone perf report: measures the broker and matcher throughput
// numbers and emits them as JSON (BENCH_throughput.json), seeding the perf
// trajectory.
//
//   ./bench_perf_report [output.json] [--quick]
//
// Measured on the 10,000-equality-profile workload:
//   * matcher_flat_span_events_per_sec — raw single-thread match throughput
//     of the flat tree (no result copy, as the broker's publish path);
//   * broker_snapshot_{1,4}thread_events_per_sec — aggregate publish
//     events/sec at 1 and 4 publisher threads (the 4-thread figure is
//     meaningful only when the host grants ≥4 hardware threads, see
//     hardware_threads);
//   * snapshot_batch256_events_per_sec — the amortized batch pipeline;
//   * delivery_latency_p50_ns / p99 — publish-to-callback latency from the
//     broker's trace histogram (trace period 1 for the measurement window);
//   * obs_overhead_pct — what the default trace sampling costs the
//     single-thread snapshot path (vs. tracing disabled); the observability
//     acceptance budget is a few percent.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_ens_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace genas;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `body(i)` repeatedly for ~`budget` seconds; returns iterations/sec.
template <typename Body>
double measure_rate(double budget, const Body& body) {
  // Warm-up pass.
  for (std::size_t i = 0; i < 1024; ++i) body(i);
  std::size_t iterations = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while ((elapsed = seconds_since(start)) < budget) {
    for (std::size_t k = 0; k < 512; ++k) body(iterations++);
  }
  return static_cast<double>(iterations) / elapsed;
}

/// Aggregate events/sec of `threads` publishers on the fixture's broker.
double measure_threaded_rate(bench::EnsFixture& fixture, int threads,
                             double budget) {
  const std::size_t mask = fixture.events.size() - 1;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  const auto start = Clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t) * 997;
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 256; ++k) {
          fixture.snapshot_broker->publish(fixture.events[i++ & mask]);
        }
        local += 256;
      }
      total.fetch_add(local, std::memory_order_relaxed);
      fixture.collect_deliveries();
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(budget));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& worker : workers) worker.join();
  return static_cast<double>(total.load()) / seconds_since(start);
}

void put(std::ostream& os, const char* key, double value, bool last = false) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.1f", value);
  os << "  \"" << key << "\": " << buffer << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string output = "BENCH_throughput.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      output = argv[i];
    }
  }
  const double budget = quick ? 0.1 : 1.5;

  std::cerr << "building 10,000-profile fixture...\n";
  bench::EnsFixture fixture;
  const std::size_t mask = fixture.events.size() - 1;

  // Raw matcher throughput, single thread.
  OrderingPolicy policy;
  policy.strategy = SearchStrategy::kBinary;
  ProfileWorkloadOptions options;
  options.count = 10000;
  options.dont_care_probability = 0.2;
  options.equality_only = true;
  options.seed = 21;
  const ProfileSet profiles = generate_profiles(
      fixture.schema, make_profile_distributions(fixture.schema, {"gauss"}),
      options);
  const FlatProfileTree flat_tree =
      FlatProfileTree::compile(build_tree(profiles, policy, fixture.joint));
  const double flat_span_rate = measure_rate(budget, [&](std::size_t i) {
    const FlatMatch match = flat_tree.match(fixture.events[i & mask]);
    if (match.operations == UINT64_MAX) std::abort();  // keep it live
  });

  const double snapshot_1t = measure_threaded_rate(fixture, 1, budget);
  const double snapshot_4t = measure_threaded_rate(fixture, 4, budget);

  // Observability overhead: the same single-thread loop with trace sampling
  // off, against the headline run's default period. Positive = sampling
  // cost; small negative values are run-to-run noise.
  fixture.snapshot_broker->set_trace_period(0);
  const double snapshot_1t_untraced = measure_threaded_rate(fixture, 1, budget);
  const double obs_overhead_pct =
      snapshot_1t_untraced > 0
          ? 100.0 * (1.0 - snapshot_1t / snapshot_1t_untraced)
          : 0.0;

  // Delivery latency quantiles: trace every publish for one window, then
  // read the publish-to-callback histogram.
  fixture.snapshot_broker->set_trace_period(1);
  measure_threaded_rate(fixture, 1, budget);
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  {
    const obs::StatsSnapshot snap =
        fixture.snapshot_broker->metrics().snapshot();
    if (const obs::MetricSnapshot* delivery =
            snap.find("genas_broker_delivery_latency_ns")) {
      latency_p50 = obs::quantile(*delivery, 0.5);
      latency_p99 = obs::quantile(*delivery, 0.99);
    }
  }
  fixture.snapshot_broker->set_trace_period(obs::kDefaultTracePeriod);

  constexpr std::size_t kBatch = 256;
  const double batch_rate =
      kBatch * measure_rate(budget, [&](std::size_t i) {
        const std::size_t begin =
            (i * kBatch) % (fixture.events.size() - kBatch + 1);
        fixture.snapshot_broker->publish_batch(
            {fixture.events.data() + begin, kBatch});
      });

  // The per-thread delivery counts, summed: a broken fixture that delivers
  // nothing would report meaningless rates.
  const std::uint64_t delivered = fixture.delivered.load();
  std::cerr << "deliveries counted: " << delivered << "\n";
  if (delivered == 0) {
    std::cerr << "fixture delivered nothing\n";
    return 1;
  }

  std::ofstream os(output);
  os << "{\n";
  os << "  \"workload\": \"10000 equality profiles, 3x[0,99] schema, "
        "gauss events\",\n";
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  os << "  \"hardware_threads\": " << hardware_threads << ",\n";
  if (hardware_threads < 4) {
    os << "  \"note\": \"this host grants only " << hardware_threads
       << " hardware thread(s); multi-thread ratios are not meaningful "
          "here — see README 'Performance harness'\",\n";
  }
  put(os, "matcher_flat_span_events_per_sec", flat_span_rate);
  put(os, "broker_snapshot_1thread_events_per_sec", snapshot_1t);
  put(os, "broker_snapshot_4thread_events_per_sec", snapshot_4t);
  put(os, "snapshot_batch256_events_per_sec", batch_rate);
  put(os, "delivery_latency_p50_ns", latency_p50);
  put(os, "delivery_latency_p99_ns", latency_p99);
  put(os, "obs_overhead_pct", obs_overhead_pct, true);
  os << "}\n";
  std::cout << "wrote " << output << "\n";
  return 0;
}
