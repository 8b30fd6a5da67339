// Multi-threaded wall-clock throughput of the lock-free snapshot broker
// (google-benchmark ->Threads sweep), single and batch publish, on the
// reference workload: 10,000 equality profiles, gaussian events.
//
//   ./bench_concurrent                        # full run
//   ./bench_concurrent --benchmark_min_time=0.01s   # CI smoke
//
// Aggregate items/sec across threads is the figure of merit; on a
// multi-core host the aggregate events/sec should scale with cores.
#include <benchmark/benchmark.h>

#include "bench_ens_util.hpp"

namespace {

using namespace genas;
using bench::EnsFixture;

EnsFixture& fixture() {
  static EnsFixture f;  // magic static: thread-safe one-time build
  return f;
}

void BM_SnapshotBrokerPublish(benchmark::State& state) {
  EnsFixture& f = fixture();
  std::size_t i = static_cast<std::size_t>(state.thread_index()) * 997;
  std::uint64_t notified = 0;
  for (auto _ : state) {
    notified += f.snapshot_broker->publish(f.events[i++ & 4095]).notified;
    benchmark::DoNotOptimize(notified);
  }
  f.collect_deliveries();
  state.SetItemsProcessed(state.iterations());
}

void BM_SnapshotBrokerPublishBatch(benchmark::State& state) {
  EnsFixture& f = fixture();
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::size_t i = static_cast<std::size_t>(state.thread_index()) * 997;
  for (auto _ : state) {
    const std::size_t begin = i % (f.events.size() - batch + 1);
    const std::span<const Event> events(f.events.data() + begin, batch);
    benchmark::DoNotOptimize(f.snapshot_broker->publish_batch(events));
    i += batch;
  }
  f.collect_deliveries();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}

}  // namespace

BENCHMARK(BM_SnapshotBrokerPublish)->Threads(1)->Threads(2)->Threads(4)
    ->Threads(8)->UseRealTime();
BENCHMARK(BM_SnapshotBrokerPublishBatch)->Arg(256)->Threads(1)->Threads(4)
    ->UseRealTime();

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  fixture();  // one-off 10k-profile build, outside every timed region
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
