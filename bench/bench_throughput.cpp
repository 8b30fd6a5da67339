// Wall-clock throughput of the three matcher families (google-benchmark):
// tree (binary / V1-ordered linear) vs counting vs naive, sweeping the
// number of profiles. The paper reports operation counts; this bench
// confirms the operation-count advantage translates into wall-clock wins on
// real hardware.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "core/ordering_policy.hpp"
#include "dist/sampler.hpp"
#include "match/counting_matcher.hpp"
#include "match/naive_matcher.hpp"
#include "sim/workload.hpp"
#include "tree/flat_tree.hpp"

namespace {

using namespace genas;

struct Fixture {
  SchemaPtr schema;
  std::unique_ptr<ProfileSet> profiles;
  JointDistribution joint;
  std::vector<Event> events;
  /// Matchers and compiled trees cached per fixture: google-benchmark
  /// re-invokes each benchmark function several times and the
  /// 10,000-profile tree build is far too expensive to repeat outside
  /// BM_TreeBuild.
  std::map<std::string, std::unique_ptr<Matcher>> matchers;
  std::map<std::string, std::unique_ptr<const FlatProfileTree>> trees;

  explicit Fixture(std::size_t p)
      : schema(SchemaBuilder()
                   .add_integer("a", 0, 99)
                   .add_integer("b", 0, 99)
                   .add_integer("c", 0, 99)
                   .build()),
        joint(make_event_distribution(schema, {"gauss"})) {
    // Equality profiles — the paper prototype's mode (§4.2). Range profiles
    // are supported by the engine but inflate the DFSA at p = 10,000; the
    // range path is exercised by the tests and figure benches instead.
    ProfileWorkloadOptions options;
    options.count = p;
    options.dont_care_probability = 0.2;
    options.equality_only = true;
    options.seed = 21;
    profiles = std::make_unique<ProfileSet>(generate_profiles(
        schema, make_profile_distributions(schema, {"gauss"}), options));
    EventSampler sampler(joint, 22);
    events = sampler.sample_batch(1024);
  }
};

Fixture& fixture_for(std::size_t p) {
  // One fixture per profile count, built lazily and reused across benchmark
  // repetitions (construction is excluded from timing).
  static std::map<std::size_t, std::unique_ptr<Fixture>> cache;
  auto& slot = cache[p];
  if (!slot) slot = std::make_unique<Fixture>(p);
  return *slot;
}

template <typename MakeMatcher>
void run_matcher(benchmark::State& state, const std::string& key,
                 const MakeMatcher& make) {
  Fixture& fixture = fixture_for(static_cast<std::size_t>(state.range(0)));
  auto& matcher = fixture.matchers[key];
  if (!matcher) matcher = make(fixture);
  std::size_t i = 0;
  std::uint64_t matches = 0;
  for (auto _ : state) {
    const MatchOutcome outcome =
        matcher->match(fixture.events[i++ & 1023]);
    matches += outcome.matched.size();
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Naive(benchmark::State& state) {
  run_matcher(state, "naive", [](Fixture& f) {
    return std::make_unique<NaiveMatcher>(*f.profiles);
  });
}

void BM_Counting(benchmark::State& state) {
  run_matcher(state, "counting", [](Fixture& f) {
    return std::make_unique<CountingMatcher>(*f.profiles);
  });
}

/// Matches the compiled flat tree directly, as the broker's publish path
/// does (no owned result copy).
void run_tree(benchmark::State& state, const std::string& key,
              const OrderingPolicy& policy) {
  Fixture& fixture = fixture_for(static_cast<std::size_t>(state.range(0)));
  auto& tree = fixture.trees[key];
  if (!tree) {
    tree = std::make_unique<const FlatProfileTree>(FlatProfileTree::compile(
        build_tree(*fixture.profiles, policy, fixture.joint)));
  }
  std::size_t i = 0;
  std::uint64_t matches = 0;
  for (auto _ : state) {
    matches += tree->match(fixture.events[i++ & 1023]).matched_count;
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_TreeBinary(benchmark::State& state) {
  OrderingPolicy policy;
  policy.strategy = SearchStrategy::kBinary;
  run_tree(state, "tree-binary", policy);
}

void BM_TreeEventOrder(benchmark::State& state) {
  OrderingPolicy policy;
  policy.value_order = ValueOrder::kEventProbability;
  run_tree(state, "tree-v1", policy);
}

void BM_TreeBuild(benchmark::State& state) {
  Fixture& fixture = fixture_for(static_cast<std::size_t>(state.range(0)));
  OrderingPolicy policy;
  policy.strategy = SearchStrategy::kBinary;
  for (auto _ : state) {
    const FlatProfileTree tree = FlatProfileTree::compile(
        build_tree(*fixture.profiles, policy, fixture.joint));
    benchmark::DoNotOptimize(&tree);
  }
}

}  // namespace

BENCHMARK(BM_Naive)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Counting)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_TreeBinary)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_TreeEventOrder)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_TreeBuild)->Arg(1000)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
