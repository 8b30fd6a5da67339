// The in-process workloads (static_eq10k, drift_churn_eq2k). Both drive one
// ens::Broker from
// closed-loop publisher threads, each on its own seeded event stream, and
// check every delivery against a NaiveMatcher oracle over the same
// profiles and events.
#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>

#include "core/filter_engine.hpp"
#include "dist/sampler.hpp"
#include "ens/broker.hpp"
#include "match/naive_matcher.hpp"
#include "sim/workload.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace genas;

/// When set, the subscriber callback also records the notified
/// subscription (oracle checks of the exact delivered set).
thread_local std::vector<SubscriptionId>* t_record = nullptr;
/// Deliveries to churned subscriptions, which the oracle does not cover.
thread_local std::uint64_t t_churn_delivered = 0;

/// Set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetups = 7;

/// The profile set is part of the workload's definition: it comes from
/// this fixed seed, while --seed drives the event streams and the churn
/// pool, so runs with different seeds load the same tree.
constexpr std::uint64_t kProfileSeed = 21;

struct Spec {
  std::size_t profile_count = 10000;
  EngineOptions engine;
  std::size_t threads = 1;
  std::size_t stream_events = 8192;  ///< per publisher, cycled
  /// Published events (over all publishers) per P_e regime block: gauss,
  /// then relocated gauss, and so on. 0 keeps gauss throughout.
  std::size_t regime_block = 0;
  /// Publisher 0 subscribes and unsubscribes a profile every this many
  /// events; 0 disables churn.
  std::size_t churn_every = 0;
  /// Check the exact delivered set on every timed publish (else on a
  /// separate untimed pass over every stream event, plus counts per
  /// publish).
  bool verify_sets_in_loop = false;
  std::size_t timing_stride = 8;
  /// Traced-run phase lengths (N publishers, 1 publisher) as shares of
  /// --seconds.
  double traced_multi_share = 0.4;
  double traced_single_share = 0.2;
};

struct Inputs {
  SchemaPtr schema;
  JointDistribution gauss;
  JointDistribution shifted;
  ProfileSet profiles;
  std::vector<Profile> churn_pool;
  /// One stream per (regime, publisher): index regime * threads + thread.
  std::vector<std::vector<Event>> streams;
  // Oracle: CSR of the profile ids each stream event must reach.
  std::vector<std::vector<std::uint32_t>> offsets;
  std::vector<std::vector<ProfileId>> expected;

  explicit Inputs(SchemaPtr s)
      : schema(s),
        gauss(make_event_distribution(s, {"gauss"})),
        shifted(make_event_distribution(s, {"gauss-high"})),
        profiles(s) {}

  std::span<const ProfileId> expected_for(std::size_t s, std::size_t k) const {
    return {expected[s].data() + offsets[s][k],
            expected[s].data() + offsets[s][k + 1]};
  }
};

ProfileSet make_equality_profiles(const SchemaPtr& schema, std::size_t count,
                                  std::uint64_t seed) {
  ProfileWorkloadOptions options;
  options.count = count;
  options.dont_care_probability = 0.2;
  options.equality_only = true;
  options.seed = seed;
  return generate_profiles(schema,
                           make_profile_distributions(schema, {"gauss"}),
                           options);
}

std::unique_ptr<Inputs> make_inputs(const Spec& spec, std::uint64_t seed) {
  auto inputs = std::make_unique<Inputs>(make_schema());
  const SchemaPtr& schema = inputs->schema;
  inputs->profiles =
      make_equality_profiles(schema, spec.profile_count, kProfileSeed);
  const ProfileSet pool =
      make_equality_profiles(schema, 64, derive_seed(seed, 2));
  for (const ProfileId id : pool.active_ids()) {
    inputs->churn_pool.push_back(pool.profile(id));
  }

  const std::size_t count = spec.threads * (spec.regime_block != 0 ? 2 : 1);
  inputs->streams.resize(count);
  inputs->offsets.resize(count);
  inputs->expected.resize(count);
  const NaiveMatcher oracle(inputs->profiles);
  std::vector<std::thread> workers;
  for (std::size_t s = 0; s < count; ++s) {
    workers.emplace_back([&, s] {
      const bool shifted = s >= spec.threads;
      EventSampler sampler(shifted ? inputs->shifted : inputs->gauss,
                           derive_seed(seed, 100 + s));
      std::vector<Event>& stream = inputs->streams[s];
      stream = sampler.sample_batch(spec.stream_events);
      std::vector<std::uint32_t>& offsets = inputs->offsets[s];
      std::vector<ProfileId>& expected = inputs->expected[s];
      offsets.push_back(0);
      for (const Event& event : stream) {
        const MatchOutcome outcome = oracle.match(event);
        expected.insert(expected.end(), outcome.matched.begin(),
                        outcome.matched.end());
        offsets.push_back(static_cast<std::uint32_t>(expected.size()));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return inputs;
}

/// A live broker with every profile subscribed.
struct Service {
  std::unique_ptr<Broker> broker;
  std::vector<SubscriptionId> subscription_of;  // by ProfileId
  std::size_t next_churn = 0;
};

void count_delivery(const Notification& n) {
  ++t_delivered;
  if (t_record != nullptr) t_record->push_back(n.subscription);
}

void count_churn_delivery(const Notification&) { ++t_churn_delivered; }

/// Builds the service up to its first published event (which builds the
/// tree); returns the seconds that took.
double set_up(const Spec& spec, const Inputs& inputs, Service& service) {
  service.broker.reset();
  const auto start = Clock::now();
  // Trees are built for gauss P_e (the engine's prior), not uniform.
  EngineOptions engine = spec.engine;
  engine.prior = inputs.gauss;
  service.broker = std::make_unique<Broker>(inputs.schema, std::move(engine));
  service.subscription_of.assign(inputs.profiles.capacity(), 0);
  for (const ProfileId id : inputs.profiles.active_ids()) {
    service.subscription_of[id] =
        service.broker->subscribe(inputs.profiles.profile(id), count_delivery);
  }
  service.broker->publish(inputs.streams[0][0]);
  return seconds_since(start);
}

void churn(const Inputs& inputs, Service& service) {
  const Profile& profile =
      inputs.churn_pool[service.next_churn++ % inputs.churn_pool.size()];
  SubscriptionId id = 0;
  {
    Span span("ens.subscribe");
    id = service.broker->subscribe(profile, count_churn_delivery);
  }
  Span span("ens.unsubscribe");
  service.broker->unsubscribe(id);
}

/// Deviations between what one publish delivered to stable subscriptions
/// and what the oracle expects (missing + extra + misdirected).
std::uint64_t deviations(std::vector<SubscriptionId>& delivered,
                         std::span<const ProfileId> expected,
                         const Service& service) {
  std::sort(delivered.begin(), delivered.end());
  std::uint64_t wrong = 0;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < delivered.size() || b < expected.size()) {
    if (a == delivered.size()) {
      ++wrong, ++b;
    } else if (b == expected.size()) {
      ++wrong, ++a;
    } else {
      const SubscriptionId want = service.subscription_of[expected[b]];
      if (delivered[a] == want) {
        ++a, ++b;
      } else if (delivered[a] < want) {
        ++wrong, ++a;
      } else {
        ++wrong, ++b;
      }
    }
  }
  return wrong;
}

/// Shared state of the publisher steps of one run.
struct Runner {
  Runner(const Spec& s, const Inputs& i, Service& v)
      : spec(s), inputs(i), service(v) {}

  const Spec& spec;
  const Inputs& inputs;
  Service& service;
  std::mutex mutex;
  std::uint64_t deviation_count = 0;         // guarded by mutex
  /// Deliveries the oracle expected over the whole run.
  std::uint64_t expected_total = 0;
  std::vector<double> rebuild_publish_ns;    // guarded by mutex
  /// Publishes counted over all publishers (drives the P_e regime).
  std::atomic<std::uint64_t> published{0};
  /// Per-event filter operations and events of the traced N-publisher
  /// phase, indexed by publish order (drift) or publisher 0's step.
  std::vector<std::uint32_t> logged_ops;
  std::vector<const Event*> logged_events;
  std::atomic<bool> log_ops{false};

  StepResult step(std::size_t t, std::uint64_t i) {
    thread_local std::vector<SubscriptionId> scratch;
    std::uint64_t order = i;
    std::size_t s = t;
    if (spec.regime_block != 0) {
      order = published.fetch_add(1, std::memory_order_relaxed);
      if ((order / spec.regime_block) % 2 == 1) s += spec.threads;
    }
    const std::size_t k = i % inputs.streams[s].size();
    const Event& event = inputs.streams[s][k];
    const std::span<const ProfileId> expected = inputs.expected_for(s, k);
    try {
      Span step_span("bench.step");
      if (t == 0 && spec.churn_every != 0 &&
          i % spec.churn_every == spec.churn_every - 1) {
        churn(inputs, service);
      }
      if (spec.verify_sets_in_loop) {
        scratch.clear();
        t_record = &scratch;
      }
      const std::uint64_t churn_before = t_churn_delivered;
      const std::uint64_t start = now_ns();
      PublishResult r;
      {
        Span span("ens.publish");
        r = service.broker->publish(event);
      }
      const std::uint64_t elapsed = now_ns() - start;
      t_record = nullptr;
      const std::uint64_t stable = r.notified - (t_churn_delivered - churn_before);
      std::uint64_t wrong = stable > expected.size() ? stable - expected.size()
                                                     : expected.size() - stable;
      if (spec.verify_sets_in_loop && wrong == 0) {
        wrong = deviations(scratch, expected, service);
      }
      if (log_ops.load(std::memory_order_relaxed) &&
          (spec.regime_block != 0 || t == 0) && order < logged_ops.size()) {
        logged_ops[order] = static_cast<std::uint32_t>(r.operations);
        logged_events[order] = &event;
      }
      if (r.rebuilt || wrong != 0) {
        const std::scoped_lock lock(mutex);
        if (r.rebuilt) rebuild_publish_ns.push_back(static_cast<double>(elapsed));
        deviation_count += wrong;
      }
      return {elapsed, r.operations, expected.size(), wrong != 0};
    } catch (const std::exception&) {
      t_record = nullptr;
      const std::scoped_lock lock(mutex);
      ++deviation_count;
      return {0, 0, expected.size(), true};
    }
  }

  LoopResult loop(std::size_t threads, double seconds,
                  bool alternate_tracing = false) {
    LoopPlan plan;
    plan.threads = threads;
    plan.seconds = seconds;
    plan.alternate_tracing = alternate_tracing;
    plan.timing_stride = spec.timing_stride;
    return run_closed_loop(plan, [this](std::size_t t, std::uint64_t i) {
      return step(t, i);
    });
  }
};

/// Untimed pass: every stream event once, exact delivered set checked.
/// Returns the summed filter operations.
std::uint64_t verify_all(Runner& runner, std::uint64_t& attempted) {
  std::vector<SubscriptionId> delivered;
  std::uint64_t operations = 0;
  for (std::size_t t = 0; t < runner.inputs.streams.size(); ++t) {
    for (std::size_t k = 0; k < runner.inputs.streams[t].size(); ++k) {
      delivered.clear();
      t_record = &delivered;
      ++attempted;
      try {
        const PublishResult r =
            runner.service.broker->publish(runner.inputs.streams[t][k]);
        operations += r.operations;
      } catch (const std::exception&) {
        ++runner.deviation_count;
      }
      t_record = nullptr;
      const std::span<const ProfileId> expected =
          runner.inputs.expected_for(t, k);
      runner.expected_total += expected.size();
      runner.deviation_count += deviations(delivered, expected, runner.service);
    }
  }
  return operations;
}

double ns_to_us(double ns) { return ns / 1e3; }

/// Medians over the untraced (even) and traced (odd) slices of a run with
/// alternating tracing.
std::pair<double, double> split_slices(const std::vector<double>& slices) {
  std::vector<double> untraced;
  std::vector<double> traced;
  for (std::size_t k = 0; k < slices.size(); ++k) {
    (k % 2 == 0 ? untraced : traced).push_back(slices[k]);
  }
  return {median(untraced), median(traced)};
}

/// The ens layer of a traced run: an N-publisher and a 1-publisher phase,
/// each alternating traced and untraced slices (tracing overhead, scaling,
/// publish call times, fan-out), forced rebuilds when the workload made
/// none, and the broker's own rebuild counters.
void traced_ens_phases(const Spec& spec, Runner& runner, const Options& options,
                       double match_ns_per_event, Result& result) {
  const std::size_t threads = spec.threads;
  Tracing::reset();
  runner.published = 0;
  runner.logged_ops.assign(std::size_t{1} << 20, 0);
  runner.logged_events.assign(runner.logged_ops.size(), nullptr);
  runner.log_ops = true;
  const LoopResult multi = runner.loop(
      threads, options.seconds * spec.traced_multi_share, true);
  runner.log_ops = false;
  const auto filled = static_cast<std::size_t>(
      std::find(runner.logged_events.begin(), runner.logged_events.end(),
                nullptr) -
      runner.logged_events.begin());
  runner.logged_ops.resize(filled);
  runner.logged_events.resize(filled);
  auto spans = Tracing::collect();
  const double publish_p50 = span_quantile_ns(spans, "ens.publish", 0.5);
  const double untraced_rate = split_slices(multi.events_per_sec).first;
  // Tracing overhead from the median call time of traced against untraced
  // slices (a rate would swing with the few calls that rebuild the tree).
  const auto [untraced_p50, traced_p50] = split_slices(multi.latency_p50_ns);

  std::vector<std::uint32_t> other;
  for (std::size_t t = threads > 1 ? 1 : 0; t < threads; ++t) {
    other.insert(other.end(), multi.thread_latency_ns[t].begin(),
                 multi.thread_latency_ns[t].end());
  }
  const double other_p99 = quantile(other, 0.99);

  Tracing::reset();
  const LoopResult single =
      runner.loop(1, options.seconds * spec.traced_single_share, true);
  spans = Tracing::collect();
  const double single_rate = split_slices(single.events_per_sec).first;
  // Median, not mean: a publish that rebuilds the tree is not fan-out.
  const double single_publish_p50 = span_quantile_ns(spans, "ens.publish", 0.5);
  const double deliveries_per_event =
      single.events == 0 ? 0
                         : static_cast<double>(single.delivered) /
                               static_cast<double>(single.events);
  const double fanout =
      deliveries_per_event > 0
          ? (single_publish_p50 - match_ns_per_event) / deliveries_per_event
          : 0;

  // Subscription churn without publishes: mutation calls only, no rebuild.
  Tracing::set_enabled(true);
  for (int round = 0; round < 256; ++round) {
    churn(runner.inputs, runner.service);
  }
  if (runner.rebuild_publish_ns.empty()) {
    // A static workload rebuilds only when its profile set changes: churn
    // one subscription and time the publish that rebuilds.
    for (int round = 0; round < 2; ++round) {
      churn(runner.inputs, runner.service);
      const std::uint64_t start = now_ns();
      const PublishResult r =
          runner.service.broker->publish(runner.inputs.streams[0][0]);
      if (r.rebuilt) {
        runner.rebuild_publish_ns.push_back(
            static_cast<double>(now_ns() - start));
      }
    }
  }
  spans = Tracing::collect();
  std::vector<std::uint32_t> mutation;
  for (const char* name : {"ens.subscribe", "ens.unsubscribe"}) {
    const auto it = spans.find(name);
    if (it == spans.end()) continue;
    mutation.insert(mutation.end(), it->second.durations_ns.begin(),
                    it->second.durations_ns.end());
  }
  Tracing::set_enabled(false);

  const obs::StatsSnapshot scrape = runner.service.broker->metrics().snapshot();

  result.add("ens.publish_ns_p50", publish_p50, "ns");
  result.add("ens.fanout_ns_per_delivery", fanout, "ns");
  result.add("ens.scaling_ratio",
             single_rate > 0 ? untraced_rate / single_rate : 0, "ratio");
  result.add("ens.rebuild_publish_ms_p50",
             median(runner.rebuild_publish_ns) / 1e6, "ms");
  result.add("ens.publish_us_p99_other_thread", ns_to_us(other_p99), "us");
  result.add("ens.subscribe_us_p50", ns_to_us(quantile(mutation, 0.5)),
             "us");
  result.add("ens.snapshot_rebuilds",
             static_cast<double>(
                 scrape.value("genas_broker_snapshot_rebuilds_total")),
             "count");
  result.add("ens.adaptive_rebuilds",
             static_cast<double>(
                 scrape.value("genas_broker_adaptive_rebuilds_total")),
             "count");
  result.add("bench.trace_overhead_pct",
             untraced_p50 > 0
                 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50
                 : 0,
             "%");
  result.add("bench.compute_scaling_ratio",
             compute_rate(threads, 0.25) / compute_rate(1, 0.25), "ratio");
  result.attempted += multi.attempted + single.attempted;
  runner.expected_total += multi.expected + single.expected;
  result.info["ens_probe_events"] =
      static_cast<double>(multi.events + single.events);
}

/// Mean filter operations of the logged events through `flat`.
double replay_ops(const FlatProfileTree& flat, const Runner& runner) {
  if (runner.logged_events.empty()) return 0;
  std::uint64_t total = 0;
  for (const Event* event : runner.logged_events) {
    total += flat.match(*event).operations;
  }
  return static_cast<double>(total) /
         static_cast<double>(runner.logged_events.size());
}

Result run_inprocess(const Spec& spec, const Options& options) {
  Result result;
  const auto inputs = make_inputs(spec, options.seed);
  Service service;
  Runner runner(spec, *inputs, service);

  if (!options.trace) {
    // Every set-up starts from the same process state: all but the last
    // run in forked children, the last one builds the service measured.
    std::vector<double> setups;
    for (std::size_t s = 1; s < kSetups; ++s) {
      setups.push_back(run_in_child([&] {
        Service scratch;
        return set_up(spec, *inputs, scratch);
      }));
    }
    setups.push_back(set_up(spec, *inputs, service));
    double ops_per_event = 0;
    if (!spec.verify_sets_in_loop) {
      const std::uint64_t before = result.attempted;
      const std::uint64_t ops = verify_all(runner, result.attempted);
      ops_per_event = static_cast<double>(ops) /
                      static_cast<double>(result.attempted - before);
    }
    const LoopResult loop = runner.loop(spec.threads, options.seconds);
    if (spec.verify_sets_in_loop) {
      ops_per_event = static_cast<double>(loop.operations) /
                      static_cast<double>(std::max<std::uint64_t>(loop.events, 1));
    }
    result.attempted += loop.attempted;
    runner.expected_total += loop.expected;
    result.add("events_per_sec", middle_mean(loop.events_per_sec), "events/s");
    result.add("deliveries_per_sec", middle_mean(loop.deliveries_per_sec),
               "deliveries/s");
    result.add("latency_p50_us", ns_to_us(middle_mean(loop.latency_p50_ns)),
               "us");
    result.add("latency_p99_us", ns_to_us(middle_mean(loop.latency_p99_ns)),
               "us");
    result.add("ops_per_event", ops_per_event, "ops");
    result.add("setup_s", median(setups), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.info["latency_samples"] = static_cast<double>(loop.latency_samples);
    result.info["timed_events"] = static_cast<double>(loop.events);
    result.info["rebuild_publishes"] =
        static_cast<double>(runner.rebuild_publish_ns.size());
    result.info["rebuild_publish_ms_p50"] =
        median(runner.rebuild_publish_ns) / 1e6;
  } else {
    set_up(spec, *inputs, service);
    if (!spec.verify_sets_in_loop) verify_all(runner, result.attempted);

    const auto static_flat =
        add_tree_metrics(result, inputs->profiles, spec.engine.policy,
                                   inputs->gauss, inputs->streams[0]);
    traced_ens_phases(spec, runner, options,
                      result.info["tree_match_ns_per_event"], result);
    add_core_metrics(result, runner.logged_ops, spec.regime_block,
                     replay_ops(*static_flat, runner));
    add_wire_metrics(result, inputs->streams[0]);
    add_socket_metrics(options.seed, result);
  }
  result.failed += runner.deviation_count;
  result.info["failed_ratio"] =
      static_cast<double>(runner.deviation_count) /
      static_cast<double>(
          std::max<std::uint64_t>(runner.expected_total, 1));
  return result;
}

}  // namespace

Result run_static_eq10k(const Options& options) {
  Spec spec;
  spec.profile_count = 10000;
  spec.engine.policy.value_order = ValueOrder::kEventProbability;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  spec.threads = std::min(4u, cores);
  spec.stream_events = 8192;
  spec.timing_stride = 8;
  return run_inprocess(spec, options);
}

Result run_drift_churn_eq2k(const Options& options) {
  Spec spec;
  spec.profile_count = 2000;
  spec.engine.policy.value_order = ValueOrder::kEventProbability;
  AdaptiveOptions adaptive;
  adaptive.decay = 0.999;
  spec.engine.adaptive = adaptive;
  spec.threads = 2;
  spec.regime_block = 2500;
  spec.stream_events = 20000;
  spec.churn_every = 1000;
  spec.verify_sets_in_loop = true;
  spec.timing_stride = 1;
  spec.traced_multi_share = 0.6;
  return run_inprocess(spec, options);
}

}  // namespace perfbench
