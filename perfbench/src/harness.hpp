// Shared machinery of the GENAS benchmark: run options, the result record,
// exact quantiles, the closed-loop publisher loop, the in-memory span
// recorder of traced runs, and the allocation counter.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "event/schema.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  ///< where a traced run writes its spans
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports. `metrics` holds the end-to-end metrics in an
/// untraced run and the per-layer metrics in a traced one; `info` carries
/// side facts (sample counts, oracle totals) printed before the result.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, double> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Deterministic sub-seed for one input stream of a run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// The schema every workload shares: three integer attributes over [0,99].
genas::SchemaPtr make_schema();

/// Exact q-quantile with linear interpolation between order statistics
/// (reorders `values`). Empty input gives 0.
template <typename T>
double quantile(std::vector<T>& values, double q) {
  if (values.empty()) return 0;
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  std::nth_element(values.begin(), values.begin() + lower, values.end());
  const double low = static_cast<double>(values[lower]);
  if (lower + 1 == values.size()) return low;
  const double high = static_cast<double>(
      *std::min_element(values.begin() + lower + 1, values.end()));
  return low + (position - static_cast<double>(lower)) * (high - low);
}
double median(std::vector<double> values);
/// Mean of the middle half of `values` (the interquartile mean): robust to
/// a few disturbed slices like the median, but it averages the rest, so
/// slices that each hold a few coarse events (tree rebuilds) do not make
/// it jump. Empty input gives 0.
double middle_mean(std::vector<double> values);

/// Peak resident set size of this process in MB (getrusage).
double peak_rss_mb();

// --- Closed-loop publishers ------------------------------------------------

/// Deliveries observed by subscriber callbacks on the calling thread. Each
/// callback bumps its publishing thread's own counter; run_closed_loop sums
/// them after the threads end, so no shared counter sits on the measured
/// path.
inline thread_local std::uint64_t t_delivered = 0;

/// Outcome of one step (one publish plus whatever the workload checks).
struct StepResult {
  std::uint64_t publish_ns = 0;  ///< the publish call alone
  std::uint64_t operations = 0;
  std::uint64_t expected = 0;  ///< deliveries the oracle expects
  bool failed = false;  ///< wrong deliveries, or the publish threw
};

/// A step runs one publish of publisher `thread`, event number `i` of its
/// own stream.
using Step = std::function<StepResult(std::size_t thread, std::uint64_t i)>;

struct LoopPlan {
  std::size_t threads = 1;
  double seconds = 1;  ///< timed window, split into kLoopSlices equal slices
  std::size_t timing_stride = 1;  ///< sample every n-th step of a thread
  /// Trace odd slices only, so traced and untraced rates come from
  /// interleaved slices of one run.
  bool alternate_tracing = false;
};

/// Slices of a closed-loop window. Rates and latency quantiles are taken
/// per slice and reported as the mean of the middle half of the slices
/// (middle_mean), so a passing disturbance of the host spoils a slice, not
/// the run.
inline constexpr std::size_t kLoopSlices = 10;

/// Per-slice aggregates of a closed-loop run.
struct LoopResult {
  std::vector<double> events_per_sec;      ///< per slice
  std::vector<double> deliveries_per_sec;  ///< per slice
  std::vector<double> latency_p50_ns;      ///< publish calls, per slice
  std::vector<double> latency_p99_ns;      ///< publish calls, per slice
  /// Per-thread publish call times (ns) over the whole window: a uniform
  /// sample of at most 32,768 per thread and slice.
  std::vector<std::vector<std::uint32_t>> thread_latency_ns;
  std::uint64_t latency_samples = 0;  ///< sampled steps
  std::uint64_t events = 0;      ///< steps completed inside the window
  std::uint64_t attempted = 0;   ///< every step, warm-up included
  std::uint64_t expected = 0;    ///< oracle deliveries of every step
  std::uint64_t failed = 0;
  std::uint64_t operations = 0;  ///< inside the window
  std::uint64_t delivered = 0;   ///< inside the window
};

/// Runs `plan.threads` publishers: each warms up, all start together, and
/// each steps its own stream until the window closes. Tracing is off
/// afterwards when `plan.alternate_tracing` is set.
LoopResult run_closed_loop(const LoopPlan& plan, const Step& step);

// --- Spans (traced runs) ----------------------------------------------------

/// Aggregate of one span name: call count, total and self time, and the
/// durations of the first kMaxDurations calls.
struct SpanStats {
  static constexpr std::size_t kMaxDurations = 1u << 20;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::vector<std::uint32_t> durations_ns;
};

/// In-memory span recorder. When enabled, every Span scope records (name,
/// start, end, parent, trace id); a span without an open parent starts a
/// new trace. Aggregates cover every span; raw records are kept up to a
/// per-thread cap and written out by write_spans().
class Tracing {
 public:
  static void set_enabled(bool enabled) noexcept;
  static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Merged aggregates by span name (call once every thread has ended).
  static std::map<std::string, SpanStats> collect();
  /// Drops every aggregate (between measurement phases); raw records stay
  /// for write_spans().
  static void reset();
  /// Writes the kept raw spans as JSON lines; returns the number written.
  static std::size_t write_spans(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span around one call into a layer. `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_;
};

/// Duration quantile (ns) of span `name`, or 0 when it never ran.
double span_quantile_ns(std::map<std::string, SpanStats>& spans,
                        const std::string& name, double q);

// --- Allocation counting -----------------------------------------------------

/// Counts heap allocations made by the calling thread while a scope lives
/// (the benchmark binary replaces the global operator new).
class AllocationCounter {
 public:
  AllocationCounter() noexcept;
  ~AllocationCounter();
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;
  std::uint64_t count() const noexcept;

 private:
  std::uint64_t start_;
};

/// Runs `body` in a forked child process and returns the number it
/// returns there. Each call starts from the same parent state (heap
/// included), so repeated set-up timings do not inherit each other's
/// fragmentation. Throws when the child fails.
double run_in_child(const std::function<double()>& body);

/// Pure-compute rate (iterations/s summed over `threads`) of a loop that
/// touches no shared state: the host's own scaling ceiling.
double compute_rate(std::size_t threads, double seconds);

}  // namespace perfbench
