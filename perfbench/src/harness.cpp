#include "harness.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/rng.hpp"

// --- Allocation counting -----------------------------------------------------
//
// The benchmark binary replaces the global allocation functions so that the
// wire layer's "zero allocations per decoded event" claim is measured, not
// assumed. Each thread counts its own allocations.

namespace {
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + stream;
  genas::splitmix64(state);
  return genas::splitmix64(state);
}

genas::SchemaPtr make_schema() {
  return genas::SchemaBuilder()
      .add_integer("a0", 0, 99)
      .add_integer("a1", 0, 99)
      .add_integer("a2", 0, 99)
      .build();
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double middle_mean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t trim = values.size() / 4;
  double total = 0;
  for (std::size_t i = trim; i < values.size() - trim; ++i) total += values[i];
  return total / static_cast<double>(values.size() - 2 * trim);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Closed-loop publishers ------------------------------------------------

LoopResult run_closed_loop(const LoopPlan& plan, const Step& step) {
  const std::size_t threads = std::max<std::size_t>(plan.threads, 1);
  constexpr std::size_t slices = kLoopSlices;
  constexpr double kWarmupSeconds = 0.3;
  const std::size_t stride = std::max<std::size_t>(plan.timing_stride, 1);
  const auto window_ns = static_cast<std::uint64_t>(plan.seconds * 1e9);
  const std::uint64_t slice_ns = std::max<std::uint64_t>(window_ns / slices, 1);

  // Publish call times are kept as a fixed-size uniform sample (reservoir)
  // per thread and slice, allocated and touched up front: the benchmark's
  // own memory then does not grow with the throughput it measures.
  constexpr std::size_t kReservoir = std::size_t{1} << 15;
  struct ThreadLog {
    std::vector<std::uint64_t> events, delivered, operations;
    std::vector<std::vector<std::uint32_t>> latency;
    std::vector<std::uint64_t> timed;  // latency samples offered per slice
    std::uint64_t attempted = 0;
    std::uint64_t expected = 0;
    std::uint64_t failed = 0;
  };
  std::vector<ThreadLog> logs(threads);
  for (ThreadLog& log : logs) {
    log.events.assign(slices, 0);
    log.delivered.assign(slices, 0);
    log.operations.assign(slices, 0);
    log.timed.assign(slices, 0);
    log.latency.assign(slices, std::vector<std::uint32_t>(kReservoir, 0));
  }

  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> start_ns{0};

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadLog& log = logs[t];
      std::uint64_t i = 0;
      const auto run_step = [&] {
        const StepResult r = step(t, i++);
        ++log.attempted;
        log.expected += r.expected;
        if (r.failed) ++log.failed;
        return r;
      };
      // Warm-up: snapshot caches, scratch buffers and branch predictors
      // settle before any timing starts.
      const std::uint64_t warm_end =
          now_ns() + static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
      while (now_ns() < warm_end) {
        for (int k = 0; k < 16; ++k) run_step();
      }
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();

      const std::uint64_t start = start_ns.load();
      std::uint64_t pending_events = 0;
      std::uint64_t pending_ops = 0;
      std::uint64_t delivered_mark = t_delivered;
      std::uint64_t random = 0x9E3779B97F4A7C15ULL ^ (t + 1);
      for (std::uint64_t n = 0;; ++n) {
        const StepResult r = run_step();
        ++pending_events;
        pending_ops += r.operations;
        if (n % stride != 0) continue;
        const std::uint64_t slice = (now_ns() - start) / slice_ns;
        if (slice >= slices) break;
        log.events[slice] += pending_events;
        log.operations[slice] += pending_ops;
        log.delivered[slice] += t_delivered - delivered_mark;
        const std::uint64_t seen = log.timed[slice]++;
        std::uint64_t at = seen;
        if (seen >= kReservoir) {
          random ^= random << 13;
          random ^= random >> 7;
          random ^= random << 17;
          at = random % (seen + 1);
        }
        if (at < kReservoir) {
          log.latency[slice][at] = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(r.publish_ns, UINT32_MAX));
        }
        delivered_mark = t_delivered;
        pending_events = 0;
        pending_ops = 0;
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const std::uint64_t start = now_ns();
  start_ns.store(start);
  go.store(true);
  if (plan.alternate_tracing) {
    for (std::size_t k = 0; k < slices; ++k) {
      const std::uint64_t boundary = start + k * slice_ns;
      const std::uint64_t now = now_ns();
      if (now < boundary) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(boundary - now));
      }
      Tracing::set_enabled(k % 2 == 1);
    }
  }
  for (std::thread& worker : workers) worker.join();
  if (plan.alternate_tracing) Tracing::set_enabled(false);
  for (ThreadLog& log : logs) {
    for (std::size_t k = 0; k < slices; ++k) {
      log.latency[k].resize(std::min<std::uint64_t>(log.timed[k], kReservoir));
    }
  }

  LoopResult result;
  const double slice_s = static_cast<double>(slice_ns) / 1e9;
  result.thread_latency_ns.resize(threads);
  for (std::size_t k = 0; k < slices; ++k) {
    std::uint64_t events = 0;
    std::uint64_t delivered = 0;
    std::vector<std::uint32_t> latency;
    for (std::size_t t = 0; t < threads; ++t) {
      events += logs[t].events[k];
      result.latency_samples += logs[t].timed[k];
      delivered += logs[t].delivered[k];
      result.operations += logs[t].operations[k];
      latency.insert(latency.end(), logs[t].latency[k].begin(),
                     logs[t].latency[k].end());
      result.thread_latency_ns[t].insert(result.thread_latency_ns[t].end(),
                                         logs[t].latency[k].begin(),
                                         logs[t].latency[k].end());
    }
    result.events += events;
    result.delivered += delivered;
    result.events_per_sec.push_back(static_cast<double>(events) / slice_s);
    result.deliveries_per_sec.push_back(static_cast<double>(delivered) /
                                        slice_s);
    if (!latency.empty()) {
      result.latency_p50_ns.push_back(quantile(latency, 0.5));
      result.latency_p99_ns.push_back(quantile(latency, 0.99));
    }
  }
  for (const ThreadLog& log : logs) {
    result.attempted += log.attempted;
    result.expected += log.expected;
    result.failed += log.failed;
  }
  return result;
}

// --- Spans -------------------------------------------------------------------

namespace {

struct OpenSpan {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t trace;
  std::uint64_t start;
  std::uint64_t child_ns;
};

struct SpanRecord {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::uint64_t trace;
  std::uint64_t start;
  std::uint64_t end;
};

struct ThreadTrace {
  static constexpr std::size_t kMaxRecords = 1u << 14;
  std::uint64_t thread_tag = 0;
  std::uint64_t next_id = 0;
  std::vector<OpenSpan> stack;
  std::vector<SpanRecord> records;
  std::unordered_map<const char*, SpanStats> stats;
};

std::mutex g_trace_mutex;
std::vector<std::unique_ptr<ThreadTrace>> g_traces;  // guarded by g_trace_mutex
thread_local ThreadTrace* t_trace = nullptr;

ThreadTrace& local_trace() {
  if (t_trace == nullptr) {
    const std::scoped_lock lock(g_trace_mutex);
    g_traces.push_back(std::make_unique<ThreadTrace>());
    t_trace = g_traces.back().get();
    t_trace->thread_tag = static_cast<std::uint64_t>(g_traces.size()) << 40;
  }
  return *t_trace;
}

}  // namespace

std::atomic<bool> Tracing::enabled_{false};

void Tracing::set_enabled(bool enabled) noexcept { enabled_.store(enabled); }

std::map<std::string, SpanStats> Tracing::collect() {
  const std::scoped_lock lock(g_trace_mutex);
  std::map<std::string, SpanStats> merged;
  for (const auto& trace : g_traces) {
    for (const auto& [name, stats] : trace->stats) {
      SpanStats& out = merged[name];
      out.count += stats.count;
      out.total_ns += stats.total_ns;
      out.self_ns += stats.self_ns;
      out.durations_ns.insert(out.durations_ns.end(),
                              stats.durations_ns.begin(),
                              stats.durations_ns.end());
    }
  }
  return merged;
}

void Tracing::reset() {
  const std::scoped_lock lock(g_trace_mutex);
  for (const auto& trace : g_traces) trace->stats.clear();
}

std::size_t Tracing::write_spans(const std::string& path) {
  const std::scoped_lock lock(g_trace_mutex);
  std::ofstream out(path);
  std::size_t written = 0;
  for (const auto& trace : g_traces) {
    for (const SpanRecord& r : trace->records) {
      out << "{\"name\":\"" << r.name << "\",\"id\":" << r.id
          << ",\"parent\":" << r.parent << ",\"trace\":" << r.trace
          << ",\"start_ns\":" << r.start << ",\"end_ns\":" << r.end << "}\n";
      ++written;
    }
  }
  return out ? written : 0;
}

Span::Span(const char* name) noexcept : name_(name), active_(Tracing::enabled()) {
  if (!active_) return;
  ThreadTrace& trace = local_trace();
  const std::uint64_t id = trace.thread_tag | ++trace.next_id;
  const bool root = trace.stack.empty();
  trace.stack.push_back({name, id, root ? 0 : trace.stack.back().id,
                         root ? id : trace.stack.back().trace, now_ns(), 0});
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end = now_ns();
  ThreadTrace& trace = *t_trace;
  const OpenSpan open = trace.stack.back();
  trace.stack.pop_back();
  const std::uint64_t duration = end - open.start;
  if (!trace.stack.empty()) trace.stack.back().child_ns += duration;
  SpanStats& stats = trace.stats[name_];
  ++stats.count;
  stats.total_ns += duration;
  stats.self_ns += duration - std::min(duration, open.child_ns);
  if (stats.durations_ns.size() < SpanStats::kMaxDurations) {
    stats.durations_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(duration, UINT32_MAX)));
  }
  if (trace.records.size() < ThreadTrace::kMaxRecords) {
    trace.records.push_back(
        {name_, open.id, open.parent, open.trace, open.start, end});
  }
}

double span_quantile_ns(std::map<std::string, SpanStats>& spans,
                        const std::string& name, double q) {
  const auto it = spans.find(name);
  if (it == spans.end()) return 0;
  return quantile(it->second.durations_ns, q);
}

// --- Allocation counting -----------------------------------------------------

AllocationCounter::AllocationCounter() noexcept : start_(t_allocations) {}
AllocationCounter::~AllocationCounter() = default;
std::uint64_t AllocationCounter::count() const noexcept {
  return t_allocations - start_;
}

double run_in_child(const std::function<double()>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  std::cerr.flush();
  const pid_t child = ::fork();
  if (child < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (child == 0) {
    ::close(fds[0]);
    double value = -1;
    try {
      value = body();
    } catch (...) {
      value = -1;
    }
    const bool written =
        ::write(fds[1], &value, sizeof value) == static_cast<ssize_t>(sizeof value);
    ::_exit(written && value >= 0 ? 0 : 1);
  }
  ::close(fds[1]);
  double value = -1;
  const bool read_ok =
      ::read(fds[0], &value, sizeof value) == static_cast<ssize_t>(sizeof value);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  if (!read_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up child process failed");
  }
  return value;
}

double compute_rate(std::size_t threads, double seconds) {
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> counts(threads, 0);
  std::vector<std::uint64_t> sinks(threads, 0);
  std::vector<std::thread> workers;
  const auto start = Clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t x = 0x9E3779B97F4A7C15ULL + t;
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 4096; ++k) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        n += 4096;
      }
      counts[t] = n;
      sinks[t] = x;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& worker : workers) worker.join();
  const double elapsed = seconds_since(start);
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < threads; ++t) {
    total += counts[t] + (sinks[t] == 0 ? 1 : 0);  // keeps the loop live
  }
  return static_cast<double>(total) / elapsed;
}

}  // namespace perfbench
