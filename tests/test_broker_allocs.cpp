// Allocation oracle for the broker's fan-out: once a thread's snapshot slot
// and delivery scratch are warm, an untokened publish or publish_batch that
// delivers notifications performs no heap allocation, also when a callback
// publishes on another broker. A notification views the published event
// instead of copying it, a publish borrows its thread's cached snapshot
// instead of copying the handle, and each publish nesting depth has its own
// delivery scratch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "ens/broker.hpp"
#include "test_util.hpp"

// Global allocation counter. Counting every operator new in the binary is
// coarse, but the bracketed sections run single-threaded with no other live
// allocators, so the delta is exactly the broker's.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

// GCC's -Wmismatched-new-delete pairs the free() here against pointers it
// tracked out of the replacement operator new above and flags them as
// mismatched; the pairing is malloc/free on both sides, so the warning is
// a false positive of the replacement itself.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace genas {
namespace {

constexpr int kRuns = 1000;

class BrokerAllocs : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two subscribers per hot event, so every publish below fans out.
    broker_.subscribe("temperature >= 35",
                      [this](const Notification&) { ++delivered_; });
    broker_.subscribe("humidity >= 90",
                      [this](const Notification&) { ++delivered_; });
    for (int i = 0; i < 64; ++i) {
      batch_.push_back(Event::from_pairs(
          schema_,
          {{"temperature", 35 + i % 10}, {"humidity", 90 + i % 10},
           {"radiation", 1 + i}},
          i));
    }
  }

  /// Runs `publish` kRuns times after one warm-up call and returns the heap
  /// allocations of the timed runs; `deliveries` receives their delivery
  /// count.
  template <typename Publish>
  std::uint64_t allocations_of(Publish publish, std::uint64_t& deliveries) {
    publish();  // warm-up: snapshot build, slot and scratch capacity
    const std::uint64_t delivered_before = delivered_;
    const std::uint64_t before = g_allocations.load();
    for (int i = 0; i < kRuns; ++i) publish();
    const std::uint64_t after = g_allocations.load();
    deliveries = delivered_ - delivered_before;
    return after - before;
  }

  SchemaPtr schema_ = testutil::example1_schema();
  Broker broker_{schema_};
  std::vector<Event> batch_;
  std::uint64_t delivered_ = 0;
};

TEST_F(BrokerAllocs, WarmPublishDeliversWithoutAllocating) {
  const Event& hot = batch_.front();
  std::uint64_t deliveries = 0;
  const std::uint64_t allocations =
      allocations_of([&] { broker_.publish(hot); }, deliveries);
  ASSERT_EQ(deliveries, 2u * kRuns);
  EXPECT_EQ(allocations, 0u)
      << static_cast<double>(allocations) / static_cast<double>(deliveries)
      << " allocations per delivery over " << deliveries << " deliveries";
}

TEST_F(BrokerAllocs, WarmPublishBatchDeliversWithoutAllocating) {
  std::uint64_t deliveries = 0;
  const std::uint64_t allocations = allocations_of(
      [&] { broker_.publish_batch(std::span<const Event>(batch_)); },
      deliveries);
  ASSERT_EQ(deliveries, 2u * kRuns * batch_.size());
  EXPECT_EQ(allocations, 0u)
      << static_cast<double>(allocations) / static_cast<double>(deliveries)
      << " allocations per delivery over " << deliveries << " deliveries";
}

TEST_F(BrokerAllocs, TracedPublishDeliversWithoutAllocating) {
  // Every publish sampled: the trace path's histograms allocate nothing
  // either.
  broker_.set_trace_period(1);
  const Event& hot = batch_.front();
  std::uint64_t deliveries = 0;
  const std::uint64_t allocations =
      allocations_of([&] { broker_.publish(hot); }, deliveries);
  ASSERT_EQ(deliveries, 2u * kRuns);
  EXPECT_EQ(allocations, 0u)
      << static_cast<double>(allocations) / static_cast<double>(deliveries)
      << " allocations per delivery over " << deliveries << " deliveries";
}

TEST_F(BrokerAllocs, NestedPublishDeliversWithoutAllocating) {
  // broker_'s deliveries each publish the event on a second broker, whose
  // own delivery runs one nesting level down.
  Broker inner(schema_);
  std::uint64_t inner_delivered = 0;
  inner.subscribe("temperature >= 35",
                  [&](const Notification&) { ++inner_delivered; });
  broker_.subscribe("radiation >= 1",
                    [&](const Notification& n) { inner.publish(n.event); });
  const Event& hot = batch_.front();
  std::uint64_t deliveries = 0;
  const std::uint64_t allocations =
      allocations_of([&] { broker_.publish(hot); }, deliveries);
  ASSERT_EQ(deliveries, 2u * kRuns);
  ASSERT_EQ(inner_delivered, kRuns + 1u);  // plus the warm-up
  EXPECT_EQ(allocations, 0u)
      << static_cast<double>(allocations) / kRuns
      << " allocations per outer publish over " << kRuns << " publishes";
}

}  // namespace
}  // namespace genas
