// Layer probes of a traced run: each times calls into one layer's public
// functions on the workload's own inputs, inside spans.
#include <algorithm>

#include "tree/expected_cost.hpp"
#include "wire/batch.hpp"
#include "wire/codec.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace genas;

std::shared_ptr<const FlatProfileTree> add_tree_metrics(
    Result& result, const ProfileSet& profiles, const OrderingPolicy& policy,
    const JointDistribution& event_distribution,
    std::span<const Event> events) {
  Tracing::set_enabled(true);
  std::shared_ptr<const FlatProfileTree> flat;
  std::optional<ProfileTree> tree;
  {
    Span build("tree.build");
    {
      Span span("tree.build_tree");
      tree.emplace(build_tree(profiles, policy, event_distribution));
    }
    Span span("tree.compile");
    flat = std::make_shared<const FlatProfileTree>(
        FlatProfileTree::compile(*tree));
  }
  const double expected_ops =
      expected_cost(*tree, event_distribution).ops_per_event;

  // Deterministic ops count: one pass over the events.
  std::uint64_t operations = 0;
  for (const Event& event : events) operations += flat->match(event).operations;

  // Replay timing: spans around chunks of 256 matches (a span per match
  // would cost as much as the match).
  constexpr std::size_t kChunk = 256;
  std::uint64_t replayed = 0;
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  while (seconds_since(start) < 0.3) {
    for (std::size_t base = 0; base < events.size(); base += kChunk) {
      const std::size_t end = std::min(base + kChunk, events.size());
      Span span("tree.match_chunk");
      for (std::size_t i = base; i < end; ++i) {
        sink += flat->match(events[i]).matched_count;
      }
      replayed += end - base;
    }
  }
  Tracing::set_enabled(false);
  const auto spans = Tracing::collect();
  const auto& chunk = spans.at("tree.match_chunk");
  const double match_ns =
      static_cast<double>(chunk.self_ns) / static_cast<double>(replayed);
  result.info["tree_match_ns_per_event"] = match_ns;
  result.info["tree_replay_matches"] = static_cast<double>(sink);

  result.add("tree.match_ns_per_event", match_ns, "ns");
  result.add("tree.ops_per_event",
             static_cast<double>(operations) /
                 static_cast<double>(std::max<std::size_t>(events.size(), 1)),
             "ops");
  result.add("tree.expected_ops_per_event", expected_ops, "ops");
  result.add("tree.build_s",
             static_cast<double>(spans.at("tree.build").total_ns) / 1e9,
             "s");
  result.add("tree.arena_bytes", static_cast<double>(flat->arena_bytes()),
             "bytes");
  Tracing::reset();
  return flat;
}

void add_wire_metrics(Result& result, std::span<const Event> events) {
  constexpr std::size_t kEventChunk = 256;
  constexpr std::size_t kDeliveryChunk = 64;
  const SchemaPtr& schema = events.front().schema();
  Tracing::set_enabled(true);

  std::vector<std::vector<std::uint8_t>> frames;
  std::uint64_t frame_bytes = 0;
  for (std::size_t base = 0; base < events.size(); base += kEventChunk) {
    const std::size_t n = std::min(kEventChunk, events.size() - base);
    frames.push_back(wire::frame_event_batch(events.subspan(base, n)));
    frame_bytes += frames.back().size();
  }

  std::uint64_t encoded = 0;
  std::uint64_t decoded = 0;
  std::uint64_t delivery_encoded = 0;
  std::uint64_t allocations = 0;
  std::uint64_t sink = 0;
  std::vector<std::uint64_t> keys(kDeliveryChunk);
  for (std::size_t k = 0; k < keys.size(); ++k) keys[k] = k + 1;

  wire::EventArena arena;
  std::vector<Event> out;
  std::vector<std::uint64_t> tokens;
  // Warm the arena and the output vector before counting allocations.
  for (const auto& frame : frames) {
    wire::decode_event_batch(frame, schema, arena, out, tokens);
    arena.recycle_all(out);
    tokens.clear();
  }

  const auto start = Clock::now();
  while (seconds_since(start) < 0.3) {
    for (std::size_t base = 0; base < events.size(); base += kEventChunk) {
      const std::size_t n = std::min(kEventChunk, events.size() - base);
      Span span("wire.encode_batch");
      sink += wire::frame_event_batch(events.subspan(base, n)).size();
      encoded += n;
    }
    for (const auto& frame : frames) {
      Span span("wire.decode_batch");
      const AllocationCounter counter;
      decoded += wire::decode_event_batch(frame, schema, arena, out, tokens);
      arena.recycle_all(out);
      tokens.clear();
      allocations += counter.count();
    }
    for (std::size_t base = 0; base + kDeliveryChunk <= events.size();
         base += kDeliveryChunk) {
      Span span("wire.encode_delivery_batch");
      sink += wire::frame_delivery_batch(
                  keys, events.subspan(base, kDeliveryChunk))
                  .size();
      delivery_encoded += kDeliveryChunk;
    }
  }
  Tracing::set_enabled(false);
  const auto spans = Tracing::collect();
  const auto per_event = [&](const char* name, std::uint64_t n) {
    return static_cast<double>(spans.at(name).self_ns) / static_cast<double>(n);
  };
  result.add("wire.encode_batch_ns_per_event",
             per_event("wire.encode_batch", encoded), "ns");
  result.add("wire.decode_batch_ns_per_event",
             per_event("wire.decode_batch", decoded), "ns");
  result.add("wire.encode_delivery_batch_ns_per_event",
             per_event("wire.encode_delivery_batch", delivery_encoded), "ns");
  result.add("wire.bytes_per_event",
             static_cast<double>(frame_bytes) /
                 static_cast<double>(events.size()),
             "bytes");
  result.add("wire.decode_allocs_per_event",
             static_cast<double>(allocations) / static_cast<double>(decoded),
             "count");
  result.info["wire_bytes_encoded"] = static_cast<double>(sink);
  Tracing::reset();
}

void add_core_metrics(Result& result, const std::vector<std::uint32_t>& ops,
                      std::size_t block, double static_ops) {
  constexpr std::size_t kWindow = 250;
  const auto window_mean = [&](std::size_t begin) {
    std::uint64_t total = 0;
    for (std::size_t i = begin; i < begin + kWindow; ++i) total += ops[i];
    return static_cast<double>(total) / kWindow;
  };
  std::vector<double> recoveries;
  std::vector<double> troughs;
  if (block >= 2 * kWindow) {
    // Block b starts at event b * block; the reference level of a shift is
    // where the previous block of the same regime (b - 2) settled.
    for (std::size_t b = 2; (b + 1) * block <= ops.size(); ++b) {
      const double level = window_mean((b - 1) * block - kWindow);
      const std::size_t first = b * block;
      double peak = 0;
      std::size_t recovered = block;
      for (std::size_t at = first; at + kWindow <= first + block; at += 10) {
        const double mean = window_mean(at);
        peak = std::max(peak, mean);
        if (recovered == block && at > first && mean <= 1.1 * level) {
          recovered = at - first;
        }
      }
      recoveries.push_back(static_cast<double>(recovered));
      troughs.push_back(peak);
    }
  }
  if (troughs.empty() && ops.size() >= kWindow) {
    // No shift: the worst window of the whole run.
    double peak = 0;
    for (std::size_t at = 0; at + kWindow <= ops.size(); at += kWindow) {
      peak = std::max(peak, window_mean(at));
    }
    troughs.push_back(peak);
    recoveries.push_back(0);
  }
  result.add("core.recovery_events", median(recoveries), "events");
  result.add("core.trough_ops_per_event", median(troughs), "ops");
  result.add("core.static_ops_per_event", static_ops, "ops");
  result.info["core_shifts_observed"] =
      block == 0 ? 0 : static_cast<double>(recoveries.size());
}

}  // namespace perfbench
