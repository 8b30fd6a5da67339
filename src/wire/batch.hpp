// GENAS — event runs on the wire: incremental encoders and an arena-backed
// zero-allocation decoder.
//
// Events travel as runs. A run amortizes the frame header, the
// heap-allocated index vector and (on reliable links) the seq/ack round
// over all of its events; a single event is simply a run of one:
//
//   - EventBatchBuilder / DeliveryBatchBuilder accumulate events into one
//     frame incrementally (no intermediate Event copies — indices are
//     serialized straight into the frame buffer). A run of one token-free
//     event is written in its kEvent / kDelivery form, longer runs as
//     kEventBatch / kDeliveryBatch, so a batch cap of 1 puts exactly one
//     count-1 frame per event on the wire.
//
//   - EventArena + decode_event_batch materialize a received run — either
//     event frame type — into a caller-owned vector, drawing every index
//     vector from a free-list of recycled allocations. Once the arena is
//     warm (the caller recycles each drained batch back into it), a decode
//     performs zero per-event heap allocation: the only per-event work is
//     bounds-checked index copies into reserved storage.
//
// decode_event_batch and decode_message share one run decoder (codec.cpp),
// so the arena path accepts precisely the frames the generic path accepts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "event/event.hpp"
#include "wire/codec.hpp"

namespace genas::wire {

/// Free-list of index-vector allocations for batch decoding. Not
/// thread-safe: each mesh worker / socket reader owns its own arena.
class EventArena {
 public:
  /// An empty vector with at least `capacity` reserved, recycled from the
  /// free-list when one is available.
  std::vector<DomainIndex> checkout(std::size_t capacity);

  /// Reclaims a drained event's index storage for the next checkout.
  void recycle(Event&& event);

  /// Reclaims every event's storage and clears `events` (which keeps its
  /// own capacity — the usual per-round scratch-vector pattern).
  void recycle_all(std::vector<Event>& events);

  std::size_t spare() const noexcept { return spare_.size(); }

 private:
  /// Free-list soft cap: recycling beyond it frees instead of hoarding
  /// (bounds arena growth after a one-off giant batch).
  static constexpr std::size_t kMaxSpare = 4096;

  std::vector<std::vector<DomainIndex>> spare_;
};

/// Decodes one complete kEvent or kEventBatch frame (header included),
/// appending the events to `events` and one dedup token per event to
/// `tokens` (0 when the frame carries none), with index storage drawn from
/// `arena`. Returns the number of events appended. Malformed input throws
/// Error{kParse} and appends nothing: both vectors keep the sizes they
/// entered with.
std::size_t decode_event_batch(std::span<const std::uint8_t> frame,
                               const SchemaPtr& schema, EventArena& arena,
                               std::vector<Event>& events,
                               std::vector<std::uint64_t>& tokens);

/// Accumulates events into one pending kEventBatch frame, serializing each
/// appended event's indices directly into the frame buffer. All appended
/// events must share one schema (the frame encodes the attribute count
/// implicitly through it).
class EventBatchBuilder {
 public:
  /// Appends one event and its dedup token (0 = none) to the pending frame.
  void append(const Event& event, std::uint64_t token = 0);

  std::size_t pending() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// Finishes and returns the pending frame, resetting the builder for the
  /// next batch. One token-free event yields the run's kEvent form;
  /// anything else a kEventBatch (with the token run appended iff any token
  /// was nonzero). Asserts on an empty builder.
  std::vector<std::uint8_t> take_frame();

  /// Discards the pending frame without emitting it (error recovery).
  void reset() noexcept;

 private:
  Writer writer_;
  std::vector<std::uint64_t> tokens_;
  std::size_t count_ = 0;
  std::size_t length_at_ = 0;
  std::size_t count_at_ = 0;
  std::size_t flag_at_ = 0;
  std::uint32_t attr_count_ = 0;
  bool any_token_ = false;
};

/// Accumulates (subscription key, event) deliveries into one pending
/// kDeliveryBatch frame. Same contract as EventBatchBuilder; a single
/// delivery is written in the run's kDelivery form.
class DeliveryBatchBuilder {
 public:
  void append(std::uint64_t key, const Event& event);

  std::size_t pending() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  std::vector<std::uint8_t> take_frame();

  /// Discards the pending frame without emitting it (error recovery).
  void reset() noexcept;

 private:
  Writer writer_;
  std::size_t count_ = 0;
  std::size_t length_at_ = 0;
  std::size_t count_at_ = 0;
  std::uint32_t attr_count_ = 0;
};

}  // namespace genas::wire
