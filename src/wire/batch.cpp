#include "wire/batch.hpp"

#include <utility>

#include "common/error.hpp"

namespace genas::wire {

std::vector<DomainIndex> EventArena::checkout(std::size_t capacity) {
  std::vector<DomainIndex> v;
  if (!spare_.empty()) {
    v = std::move(spare_.back());
    spare_.pop_back();
    v.clear();
  }
  v.reserve(capacity);
  return v;
}

void EventArena::recycle(Event&& event) {
  if (spare_.size() >= kMaxSpare) return;
  std::vector<DomainIndex> v = event.take_indices();
  if (v.capacity() == 0) return;
  spare_.push_back(std::move(v));
}

void EventArena::recycle_all(std::vector<Event>& events) {
  for (Event& event : events) recycle(std::move(event));
  events.clear();
}

void EventBatchBuilder::append(const Event& event, std::uint64_t token) {
  if (count_ == 0) {
    length_at_ = detail::begin_frame(writer_, MessageType::kEventBatch);
    count_at_ = writer_.size();
    writer_.u32(0);  // event count, patched by take_frame
    flag_at_ = writer_.size();
    writer_.u8(0);  // has_tokens, patched when any token is nonzero
    attr_count_ = static_cast<std::uint32_t>(event.indices().size());
  }
  GENAS_CHECK(event.indices().size() == attr_count_,
              "batched events must share one schema");
  for (const DomainIndex index : event.indices()) {
    writer_.u64(static_cast<std::uint64_t>(index));
  }
  writer_.i64(event.time());
  tokens_.push_back(token);
  any_token_ = any_token_ || token != 0;
  ++count_;
}

std::vector<std::uint8_t> EventBatchBuilder::take_frame() {
  GENAS_CHECK(count_ > 0, "take_frame on an empty batch builder");
  std::vector<std::uint8_t> frame;
  if (count_ == 1 && !any_token_) {
    // The run's single-event form: the same index run behind the attribute
    // count that the batch form leaves implicit, in place of the event
    // count and token flag.
    Writer single;
    const std::size_t at = detail::begin_frame(single, MessageType::kEvent);
    single.u32(attr_count_);
    const std::span<const std::uint8_t> bytes(writer_.bytes());
    single.raw(bytes.subspan(flag_at_ + 1));
    frame = detail::end_frame(single, at);
  } else {
    writer_.patch_u32(count_at_, static_cast<std::uint32_t>(count_));
    if (any_token_) {
      writer_.patch_u8(flag_at_, 1);
      for (const std::uint64_t token : tokens_) writer_.u64(token);
    }
    frame = detail::end_frame(writer_, length_at_);
  }
  writer_.clear();
  tokens_.clear();
  count_ = 0;
  any_token_ = false;
  return frame;
}

void EventBatchBuilder::reset() noexcept {
  writer_.clear();
  tokens_.clear();
  count_ = 0;
  any_token_ = false;
}

void DeliveryBatchBuilder::append(std::uint64_t key, const Event& event) {
  if (count_ == 0) {
    length_at_ = detail::begin_frame(writer_, MessageType::kDeliveryBatch);
    count_at_ = writer_.size();
    writer_.u32(0);  // delivery count, patched by take_frame
    attr_count_ = static_cast<std::uint32_t>(event.indices().size());
  }
  GENAS_CHECK(event.indices().size() == attr_count_,
              "batched deliveries must share one schema");
  writer_.u64(key);
  for (const DomainIndex index : event.indices()) {
    writer_.u64(static_cast<std::uint64_t>(index));
  }
  writer_.i64(event.time());
  ++count_;
}

std::vector<std::uint8_t> DeliveryBatchBuilder::take_frame() {
  GENAS_CHECK(count_ > 0, "take_frame on an empty batch builder");
  std::vector<std::uint8_t> frame;
  if (count_ == 1) {
    // The run's single-entry form: key, then the attribute count the batch
    // form leaves implicit, then the same index run.
    Writer single;
    const std::size_t at = detail::begin_frame(single, MessageType::kDelivery);
    const std::span<const std::uint8_t> bytes(writer_.bytes());
    const std::size_t body = count_at_ + 4;
    single.raw(bytes.subspan(body, 8));  // subscription key
    single.u32(attr_count_);
    single.raw(bytes.subspan(body + 8));  // indices + timestamp
    frame = detail::end_frame(single, at);
  } else {
    writer_.patch_u32(count_at_, static_cast<std::uint32_t>(count_));
    frame = detail::end_frame(writer_, length_at_);
  }
  writer_.clear();
  count_ = 0;
  return frame;
}

void DeliveryBatchBuilder::reset() noexcept {
  writer_.clear();
  count_ = 0;
}

std::vector<std::uint8_t> frame_event_batch(
    std::span<const Event> events, std::span<const std::uint64_t> tokens) {
  GENAS_REQUIRE(!events.empty(), ErrorCode::kInvalidArgument,
                "an event batch frame needs at least one event");
  GENAS_REQUIRE(tokens.empty() || tokens.size() == events.size(),
                ErrorCode::kInvalidArgument,
                "event batch tokens must be one per event");
  EventBatchBuilder builder;
  for (std::size_t i = 0; i < events.size(); ++i) {
    builder.append(events[i], tokens.empty() ? 0 : tokens[i]);
  }
  return builder.take_frame();
}

std::vector<std::uint8_t> frame_delivery_batch(
    std::span<const std::uint64_t> keys, std::span<const Event> events) {
  GENAS_REQUIRE(!events.empty(), ErrorCode::kInvalidArgument,
                "a delivery batch frame needs at least one delivery");
  GENAS_REQUIRE(keys.size() == events.size(), ErrorCode::kInvalidArgument,
                "delivery batch keys must be one per event");
  DeliveryBatchBuilder builder;
  for (std::size_t i = 0; i < events.size(); ++i) {
    builder.append(keys[i], events[i]);
  }
  return builder.take_frame();
}

}  // namespace genas::wire
