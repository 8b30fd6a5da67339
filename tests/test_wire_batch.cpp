// Tests for event runs on the wire (wire/batch): encode/decode oracles for
// kEventBatch / kDeliveryBatch, the arena-backed zero-allocation decoder,
// the count-1 kEvent / kDelivery forms pinned to golden bytes, and the
// malformed-input paths — truncation sweeps, byte flips, count inflation,
// all-or-nothing decoding, and corrupt batches nested inside kLinkFrame
// envelopes — mirroring test_wire_codec.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"
#include "wire/batch.hpp"
#include "wire/codec.hpp"

// Global allocation counter for the zero-allocation decode oracle. Counting
// every operator new in the binary is coarse, but the bracketed sections
// run single-threaded with no other live allocators, so the delta is
// exactly the decoder's.
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

using Frame = std::vector<std::uint8_t>;

void expect_parse_failure(const Frame& frame, const SchemaPtr& schema,
                          const std::string& context) {
  try {
    wire::decode_message(frame, schema);
    FAIL() << context << ": malformed frame decoded without error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse) << context << ": " << e.what();
  }
}

Event make_event(const SchemaPtr& schema, std::int64_t temperature,
                 Timestamp time) {
  return Event::from_pairs(
      schema, {{"temperature", temperature}, {"humidity", 50},
               {"radiation", 3}}, time);
}

/// Golden bytes of the count-1 kEvent frame for make_event(schema, t, time)
/// (humidity 50, radiation 3) under example1_schema, assembled by hand from
/// the frame layout in wire/codec.hpp.
Frame golden_event_frame(std::uint8_t temperature_index, std::uint8_t time) {
  return {
      0x57, 0x47, 0x01, 0x02,  // magic "GW", version 1, kEvent (2)
      0x24, 0x00, 0x00, 0x00,  // payload length 36
      0x03, 0x00, 0x00, 0x00,  // u32 attribute count 3
      temperature_index, 0, 0, 0, 0, 0, 0, 0,  // u64 temperature index
      0x32, 0, 0, 0, 0, 0, 0, 0,  // u64 humidity index 50
      0x02, 0, 0, 0, 0, 0, 0, 0,  // u64 radiation index 2 (value 3)
      time, 0, 0, 0, 0, 0, 0, 0,  // i64 timestamp
  };
}

std::vector<Event> make_events(const SchemaPtr& schema, std::size_t count) {
  std::vector<Event> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    events.push_back(
        make_event(schema, -10 + static_cast<std::int64_t>(i % 50),
                   static_cast<Timestamp>(i + 1)));
  }
  return events;
}

bool is_event_run(const Frame& frame) {
  const wire::MessageType type = wire::peek_type(frame);
  return type == wire::MessageType::kEvent ||
         type == wire::MessageType::kEventBatch;
}

/// The arena decoder must reject `frame` with Error{kParse} and append
/// nothing: outputs that entered non-empty keep exactly their entry sizes.
void expect_arena_rejects(const Frame& frame, const SchemaPtr& schema,
                          const std::string& context) {
  wire::EventArena arena;
  std::vector<Event> events = make_events(schema, 2);
  std::vector<std::uint64_t> tokens = {7, 8};
  try {
    wire::decode_event_batch(frame, schema, arena, events, tokens);
    ADD_FAILURE() << context << ": arena decode accepted a malformed frame";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse) << context << ": " << e.what();
  }
  EXPECT_EQ(events.size(), 2u) << context << ": partial events kept";
  EXPECT_EQ(tokens.size(), 2u) << context << ": partial tokens kept";
}

TEST(WireBatch, EventBatchRoundTrips) {
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<Event> events = make_events(schema, 17);

  const Frame frame = wire::frame_event_batch(events);
  EXPECT_EQ(wire::peek_type(frame), wire::MessageType::kEventBatch);

  const wire::Message message = wire::decode_message(frame, schema);
  const auto* batch = std::get_if<wire::EventBatchMsg>(&message);
  ASSERT_NE(batch, nullptr);
  ASSERT_EQ(batch->events.size(), events.size());
  EXPECT_TRUE(batch->tokens.empty());  // no tokens were framed
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(batch->events[i].indices(), events[i].indices());
    EXPECT_EQ(batch->events[i].time(), events[i].time());
  }
}

TEST(WireBatch, EventBatchCarriesTokens) {
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<Event> events = make_events(schema, 5);
  const std::vector<std::uint64_t> tokens = {0, 7, 0, 0xFFFFFFFFFFFFFFFFull,
                                             42};

  const Frame frame = wire::frame_event_batch(events, tokens);
  const wire::Message message = wire::decode_message(frame, schema);
  const auto* batch = std::get_if<wire::EventBatchMsg>(&message);
  ASSERT_NE(batch, nullptr);
  ASSERT_EQ(batch->events.size(), events.size());
  ASSERT_EQ(batch->tokens.size(), tokens.size());
  EXPECT_EQ(batch->tokens, tokens);
}

TEST(WireBatch, AllZeroTokensElideTheTokenRun) {
  // A token span of all zeros carries no information; the frame must be
  // byte-identical to the token-free encoding.
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<Event> events = make_events(schema, 4);
  const std::vector<std::uint64_t> zeros(events.size(), 0);
  EXPECT_EQ(wire::frame_event_batch(events, zeros),
            wire::frame_event_batch(events));
}

TEST(WireBatch, SingleEventDegeneratesToTheLegacyFrame) {
  // A run of one token-free event is written in its kEvent form, pinned
  // here to golden bytes: link_batch_max = 1 then puts exactly this frame
  // on the wire per event, and decoders of the kEvent form keep
  // understanding light traffic.
  const SchemaPtr schema = testutil::example1_schema();
  const Event event = make_event(schema, 21, 99);
  const Frame golden = golden_event_frame(0x33, 0x63);  // 21 - (-30), 99

  wire::EventBatchBuilder builder;
  builder.append(event);
  EXPECT_EQ(builder.take_frame(), golden);
  EXPECT_EQ(wire::frame_event_batch({&event, 1}), golden);

  // With a nonzero token there is no legacy equivalent; the builder must
  // emit a kEventBatch that round-trips the token.
  builder.append(event, 17);
  const Frame tagged = builder.take_frame();
  EXPECT_EQ(wire::peek_type(tagged), wire::MessageType::kEventBatch);
  const wire::Message message = wire::decode_message(tagged, schema);
  const auto* batch = std::get_if<wire::EventBatchMsg>(&message);
  ASSERT_NE(batch, nullptr);
  ASSERT_EQ(batch->tokens.size(), 1u);
  EXPECT_EQ(batch->tokens[0], 17u);
}

TEST(WireBatch, SingleDeliveryDegeneratesToTheLegacyFrame) {
  const SchemaPtr schema = testutil::example1_schema();
  const Event event = make_event(schema, -3, 5);

  // The run's kDelivery form, pinned to golden bytes.
  const Frame golden = {
      0x57, 0x47, 0x01, 0x09,  // magic "GW", version 1, kDelivery (9)
      0x2C, 0x00, 0x00, 0x00,  // payload length 44
      0x0B, 0, 0, 0, 0, 0, 0, 0,  // u64 subscription key 11
      0x03, 0x00, 0x00, 0x00,     // u32 attribute count 3
      0x1B, 0, 0, 0, 0, 0, 0, 0,  // u64 temperature index 27 (value -3)
      0x32, 0, 0, 0, 0, 0, 0, 0,  // u64 humidity index 50
      0x02, 0, 0, 0, 0, 0, 0, 0,  // u64 radiation index 2 (value 3)
      0x05, 0, 0, 0, 0, 0, 0, 0,  // i64 timestamp 5
  };

  wire::DeliveryBatchBuilder builder;
  builder.append(11, event);
  EXPECT_EQ(builder.take_frame(), golden);
  const std::uint64_t key = 11;
  EXPECT_EQ(wire::frame_delivery_batch({&key, 1}, {&event, 1}), golden);
}

TEST(WireBatch, BuilderResetDiscardsThePendingFrame) {
  const SchemaPtr schema = testutil::example1_schema();
  const Event event = make_event(schema, 30, 1);

  wire::EventBatchBuilder builder;
  builder.append(event, 5);
  builder.append(event, 6);
  builder.reset();
  EXPECT_TRUE(builder.empty());

  // The builder is reusable after a reset, with no leftover tokens.
  builder.append(event);
  EXPECT_EQ(builder.take_frame(), golden_event_frame(0x3C, 0x01));  // 30, 1
}

TEST(WireBatch, DeliveryBatchRoundTrips) {
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<Event> events = make_events(schema, 9);
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < events.size(); ++i) keys.push_back(100 + i);

  const Frame frame = wire::frame_delivery_batch(keys, events);
  EXPECT_EQ(wire::peek_type(frame), wire::MessageType::kDeliveryBatch);

  const wire::Message message = wire::decode_message(frame, schema);
  const auto* batch = std::get_if<wire::DeliveryBatchMsg>(&message);
  ASSERT_NE(batch, nullptr);
  ASSERT_EQ(batch->keys.size(), keys.size());
  EXPECT_EQ(batch->keys, keys);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(batch->events[i].indices(), events[i].indices());
    EXPECT_EQ(batch->events[i].time(), events[i].time());
  }
}

TEST(WireBatch, ArenaDecoderMatchesTheGenericDecoder) {
  const SchemaPtr schema = testutil::example1_schema();
  Rng rng(2026);
  wire::EventArena arena;
  std::vector<Event> events;
  std::vector<std::uint64_t> tokens;
  for (int round = 0; round < 10; ++round) {
    const std::size_t count = 1 + rng.below(40);
    std::vector<Event> originals = make_events(schema, count);
    std::vector<std::uint64_t> sent_tokens;
    const bool tagged = round % 2 == 0;
    if (tagged) {
      for (std::size_t i = 0; i < count; ++i) {
        sent_tokens.push_back(rng.below(1u << 30));
      }
    }
    const Frame frame = wire::frame_event_batch(originals, sent_tokens);

    events.clear();
    tokens.clear();
    const std::size_t decoded =
        wire::decode_event_batch(frame, schema, arena, events, tokens);
    ASSERT_EQ(decoded, count);
    ASSERT_EQ(events.size(), count);
    // The arena decoder always yields one token per event (zeros when the
    // frame carried none), unlike the generic decoder's empty vector.
    ASSERT_EQ(tokens.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(events[i].indices(), originals[i].indices());
      EXPECT_EQ(events[i].time(), originals[i].time());
      EXPECT_EQ(tokens[i], tagged ? sent_tokens[i] : 0u);
    }
    arena.recycle_all(events);
  }
  EXPECT_GT(arena.spare(), 0u);

  // A run of one token-free event travels in its kEvent form; the arena
  // decoder takes it like any other run and agrees with decode_message.
  const Event single = make_event(schema, 12, 34);
  const Frame frame = wire::frame_event_batch({&single, 1});
  ASSERT_EQ(wire::peek_type(frame), wire::MessageType::kEvent);
  events.clear();
  tokens.clear();
  ASSERT_EQ(wire::decode_event_batch(frame, schema, arena, events, tokens), 1u);
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], 0u);
  const wire::Message message = wire::decode_message(frame, schema);
  const auto* generic = std::get_if<wire::EventBatchMsg>(&message);
  ASSERT_NE(generic, nullptr);
  ASSERT_EQ(generic->events.size(), 1u);
  EXPECT_TRUE(generic->tokens.empty());
  EXPECT_EQ(events[0].indices(), generic->events[0].indices());
  EXPECT_EQ(events[0].time(), generic->events[0].time());
  EXPECT_EQ(events[0].indices(), single.indices());
  EXPECT_EQ(events[0].time(), single.time());
}

TEST(WireBatch, WarmArenaDecodesWithZeroAllocations) {
  // The acceptance bar for the decoder: once the arena holds recycled
  // index storage and the scratch vectors have capacity, decoding a batch
  // performs zero heap allocations — no per-event vector, no per-event
  // Event box, nothing.
  const SchemaPtr schema = testutil::example1_schema();
  constexpr std::size_t kBatch = 64;
  const Frame frame = wire::frame_event_batch(make_events(schema, kBatch));

  wire::EventArena arena;
  std::vector<Event> events;
  std::vector<std::uint64_t> tokens;
  events.reserve(kBatch);
  tokens.reserve(kBatch);

  // Warm-up pass seeds the arena's free-list.
  wire::decode_event_batch(frame, schema, arena, events, tokens);
  arena.recycle_all(events);
  tokens.clear();

  const std::uint64_t before = g_allocations.load();
  wire::decode_event_batch(frame, schema, arena, events, tokens);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "warm batch decode allocated " << (after - before) << " times";
  ASSERT_EQ(events.size(), kBatch);
  arena.recycle_all(events);
}

TEST(WireBatch, EveryTruncationIsRejected) {
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<Event> events = make_events(schema, 3);
  const std::vector<std::uint64_t> tokens = {1, 2, 3};
  const std::vector<std::uint64_t> keys = {5, 6, 7};
  const std::vector<Frame> frames = {
      wire::frame_event_batch(events),
      wire::frame_event_batch(events, tokens),
      wire::frame_event_batch(std::span(events).first(1)),
      wire::frame_delivery_batch(keys, events),
  };
  for (const Frame& frame : frames) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      const Frame truncated(frame.begin(),
                            frame.begin() + static_cast<std::ptrdiff_t>(cut));
      expect_parse_failure(truncated, schema,
                           "truncated at " + std::to_string(cut));
      if (is_event_run(frame)) {
        expect_arena_rejects(truncated, schema,
                             "truncated at " + std::to_string(cut));
      }
    }
    Frame padded = frame;
    padded.push_back(0);
    expect_parse_failure(padded, schema, "trailing garbage");
    // The same garbage inside the payload, with a length field that covers
    // it: every entry decodes before the extra byte is found, and the
    // arena decode must still append nothing.
    Frame overlong = padded;
    ++overlong[4];  // payload length LSB (no carry at these sizes)
    expect_parse_failure(overlong, schema, "trailing garbage in payload");
    if (is_event_run(frame)) {
      expect_arena_rejects(overlong, schema, "trailing garbage in payload");
    }
  }
}

TEST(WireBatch, ByteFlipFuzzNeverCrashes) {
  // Flipping any single byte must either still decode (payload bytes can
  // land on another valid value) or throw Error{kParse} — and the generic
  // and arena decoders must agree on which.
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<Event> events = make_events(schema, 6);
  const std::vector<std::uint64_t> tokens = {9, 8, 7, 6, 5, 4};
  const std::vector<std::uint64_t> keys = {1, 2, 3, 4, 5, 6};
  const std::vector<Frame> frames = {
      wire::frame_event_batch(events),
      wire::frame_event_batch(events, tokens),
      wire::frame_delivery_batch(keys, events),
  };
  Rng rng(99);
  wire::EventArena arena;
  std::vector<Event> scratch;
  std::vector<std::uint64_t> token_scratch;
  for (const Frame& frame : frames) {
    for (std::size_t at = 0; at < frame.size(); ++at) {
      Frame corrupted = frame;
      corrupted[at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      bool generic_ok = true;
      try {
        (void)wire::decode_message(corrupted, schema);
      } catch (const Error& e) {
        generic_ok = false;
        EXPECT_EQ(e.code(), ErrorCode::kParse)
            << "byte " << at << ": " << e.what();
      }
      bool still_event_run = false;
      try {
        still_event_run = is_event_run(corrupted);
      } catch (const Error&) {
      }
      if (still_event_run) {
        scratch.clear();
        token_scratch.clear();
        bool arena_ok = true;
        try {
          wire::decode_event_batch(corrupted, schema, arena, scratch,
                                   token_scratch);
        } catch (const Error& e) {
          arena_ok = false;
          EXPECT_EQ(e.code(), ErrorCode::kParse)
              << "byte " << at << ": " << e.what();
        }
        EXPECT_EQ(arena_ok, generic_ok)
            << "decoders disagree on byte " << at;
      }
    }
  }
}

TEST(WireBatch, InflatedCountsAreRejectedBeforeAllocation) {
  // A batch whose count field claims more events than the buffer holds
  // must fail the count sanity bound, not attempt a giant allocation.
  const SchemaPtr schema = testutil::example1_schema();
  for (const wire::MessageType type :
       {wire::MessageType::kEventBatch, wire::MessageType::kDeliveryBatch}) {
    wire::Writer w;
    w.u16(wire::kMagic);
    w.u8(wire::kWireVersion);
    w.u8(static_cast<std::uint8_t>(type));
    w.u32(4);            // payload: exactly the count field below
    w.u32(0x40000000u);  // claims a billion events
    expect_parse_failure(w.take(), schema, "inflated count");
  }

  // Same with a plausible-looking payload behind the count: the claimed
  // count times the per-event stride still overruns the buffer.
  const std::vector<Event> events = make_events(schema, 2);
  Frame frame = wire::frame_event_batch(events);
  frame[wire::kFrameHeaderSize] = 200;  // count LSB: 2 -> 200 events
  expect_parse_failure(frame, schema, "count outruns payload");
  wire::EventArena arena;
  std::vector<Event> scratch;
  std::vector<std::uint64_t> token_scratch;
  EXPECT_THROW(
      wire::decode_event_batch(frame, schema, arena, scratch, token_scratch),
      Error);
}

TEST(WireBatch, EmptyBatchesAreRejected) {
  // A zero count is never produced by the builders (take_frame asserts on
  // empty) and is a parse error on receive.
  const SchemaPtr schema = testutil::example1_schema();
  for (const wire::MessageType type :
       {wire::MessageType::kEventBatch, wire::MessageType::kDeliveryBatch}) {
    wire::Writer w;
    w.u16(wire::kMagic);
    w.u8(wire::kWireVersion);
    w.u8(static_cast<std::uint8_t>(type));
    w.u32(type == wire::MessageType::kEventBatch ? 5 : 4);
    w.u32(0);  // zero events
    if (type == wire::MessageType::kEventBatch) w.u8(0);
    expect_parse_failure(w.take(), schema, "empty batch");
  }
}

TEST(WireBatch, BadTokenFlagIsRejected) {
  const SchemaPtr schema = testutil::example1_schema();
  Frame frame = wire::frame_event_batch(make_events(schema, 2));
  frame[wire::kFrameHeaderSize + 4] = 2;  // has_tokens must be 0 or 1
  expect_parse_failure(frame, schema, "token flag 2");
}

TEST(WireBatch, OutOfDomainEntriesAreRejected) {
  // Corrupt one event's index to just past its domain: both decoders must
  // reject the whole frame (no partial acceptance of earlier events).
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<Event> events = make_events(schema, 3);
  Frame frame = wire::frame_event_batch(events);
  // Second event, first attribute: count(4) + flag(1) + one event back.
  const std::size_t stride = schema->attribute_count() * 8 + 8;
  const std::size_t at = wire::kFrameHeaderSize + 5 + stride;
  frame[at] = 0xFF;
  frame[at + 1] = 0xFF;
  expect_parse_failure(frame, schema, "out-of-domain index");
  expect_arena_rejects(frame, schema, "out-of-domain index");

  // The last entry out of domain: every earlier entry has decoded by the
  // time it is found, and still none may be kept.
  Frame last = wire::frame_event_batch(events);
  const std::size_t last_at = wire::kFrameHeaderSize + 5 + 2 * stride;
  last[last_at] = 0xFF;
  last[last_at + 1] = 0xFF;
  expect_parse_failure(last, schema, "out-of-domain last entry");
  expect_arena_rejects(last, schema, "out-of-domain last entry");
}

TEST(WireBatch, NestedLinkFrameProbesAndDecodes) {
  // A batch rides reliable links inside a kLinkFrame envelope: the
  // envelope must round-trip it, and a corrupted nested batch must be a
  // parse error on the inner decode, not an envelope failure.
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<Event> events = make_events(schema, 8);
  const Frame inner = wire::frame_event_batch(events);
  const Frame envelope = wire::frame_link(42, inner);

  const wire::Message message = wire::decode_message(envelope, schema);
  const auto* link = std::get_if<wire::LinkFrameMsg>(&message);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->sequence, 42u);
  ASSERT_EQ(link->inner, inner);

  const wire::Message nested = wire::decode_message(link->inner, schema);
  const auto* batch = std::get_if<wire::EventBatchMsg>(&nested);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->events.size(), events.size());

  // Truncating the nested frame (while keeping the envelope framing
  // consistent) must be rejected by the envelope's inner-frame check.
  Frame cut_inner(inner.begin(), inner.end() - 8);
  expect_parse_failure(wire::frame_link(42, cut_inner), schema,
                       "nested truncation");

  // Byte flips inside the envelope: never anything but parse errors.
  Rng rng(7);
  for (std::size_t at = 0; at < envelope.size(); ++at) {
    Frame corrupted = envelope;
    corrupted[at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    try {
      const wire::Message m = wire::decode_message(corrupted, schema);
      if (const auto* l = std::get_if<wire::LinkFrameMsg>(&m)) {
        (void)wire::decode_message(l->inner, schema);
      }
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse)
          << "byte " << at << ": " << e.what();
    }
  }
}

TEST(WireBatch, MixedSchemasAreRefusedByTheBuilder) {
  const SchemaPtr schema = testutil::example1_schema();
  SchemaBuilder other_builder;
  other_builder.add_integer("only", 0, 10);
  const SchemaPtr other = other_builder.build();

  wire::EventBatchBuilder builder;
  builder.append(make_event(schema, 20, 1));
  EXPECT_THROW(builder.append(Event::from_pairs(other, {{"only", 3}})),
               Error);
}

}  // namespace
}  // namespace genas
