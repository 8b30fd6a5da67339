// Tests for the binary wire codec: property-style encode/decode oracles
// over randomized schemas/events/profiles, plus the malformed-input paths —
// every truncated, trailing-garbage, or corrupted buffer must be rejected
// with Error{kParse}, never crash or mis-decode silently.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "profile/parser.hpp"
#include "sim/workload.hpp"
#include "test_util.hpp"
#include "wire/codec.hpp"

namespace genas {
namespace {

using Frame = std::vector<std::uint8_t>;

/// A count-1 event run: the kEvent frame.
Frame frame_one_event(const Event& event) {
  return wire::frame_event_batch({&event, 1});
}

/// A count-1 delivery run: the kDelivery frame.
Frame frame_one_delivery(std::uint64_t key, const Event& event) {
  return wire::frame_delivery_batch({&key, 1}, {&event, 1});
}

/// Decode must reject the buffer with Error{kParse} specifically.
void expect_parse_failure(const Frame& frame, const SchemaPtr& schema,
                          const std::string& context) {
  try {
    wire::decode_message(frame, schema);
    FAIL() << context << ": malformed frame decoded without error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse) << context << ": " << e.what();
  }
}

/// Structural equality of two profiles over the same schema: the same
/// attributes constrained, with identical operators and accepted sets.
void expect_same_profile(const Profile& original, const Profile& decoded) {
  ASSERT_EQ(original.predicates().size(), decoded.predicates().size());
  for (std::size_t p = 0; p < original.predicates().size(); ++p) {
    const Predicate& a = original.predicates()[p];
    const Predicate& b = decoded.predicates()[p];
    EXPECT_EQ(a.attribute(), b.attribute());
    EXPECT_EQ(a.op(), b.op());
    EXPECT_EQ(a.accepted(), b.accepted());
  }
}

/// Random integer-attribute schema (1..4 attributes, varying domains).
SchemaPtr random_int_schema(Rng& rng) {
  SchemaBuilder builder;
  const std::size_t attributes = 1 + rng.below(4);
  for (std::size_t a = 0; a < attributes; ++a) {
    const std::int64_t lo = rng.range(-40, 10);
    const std::int64_t hi = lo + 1 + static_cast<std::int64_t>(rng.below(120));
    // Appended rather than `"a" + std::to_string(a)`: GCC 12 at -O2
    // reports a false -Wrestrict on that overload (GCC bug 105329).
    std::string name = "a";
    name += std::to_string(a);
    builder.add_integer(name, lo, hi);
  }
  return builder.build();
}

/// Random event as raw domain indices (schema-agnostic, unlike samplers).
Event random_event(const SchemaPtr& schema, Rng& rng) {
  std::vector<DomainIndex> indices;
  indices.reserve(schema->attribute_count());
  for (AttributeId a = 0; a < schema->attribute_count(); ++a) {
    indices.push_back(static_cast<DomainIndex>(
        rng.below(static_cast<std::uint64_t>(
            schema->attribute(a).domain.size()))));
  }
  return Event::from_indices(schema, std::move(indices),
                             static_cast<Timestamp>(rng.below(1 << 20)));
}

TEST(WireCodec, RandomizedProfileAndEventRoundTrips) {
  Rng rng(2026);
  for (int round = 0; round < 20; ++round) {
    const SchemaPtr schema = random_int_schema(rng);

    ProfileWorkloadOptions options;
    options.count = 25;
    options.dont_care_probability = 0.3;
    options.equality_only = (round % 2 == 0);
    options.range_width_mean = 0.2;
    options.seed = static_cast<std::uint64_t>(round) + 1;
    const ProfileSet profiles = generate_profiles(
        schema, make_profile_distributions(schema, {"gauss"}), options);

    for (const ProfileId id : profiles.active_ids()) {
      const Profile& original = profiles.profile(id);
      const wire::Message decoded =
          wire::decode_message(wire::frame_profile(original), schema);
      ASSERT_TRUE(std::holds_alternative<wire::ProfileMsg>(decoded));
      expect_same_profile(original,
                          std::get<wire::ProfileMsg>(decoded).profile);
    }

    for (int e = 0; e < 50; ++e) {
      const Event original = random_event(schema, rng);
      const Frame frame = wire::frame_event_batch({&original, 1});
      EXPECT_EQ(wire::peek_type(frame), wire::MessageType::kEvent);
      const wire::Message decoded = wire::decode_message(frame, schema);
      ASSERT_TRUE(std::holds_alternative<wire::EventBatchMsg>(decoded));
      const auto& run = std::get<wire::EventBatchMsg>(decoded);
      ASSERT_EQ(run.events.size(), 1u);
      EXPECT_TRUE(run.tokens.empty());
      const Event& roundtrip = run.events.front();
      EXPECT_EQ(original.indices(), roundtrip.indices());
      EXPECT_EQ(original.time(), roundtrip.time());
    }
  }
}

TEST(WireCodec, SchemaRoundTripsAllDomainKinds) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    SchemaBuilder builder;
    const std::size_t attributes = 1 + rng.below(5);
    for (std::size_t a = 0; a < attributes; ++a) {
      const std::string name = "attr_" + std::to_string(a);
      switch (rng.below(3)) {
        case 0: {
          const std::int64_t lo = rng.range(-100, 100);
          builder.add_integer(name,
                              lo, lo + static_cast<std::int64_t>(rng.below(50)));
          break;
        }
        case 1: {
          // Exact binary fractions: f64 fields are bit-exact on the wire,
          // and these keep the domain size integral for SchemaBuilder.
          const double resolution = 0.125 * static_cast<double>(
              1 + rng.below(4));
          const double lo = static_cast<double>(rng.range(-4, 4));
          const double hi = lo + resolution * static_cast<double>(
              1 + rng.below(32));
          builder.add_real(name, lo, hi, resolution);
          break;
        }
        default: {
          // Category names may contain anything a length-prefixed string
          // can carry — commas, blanks, backslashes, high bytes.
          std::vector<std::string> categories;
          const std::size_t count = 1 + rng.below(5);
          for (std::size_t c = 0; c < count; ++c) {
            std::string category = "c";  // not "c" + ...: GCC bug 105329
            category += std::to_string(c);
            if (rng.chance(0.5)) category += ", with\\ extras\t\xc3\xa9";
            categories.push_back(std::move(category));
          }
          builder.add_categorical(name, std::move(categories));
          break;
        }
      }
    }
    const SchemaPtr schema = builder.build();

    const wire::Message decoded =
        wire::decode_message(wire::frame_schema(*schema), nullptr);
    ASSERT_TRUE(std::holds_alternative<wire::SchemaMsg>(decoded));
    const SchemaPtr& roundtrip = std::get<wire::SchemaMsg>(decoded).schema;
    EXPECT_EQ(schema->to_string(), roundtrip->to_string());
    ASSERT_EQ(schema->attribute_count(), roundtrip->attribute_count());
    for (AttributeId a = 0; a < schema->attribute_count(); ++a) {
      const Domain& original = schema->attribute(a).domain;
      const Domain& restored = roundtrip->attribute(a).domain;
      ASSERT_EQ(original.kind(), restored.kind());
      ASSERT_EQ(original.size(), restored.size());
      for (DomainIndex i = 0; i < original.size(); ++i) {
        EXPECT_EQ(original.value_at(i), restored.value_at(i));
      }
    }
  }
}

TEST(WireCodec, SubscribeAndUnsubscribeCarryKeys) {
  const SchemaPtr schema = testutil::example1_schema();
  const Profile profile =
      parse_profile(schema, "temperature >= 35 && humidity >= 90");

  const wire::Message sub = wire::decode_message(
      wire::frame_subscribe(0xDEADBEEFCAFEULL, profile), schema);
  ASSERT_TRUE(std::holds_alternative<wire::SubscribeMsg>(sub));
  EXPECT_EQ(std::get<wire::SubscribeMsg>(sub).key, 0xDEADBEEFCAFEULL);
  expect_same_profile(profile, std::get<wire::SubscribeMsg>(sub).profile);

  const wire::Message unsub =
      wire::decode_message(wire::frame_unsubscribe(42), schema);
  ASSERT_TRUE(std::holds_alternative<wire::UnsubscribeMsg>(unsub));
  EXPECT_EQ(std::get<wire::UnsubscribeMsg>(unsub).key, 42u);
}

TEST(WireCodec, EveryTruncationIsRejected) {
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<Frame> frames = {
      wire::frame_schema(*schema),
      frame_one_event(Event::from_pairs(schema, {{"temperature", 20},
                                                 {"humidity", 50},
                                                 {"radiation", 3}})),
      wire::frame_profile(parse_profile(schema, "temperature >= 35")),
      wire::frame_subscribe(7, parse_profile(schema, "humidity <= 5")),
      wire::frame_unsubscribe(7),
      frame_one_delivery(11, Event::from_pairs(schema, {{"temperature", -5},
                                                        {"humidity", 40},
                                                        {"radiation", 9}})),
      wire::frame_flush(3),
      wire::frame_flush_done(3),
      wire::frame_link(17, wire::frame_unsubscribe(7)),
      wire::frame_link_ack(17),
      wire::frame_hello(0xFEEDULL),
      wire::frame_hello_ack(true, 0xFEEDULL, 42),
  };
  for (const Frame& frame : frames) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      const Frame truncated(frame.begin(),
                            frame.begin() + static_cast<std::ptrdiff_t>(cut));
      expect_parse_failure(truncated, schema,
                           "truncated at " + std::to_string(cut));
    }
    Frame padded = frame;
    padded.push_back(0);
    expect_parse_failure(padded, schema, "trailing garbage");
  }
}

TEST(WireCodec, CorruptHeadersAreRejected) {
  const SchemaPtr schema = testutil::example1_schema();
  const Frame good = wire::frame_unsubscribe(1);

  Frame bad_magic = good;
  bad_magic[0] ^= 0xFF;
  expect_parse_failure(bad_magic, schema, "bad magic");
  EXPECT_THROW(wire::peek_type(bad_magic), Error);

  Frame bad_version = good;
  bad_version[2] = wire::kWireVersion + 1;
  expect_parse_failure(bad_version, schema, "future version");

  Frame bad_type = good;
  bad_type[3] = 99;
  expect_parse_failure(bad_type, schema, "unknown type");

  Frame bad_length = good;
  bad_length[4] ^= 0x01;  // length field no longer matches the buffer
  expect_parse_failure(bad_length, schema, "length mismatch");

  expect_parse_failure(Frame{}, schema, "empty buffer");
}

TEST(WireCodec, StreamingFramesRoundTrip) {
  const SchemaPtr schema = testutil::example1_schema();
  const Event event = Event::from_pairs(
      schema, {{"temperature", 42}, {"humidity", 91}, {"radiation", 8}}, 17);

  const Frame delivery_frame = frame_one_delivery(0xDEADBEEFCAFEULL, event);
  EXPECT_EQ(wire::peek_type(delivery_frame), wire::MessageType::kDelivery);
  const wire::Message delivery = wire::decode_message(delivery_frame, schema);
  ASSERT_TRUE(std::holds_alternative<wire::DeliveryBatchMsg>(delivery));
  const auto& run = std::get<wire::DeliveryBatchMsg>(delivery);
  ASSERT_EQ(run.keys.size(), 1u);
  ASSERT_EQ(run.events.size(), 1u);
  EXPECT_EQ(run.keys.front(), 0xDEADBEEFCAFEULL);
  EXPECT_EQ(run.events.front().indices(), event.indices());
  EXPECT_EQ(run.events.front().time(), event.time());

  const wire::Message flush =
      wire::decode_message(wire::frame_flush(0xFFFFFFFFFFFFFFFFULL), schema);
  ASSERT_TRUE(std::holds_alternative<wire::FlushMsg>(flush));
  EXPECT_EQ(std::get<wire::FlushMsg>(flush).token, 0xFFFFFFFFFFFFFFFFULL);

  const wire::Message done =
      wire::decode_message(wire::frame_flush_done(12345), schema);
  ASSERT_TRUE(std::holds_alternative<wire::FlushDoneMsg>(done));
  EXPECT_EQ(std::get<wire::FlushDoneMsg>(done).token, 12345u);
}

// The incremental probe is what lets a socket reader distinguish "not all
// bytes arrived yet" from "the stream is corrupt": every prefix of a valid
// frame must be kNeedMore (never kCorrupt), the full frame kComplete with
// the exact size, and damaged header bytes kCorrupt as soon as they are
// visible.
TEST(WireCodec, ProbeReportsNeedMoreForEveryPrefixOfValidFrames) {
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<Frame> frames = {
      wire::frame_schema(*schema),
      frame_one_event(Event::from_pairs(schema, {{"temperature", 20},
                                                 {"humidity", 50},
                                                 {"radiation", 3}})),
      wire::frame_subscribe(7, parse_profile(schema, "humidity <= 5")),
      wire::frame_unsubscribe(7),
      frame_one_delivery(9, Event::from_pairs(schema, {{"temperature", 0},
                                                       {"humidity", 0},
                                                       {"radiation", 1}})),
      wire::frame_flush(1),
      wire::frame_flush_done(1),
      wire::frame_link(9, wire::frame_flush(1)),
      wire::frame_link_ack(9),
      wire::frame_hello(1),
      wire::frame_hello_ack(false, 1, 0),
  };
  for (const Frame& frame : frames) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      const wire::FrameProbe probe =
          wire::probe_frame(std::span(frame.data(), cut));
      EXPECT_EQ(probe.status, wire::FrameStatus::kNeedMore)
          << "prefix of " << cut << " bytes misclassified";
    }

    const wire::FrameProbe complete = wire::probe_frame(frame);
    ASSERT_EQ(complete.status, wire::FrameStatus::kComplete);
    EXPECT_EQ(complete.size, frame.size());

    // Extra bytes after the frame belong to the next frame: the probe still
    // reports this frame's exact size.
    Frame padded = frame;
    padded.insert(padded.end(), {0x57, 0x47, 0x00});
    const wire::FrameProbe with_tail = wire::probe_frame(padded);
    ASSERT_EQ(with_tail.status, wire::FrameStatus::kComplete);
    EXPECT_EQ(with_tail.size, frame.size());
  }
}

TEST(WireCodec, ProbeFlagsCorruptHeadersAsSoonAsVisible) {
  const Frame good = wire::frame_unsubscribe(1);

  for (const std::size_t byte : {0u, 1u}) {  // magic
    Frame bad = good;
    bad[byte] ^= 0xFF;
    for (std::size_t cut = byte + 1; cut <= bad.size(); ++cut) {
      EXPECT_EQ(wire::probe_frame(std::span(bad.data(), cut)).status,
                wire::FrameStatus::kCorrupt)
          << "magic byte " << byte << " cut " << cut;
    }
  }

  Frame bad_version = good;
  bad_version[2] = wire::kWireVersion + 1;
  EXPECT_EQ(wire::probe_frame(std::span(bad_version.data(), 3)).status,
            wire::FrameStatus::kCorrupt);

  Frame bad_type = good;
  bad_type[3] = 99;
  EXPECT_EQ(wire::probe_frame(std::span(bad_type.data(), 4)).status,
            wire::FrameStatus::kCorrupt);

  // A length field above the cap is corruption, not a 4 GiB allocation.
  Frame huge = good;
  huge[4] = 0xFF;
  huge[5] = 0xFF;
  huge[6] = 0xFF;
  huge[7] = 0xFF;
  const wire::FrameProbe oversized = wire::probe_frame(huge);
  EXPECT_EQ(oversized.status, wire::FrameStatus::kCorrupt);
}

TEST(WireCodec, OutOfDomainPayloadsAreRejected) {
  const SchemaPtr schema = testutil::example1_schema();
  // Events and profiles valid for a wider schema must be rejected when
  // decoded against a narrower one (index/attribute validation).
  const SchemaPtr wide = SchemaBuilder()
                             .add_integer("temperature", -30, 200)
                             .add_integer("humidity", 0, 100)
                             .add_integer("radiation", 1, 100)
                             .add_integer("extra", 0, 9)
                             .build();
  expect_parse_failure(
      frame_one_event(Event::from_pairs(wide, {{"temperature", 199},
                                               {"humidity", 0},
                                               {"radiation", 1},
                                               {"extra", 0}})),
      schema, "event attribute count mismatch");

  const SchemaPtr three_wide = SchemaBuilder()
                                   .add_integer("temperature", -30, 200)
                                   .add_integer("humidity", 0, 100)
                                   .add_integer("radiation", 1, 100)
                                   .build();
  expect_parse_failure(
      frame_one_event(Event::from_pairs(three_wide, {{"temperature", 199},
                                                     {"humidity", 0},
                                                     {"radiation", 1}})),
      schema, "event index outside domain");
  expect_parse_failure(
      wire::frame_profile(parse_profile(three_wide, "temperature >= 150")),
      schema, "profile interval outside domain");
}

TEST(WireCodec, ByteFlipFuzzNeverCrashes) {
  // Flipping any single byte must either still decode (payload bytes can
  // land on another valid value) or throw Error{kParse} — nothing else.
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<Frame> frames = {
      wire::frame_schema(*schema),
      frame_one_event(Event::from_pairs(schema, {{"temperature", 0},
                                                 {"humidity", 1},
                                                 {"radiation", 2}})),
      wire::frame_subscribe(
          3, parse_profile(schema, "temperature >= 35 && radiation <= 60")),
  };
  Rng rng(99);
  for (const Frame& frame : frames) {
    for (std::size_t at = 0; at < frame.size(); ++at) {
      Frame corrupted = frame;
      corrupted[at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      try {
        (void)wire::decode_message(corrupted, schema);
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kParse)
            << "byte " << at << ": " << e.what();
      }
    }
  }
}

TEST(WireCodec, ReliabilityFramesRoundTrip) {
  const SchemaPtr schema = testutil::example1_schema();
  const Event event = Event::from_pairs(
      schema, {{"temperature", 40}, {"humidity", 91}, {"radiation", 8}}, 5);

  // Link envelope: the nested frame comes back still encoded (dedup before
  // decode), and decoding the inner bytes yields the original message.
  const Frame inner = frame_one_event(event);
  const wire::Message link = wire::decode_message(
      wire::frame_link(0x0123456789ABCDEFULL, inner), schema);
  ASSERT_TRUE(std::holds_alternative<wire::LinkFrameMsg>(link));
  const auto& env = std::get<wire::LinkFrameMsg>(link);
  EXPECT_EQ(env.sequence, 0x0123456789ABCDEFULL);
  EXPECT_EQ(env.inner, inner);
  const wire::Message nested = wire::decode_message(env.inner, schema);
  ASSERT_TRUE(std::holds_alternative<wire::EventBatchMsg>(nested));
  ASSERT_EQ(std::get<wire::EventBatchMsg>(nested).events.size(), 1u);
  EXPECT_EQ(std::get<wire::EventBatchMsg>(nested).events.front().indices(),
            event.indices());

  const wire::Message ack =
      wire::decode_message(wire::frame_link_ack(77), schema);
  ASSERT_TRUE(std::holds_alternative<wire::LinkAckMsg>(ack));
  EXPECT_EQ(std::get<wire::LinkAckMsg>(ack).sequence, 77u);

  const wire::Message hello =
      wire::decode_message(wire::frame_hello(0xC0FFEEULL), schema);
  ASSERT_TRUE(std::holds_alternative<wire::HelloMsg>(hello));
  EXPECT_EQ(std::get<wire::HelloMsg>(hello).session_id, 0xC0FFEEULL);

  for (const bool resumed : {false, true}) {
    const wire::Message hello_ack = wire::decode_message(
        wire::frame_hello_ack(resumed, 0xC0FFEEULL, 31337), schema);
    ASSERT_TRUE(std::holds_alternative<wire::HelloAckMsg>(hello_ack));
    const auto& msg = std::get<wire::HelloAckMsg>(hello_ack);
    EXPECT_EQ(msg.resumed, resumed);
    EXPECT_EQ(msg.session_id, 0xC0FFEEULL);
    EXPECT_EQ(msg.publish_watermark, 31337u);
  }
}

TEST(WireCodec, LinkEnvelopeRejectsCorruptInnerFrames) {
  const SchemaPtr schema = testutil::example1_schema();
  // An envelope whose nested bytes are not themselves a complete valid
  // frame is rejected at the envelope layer.
  const Frame inner = wire::frame_unsubscribe(3);
  const Frame short_inner(inner.begin(), inner.end() - 1);
  expect_parse_failure(wire::frame_link(1, short_inner), schema,
                       "truncated inner frame");

  Frame bad_inner = inner;
  bad_inner[0] ^= 0xFF;
  expect_parse_failure(wire::frame_link(1, bad_inner), schema,
                       "corrupt inner magic");

  // The encoder refuses an empty nested frame outright...
  EXPECT_THROW(wire::frame_link(1, Frame{}), Error);
  // ...so a sequence-only envelope can only arrive hand-crafted; the
  // decoder rejects it too.
  wire::Writer w;
  w.u16(wire::kMagic);
  w.u8(wire::kWireVersion);
  w.u8(static_cast<std::uint8_t>(wire::MessageType::kLinkFrame));
  w.u32(8);  // payload: just the sequence, no nested frame
  w.u64(1);
  expect_parse_failure(w.take(), schema, "empty inner");
}

TEST(WireCodec, ReliabilityFrameByteFlipFuzzNeverCrashes) {
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<Frame> frames = {
      wire::frame_link(42, frame_one_event(Event::from_pairs(
                               schema, {{"temperature", 0},
                                        {"humidity", 1},
                                        {"radiation", 2}}))),
      wire::frame_link_ack(42),
      wire::frame_hello(42),
      wire::frame_hello_ack(true, 42, 7),
  };
  Rng rng(1234);
  for (const Frame& frame : frames) {
    for (std::size_t at = 0; at < frame.size(); ++at) {
      Frame corrupted = frame;
      corrupted[at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      try {
        (void)wire::decode_message(corrupted, schema);
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kParse)
            << "byte " << at << ": " << e.what();
      }
    }
  }
}

TEST(WireCodec, CompositeFramesRoundTrip) {
  const SchemaPtr schema = testutil::example1_schema();
  const CompositeExprPtr expr = parse_composite(
      schema,
      "neg({radiation >= 50}, seq({temperature >= 35}, {humidity >= 90}, "
      "w=10), w=7)");

  const wire::Message sub = wire::decode_message(
      wire::frame_composite_subscribe(0xABCDEF01u, *expr), schema);
  ASSERT_TRUE(std::holds_alternative<wire::CompositeSubscribeMsg>(sub));
  const auto& msg = std::get<wire::CompositeSubscribeMsg>(sub);
  EXPECT_EQ(msg.key, 0xABCDEF01u);
  ASSERT_NE(msg.expression, nullptr);
  // Structural identity via the canonical text form (profile leaves render
  // their normalized expressions).
  EXPECT_EQ(msg.expression->to_string(), expr->to_string());
  EXPECT_TRUE(has_profile_leaves(*msg.expression));

  const wire::Message unsub = wire::decode_message(
      wire::frame_composite_unsubscribe(77), schema);
  ASSERT_TRUE(std::holds_alternative<wire::CompositeUnsubscribeMsg>(unsub));
  EXPECT_EQ(std::get<wire::CompositeUnsubscribeMsg>(unsub).key, 77u);

  const wire::Message firing = wire::decode_message(
      wire::frame_composite_firing(9, -12345), schema);
  ASSERT_TRUE(std::holds_alternative<wire::CompositeFiringMsg>(firing));
  EXPECT_EQ(std::get<wire::CompositeFiringMsg>(firing).key, 9u);
  EXPECT_EQ(std::get<wire::CompositeFiringMsg>(firing).time, -12345);
}

TEST(WireCodec, RandomizedCompositeRoundTrips) {
  Rng rng(2024);
  for (int round = 0; round < 40; ++round) {
    const SchemaPtr schema = random_int_schema(rng);
    // Random expression tree over random single-attribute range profiles.
    const std::function<CompositeExprPtr(int)> build =
        [&](int depth) -> CompositeExprPtr {
      if (depth >= 4 || rng.below(3) == 0) {
        const AttributeId attr = static_cast<AttributeId>(
            rng.below(static_cast<std::uint64_t>(schema->attribute_count())));
        const Domain& domain = schema->attribute(attr).domain;
        const DomainIndex lo =
            static_cast<DomainIndex>(rng.below(
                static_cast<std::uint64_t>(domain.size())));
        return primitive(ProfileBuilder(schema)
                             .where(schema->attribute(attr).name, Op::kGe,
                                    domain.value_at(lo))
                             .build());
      }
      switch (rng.below(4)) {
        case 0: return seq(build(depth + 1), build(depth + 1),
                           1 + static_cast<Timestamp>(rng.below(100)));
        case 1: return conj(build(depth + 1), build(depth + 1),
                            1 + static_cast<Timestamp>(rng.below(100)));
        case 2: return disj(build(depth + 1), build(depth + 1));
        default: return neg(build(depth + 1), build(depth + 1),
                            static_cast<Timestamp>(rng.below(100)));
      }
    };
    const CompositeExprPtr expr = build(0);
    const Frame frame = wire::frame_composite_subscribe(round, *expr);
    const wire::Message decoded = wire::decode_message(frame, schema);
    ASSERT_TRUE(std::holds_alternative<wire::CompositeSubscribeMsg>(decoded));
    EXPECT_EQ(std::get<wire::CompositeSubscribeMsg>(decoded)
                  .expression->to_string(),
              expr->to_string());

    // Every truncation of the composite frame is rejected.
    for (std::size_t cut = 0; cut < frame.size(); cut += 3) {
      expect_parse_failure(
          Frame(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(cut)),
          schema, "composite truncated at " + std::to_string(cut));
    }
  }
}

TEST(WireCodec, CompositeDepthBombIsRejected) {
  // A hostile frame nesting operators past kMaxCompositeDepth must fail
  // with kParse before exhausting the stack.
  const SchemaPtr schema = testutil::example1_schema();
  wire::Writer w;
  w.u16(wire::kMagic);
  w.u8(wire::kWireVersion);
  w.u8(static_cast<std::uint8_t>(wire::MessageType::kCompositeSubscribe));
  const std::size_t depth = wire::kMaxCompositeDepth + 8;
  w.u32(static_cast<std::uint32_t>(8 + depth * 9));  // key + nested seq spine
  w.u64(1);  // key
  for (std::size_t d = 0; d < depth; ++d) {
    w.u8(static_cast<std::uint8_t>(CompositeExpr::Kind::kSeq));
    w.i64(10);
  }
  expect_parse_failure(w.take(), schema, "depth bomb");
}

TEST(WireCodec, CompositeIdLeavesRefuseToSerialize) {
  // Detector-level leaves carry broker-local profile ids; putting them on
  // the wire would be meaningless at the receiver.
  EXPECT_THROW(wire::frame_composite_subscribe(
                   1, *seq(primitive(1), primitive(2), 5)),
               Error);
}

TEST(WireCodec, EncoderEnforcesTheDepthCapSymmetrically) {
  // The encoder must never emit a frame its own decoder refuses: an
  // expression nested past kMaxCompositeDepth fails at encode time.
  const SchemaPtr schema = testutil::example1_schema();
  CompositeExprPtr deep = parse_composite(schema, "{temperature >= 0}");
  for (std::size_t d = 0; d < wire::kMaxCompositeDepth + 4; ++d) {
    deep = disj(deep, parse_composite(schema, "{humidity >= 0}"));
  }
  try {
    wire::frame_composite_subscribe(1, *deep);
    FAIL() << "expected Error{kInvalidArgument}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

TEST(WireCodec, CompositeByteFlipFuzzNeverCrashes) {
  const SchemaPtr schema = testutil::example1_schema();
  const Frame frame = wire::frame_composite_subscribe(
      5, *parse_composite(
             schema, "conj({temperature >= 35}, {humidity >= 90}, w=10)"));
  Rng rng(7);
  for (int round = 0; round < 400; ++round) {
    Frame corrupted = frame;
    const std::size_t at = rng.below(corrupted.size());
    corrupted[at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    try {
      (void)wire::decode_message(corrupted, schema);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse)
          << "byte " << at << ": " << e.what();
    }
  }
}

TEST(WireCodec, InflatedCountsAreRejectedBeforeAllocation) {
  // A frame whose element count claims more data than the buffer holds must
  // fail the count sanity bound, not attempt a giant allocation.
  const SchemaPtr schema = testutil::example1_schema();
  wire::Writer w;
  w.u16(wire::kMagic);
  w.u8(wire::kWireVersion);
  w.u8(static_cast<std::uint8_t>(wire::MessageType::kEvent));
  w.u32(4);            // payload: exactly the count field below
  w.u32(0x40000000u);  // claims a billion attributes
  expect_parse_failure(w.take(), schema, "inflated count");
}

}  // namespace
}  // namespace genas
