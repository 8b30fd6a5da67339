#include "wire/codec.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/error.hpp"
#include "profile/predicate.hpp"
#include "wire/batch.hpp"

namespace genas::wire {

std::string_view to_string(MessageType type) noexcept {
  switch (type) {
    case MessageType::kSchema:      return "schema";
    case MessageType::kEvent:       return "event";
    case MessageType::kProfile:     return "profile";
    case MessageType::kSubscribe:   return "subscribe";
    case MessageType::kUnsubscribe: return "unsubscribe";
    case MessageType::kCompositeSubscribe:   return "csubscribe";
    case MessageType::kCompositeUnsubscribe: return "cunsubscribe";
    case MessageType::kCompositeFiring:      return "cfiring";
    case MessageType::kDelivery:             return "delivery";
    case MessageType::kFlush:                return "flush";
    case MessageType::kFlushDone:            return "flushdone";
    case MessageType::kLinkFrame:            return "linkframe";
    case MessageType::kLinkAck:              return "linkack";
    case MessageType::kHello:                return "hello";
    case MessageType::kHelloAck:             return "helloack";
    case MessageType::kStatsRequest:         return "statsreq";
    case MessageType::kStatsSnapshot:        return "statssnap";
    case MessageType::kEventBatch:           return "eventbatch";
    case MessageType::kDeliveryBatch:        return "deliverybatch";
  }
  return "?";
}

FrameProbe probe_frame(std::span<const std::uint8_t> data) noexcept {
  // Validate each header byte as soon as it is present: a corrupt stream
  // fails on the first bad byte instead of stalling in need-more forever.
  if (data.size() >= 1 && data[0] != static_cast<std::uint8_t>(kMagic)) {
    return {FrameStatus::kCorrupt, 0, "bad magic"};
  }
  if (data.size() >= 2 && data[1] != static_cast<std::uint8_t>(kMagic >> 8)) {
    return {FrameStatus::kCorrupt, 0, "bad magic"};
  }
  if (data.size() >= 3 && data[2] != kWireVersion) {
    return {FrameStatus::kCorrupt, 0, "unsupported wire version"};
  }
  if (data.size() >= 4 &&
      (data[3] < static_cast<std::uint8_t>(MessageType::kSchema) ||
       data[3] > kMaxMessageType)) {
    return {FrameStatus::kCorrupt, 0, "unknown message type"};
  }
  if (data.size() < kFrameHeaderSize) {
    return {FrameStatus::kNeedMore, 0, nullptr};
  }
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(data[4 + static_cast<std::size_t>(i)])
              << (8 * i);
  }
  if (length > kMaxFramePayload) {
    return {FrameStatus::kCorrupt, 0, "frame length exceeds the payload cap"};
  }
  const std::size_t total = kFrameHeaderSize + length;
  if (data.size() < total) {
    return {FrameStatus::kNeedMore, total, nullptr};
  }
  return {FrameStatus::kComplete, total, nullptr};
}

namespace {

[[noreturn]] void parse_fail(const std::string& what) {
  throw_error(ErrorCode::kParse, "wire: " + what);
}

/// Decoding reuses the library's constructors (SchemaBuilder, Predicate
/// factories, Event::from_indices), whose validation throws kInvalidArgument
/// or kDomainViolation. Seen from the wire, those are all the same condition
/// — a buffer that does not encode a valid message — so remap them to kParse.
template <typename Fn>
auto as_parse(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kParse) throw;
    throw_error(ErrorCode::kParse, std::string("wire: ") + e.what());
  }
}

}  // namespace

void Writer::u16(std::uint16_t v) {
  buffer_.push_back(static_cast<std::uint8_t>(v));
  buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void Writer::raw(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void Writer::patch_u32(std::size_t position, std::uint32_t v) {
  GENAS_CHECK(position + 4 <= buffer_.size(), "patch beyond buffer");
  for (int i = 0; i < 4; ++i) {
    buffer_[position + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void Writer::patch_u8(std::size_t position, std::uint8_t v) {
  GENAS_CHECK(position < buffer_.size(), "patch beyond buffer");
  buffer_[position] = v;
}

std::uint8_t Reader::u8() {
  if (pos_ >= data_.size()) parse_fail("truncated buffer");
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  const std::uint16_t lo = u8();
  return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
}

std::uint32_t Reader::u32() {
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(u8()) << shift;
  }
  return v;
}

std::uint64_t Reader::u64() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(u8()) << shift;
  }
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint32_t length = count(u32(), 1);
  std::string s(length, '\0');
  for (std::uint32_t i = 0; i < length; ++i) {
    s[i] = static_cast<char>(u8());
  }
  return s;
}

std::vector<std::uint8_t> Reader::bytes(std::size_t n) {
  if (n > remaining()) parse_fail("truncated buffer");
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

void Reader::expect_done() const {
  if (!done()) parse_fail("trailing bytes after message");
}

std::uint32_t Reader::count(std::uint32_t raw, std::size_t min_bytes) const {
  if (static_cast<std::size_t>(raw) * min_bytes > remaining()) {
    parse_fail("element count exceeds buffer size");
  }
  return raw;
}

void encode_schema(Writer& w, const Schema& schema) {
  w.u32(static_cast<std::uint32_t>(schema.attribute_count()));
  for (const Attribute& attribute : schema.attributes()) {
    w.str(attribute.name);
    const Domain& domain = attribute.domain;
    w.u8(static_cast<std::uint8_t>(domain.kind()));
    switch (domain.kind()) {
      case ValueKind::kInt:
        w.i64(static_cast<std::int64_t>(domain.numeric_lo()));
        w.i64(static_cast<std::int64_t>(domain.numeric_hi()));
        break;
      case ValueKind::kReal:
        w.f64(domain.numeric_lo());
        w.f64(domain.numeric_hi());
        w.f64(domain.resolution());
        break;
      case ValueKind::kCategory:
        w.u32(static_cast<std::uint32_t>(domain.size()));
        for (DomainIndex i = 0; i < domain.size(); ++i) {
          w.str(domain.value_at(i).as_category());
        }
        break;
    }
  }
}

SchemaPtr decode_schema(Reader& r) {
  return as_parse([&] {
    SchemaBuilder builder;
    const std::uint32_t attributes = r.count(r.u32(), 5);
    if (attributes == 0) parse_fail("schema with no attributes");
    for (std::uint32_t a = 0; a < attributes; ++a) {
      std::string name = r.str();
      const std::uint8_t kind = r.u8();
      switch (kind) {
        case static_cast<std::uint8_t>(ValueKind::kInt): {
          const std::int64_t lo = r.i64();
          const std::int64_t hi = r.i64();
          builder.add_integer(std::move(name), lo, hi);
          break;
        }
        case static_cast<std::uint8_t>(ValueKind::kReal): {
          const double lo = r.f64();
          const double hi = r.f64();
          const double resolution = r.f64();
          builder.add_real(std::move(name), lo, hi, resolution);
          break;
        }
        case static_cast<std::uint8_t>(ValueKind::kCategory): {
          const std::uint32_t categories = r.count(r.u32(), 4);
          if (categories == 0) parse_fail("categorical domain with no values");
          std::vector<std::string> names;
          names.reserve(categories);
          for (std::uint32_t i = 0; i < categories; ++i) {
            names.push_back(r.str());
          }
          builder.add_categorical(std::move(name), std::move(names));
          break;
        }
        default:
          parse_fail("unknown domain kind " + std::to_string(kind));
      }
    }
    return builder.build();
  });
}

void encode_profile(Writer& w, const Profile& profile) {
  const std::vector<Predicate>& predicates = profile.predicates();
  w.u32(static_cast<std::uint32_t>(predicates.size()));
  for (const Predicate& predicate : predicates) {
    w.u32(static_cast<std::uint32_t>(predicate.attribute()));
    w.u8(static_cast<std::uint8_t>(predicate.op()));
    const std::vector<Interval>& intervals =
        predicate.accepted().intervals();
    w.u32(static_cast<std::uint32_t>(intervals.size()));
    for (const Interval& interval : intervals) {
      w.i64(interval.lo);
      w.i64(interval.hi);
    }
  }
}

Profile decode_profile(Reader& r, const SchemaPtr& schema) {
  return as_parse([&] {
    GENAS_REQUIRE(schema != nullptr, ErrorCode::kInvalidArgument,
                  "profile decoding requires a schema");
    const std::uint32_t predicates = r.count(r.u32(), 9);
    if (predicates > schema->attribute_count()) {
      parse_fail("profile constrains more attributes than the schema has");
    }
    ProfileBuilder builder(schema);
    for (std::uint32_t p = 0; p < predicates; ++p) {
      const std::uint32_t attribute = r.u32();
      if (attribute >= schema->attribute_count()) {
        parse_fail("profile references unknown attribute id " +
                   std::to_string(attribute));
      }
      const std::uint8_t op_raw = r.u8();
      if (op_raw > static_cast<std::uint8_t>(Op::kIn)) {
        parse_fail("unknown predicate operator " + std::to_string(op_raw));
      }
      const std::uint32_t interval_count = r.count(r.u32(), 16);
      if (interval_count == 0) parse_fail("predicate with no intervals");
      std::vector<Interval> intervals;
      intervals.reserve(interval_count);
      for (std::uint32_t i = 0; i < interval_count; ++i) {
        const DomainIndex lo = r.i64();
        const DomainIndex hi = r.i64();
        if (lo > hi) parse_fail("predicate interval with lo > hi");
        intervals.emplace_back(lo, hi);
      }
      builder.add(Predicate::from_accepted(*schema, attribute,
                                           static_cast<Op>(op_raw),
                                           IntervalSet(std::move(intervals))));
    }
    return builder.build();
  });
}

namespace {

void encode_composite_node(Writer& w, const CompositeExpr& expr,
                           std::size_t depth) {
  // Symmetric with the decoder's cap: never emit a frame the other end
  // must refuse (and bound the encoder's own recursion).
  GENAS_REQUIRE(depth <= kMaxCompositeDepth, ErrorCode::kInvalidArgument,
                "composite expression nested deeper than " +
                    std::to_string(kMaxCompositeDepth));
  w.u8(static_cast<std::uint8_t>(expr.kind()));
  switch (expr.kind()) {
    case CompositeExpr::Kind::kPrimitive:
      GENAS_REQUIRE(expr.leaf_profile() != nullptr,
                    ErrorCode::kInvalidArgument,
                    "only profile-leaf composite expressions serialize "
                    "(profile-id leaves are broker-local)");
      encode_profile(w, *expr.leaf_profile());
      break;
    case CompositeExpr::Kind::kSeq:
    case CompositeExpr::Kind::kConj:
    case CompositeExpr::Kind::kNeg:
      w.i64(expr.window());
      encode_composite_node(w, *expr.left(), depth + 1);
      encode_composite_node(w, *expr.right(), depth + 1);
      break;
    case CompositeExpr::Kind::kDisj:
      encode_composite_node(w, *expr.left(), depth + 1);
      encode_composite_node(w, *expr.right(), depth + 1);
      break;
  }
}

}  // namespace

void encode_composite(Writer& w, const CompositeExpr& expr) {
  encode_composite_node(w, expr, 0);
}

namespace {

CompositeExprPtr decode_composite_node(Reader& r, const SchemaPtr& schema,
                                       std::size_t depth) {
  if (depth > kMaxCompositeDepth) {
    parse_fail("composite expression nested deeper than " +
               std::to_string(kMaxCompositeDepth));
  }
  const std::uint8_t kind = r.u8();
  switch (kind) {
    case static_cast<std::uint8_t>(CompositeExpr::Kind::kPrimitive):
      return primitive(decode_profile(r, schema));
    case static_cast<std::uint8_t>(CompositeExpr::Kind::kSeq):
    case static_cast<std::uint8_t>(CompositeExpr::Kind::kConj):
    case static_cast<std::uint8_t>(CompositeExpr::Kind::kNeg): {
      const Timestamp window = r.i64();
      CompositeExprPtr left = decode_composite_node(r, schema, depth + 1);
      CompositeExprPtr right = decode_composite_node(r, schema, depth + 1);
      // The factories validate window bounds (kInvalidArgument -> kParse).
      if (kind == static_cast<std::uint8_t>(CompositeExpr::Kind::kSeq)) {
        return seq(std::move(left), std::move(right), window);
      }
      if (kind == static_cast<std::uint8_t>(CompositeExpr::Kind::kConj)) {
        return conj(std::move(left), std::move(right), window);
      }
      return neg(std::move(left), std::move(right), window);
    }
    case static_cast<std::uint8_t>(CompositeExpr::Kind::kDisj): {
      CompositeExprPtr left = decode_composite_node(r, schema, depth + 1);
      CompositeExprPtr right = decode_composite_node(r, schema, depth + 1);
      return disj(std::move(left), std::move(right));
    }
    default:
      parse_fail("unknown composite node kind " + std::to_string(kind));
  }
}

}  // namespace

CompositeExprPtr decode_composite(Reader& r, const SchemaPtr& schema) {
  return as_parse([&] { return decode_composite_node(r, schema, 0); });
}

namespace detail {

std::size_t begin_frame(Writer& w, MessageType type) {
  w.u16(kMagic);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(type));
  const std::size_t length_at = w.size();
  w.u32(0);  // patched by end_frame
  return length_at;
}

std::vector<std::uint8_t> end_frame(Writer& w, std::size_t length_at) {
  w.patch_u32(length_at, static_cast<std::uint32_t>(w.size() - length_at - 4));
  return w.take();
}

}  // namespace detail

using detail::begin_frame;
using detail::end_frame;

std::vector<std::uint8_t> frame_schema(const Schema& schema) {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kSchema);
  encode_schema(w, schema);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_profile(const Profile& profile) {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kProfile);
  encode_profile(w, profile);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_subscribe(std::uint64_t key,
                                          const Profile& profile) {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kSubscribe);
  w.u64(key);
  encode_profile(w, profile);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_unsubscribe(std::uint64_t key) {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kUnsubscribe);
  w.u64(key);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_composite_subscribe(std::uint64_t key,
                                                    const CompositeExpr& expr) {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kCompositeSubscribe);
  w.u64(key);
  encode_composite(w, expr);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_composite_unsubscribe(std::uint64_t key) {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kCompositeUnsubscribe);
  w.u64(key);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_composite_firing(std::uint64_t key,
                                                 Timestamp time) {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kCompositeFiring);
  w.u64(key);
  w.i64(time);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_flush(std::uint64_t token) {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kFlush);
  w.u64(token);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_flush_done(std::uint64_t token) {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kFlushDone);
  w.u64(token);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_link(std::uint64_t sequence,
                                     std::span<const std::uint8_t> inner) {
  GENAS_REQUIRE(!inner.empty(), ErrorCode::kInvalidArgument,
                "a link frame must wrap a nested frame");
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kLinkFrame);
  w.u64(sequence);
  for (const std::uint8_t b : inner) w.u8(b);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_link_ack(std::uint64_t sequence) {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kLinkAck);
  w.u64(sequence);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_hello(std::uint64_t session_id) {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kHello);
  w.u64(session_id);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_hello_ack(bool resumed,
                                          std::uint64_t session_id,
                                          std::uint64_t publish_watermark) {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kHelloAck);
  w.u8(resumed ? 1 : 0);
  w.u64(session_id);
  w.u64(publish_watermark);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_stats_request() {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kStatsRequest);
  return end_frame(w, at);
}

std::vector<std::uint8_t> frame_stats_snapshot(
    const obs::StatsSnapshot& stats) {
  Writer w;
  const std::size_t at = begin_frame(w, MessageType::kStatsSnapshot);
  w.u32(static_cast<std::uint32_t>(stats.metrics.size()));
  for (const obs::MetricSnapshot& m : stats.metrics) {
    w.str(m.name);
    w.u8(static_cast<std::uint8_t>(m.kind));
    w.i64(m.value);
    const bool hist = m.kind == obs::MetricKind::kHistogram;
    GENAS_REQUIRE(!hist || m.counts.size() == m.bounds.size() + 1,
                  ErrorCode::kInvalidArgument,
                  "histogram snapshot needs bounds+1 bucket counts");
    w.u32(hist ? static_cast<std::uint32_t>(m.bounds.size()) : 0);
    if (hist) {
      for (const std::uint64_t b : m.bounds) w.u64(b);
      for (const std::uint64_t c : m.counts) w.u64(c);
      w.u64(m.sum);
    }
  }
  return end_frame(w, at);
}

namespace {

/// One entry's index run — attr_count * u64 domain index, then i64
/// timestamp — validated against the schema, with the index storage drawn
/// from `arena`. This is the one element decoder: every event and delivery
/// frame, single or batched, is a sequence of these runs.
Event decode_index_run(Reader& r, const SchemaPtr& schema, EventArena& arena) {
  const std::size_t attributes = schema->attribute_count();
  std::vector<DomainIndex> indices = arena.checkout(attributes);
  for (std::size_t a = 0; a < attributes; ++a) {
    const std::uint64_t raw = r.u64();
    const std::int64_t domain_size = schema->attribute(a).domain.size();
    if (raw >= static_cast<std::uint64_t>(domain_size)) {
      parse_fail("event index " + std::to_string(raw) +
                 " outside domain of '" + schema->attribute(a).name + "'");
    }
    indices.push_back(static_cast<DomainIndex>(raw));
  }
  const Timestamp time = r.i64();
  return Event::from_indices(schema, std::move(indices), time);
}

/// The entry count of an event or delivery run. A batch frame states it
/// (at least one, bounded by the buffer); a single-entry frame has exactly
/// one.
std::uint32_t read_entry_count(Reader& r, bool batch, std::size_t entry_bytes) {
  if (!batch) return 1;
  const std::uint32_t entries = r.count(r.u32(), entry_bytes);
  if (entries == 0) parse_fail("empty batch");
  return entries;
}

/// A single-entry frame states the attribute count its batch form leaves
/// implicit; it must match the schema.
void expect_attribute_count(Reader& r, const Schema& schema) {
  const std::uint32_t attributes = r.u32();
  if (attributes != schema.attribute_count()) {
    parse_fail("event attribute count " + std::to_string(attributes) +
               " does not match schema (" +
               std::to_string(schema.attribute_count()) + ")");
  }
}

/// Decodes the payload of a kEvent (`batch` false) or kEventBatch frame to
/// its end, appending the events to `events` and, when the frame carries a
/// token run, one token per event to `tokens`. Returns whether it carried
/// one. All or nothing: on a throw both vectors are truncated back to the
/// sizes they entered with.
bool decode_event_run(Reader& r, bool batch, const SchemaPtr& schema,
                      EventArena& arena, std::vector<Event>& events,
                      std::vector<std::uint64_t>& tokens) {
  const std::size_t events_at = events.size();
  const std::size_t tokens_at = tokens.size();
  try {
    return as_parse([&] {
      GENAS_REQUIRE(schema != nullptr, ErrorCode::kInvalidArgument,
                    "event decoding requires a schema");
      const std::uint32_t count =
          read_entry_count(r, batch, schema->attribute_count() * 8 + 8);
      const std::uint8_t has_tokens = batch ? r.u8() : 0;
      if (has_tokens > 1) parse_fail("event batch token flag must be 0 or 1");
      if (!batch) expect_attribute_count(r, *schema);
      for (std::uint32_t i = 0; i < count; ++i) {
        events.push_back(decode_index_run(r, schema, arena));
      }
      if (has_tokens == 1) {
        for (std::uint32_t i = 0; i < count; ++i) tokens.push_back(r.u64());
      }
      r.expect_done();
      return has_tokens == 1;
    });
  } catch (...) {
    events.erase(events.begin() + static_cast<std::ptrdiff_t>(events_at),
                 events.end());
    tokens.resize(tokens_at);
    throw;
  }
}

/// Decodes the payload of a kDelivery (`batch` false) or kDeliveryBatch
/// frame to its end.
DeliveryBatchMsg decode_delivery_run(Reader& r, bool batch,
                                     const SchemaPtr& schema) {
  return as_parse([&] {
    GENAS_REQUIRE(schema != nullptr, ErrorCode::kInvalidArgument,
                  "event decoding requires a schema");
    const std::uint32_t count =
        read_entry_count(r, batch, 8 + schema->attribute_count() * 8 + 8);
    DeliveryBatchMsg msg;
    msg.keys.reserve(count);
    msg.events.reserve(count);
    EventArena fresh;
    for (std::uint32_t i = 0; i < count; ++i) {
      msg.keys.push_back(r.u64());
      if (!batch) expect_attribute_count(r, *schema);
      msg.events.push_back(decode_index_run(r, schema, fresh));
    }
    r.expect_done();
    return msg;
  });
}

MessageType read_header(Reader& r, std::size_t frame_size) {
  if (r.u16() != kMagic) parse_fail("bad magic");
  const std::uint8_t version = r.u8();
  if (version != kWireVersion) {
    parse_fail("unsupported wire version " + std::to_string(version));
  }
  const std::uint8_t type = r.u8();
  if (type < static_cast<std::uint8_t>(MessageType::kSchema) ||
      type > kMaxMessageType) {
    parse_fail("unknown message type " + std::to_string(type));
  }
  const std::uint32_t length = r.u32();
  if (static_cast<std::size_t>(length) + 8 != frame_size) {
    parse_fail("frame length field does not match buffer size");
  }
  return static_cast<MessageType>(type);
}

}  // namespace

MessageType peek_type(std::span<const std::uint8_t> frame) {
  Reader r(frame);
  return read_header(r, frame.size());
}

Message decode_message(std::span<const std::uint8_t> frame,
                       const SchemaPtr& schema) {
  Reader r(frame);
  const MessageType type = read_header(r, frame.size());
  switch (type) {
    case MessageType::kSchema: {
      SchemaMsg msg{decode_schema(r)};
      r.expect_done();
      return msg;
    }
    case MessageType::kEvent:
    case MessageType::kEventBatch: {
      EventBatchMsg msg;
      EventArena fresh;
      decode_event_run(r, type == MessageType::kEventBatch, schema, fresh,
                       msg.events, msg.tokens);
      return msg;
    }
    case MessageType::kDelivery:
    case MessageType::kDeliveryBatch:
      return decode_delivery_run(r, type == MessageType::kDeliveryBatch,
                                 schema);
    case MessageType::kProfile: {
      ProfileMsg msg{decode_profile(r, schema)};
      r.expect_done();
      return msg;
    }
    case MessageType::kSubscribe: {
      const std::uint64_t key = r.u64();
      SubscribeMsg msg{key, decode_profile(r, schema)};
      r.expect_done();
      return msg;
    }
    case MessageType::kUnsubscribe: {
      UnsubscribeMsg msg{r.u64()};
      r.expect_done();
      return msg;
    }
    case MessageType::kCompositeSubscribe: {
      const std::uint64_t key = r.u64();
      CompositeSubscribeMsg msg{key, decode_composite(r, schema)};
      r.expect_done();
      return msg;
    }
    case MessageType::kCompositeUnsubscribe: {
      CompositeUnsubscribeMsg msg{r.u64()};
      r.expect_done();
      return msg;
    }
    case MessageType::kCompositeFiring: {
      const std::uint64_t key = r.u64();
      CompositeFiringMsg msg{key, r.i64()};
      r.expect_done();
      return msg;
    }
    case MessageType::kFlush: {
      FlushMsg msg{r.u64()};
      r.expect_done();
      return msg;
    }
    case MessageType::kFlushDone: {
      FlushDoneMsg msg{r.u64()};
      r.expect_done();
      return msg;
    }
    case MessageType::kLinkFrame: {
      const std::uint64_t sequence = r.u64();
      LinkFrameMsg msg{sequence, r.bytes(r.remaining())};
      // The envelope must wrap exactly one well-formed frame; a receiver
      // decodes the inner bytes only after the dedup check passes, so the
      // header sanity happens here, once, at envelope-decode time.
      const FrameProbe probe = probe_frame(msg.inner);
      if (probe.status != FrameStatus::kComplete ||
          probe.size != msg.inner.size()) {
        parse_fail("link frame does not wrap exactly one frame");
      }
      r.expect_done();
      return msg;
    }
    case MessageType::kLinkAck: {
      LinkAckMsg msg{r.u64()};
      r.expect_done();
      return msg;
    }
    case MessageType::kHello: {
      HelloMsg msg{r.u64()};
      r.expect_done();
      return msg;
    }
    case MessageType::kHelloAck: {
      const std::uint8_t resumed = r.u8();
      if (resumed > 1) parse_fail("helloack resumed flag must be 0 or 1");
      HelloAckMsg msg{resumed == 1, r.u64(), r.u64()};
      r.expect_done();
      return msg;
    }
    case MessageType::kStatsRequest: {
      r.expect_done();
      return StatsRequestMsg{};
    }
    case MessageType::kStatsSnapshot: {
      StatsSnapshotMsg msg;
      // Each metric is at least a str length + kind + value + bound count.
      const std::uint32_t metrics = r.count(r.u32(), 4 + 1 + 8 + 4);
      msg.stats.metrics.reserve(metrics);
      for (std::uint32_t i = 0; i < metrics; ++i) {
        obs::MetricSnapshot& m = msg.stats.metrics.emplace_back();
        m.name = r.str();
        const std::uint8_t kind = r.u8();
        if (kind > static_cast<std::uint8_t>(obs::MetricKind::kHistogram)) {
          parse_fail("unknown metric kind " + std::to_string(kind));
        }
        m.kind = static_cast<obs::MetricKind>(kind);
        m.value = r.i64();
        const std::uint32_t bounds = r.count(r.u32(), 8);
        const bool hist = m.kind == obs::MetricKind::kHistogram;
        if (hist != (bounds != 0) || bounds > obs::kMaxHistogramBuckets) {
          parse_fail("metric '" + m.name + "' has inconsistent bucket count " +
                     std::to_string(bounds));
        }
        if (hist) {
          m.bounds.reserve(bounds);
          for (std::uint32_t b = 0; b < bounds; ++b) m.bounds.push_back(r.u64());
          if (!std::is_sorted(m.bounds.begin(), m.bounds.end()) ||
              std::adjacent_find(m.bounds.begin(), m.bounds.end()) !=
                  m.bounds.end()) {
            parse_fail("metric '" + m.name + "' bucket bounds not ascending");
          }
          m.counts.reserve(bounds + 1);
          for (std::uint32_t b = 0; b <= bounds; ++b) m.counts.push_back(r.u64());
          m.sum = r.u64();
        }
      }
      r.expect_done();
      return msg;
    }
  }
  parse_fail("unreachable message type");
}

std::size_t decode_event_batch(std::span<const std::uint8_t> frame,
                               const SchemaPtr& schema, EventArena& arena,
                               std::vector<Event>& events,
                               std::vector<std::uint64_t>& tokens) {
  Reader r(frame);
  const MessageType type = read_header(r, frame.size());
  if (type != MessageType::kEvent && type != MessageType::kEventBatch) {
    parse_fail("decode_event_batch requires a kEvent or kEventBatch frame");
  }
  const std::size_t events_at = events.size();
  if (!decode_event_run(r, type == MessageType::kEventBatch, schema, arena,
                        events, tokens)) {
    tokens.insert(tokens.end(), events.size() - events_at, 0);
  }
  return events.size() - events_at;
}

}  // namespace genas::wire
