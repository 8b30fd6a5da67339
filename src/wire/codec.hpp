// GENAS — binary wire codec for schemas, events, profiles, and the mesh's
// control messages.
//
// The distributed runtime (src/mesh/) transports real serialized bytes over
// its links; this module defines the format. It is deliberately transport-
// agnostic — a frame is a self-contained byte string that works equally over
// an in-process mailbox, a TCP socket, or a log file.
//
// Frame layout (all integers little-endian):
//
//   u16 magic      0x4757 ("GW")
//   u8  version    kWireVersion
//   u8  type       MessageType
//   u32 length     payload byte count
//   ...payload...
//
// A decoder must receive the frame exactly: truncated, oversized, or
// corrupted buffers are rejected with Error{kParse} — every read is
// bounds-checked and every decoded quantity is validated against the schema
// (attribute counts, domain sizes, interval bounds), so malformed input can
// never crash or over-allocate.
//
// Payload formats:
//   schema       u32 attr_count, then per attribute: str name, u8 kind,
//                int: i64 lo, i64 hi | real: f64 lo, f64 hi, f64 resolution |
//                cat: u32 count, count * str
//   event        u32 attr_count, attr_count * u64 domain index, i64
//                timestamp — the single-event form of an eventbatch: the
//                same index run, with the attribute count stated in place of
//                the event count and token flag. Builders emit it for a run
//                of one token-free event; decoders return it as a one-event
//                EventBatchMsg.
//   profile      u32 predicate_count, then per predicate: u32 attribute,
//                u8 op, u32 interval_count, count * (i64 lo, i64 hi)
//   subscribe    u64 subscription key, profile payload
//   unsubscribe  u64 subscription key
//   csubscribe   u64 subscription key, composite expression pre-order:
//                u8 kind, then primitive: profile payload |
//                seq/conj/neg: i64 window, left expr, right expr |
//                disj: left expr, right expr (depth capped at
//                kMaxCompositeDepth)
//   cunsubscribe u64 subscription key
//   cfiring      u64 subscription key, i64 completion timestamp
//   delivery     u64 subscription key, u32 attr_count, then the same index
//                run as an event — the single-entry form of a
//                deliverybatch (server -> client: a notification for the
//                client's subscription `key`), decoded as a one-entry
//                DeliveryBatchMsg
//   flush        u64 token (client -> server: barrier request — the server
//                processes it after every earlier frame on the connection,
//                drains/flushes buffered composite state, and replies)
//   flushdone    u64 token (server -> client: the flush with this token
//                completed; every delivery caused by the client's earlier
//                frames precedes it on the stream)
//   linkframe    u64 sequence number, then one complete nested frame
//                (header + payload) — the at-least-once envelope: a link
//                retransmits it until the sequence is cumulatively acked
//   linkack      u64 sequence (cumulative: every linkframe with sequence
//                <= this value has been received and processed)
//   hello        u64 session id (client -> server, first frame on a
//                connection that wants session resume; 0 = fresh session)
//   helloack     u8 resumed (1 when the server recognized the session),
//                u64 session id (assigned on fresh connect, echoed on
//                resume), u64 publish watermark (highest client publish
//                sequence the server has processed; the client replays
//                everything above it)
//   statsreq     (empty payload; client -> server: scrape request)
//   eventbatch   u32 event_count (>= 1), u8 has_tokens (0|1), then per
//                event: attr_count * u64 domain index, i64 timestamp. The
//                attribute count is taken from the shared schema once for
//                the whole batch (no per-event count), so the events pack
//                as contiguous index runs. When has_tokens is 1 the payload
//                ends with event_count * u64 dedup tokens.
//   deliverybatch u32 count (>= 1), then per delivery: u64 subscription
//                key, attr_count * u64 domain index, i64 timestamp
//                (server -> client: a coalesced run of notifications)
//   statssnap    u32 metric_count, then per metric: str name, u8 kind
//                (obs::MetricKind), i64 value, u32 bound_count (0 unless
//                histogram), bound_count * u64 bucket upper bounds,
//                histogram only: (bound_count + 1) * u64 bucket counts
//                (last = +Inf), u64 sum
//
// Events and profiles are encoded against a schema both ends share (the
// mesh distributes it out of band or via a kSchema frame); decode_* take
// that schema and validate against it.
//
// Streaming: decode_message requires one exact frame, but a byte stream
// (TCP) delivers arbitrary prefixes. probe_frame classifies a buffer
// prefix without decoding: need-more-bytes (a short read — resume once
// more arrive) is distinct from corrupt (bad magic/version/type or an
// absurd length — the stream is unrecoverable), so a socket reader never
// misreports a split frame as a parse error.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "ens/composite.hpp"
#include "event/event.hpp"
#include "obs/metrics.hpp"
#include "profile/profile.hpp"

namespace genas::wire {

inline constexpr std::uint16_t kMagic = 0x4757;  // "GW"
inline constexpr std::uint8_t kWireVersion = 1;

/// Nesting bound for composite expression payloads: decoding is recursive,
/// so unbounded depth would let a hostile frame exhaust the stack.
inline constexpr std::size_t kMaxCompositeDepth = 64;

enum class MessageType : std::uint8_t {
  kSchema = 1,
  kEvent = 2,
  kProfile = 3,
  kSubscribe = 4,
  kUnsubscribe = 5,
  kCompositeSubscribe = 6,
  kCompositeUnsubscribe = 7,
  kCompositeFiring = 8,
  kDelivery = 9,
  kFlush = 10,
  kFlushDone = 11,
  kLinkFrame = 12,
  kLinkAck = 13,
  kHello = 14,
  kHelloAck = 15,
  kStatsRequest = 16,
  kStatsSnapshot = 17,
  kEventBatch = 18,
  kDeliveryBatch = 19,
};

/// Highest valid MessageType value; probe_frame/read_header reject types
/// beyond it. Keep in sync when adding message types.
inline constexpr std::uint8_t kMaxMessageType =
    static_cast<std::uint8_t>(MessageType::kDeliveryBatch);

std::string_view to_string(MessageType type) noexcept;

/// Frame header byte count (magic + version + type + length).
inline constexpr std::size_t kFrameHeaderSize = 8;

/// Upper bound on a frame's payload length field. Far above any real
/// message, far below anything that could exhaust memory: a stream whose
/// length field exceeds it is corrupt, not merely short.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 26;  // 64 MiB

/// Classification of a byte-stream prefix (see probe_frame).
enum class FrameStatus : std::uint8_t {
  kComplete,  ///< buffer starts with one whole frame of `size` bytes
  kNeedMore,  ///< valid so far but short — read more bytes and re-probe
  kCorrupt,   ///< the prefix can never become a valid frame
};

struct FrameProbe {
  FrameStatus status = FrameStatus::kNeedMore;
  /// Total frame size (header + payload). Valid when kComplete; when
  /// kNeedMore with a full header it is the size the frame will have, and
  /// 0 while even the header is incomplete.
  std::size_t size = 0;
  /// Static diagnostic, non-null when kCorrupt.
  const char* error = nullptr;
};

/// Probes the start of `data` for a frame without decoding the payload.
/// Every header byte present is validated immediately, so a corrupt stream
/// is detected as soon as the offending byte arrives; a buffer that is
/// merely short reports kNeedMore, never kCorrupt. Bytes beyond the first
/// frame are ignored (streams carry back-to-back frames).
FrameProbe probe_frame(std::span<const std::uint8_t> data) noexcept;

/// Append-only little-endian byte sink.
class Writer {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(std::string_view s);  ///< u32 length + raw bytes
  void raw(std::span<const std::uint8_t> bytes);  ///< bytes only, no length

  std::size_t size() const noexcept { return buffer_.size(); }
  void clear() noexcept { buffer_.clear(); }  ///< reset, keeping capacity
  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  const std::vector<std::uint8_t>& bytes() const noexcept { return buffer_; }

  /// Overwrites 4 bytes at `position` (frame length back-patching).
  void patch_u32(std::size_t position, std::uint32_t v);

  /// Overwrites 1 byte at `position` (batch flag back-patching).
  void patch_u8(std::size_t position, std::uint8_t v);

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked little-endian byte source; overruns throw Error{kParse}.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  std::vector<std::uint8_t> bytes(std::size_t n);  ///< n raw bytes

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }
  /// Throws Error{kParse} when bytes are left over (exact-size framing).
  void expect_done() const;
  /// Sanity bound for a decoded element count: each element consumes at
  /// least `min_bytes`, so counts beyond remaining()/min_bytes are corrupt.
  std::uint32_t count(std::uint32_t raw, std::size_t min_bytes) const;

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

namespace detail {
/// Writes a frame header with a zero length field; returns the position of
/// the length field for end_frame to back-patch. Shared by codec.cpp's
/// frame_* builders and the incremental batch builders in wire/batch.hpp.
std::size_t begin_frame(Writer& w, MessageType type);
/// Patches the frame length and releases the finished frame bytes.
std::vector<std::uint8_t> end_frame(Writer& w, std::size_t length_at);
}  // namespace detail

// Payload codecs (no frame header).
void encode_schema(Writer& w, const Schema& schema);
SchemaPtr decode_schema(Reader& r);
void encode_profile(Writer& w, const Profile& profile);
Profile decode_profile(Reader& r, const SchemaPtr& schema);
/// Pre-order expression encoding; every leaf must be a profile leaf
/// (`primitive(Profile)`) — detector-level id leaves are broker-local and
/// refuse to serialize with Error{kInvalidArgument}.
void encode_composite(Writer& w, const CompositeExpr& expr);
CompositeExprPtr decode_composite(Reader& r, const SchemaPtr& schema);

// Framed messages (header + payload, ready for a link).
std::vector<std::uint8_t> frame_schema(const Schema& schema);
std::vector<std::uint8_t> frame_profile(const Profile& profile);
std::vector<std::uint8_t> frame_subscribe(std::uint64_t key,
                                          const Profile& profile);
std::vector<std::uint8_t> frame_unsubscribe(std::uint64_t key);
std::vector<std::uint8_t> frame_composite_subscribe(std::uint64_t key,
                                                    const CompositeExpr& expr);
std::vector<std::uint8_t> frame_composite_unsubscribe(std::uint64_t key);
std::vector<std::uint8_t> frame_composite_firing(std::uint64_t key,
                                                 Timestamp time);
std::vector<std::uint8_t> frame_flush(std::uint64_t token);
std::vector<std::uint8_t> frame_flush_done(std::uint64_t token);
/// Wraps one complete inner frame in an at-least-once envelope; the inner
/// bytes must themselves be a valid frame (validated on decode, not here).
std::vector<std::uint8_t> frame_link(std::uint64_t sequence,
                                     std::span<const std::uint8_t> inner);
std::vector<std::uint8_t> frame_link_ack(std::uint64_t sequence);
std::vector<std::uint8_t> frame_hello(std::uint64_t session_id);
std::vector<std::uint8_t> frame_hello_ack(bool resumed,
                                          std::uint64_t session_id,
                                          std::uint64_t publish_watermark);
std::vector<std::uint8_t> frame_stats_request();
std::vector<std::uint8_t> frame_stats_snapshot(const obs::StatsSnapshot& stats);
/// Frames a run of events sharing one schema — the one event encoder; a
/// single event is a run of one (`frame_event_batch({&event, 1})`).
/// `tokens`, when non-empty, must be one dedup token per event; an all-zero
/// token run is omitted from the wire. A run of one token-free event is
/// written in its kEvent form, anything else as a kEventBatch. Empty input
/// is an error — there is no empty batch frame.
std::vector<std::uint8_t> frame_event_batch(
    std::span<const Event> events, std::span<const std::uint64_t> tokens = {});
/// Frames a run of (subscription key, event) deliveries — the one delivery
/// encoder; a single delivery is written in its kDelivery form, longer runs
/// as a kDeliveryBatch.
std::vector<std::uint8_t> frame_delivery_batch(
    std::span<const std::uint64_t> keys, std::span<const Event> events);

/// Decoded frame contents.
struct SchemaMsg {
  SchemaPtr schema;
};
struct ProfileMsg {
  Profile profile;
};
struct SubscribeMsg {
  std::uint64_t key;
  Profile profile;
};
struct UnsubscribeMsg {
  std::uint64_t key;
};
struct CompositeSubscribeMsg {
  std::uint64_t key;
  CompositeExprPtr expression;
};
struct CompositeUnsubscribeMsg {
  std::uint64_t key;
};
struct CompositeFiringMsg {
  std::uint64_t key;
  Timestamp time;
};
struct FlushMsg {
  std::uint64_t token;
};
struct FlushDoneMsg {
  std::uint64_t token;
};
struct LinkFrameMsg {
  std::uint64_t sequence;
  /// The envelope's nested frame, still encoded: the receiver dedups by
  /// sequence first and only then pays for decoding the inner message.
  std::vector<std::uint8_t> inner;
};
struct LinkAckMsg {
  std::uint64_t sequence;  ///< cumulative: all sequences <= this are acked
};
struct HelloMsg {
  std::uint64_t session_id;  ///< 0 requests a fresh session
};
struct HelloAckMsg {
  bool resumed;
  std::uint64_t session_id;
  std::uint64_t publish_watermark;
};
struct StatsRequestMsg {};
struct StatsSnapshotMsg {
  obs::StatsSnapshot stats;
};
/// A kEvent (one event) or kEventBatch frame.
struct EventBatchMsg {
  std::vector<Event> events;
  /// One dedup token per event, or empty when the frame carried none.
  std::vector<std::uint64_t> tokens;
};
/// A kDelivery (one entry) or kDeliveryBatch frame.
struct DeliveryBatchMsg {
  std::vector<std::uint64_t> keys;  ///< one subscription key per event
  std::vector<Event> events;
};
using Message =
    std::variant<SchemaMsg, ProfileMsg, SubscribeMsg, UnsubscribeMsg,
                 CompositeSubscribeMsg, CompositeUnsubscribeMsg,
                 CompositeFiringMsg, FlushMsg, FlushDoneMsg, LinkFrameMsg,
                 LinkAckMsg, HelloMsg, HelloAckMsg, StatsRequestMsg,
                 StatsSnapshotMsg, EventBatchMsg, DeliveryBatchMsg>;

/// Frame type without decoding the payload; throws Error{kParse} on a
/// malformed header.
MessageType peek_type(std::span<const std::uint8_t> frame);

/// Decodes one complete frame. `schema` interprets event/profile payloads
/// (ignored for kSchema). Any malformation — truncation, trailing garbage,
/// bad magic/version/type, out-of-domain values — throws Error{kParse}.
Message decode_message(std::span<const std::uint8_t> frame,
                       const SchemaPtr& schema);

}  // namespace genas::wire
