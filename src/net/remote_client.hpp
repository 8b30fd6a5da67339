// GENAS — RemoteBrokerClient: the Broker API over a TCP connection.
//
// Connects to a BrokerServer, adopts the server's schema from the
// handshake frame, and mirrors the local service surface: subscribe /
// unsubscribe (plain and composite) and publish, with notifications and
// composite firings delivered to local callbacks from a background reader
// thread. flush() is the synchronization point: it round-trips a barrier
// token, and when it returns every delivery caused by this client's
// earlier publishes has already been dispatched to its callback (the
// server writes those deliveries before the barrier reply; see
// broker_server.hpp for the exact ordering contract).
//
// Threading: API calls are safe from any thread (writes serialize on an
// internal mutex). Callbacks run on the reader thread, one at a time, and
// may call subscribe/unsubscribe/publish — but not flush() or close(),
// which wait on the reader and would deadlock. A notification racing its
// own unsubscribe() may be dispatched once more after unsubscribe returns
// (the retraction is in flight to the server), mirroring the local
// broker's snapshot semantics.
//
// Failure model without redials (ClientOptions::max_redials = 0, the
// default): when the connection drops — server gone, stream corrupt, write
// timeout — the client transitions to disconnected: pending and future
// flush() calls throw Error{kState}, sends throw, callbacks stop.
// last_error() keeps the reason.
//
// Reconnect mode (max_redials > 0): the client holds a session.
// On connect it sends a kHello carrying a random nonzero session id; the
// server acknowledges with kHelloAck{resumed, id, publish watermark}.
// Publishes travel in kLinkFrame envelopes carrying a per-session monotone
// sequence and are retained in a bounded replay window. When the stream
// dies the reader redials with capped exponential backoff, re-performs the
// schema + hello handshake, re-sends every live subscription byte-for-byte
// from the local mirror, and replays buffered publishes above the server's
// watermark. Against a live server (session resumed) the watermark makes
// replayed publishes exactly-once; against a restarted server (session
// unknown, adopted fresh) replays are at-least-once — duplicates are
// bounded by the window, counted by the server, and composite detection
// stays exact because the per-publish dedup token (a mix of session id and
// sequence, both stable across reconnects) lets the broker's composite
// ingress drop redelivered stimuli. API calls during a redial block on the
// write lock until the session is re-established or abandoned; only after
// the last redial fails does the client transition to disconnected.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ens/broker.hpp"
#include "net/socket_channel.hpp"
#include "obs/metrics.hpp"

namespace genas::net {

struct ClientOptions {
  SocketTimeouts timeouts{};
  /// Redial attempts per disconnect episode before giving up. Any nonzero
  /// value is reconnect mode: the client survives connection loss by
  /// redialing, resubscribing and replaying (see above). 0 (default): a
  /// lost connection ends the client.
  std::size_t max_redials = 0;
  /// First redial backoff; doubles per attempt up to redial_backoff_cap.
  std::chrono::milliseconds redial_backoff{10};
  std::chrono::milliseconds redial_backoff_cap{1000};
  /// Sequenced publishes retained for replay. Older entries fall off: a
  /// reconnect replays at most this many publishes.
  std::size_t publish_window = 256;
  /// Session identity; 0 derives a random nonzero id. Pass an explicit id
  /// to resume a session across client restarts.
  std::uint64_t session_id = 0;
};

class RemoteBrokerClient {
 public:
  /// Connects and performs the schema handshake (bounded by
  /// timeouts.connect + timeouts.read).
  RemoteBrokerClient(const std::string& host, std::uint16_t port,
                     SocketTimeouts timeouts = {});
  /// Connects with full options (reconnect mode is max_redials > 0).
  RemoteBrokerClient(const std::string& host, std::uint16_t port,
                     ClientOptions options);
  ~RemoteBrokerClient();

  RemoteBrokerClient(const RemoteBrokerClient&) = delete;
  RemoteBrokerClient& operator=(const RemoteBrokerClient&) = delete;

  /// The service schema, adopted from the server's handshake.
  const SchemaPtr& schema() const noexcept { return schema_; }

  SubscriptionId subscribe(Profile profile, NotificationCallback callback);
  SubscriptionId subscribe(std::string_view expression,
                           NotificationCallback callback);
  void unsubscribe(SubscriptionId id);

  SubscriptionId subscribe_composite(CompositeExprPtr expression,
                                     CompositeCallback callback);
  SubscriptionId subscribe_composite(std::string_view expression,
                                     CompositeCallback callback);
  void unsubscribe_composite(SubscriptionId id);

  void publish(const Event& event);
  /// Parses "a=1; b=2" against the server schema, then publishes.
  void publish(std::string_view event_text, Timestamp time = 0);

  /// Barrier: returns once the server has processed every frame this
  /// client sent before the call and the resulting deliveries have been
  /// dispatched locally. Also drains the service's buffered composite
  /// instants (the server calls flush_composites). Throws Error{kState}
  /// when the connection is (or goes) down. Not callable from a callback.
  void flush();
  /// flush() with a deadline: throws Error{kTimeout} when the barrier
  /// reply does not arrive within `timeout` (the connection stays up — a
  /// later flush can still succeed). Negative means wait forever.
  void flush(std::chrono::milliseconds timeout);

  /// Scrapes the service's observability snapshot (a kStatsRequest round
  /// trip): the server-level genas_server_* metrics merged with the served
  /// broker's — or whole mesh's — registries. Blocks until the snapshot
  /// frame arrives; a non-negative `timeout` throws Error{kTimeout} on
  /// expiry. Concurrent callers serialize (the request frame carries no
  /// token, so one scrape is outstanding at a time). Not callable from a
  /// callback; in reconnect mode a redial loses the in-flight request, so
  /// pass a timeout there.
  obs::StatsSnapshot stats(
      std::chrono::milliseconds timeout = std::chrono::milliseconds{-1});

  bool connected() const noexcept { return connected_.load(); }
  /// Why the connection ended (empty while connected / after close()).
  std::string last_error() const;

  /// Notifications dispatched to this client (plain deliveries only).
  std::uint64_t deliveries() const noexcept { return deliveries_.load(); }
  /// Composite firings dispatched to this client.
  std::uint64_t firings() const noexcept { return firings_.load(); }
  /// Successful session re-establishments (reconnect mode).
  std::uint64_t reconnects() const noexcept { return reconnects_.load(); }
  /// Publishes re-sent during reconnects — an upper bound on the
  /// at-least-once duplicates this client can have caused.
  std::uint64_t replayed_publishes() const noexcept {
    return replayed_publishes_.load();
  }
  /// The session identity (0 unless reconnect mode).
  std::uint64_t session_id() const noexcept { return session_id_; }

  /// Graceful teardown: stops the reader and closes the socket. The server
  /// retracts this client's subscriptions on disconnect. Idempotent; not
  /// callable from a callback.
  void close();

 private:
  using Frame = std::vector<std::uint8_t>;

  void run_reader();
  /// Drains the stream; returns on end-of-stream, throws on errors.
  void read_loop();
  /// Whether the client holds a session and redials (max_redials > 0).
  bool reconnecting() const noexcept { return options_.max_redials > 0; }
  /// Redials, re-handshakes, resubscribes, and replays. Holds write_mutex_
  /// for the whole episode so API writes queue behind the recovery.
  bool reconnect_session();
  void send_frame(const Frame& frame);
  /// Sends under one write_mutex_ hold and mirrors the frame for
  /// resubscribe-on-reconnect (composite selects the mirror map).
  void send_subscription(SubscriptionId key, Frame frame, bool composite);
  void fail(const std::string& why);

  SchemaPtr schema_;
  std::string host_;
  std::uint16_t port_ = 0;
  ClientOptions options_;
  std::uint64_t session_id_ = 0;  // fixed after construction
  SocketChannel channel_;

  std::mutex write_mutex_;
  std::atomic<bool> connected_{false};
  std::atomic<bool> closing_{false};
  std::atomic<bool> failed_{false};

  // Session mirror and replay window (guarded by write_mutex_): the exact
  // frames a reconnect must re-send.
  std::unordered_map<SubscriptionId, Frame> sub_frames_;
  std::unordered_map<SubscriptionId, Frame> csub_frames_;
  std::uint64_t publish_seq_ = 0;
  std::map<std::uint64_t, Frame> sent_window_;  // seq -> envelope

  mutable std::mutex state_mutex_;  // callbacks map + flush bookkeeping + error
  std::unordered_map<SubscriptionId,
                     std::shared_ptr<const NotificationCallback>>
      callbacks_;
  std::unordered_map<SubscriptionId, std::shared_ptr<const CompositeCallback>>
      composite_callbacks_;
  std::condition_variable flush_cv_;
  std::uint64_t flush_acked_ = 0;
  std::uint64_t highest_flush_token_ = 0;  // re-flushed after a reconnect
  /// Stats scrape bookkeeping: the reader bumps the generation when a
  /// snapshot frame lands; stats() waits for a generation newer than the
  /// one it observed before sending its request.
  std::uint64_t stats_generation_ = 0;
  obs::StatsSnapshot stats_reply_;
  std::string last_error_;

  /// Serializes stats() callers (one untokened request outstanding).
  std::mutex stats_mutex_;

  std::atomic<std::uint64_t> next_key_{1};
  std::atomic<std::uint64_t> next_flush_token_{1};
  std::atomic<std::uint64_t> deliveries_{0};
  std::atomic<std::uint64_t> firings_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> replayed_publishes_{0};

  std::thread reader_;
};

}  // namespace genas::net
