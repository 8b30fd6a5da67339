#include "net/remote_client.hpp"

#include <algorithm>
#include <random>
#include <thread>
#include <utility>
#include <variant>

#include "common/error.hpp"
#include "ens/composite.hpp"
#include "profile/parser.hpp"
#include "wire/codec.hpp"

namespace genas::net {

namespace {

std::uint64_t random_session_id() {
  std::random_device rd;
  std::uint64_t id =
      (static_cast<std::uint64_t>(rd()) << 32) ^ static_cast<std::uint64_t>(rd());
  return id == 0 ? 1 : id;
}

/// Reads and validates the server's schema handshake on a fresh channel.
SchemaPtr read_schema_handshake(SocketChannel& channel,
                                std::chrono::milliseconds read_timeout) {
  std::optional<std::vector<std::uint8_t>> frame =
      channel.read_frame(read_timeout);
  GENAS_REQUIRE(frame.has_value(), ErrorCode::kState,
                "remote broker: server closed before the schema handshake");
  wire::Message message = wire::decode_message(*frame, nullptr);
  auto* schema_msg = std::get_if<wire::SchemaMsg>(&message);
  GENAS_REQUIRE(schema_msg != nullptr, ErrorCode::kState,
                "remote broker: expected a schema handshake frame");
  return schema_msg->schema;
}

/// Sends kHello and reads the kHelloAck; returns the server's publish
/// watermark for this session.
wire::HelloAckMsg hello_handshake(SocketChannel& channel,
                                  const SchemaPtr& schema,
                                  std::uint64_t session_id,
                                  std::chrono::milliseconds read_timeout) {
  channel.write_frame(wire::frame_hello(session_id));
  std::optional<std::vector<std::uint8_t>> frame =
      channel.read_frame(read_timeout);
  GENAS_REQUIRE(frame.has_value(), ErrorCode::kState,
                "remote broker: server closed before the hello ack");
  wire::Message message = wire::decode_message(*frame, schema);
  auto* ack = std::get_if<wire::HelloAckMsg>(&message);
  GENAS_REQUIRE(ack != nullptr, ErrorCode::kState,
                "remote broker: expected a hello ack frame");
  GENAS_REQUIRE(ack->session_id == session_id || session_id == 0,
                ErrorCode::kState,
                "remote broker: hello ack for a different session");
  return *ack;
}

}  // namespace

RemoteBrokerClient::RemoteBrokerClient(const std::string& host,
                                       std::uint16_t port,
                                       SocketTimeouts timeouts)
    : RemoteBrokerClient(host, port, ClientOptions{timeouts}) {}

RemoteBrokerClient::RemoteBrokerClient(const std::string& host,
                                       std::uint16_t port,
                                       ClientOptions options)
    : host_(host),
      port_(port),
      options_(options),
      channel_(SocketChannel::connect_to(host, port, options.timeouts)) {
  // Handshake: the first frame must be the service schema; everything the
  // client encodes or decodes afterwards validates against it.
  schema_ = read_schema_handshake(channel_, options_.timeouts.read);
  if (reconnecting()) {
    session_id_ = options_.session_id != 0 ? options_.session_id
                                           : random_session_id();
    const wire::HelloAckMsg ack = hello_handshake(
        channel_, schema_, session_id_, options_.timeouts.read);
    // A resumed session (same explicit id, fresh client process) continues
    // the sequence from the server's watermark so new publishes are not
    // mistaken for replayed duplicates.
    publish_seq_ = ack.publish_watermark;
  }
  connected_.store(true);
  reader_ = std::thread([this] { run_reader(); });
}

RemoteBrokerClient::~RemoteBrokerClient() { close(); }

void RemoteBrokerClient::close() {
  if (closing_.exchange(true)) {
    if (reader_.joinable()) reader_.join();
    return;
  }
  connected_.store(false);
  {
    // A reconnect episode owns the channel under write_mutex_; it aborts
    // promptly on closing_, after which the shutdown below wakes a reader
    // blocked in read_frame.
    const std::scoped_lock lock(write_mutex_);
    channel_.shutdown();
  }
  if (reader_.joinable()) reader_.join();
  channel_.close();
  flush_cv_.notify_all();
}

void RemoteBrokerClient::fail(const std::string& why) {
  {
    const std::scoped_lock lock(state_mutex_);
    if (last_error_.empty()) last_error_ = why;
  }
  failed_.store(true);
  connected_.store(false);
  channel_.shutdown();
  flush_cv_.notify_all();
}

std::string RemoteBrokerClient::last_error() const {
  const std::scoped_lock lock(state_mutex_);
  return last_error_;
}

void RemoteBrokerClient::send_frame(const Frame& frame) {
  GENAS_REQUIRE(!failed_.load() && !closing_.load() &&
                    (connected_.load() || reconnecting()),
                ErrorCode::kState,
                "remote broker: connection is down" +
                    (last_error().empty() ? "" : " (" + last_error() + ")"));
  const std::scoped_lock lock(write_mutex_);
  GENAS_REQUIRE(!failed_.load() && !closing_.load(), ErrorCode::kState,
                "remote broker: connection is down" +
                    (last_error().empty() ? "" : " (" + last_error() + ")"));
  try {
    channel_.write_frame(frame);
  } catch (const std::exception& e) {
    if (reconnecting()) {
      // The reader notices the dead stream and redials; state registered
      // before this send is in the mirror and will be re-sent.
      connected_.store(false);
      channel_.shutdown();
      return;
    }
    fail(e.what());
    throw;
  }
}

void RemoteBrokerClient::send_subscription(SubscriptionId key, Frame frame,
                                           bool composite) {
  GENAS_REQUIRE(!failed_.load() && !closing_.load() &&
                    (connected_.load() || reconnecting()),
                ErrorCode::kState,
                "remote broker: connection is down" +
                    (last_error().empty() ? "" : " (" + last_error() + ")"));
  const std::scoped_lock lock(write_mutex_);
  GENAS_REQUIRE(!failed_.load() && !closing_.load(), ErrorCode::kState,
                "remote broker: connection is down" +
                    (last_error().empty() ? "" : " (" + last_error() + ")"));
  // Mirror first, under the same hold: a reconnect (which also owns
  // write_mutex_) either sees this key in the mirror after its frame went
  // out, or not at all — never a half-registered subscription.
  if (reconnecting()) {
    auto& mirror = composite ? csub_frames_ : sub_frames_;
    mirror.emplace(key, frame);
  }
  try {
    channel_.write_frame(frame);
  } catch (const std::exception& e) {
    if (reconnecting()) {
      connected_.store(false);
      channel_.shutdown();  // the mirror entry replays on reconnect
      return;
    }
    fail(e.what());
    throw;
  }
}

SubscriptionId RemoteBrokerClient::subscribe(Profile profile,
                                             NotificationCallback callback) {
  GENAS_REQUIRE(profile.schema() == schema_, ErrorCode::kInvalidArgument,
                "remote broker: profile schema differs from service schema");
  GENAS_REQUIRE(callback != nullptr, ErrorCode::kInvalidArgument,
                "remote broker: subscription requires a callback");
  const SubscriptionId key = next_key_.fetch_add(1, std::memory_order_relaxed);
  {
    // Register before sending: a delivery can arrive the moment the server
    // installs the subscription.
    const std::scoped_lock lock(state_mutex_);
    callbacks_.emplace(key, std::make_shared<const NotificationCallback>(
                                std::move(callback)));
  }
  try {
    send_subscription(key, wire::frame_subscribe(key, profile), false);
  } catch (...) {
    const std::scoped_lock lock(state_mutex_);
    callbacks_.erase(key);
    throw;
  }
  return key;
}

SubscriptionId RemoteBrokerClient::subscribe(std::string_view expression,
                                             NotificationCallback callback) {
  return subscribe(parse_profile(schema_, expression), std::move(callback));
}

void RemoteBrokerClient::unsubscribe(SubscriptionId id) {
  {
    const std::scoped_lock lock(state_mutex_);
    GENAS_REQUIRE(callbacks_.erase(id) == 1, ErrorCode::kNotFound,
                  "remote broker: unknown subscription " + std::to_string(id));
  }
  {
    const std::scoped_lock lock(write_mutex_);
    sub_frames_.erase(id);
  }
  // A lost unsubscribe is safe either way: the server retracts everything
  // on disconnect, and the reconnect mirror no longer holds the key.
  send_frame(wire::frame_unsubscribe(id));
}

SubscriptionId RemoteBrokerClient::subscribe_composite(
    CompositeExprPtr expression, CompositeCallback callback) {
  GENAS_REQUIRE(expression != nullptr, ErrorCode::kInvalidArgument,
                "remote broker: composite subscription needs an expression");
  GENAS_REQUIRE(callback != nullptr, ErrorCode::kInvalidArgument,
                "remote broker: subscription requires a callback");
  const SubscriptionId key = next_key_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::scoped_lock lock(state_mutex_);
    composite_callbacks_.emplace(
        key, std::make_shared<const CompositeCallback>(std::move(callback)));
  }
  try {
    send_subscription(key, wire::frame_composite_subscribe(key, *expression),
                      true);
  } catch (...) {
    const std::scoped_lock lock(state_mutex_);
    composite_callbacks_.erase(key);
    throw;
  }
  return key;
}

SubscriptionId RemoteBrokerClient::subscribe_composite(
    std::string_view expression, CompositeCallback callback) {
  return subscribe_composite(parse_composite(schema_, expression),
                             std::move(callback));
}

void RemoteBrokerClient::unsubscribe_composite(SubscriptionId id) {
  {
    const std::scoped_lock lock(state_mutex_);
    GENAS_REQUIRE(composite_callbacks_.erase(id) == 1, ErrorCode::kNotFound,
                  "remote broker: unknown composite subscription " +
                      std::to_string(id));
  }
  {
    const std::scoped_lock lock(write_mutex_);
    csub_frames_.erase(id);
  }
  send_frame(wire::frame_composite_unsubscribe(id));
}

void RemoteBrokerClient::publish(const Event& event) {
  GENAS_REQUIRE(event.schema() == schema_, ErrorCode::kInvalidArgument,
                "remote broker: event schema differs from service schema");
  if (!reconnecting()) {
    send_frame(wire::frame_event_batch({&event, 1}));
    return;
  }
  GENAS_REQUIRE(!failed_.load() && !closing_.load(), ErrorCode::kState,
                "remote broker: connection is down" +
                    (last_error().empty() ? "" : " (" + last_error() + ")"));
  const std::scoped_lock lock(write_mutex_);
  GENAS_REQUIRE(!failed_.load() && !closing_.load(), ErrorCode::kState,
                "remote broker: connection is down" +
                    (last_error().empty() ? "" : " (" + last_error() + ")"));
  // Sequence assignment, window append, and the send share one hold so the
  // server observes strictly increasing sequences.
  const std::uint64_t seq = ++publish_seq_;
  Frame envelope =
      wire::frame_link(seq, wire::frame_event_batch({&event, 1}));
  sent_window_.emplace(seq, envelope);
  while (sent_window_.size() > options_.publish_window) {
    sent_window_.erase(sent_window_.begin());
  }
  try {
    channel_.write_frame(envelope);
  } catch (const std::exception&) {
    // Buffered for replay; the reader redials and re-sends it.
    connected_.store(false);
    channel_.shutdown();
  }
}

void RemoteBrokerClient::publish(std::string_view event_text, Timestamp time) {
  publish(parse_event(schema_, event_text, time));
}

void RemoteBrokerClient::flush() { flush(std::chrono::milliseconds{-1}); }

void RemoteBrokerClient::flush(std::chrono::milliseconds timeout) {
  const std::uint64_t token =
      next_flush_token_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::scoped_lock lock(state_mutex_);
    if (token > highest_flush_token_) highest_flush_token_ = token;
  }
  send_frame(wire::frame_flush(token));
  std::unique_lock<std::mutex> lock(state_mutex_);
  const auto settled = [&] {
    return flush_acked_ >= token || failed_.load() || closing_.load();
  };
  if (timeout.count() < 0) {
    flush_cv_.wait(lock, settled);
  } else if (!flush_cv_.wait_for(lock, timeout, settled)) {
    throw_error(ErrorCode::kTimeout,
                "remote broker: flush deadline expired after " +
                    std::to_string(timeout.count()) + "ms");
  }
  if (flush_acked_ < token) {
    throw_error(ErrorCode::kState,
                "remote broker: connection dropped during flush" +
                    (last_error_.empty() ? "" : " (" + last_error_ + ")"));
  }
}

obs::StatsSnapshot RemoteBrokerClient::stats(std::chrono::milliseconds timeout) {
  const std::scoped_lock request_lock(stats_mutex_);
  std::uint64_t seen;
  {
    const std::scoped_lock lock(state_mutex_);
    seen = stats_generation_;
  }
  send_frame(wire::frame_stats_request());
  std::unique_lock<std::mutex> lock(state_mutex_);
  const auto settled = [&] {
    return stats_generation_ > seen || failed_.load() || closing_.load();
  };
  if (timeout.count() < 0) {
    flush_cv_.wait(lock, settled);
  } else if (!flush_cv_.wait_for(lock, timeout, settled)) {
    throw_error(ErrorCode::kTimeout,
                "remote broker: stats deadline expired after " +
                    std::to_string(timeout.count()) + "ms");
  }
  if (stats_generation_ <= seen) {
    throw_error(ErrorCode::kState,
                "remote broker: connection dropped during stats scrape" +
                    (last_error_.empty() ? "" : " (" + last_error_ + ")"));
  }
  return stats_reply_;
}

void RemoteBrokerClient::run_reader() {
  for (;;) {
    std::string why = "remote broker: server closed the stream";
    try {
      read_loop();
    } catch (const std::exception& e) {
      why = e.what();
    }
    if (closing_.load()) return;
    connected_.store(false);
    if (!reconnecting()) {
      fail(why);
      return;
    }
    if (!reconnect_session()) {
      if (!closing_.load()) {
        fail("remote broker: session lost after " +
             std::to_string(options_.max_redials) + " redials (" + why + ")");
      }
      return;
    }
  }
}

void RemoteBrokerClient::read_loop() {
  for (;;) {
    std::optional<Frame> frame = channel_.read_frame();
    if (!frame) return;  // end of stream
    wire::Message message = wire::decode_message(*frame, schema_);

    if (auto* batch = std::get_if<wire::DeliveryBatchMsg>(&message)) {
      // kDelivery and kDeliveryBatch alike. One callback lookup per
      // delivery: entries of one batch may belong to different
      // subscriptions, and any of them may race its own unsubscribe
      // independently (an unknown key is dropped).
      for (std::size_t i = 0; i < batch->keys.size(); ++i) {
        std::shared_ptr<const NotificationCallback> callback;
        {
          const std::scoped_lock lock(state_mutex_);
          const auto it = callbacks_.find(batch->keys[i]);
          if (it != callbacks_.end()) callback = it->second;
        }
        if (callback != nullptr) {
          deliveries_.fetch_add(1, std::memory_order_relaxed);
          // The notification views the decoded event in place; a
          // callback that keeps it copies it (Notification's contract).
          (*callback)(Notification{batch->keys[i], batch->events[i]});
        }
      }
      continue;
    }

    if (auto* firing = std::get_if<wire::CompositeFiringMsg>(&message)) {
      std::shared_ptr<const CompositeCallback> callback;
      {
        const std::scoped_lock lock(state_mutex_);
        const auto it = composite_callbacks_.find(firing->key);
        if (it != composite_callbacks_.end()) callback = it->second;
      }
      if (callback != nullptr) {
        firings_.fetch_add(1, std::memory_order_relaxed);
        (*callback)(CompositeFiring{firing->key, firing->time});
      }
      continue;
    }

    if (auto* done = std::get_if<wire::FlushDoneMsg>(&message)) {
      {
        const std::scoped_lock lock(state_mutex_);
        if (done->token > flush_acked_) flush_acked_ = done->token;
      }
      flush_cv_.notify_all();
      continue;
    }

    if (auto* snap = std::get_if<wire::StatsSnapshotMsg>(&message)) {
      {
        const std::scoped_lock lock(state_mutex_);
        stats_reply_ = std::move(snap->stats);
        ++stats_generation_;
      }
      flush_cv_.notify_all();
      continue;
    }

    throw_error(ErrorCode::kState,
                "remote broker: unexpected frame from the server");
  }
}

bool RemoteBrokerClient::reconnect_session() {
  // Own the write side for the whole episode: API writes queue behind the
  // recovery and resume on the fresh channel.
  const std::scoped_lock lock(write_mutex_);
  auto backoff = options_.redial_backoff;
  for (std::size_t attempt = 0; attempt < options_.max_redials; ++attempt) {
    if (closing_.load()) return false;
    if (attempt > 0) {
      // Sleep in slices so close() is never stuck behind a long backoff.
      auto remaining = backoff;
      while (remaining.count() > 0 && !closing_.load()) {
        const auto slice = std::min(remaining, std::chrono::milliseconds{10});
        std::this_thread::sleep_for(slice);
        remaining -= slice;
      }
      backoff = std::min(backoff * 2, options_.redial_backoff_cap);
      if (closing_.load()) return false;
    }
    try {
      SocketChannel fresh =
          SocketChannel::connect_to(host_, port_, options_.timeouts);
      const SchemaPtr schema =
          read_schema_handshake(fresh, options_.timeouts.read);
      (void)schema;  // decodes against the adopted schema_; shape validated
      const wire::HelloAckMsg ack = hello_handshake(
          fresh, schema_, session_id_, options_.timeouts.read);
      channel_ = std::move(fresh);

      // Resubscribe from the mirror, byte-for-byte.
      for (const auto& [key, frame] : sub_frames_) {
        channel_.write_frame(frame);
      }
      for (const auto& [key, frame] : csub_frames_) {
        channel_.write_frame(frame);
      }
      // Prune publishes the server already has; replay the rest in order.
      for (auto it = sent_window_.begin(); it != sent_window_.end();) {
        if (it->first <= ack.publish_watermark) {
          it = sent_window_.erase(it);
          continue;
        }
        channel_.write_frame(it->second);
        replayed_publishes_.fetch_add(1, std::memory_order_relaxed);
        ++it;
      }
      // A flush whose token (or reply) died with the old stream would wait
      // forever; re-arm the barrier at the highest outstanding token.
      std::uint64_t outstanding = 0;
      {
        const std::scoped_lock state(state_mutex_);
        if (highest_flush_token_ > flush_acked_) {
          outstanding = highest_flush_token_;
        }
      }
      if (outstanding != 0) {
        channel_.write_frame(wire::frame_flush(outstanding));
      }
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      connected_.store(true);
      return true;
    } catch (const std::exception&) {
      continue;  // next attempt after backoff
    }
  }
  return false;
}

}  // namespace genas::net
