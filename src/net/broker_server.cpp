#include "net/broker_server.hpp"

#include <algorithm>
#include <deque>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "wire/batch.hpp"
#include "wire/codec.hpp"

namespace genas::net {

namespace {

using Frame = std::vector<std::uint8_t>;

/// Accept-loop poll slice; also bounds stop() latency.
constexpr std::chrono::milliseconds kAcceptPoll{100};
/// Resume-session registry bound; the oldest session falls out first.
constexpr std::size_t kMaxSessions = 1024;
/// Deliveries staged into one kDeliveryBatch frame before it goes out.
constexpr std::size_t kDeliveryBatchMax = 64;

/// Dedup token of one sequenced publish: a stable mix of session identity
/// and sequence, so a replay of the same publish — across reconnects and
/// even across a server restart that forgot the session — maps to the same
/// nonzero token and the composite ingress can drop the duplicate.
std::uint64_t publish_token(std::uint64_t session, std::uint64_t seq) {
  std::uint64_t state = session ^ (seq * 0x9E3779B97F4A7C15ULL);
  const std::uint64_t token = splitmix64(state);
  return token == 0 ? 1 : token;
}

/// Dedup tokens are server-assigned (publish_token); a client frame that
/// carries a nonzero one is a protocol violation.
bool carries_tokens(const wire::EventBatchMsg& run) {
  return std::any_of(run.tokens.begin(), run.tokens.end(),
                     [](std::uint64_t token) { return token != 0; });
}

}  // namespace

/// One client connection. The handler thread owns the key maps and the
/// read side of the channel; delivery callbacks (arbitrary service threads)
/// share the write side behind write_mutex. `open` gates writes so a
/// delivery racing the teardown is dropped, not sent down a dying socket.
struct BrokerServer::Connection {
  explicit Connection(SocketChannel ch) : channel(std::move(ch)) {}

  SocketChannel channel;
  std::mutex write_mutex;
  std::atomic<bool> open{true};
  std::atomic<bool> done{false};     ///< handler thread has finished
  std::atomic<bool> cleaned{false};  ///< lifecycle cleanup ran (exactly once)
  std::thread thread;

  /// Server-registry handles (copied in at accept; inert until then).
  obs::Counter frames_written;
  obs::Counter bytes_written;

  /// Client-chosen key -> service-side id (handler-thread-owned).
  std::unordered_map<std::uint64_t, std::uint64_t> subs;
  std::unordered_map<std::uint64_t, std::uint64_t> csubs;

  /// At-least-once session this connection resumed or opened via kHello
  /// (0: plain connection, handler-thread-owned).
  std::uint64_t session_id = 0;

  /// Deliveries staged into the pending kDeliveryBatch frame; guarded by
  /// write_mutex. The stage flushes when it reaches kDeliveryBatchMax,
  /// before any non-delivery frame (order preservation — kFlushDone and
  /// composite firings never overtake the deliveries staged ahead of
  /// them), and at the end of every publish via the served broker's drain
  /// hook.
  wire::DeliveryBatchBuilder delivery_stage;
  /// Drain hook this connection registered on the served broker (0: none).
  DrainHookId drain_hook = 0;

  /// Writes one frame, flushing staged deliveries ahead of it; false (and
  /// a wake of the reader via shutdown) when the connection is closed,
  /// stalls past the write timeout, or errors.
  bool write(const Frame& frame) noexcept {
    if (!open.load(std::memory_order_acquire)) return false;
    const std::scoped_lock lock(write_mutex);
    if (!open.load(std::memory_order_relaxed)) return false;
    return flush_locked() && write_locked(frame);
  }

  /// Stages one delivery, emitting the batch frame when the stage fills.
  bool write_delivery(std::uint64_t key, const Event& event) noexcept {
    if (!open.load(std::memory_order_acquire)) return false;
    const std::scoped_lock lock(write_mutex);
    if (!open.load(std::memory_order_relaxed)) return false;
    try {
      delivery_stage.append(key, event);
    } catch (...) {
      open.store(false, std::memory_order_release);
      channel.shutdown();
      return false;
    }
    if (delivery_stage.pending() < kDeliveryBatchMax) return true;
    return flush_locked();
  }

  /// Emits the staged delivery batch, if any (the drain-hook entry point).
  bool flush_deliveries() noexcept {
    if (!open.load(std::memory_order_acquire)) return false;
    const std::scoped_lock lock(write_mutex);
    if (!open.load(std::memory_order_relaxed)) return false;
    return flush_locked();
  }

  bool flush_locked() noexcept {
    if (delivery_stage.empty()) return true;
    try {
      return write_locked(delivery_stage.take_frame());
    } catch (...) {
      open.store(false, std::memory_order_release);
      channel.shutdown();
      return false;
    }
  }

  bool write_locked(const Frame& frame) noexcept {
    try {
      channel.write_frame(frame);
      frames_written.add(1);
      bytes_written.add(frame.size());
      return true;
    } catch (...) {
      open.store(false, std::memory_order_release);
      channel.shutdown();  // the handler's blocked read observes EOF
      return false;
    }
  }
};

struct BrokerServer::Impl {
  Broker* broker = nullptr;             // exactly one of broker/mesh is set
  mesh::MeshNetwork* mesh = nullptr;
  NodeId node = 0;
  SchemaPtr schema;
  ServerOptions options;
  SocketListener listener;
  Frame schema_frame;

  std::thread accept_thread;
  std::atomic<bool> started{false};
  std::atomic<bool> stopping{false};
  bool stopped = false;  // guarded by connections_mutex

  mutable std::mutex connections_mutex;
  std::vector<std::shared_ptr<Connection>> connections;

  /// Server-level metrics. The former plain service counters (accepted,
  /// duplicate publishes) live here now — sharded registry counters are as
  /// cheap as the atomics they replace, and the registry is what a
  /// kStatsRequest scrape serializes.
  std::shared_ptr<obs::Registry> metrics;
  obs::Counter connections_total;
  obs::Counter frames_read;
  obs::Counter bytes_read;
  obs::Counter frames_written;
  obs::Counter bytes_written;
  obs::Counter duplicates;
  obs::Counter errors_parse;
  obs::Counter errors_protocol;
  obs::Counter errors_internal;
  obs::Histogram flush_barrier;

  /// Resume-session registry: session id -> highest publish sequence
  /// processed. Outlives connections (that is the point); bounded by
  /// kMaxSessions with oldest-first eviction.
  std::mutex sessions_mutex;
  std::unordered_map<std::uint64_t, std::uint64_t> sessions;
  std::deque<std::uint64_t> session_order;
  std::atomic<std::uint64_t> next_session{1};

  mutable std::mutex error_mutex;
  std::string first_error;

  Impl(ServerOptions opts)
      : options(opts),
        listener(opts.port),
        metrics(std::make_shared<obs::Registry>()) {
    connections_total = metrics->counter("genas_server_connections_total",
                                         "client connections accepted");
    frames_read = metrics->counter("genas_server_frames_read_total",
                                   "wire frames read from clients");
    bytes_read = metrics->counter("genas_server_bytes_read_total",
                                  "frame payload bytes read from clients");
    frames_written = metrics->counter("genas_server_frames_written_total",
                                      "wire frames written to clients");
    bytes_written = metrics->counter("genas_server_bytes_written_total",
                                     "frame payload bytes written to clients");
    duplicates = metrics->counter(
        "genas_server_duplicate_publishes_total",
        "sequenced publishes dropped as session replays");
    errors_parse = metrics->counter(
        "genas_server_errors_total{category=\"parse\"}",
        "connections dropped on corrupt frames");
    errors_protocol = metrics->counter(
        "genas_server_errors_total{category=\"protocol\"}",
        "connections dropped on protocol violations");
    errors_internal = metrics->counter(
        "genas_server_errors_total{category=\"internal\"}",
        "connections dropped on internal service errors");
    flush_barrier = metrics->histogram("genas_server_flush_barrier_ns",
                                       obs::default_latency_bounds(),
                                       "kFlush quiesce-and-ack latency");
  }
};

BrokerServer::BrokerServer(Broker& broker, ServerOptions options)
    : impl_(std::make_unique<Impl>(options)) {
  impl_->broker = &broker;
  impl_->schema = broker.schema();
  impl_->schema_frame = wire::frame_schema(*impl_->schema);
}

BrokerServer::BrokerServer(mesh::MeshNetwork& mesh, NodeId node,
                           ServerOptions options)
    : impl_(std::make_unique<Impl>(options)) {
  GENAS_REQUIRE(node < mesh.node_count(), ErrorCode::kNotFound,
                "broker server: unknown mesh node id " + std::to_string(node));
  impl_->mesh = &mesh;
  impl_->node = node;
  impl_->schema = mesh.schema();
  impl_->schema_frame = wire::frame_schema(*impl_->schema);
}

BrokerServer::~BrokerServer() {
  try {
    stop();
  } catch (...) {
    // Destruction must not throw; stop failures are recorded first_error.
  }
}

std::uint16_t BrokerServer::port() const noexcept {
  return impl_->listener.port();
}

void BrokerServer::start() {
  GENAS_REQUIRE(!impl_->started.exchange(true), ErrorCode::kState,
                "broker server already started");
  impl_->accept_thread = std::thread([this] { run_accept_loop(); });
}

void BrokerServer::stop() {
  {
    const std::scoped_lock lock(impl_->connections_mutex);
    if (impl_->stopped) return;
    impl_->stopped = true;
  }
  impl_->stopping.store(true);
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  impl_->listener.close();

  // Snapshot under the lock, tear down outside it (handler threads take
  // the lock indirectly only through record_error, never connections_mutex,
  // but keep the teardown lock-free anyway).
  std::vector<std::shared_ptr<Connection>> connections;
  {
    const std::scoped_lock lock(impl_->connections_mutex);
    connections.swap(impl_->connections);
  }
  for (const auto& connection : connections) {
    connection->open.store(false);
    connection->channel.shutdown();  // wakes the handler's blocked read
  }
  for (const auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void BrokerServer::disconnect_all() {
  std::vector<std::shared_ptr<Connection>> snapshot;
  {
    const std::scoped_lock lock(impl_->connections_mutex);
    snapshot = impl_->connections;
  }
  for (const auto& connection : snapshot) {
    connection->open.store(false);
    connection->channel.shutdown();  // handler observes EOF and cleans up
  }
  // Handler threads finish asynchronously; the accept loop reaps them.
}

std::size_t BrokerServer::active_connections() const {
  const std::scoped_lock lock(impl_->connections_mutex);
  std::size_t live = 0;
  for (const auto& connection : impl_->connections) {
    if (!connection->done.load()) ++live;
  }
  return live;
}

std::uint64_t BrokerServer::connections_accepted() const noexcept {
  return impl_->connections_total.value();
}

std::uint64_t BrokerServer::duplicate_publishes() const noexcept {
  return impl_->duplicates.value();
}

obs::Registry& BrokerServer::metrics() const noexcept {
  return *impl_->metrics;
}

obs::StatsSnapshot BrokerServer::stats_snapshot() const {
  obs::StatsSnapshot out = impl_->metrics->snapshot();
  {
    obs::MetricSnapshot active;
    active.name = "genas_server_active_connections";
    active.kind = obs::MetricKind::kGauge;
    active.value = static_cast<std::int64_t>(active_connections());
    out.metrics.push_back(std::move(active));
  }
  if (impl_->broker != nullptr) {
    out.merge(impl_->broker->metrics().snapshot());
  } else {
    out.merge(impl_->mesh->stats_snapshot());
  }
  out.sort();
  return out;
}

std::string BrokerServer::first_error() const {
  const std::scoped_lock lock(impl_->error_mutex);
  return impl_->first_error;
}

void BrokerServer::record_error(const std::string& what) {
  const std::scoped_lock lock(impl_->error_mutex);
  if (impl_->first_error.empty()) impl_->first_error = what;
}

void BrokerServer::reap_finished_locked() {
  auto& connections = impl_->connections;
  for (auto it = connections.begin(); it != connections.end();) {
    if ((*it)->done.load() && (*it)->thread.joinable()) {
      (*it)->thread.join();
      it = connections.erase(it);
    } else {
      ++it;
    }
  }
}

void BrokerServer::run_accept_loop() {
  while (!impl_->stopping.load()) {
    std::optional<SocketChannel> channel;
    try {
      channel = impl_->listener.accept(kAcceptPoll, impl_->options.timeouts);
    } catch (const std::exception& e) {
      if (!impl_->stopping.load()) record_error(e.what());
      return;
    }
    {
      const std::scoped_lock lock(impl_->connections_mutex);
      reap_finished_locked();
      if (!channel) continue;
      if (impl_->stopping.load()) return;  // raced stop(); drop the socket
      auto connection = std::make_shared<Connection>(std::move(*channel));
      connection->frames_written = impl_->frames_written;
      connection->bytes_written = impl_->bytes_written;
      // The served broker's drain hook closes every publish by flushing
      // this connection's staged deliveries, so a batch never outlives the
      // publish that filled it.
      Broker& broker = impl_->broker != nullptr
                           ? *impl_->broker
                           : impl_->mesh->node_broker(impl_->node);
      connection->drain_hook = broker.add_drain_hook(
          [connection] { connection->flush_deliveries(); });
      impl_->connections.push_back(connection);
      impl_->connections_total.add(1);
      connection->thread =
          std::thread([this, connection] { run_connection(connection); });
    }
  }
}

void BrokerServer::run_connection(std::shared_ptr<Connection> connection) {
  Impl& impl = *impl_;
  Connection& c = *connection;
  try {
    if (!c.write(impl.schema_frame)) {
      throw_error(ErrorCode::kState, "broker server: schema handshake failed");
    }
    for (;;) {
      std::optional<Frame> frame =
          c.channel.read_frame(impl.options.client_idle_timeout);
      if (!frame) break;  // clean disconnect
      impl.frames_read.add(1);
      impl.bytes_read.add(frame->size());
      wire::Message message = wire::decode_message(*frame, impl.schema);

      if (auto* hello = std::get_if<wire::HelloMsg>(&message)) {
        std::uint64_t id = hello->session_id;
        bool resumed = false;
        std::uint64_t watermark = 0;
        {
          const std::scoped_lock lock(impl.sessions_mutex);
          if (id == 0) {
            id = impl.next_session.fetch_add(1, std::memory_order_relaxed);
          }
          const auto it = impl.sessions.find(id);
          if (it != impl.sessions.end()) {
            resumed = true;
            watermark = it->second;
          } else {
            // Unknown ids are adopted as fresh sessions — the client picks
            // its identity, which keeps dedup tokens stable even across a
            // server restart that lost this registry.
            if (impl.sessions.size() >= kMaxSessions &&
                !impl.session_order.empty()) {
              impl.sessions.erase(impl.session_order.front());
              impl.session_order.pop_front();
            }
            impl.sessions.emplace(id, 0);
            impl.session_order.push_back(id);
          }
        }
        c.session_id = id;
        if (!c.write(wire::frame_hello_ack(resumed, id, watermark))) break;
        continue;
      }

      if (auto* link = std::get_if<wire::LinkFrameMsg>(&message)) {
        GENAS_REQUIRE(c.session_id != 0, ErrorCode::kState,
                      "broker server: sequenced publish before hello");
        wire::Message inner = wire::decode_message(link->inner, impl.schema);
        auto* run = std::get_if<wire::EventBatchMsg>(&inner);
        GENAS_REQUIRE(run != nullptr && run->events.size() == 1 &&
                          !carries_tokens(*run),
                      ErrorCode::kState,
                      "broker server: link envelope must carry exactly one "
                      "token-free event");
        bool fresh = false;
        {
          const std::scoped_lock lock(impl.sessions_mutex);
          auto it = impl.sessions.find(c.session_id);
          if (it == impl.sessions.end()) {
            // Evicted mid-connection; re-adopt at the observed sequence.
            it = impl.sessions.emplace(c.session_id, 0).first;
            impl.session_order.push_back(c.session_id);
          }
          if (link->sequence > it->second) {
            it->second = link->sequence;
            fresh = true;
          }
        }
        if (!fresh) {
          impl.duplicates.add(1);
          continue;
        }
        const std::uint64_t token =
            publish_token(c.session_id, link->sequence);
        if (impl.broker != nullptr) {
          impl.broker->publish(run->events.front(), token);
        } else {
          impl.mesh->publish(impl.node, std::move(run->events.front()), token);
        }
        continue;
      }

      if (auto* sub = std::get_if<wire::SubscribeMsg>(&message)) {
        GENAS_REQUIRE(!c.subs.count(sub->key) && !c.csubs.count(sub->key),
                      ErrorCode::kState,
                      "broker server: client reused live key " +
                          std::to_string(sub->key));
        const std::uint64_t client_key = sub->key;
        std::uint64_t id;
        if (impl.broker != nullptr) {
          id = impl.broker->subscribe(
              std::move(sub->profile),
              [connection, client_key](const Notification& n) {
                // Encodes n.event into the staged frame before returning, so
                // the borrowed event is never kept past the callback.
                connection->write_delivery(client_key, n.event);
              });
        } else {
          id = impl.mesh->subscribe(
              impl.node, std::move(sub->profile),
              [connection, client_key](NodeId, SubscriptionId,
                                       const Event& event) {
                connection->write_delivery(client_key, event);
              });
        }
        c.subs.emplace(client_key, id);
        continue;
      }

      if (auto* unsub = std::get_if<wire::UnsubscribeMsg>(&message)) {
        const auto it = c.subs.find(unsub->key);
        GENAS_REQUIRE(it != c.subs.end(), ErrorCode::kState,
                      "broker server: unsubscribe for unknown key " +
                          std::to_string(unsub->key));
        if (impl.broker != nullptr) {
          impl.broker->unsubscribe(it->second);
        } else {
          impl.mesh->unsubscribe(it->second);
        }
        c.subs.erase(it);
        continue;
      }

      if (auto* csub = std::get_if<wire::CompositeSubscribeMsg>(&message)) {
        GENAS_REQUIRE(!c.subs.count(csub->key) && !c.csubs.count(csub->key),
                      ErrorCode::kState,
                      "broker server: client reused live key " +
                          std::to_string(csub->key));
        const std::uint64_t client_key = csub->key;
        std::uint64_t id;
        if (impl.broker != nullptr) {
          id = impl.broker->subscribe_composite(
              std::move(csub->expression),
              [connection, client_key](const CompositeFiring& firing) {
                connection->write(
                    wire::frame_composite_firing(client_key, firing.time));
              });
        } else {
          id = impl.mesh->subscribe_composite(
              impl.node, std::move(csub->expression),
              [connection, client_key](NodeId, SubscriptionId,
                                       Timestamp time) {
                connection->write(
                    wire::frame_composite_firing(client_key, time));
              });
        }
        c.csubs.emplace(client_key, id);
        continue;
      }

      if (auto* cunsub =
              std::get_if<wire::CompositeUnsubscribeMsg>(&message)) {
        const auto it = c.csubs.find(cunsub->key);
        GENAS_REQUIRE(it != c.csubs.end(), ErrorCode::kState,
                      "broker server: composite unsubscribe for unknown key " +
                          std::to_string(cunsub->key));
        if (impl.broker != nullptr) {
          impl.broker->unsubscribe_composite(it->second);
        } else {
          impl.mesh->unsubscribe(it->second);
        }
        c.csubs.erase(it);
        continue;
      }

      if (auto* run = std::get_if<wire::EventBatchMsg>(&message)) {
        GENAS_REQUIRE(!carries_tokens(*run), ErrorCode::kState,
                      "broker server: client publishes carry no dedup tokens "
                      "(the server assigns them to sequenced publishes)");
        if (impl.broker != nullptr) {
          impl.broker->publish_batch(run->events);
        } else {
          impl.mesh->publish_batch(impl.node, std::move(run->events));
        }
        continue;
      }

      if (auto* flush = std::get_if<wire::FlushMsg>(&message)) {
        // Everything this client sent earlier has been processed (in-order
        // handling); quiesce the service so the deliveries those frames
        // caused are on the stream, then acknowledge. Barriers are rare and
        // slow by design, so every one is timed (no sampling).
        const std::uint64_t flush_start = obs::now_ns();
        if (impl.mesh != nullptr) {
          impl.mesh->wait_idle();
          impl.mesh->flush_composites();
        } else {
          impl.broker->flush_composites();
        }
        const bool acked = c.write(wire::frame_flush_done(flush->token));
        impl.flush_barrier.observe(obs::now_ns() - flush_start);
        if (!acked) break;
        continue;
      }

      if (std::get_if<wire::StatsRequestMsg>(&message) != nullptr) {
        if (!c.write(wire::frame_stats_snapshot(stats_snapshot()))) break;
        continue;
      }

      throw_error(ErrorCode::kState,
                  "broker server: unexpected " +
                      std::string(wire::to_string(
                          wire::peek_type(*frame))) +
                      " frame from a client");
    }
  } catch (const Error& e) {
    // Peer-behavior socket kState (abrupt close mid-frame, resets,
    // timeouts) is normal client lifecycle; corrupt streams (kParse) and
    // protocol violations are worth surfacing — each categorized exactly
    // once per dropped connection in the error counters.
    // (what() carries the "genas: [code]" prefix, hence find, not
    // starts_with.)
    const bool peer_lifecycle =
        e.code() == ErrorCode::kState &&
        std::string_view(e.what()).find("socket:") != std::string_view::npos;
    if (!peer_lifecycle && !impl.stopping.load()) {
      if (e.code() == ErrorCode::kParse) {
        impl.errors_parse.add(1);
      } else if (e.code() == ErrorCode::kState) {
        impl.errors_protocol.add(1);
      } else {
        impl.errors_internal.add(1);
      }
      record_error(e.what());
    }
  } catch (const std::exception& e) {
    if (!impl.stopping.load()) {
      impl.errors_internal.add(1);
      record_error(e.what());
    }
  }
  cleanup_connection(c);
  c.done.store(true, std::memory_order_release);
}

void BrokerServer::cleanup_connection(Connection& connection) {
  if (connection.cleaned.exchange(true)) return;
  connection.open.store(false, std::memory_order_release);
  connection.channel.shutdown();
  Impl& impl = *impl_;
  if (connection.drain_hook != 0) {
    try {
      Broker& broker = impl.broker != nullptr
                           ? *impl.broker
                           : impl.mesh->node_broker(impl.node);
      broker.remove_drain_hook(connection.drain_hook);
    } catch (const std::exception&) {
      // A service already shut down discarded the hook wholesale.
    }
    connection.drain_hook = 0;
  }
  // Retract everything the client registered — exactly once; composite
  // retraction drops the broker's refcounted leaves (and, in mesh mode,
  // the per-link routing entries) with it. A service already shut down
  // has discarded the state wholesale, so kState here is benign.
  for (const auto& [key, id] : connection.subs) {
    try {
      if (impl.broker != nullptr) {
        impl.broker->unsubscribe(id);
      } else {
        impl.mesh->unsubscribe(id);
      }
    } catch (const std::exception&) {
    }
  }
  connection.subs.clear();
  for (const auto& [key, id] : connection.csubs) {
    try {
      if (impl.broker != nullptr) {
        impl.broker->unsubscribe_composite(id);
      } else {
        impl.mesh->unsubscribe(id);
      }
    } catch (const std::exception&) {
    }
  }
  connection.csubs.clear();
}

}  // namespace genas::net
