// GENAS — broker server mode: the event notification service on a TCP port.
//
// BrokerServer accepts client connections on a loopback listener and maps
// decoded wire frames onto the service API — either a standalone
// ens::Broker or one node of a running mesh::MeshNetwork (so a socket
// client participates in distributed routing exactly like a local
// subscriber at that node). Deliveries stream back to the owning client as
// delivery runs (kDelivery for a run of one, kDeliveryBatch otherwise),
// composite firings as kCompositeFiring frames. A connection stages its
// deliveries and writes them as one run when 64 are staged, at the end of
// every publish (broker drain hook), and before any non-delivery frame, so
// batching never delays a notification past the publish that produced it
// or reorders it against a flush barrier.
//
// Protocol (one TCP connection per client, frames from src/wire):
//   server -> client   kSchema            handshake: the service schema;
//                                         the client decodes everything
//                                         against it
//   client -> server   kSubscribe(key, profile)
//                      kUnsubscribe(key)
//                      kCompositeSubscribe(key, expr)
//                      kCompositeUnsubscribe(key)
//                      kEvent | kEventBatch
//                                         publish a run of events at the
//                                         served broker/node (kEvent is
//                                         the run of one); carrying
//                                         nonzero dedup tokens is a
//                                         protocol error
//                      kFlush(token)      barrier (see below)
//                      kHello(session)    open/resume an at-least-once
//                                         session (reconnect-mode clients)
//                      kLinkFrame(seq, kEvent)
//                                         sequenced publish of exactly one
//                                         token-free event: dropped when
//                                         seq is under the session's
//                                         watermark (replay dedup), else
//                                         published with a dedup token
//                                         mixed from (session, seq)
//   server -> client   kDelivery(key, event) | kDeliveryBatch
//                      kCompositeFiring(key, time)
//                      kFlushDone(token)
//                      kHelloAck(resumed, session, publish watermark)
//
// Keys are chosen by the client (any uint64 it has not used on this
// connection); the server maps them onto service-side subscription ids.
// Reusing a live key, or any frame type not listed above, is a protocol
// error: the connection is closed and the error recorded.
//
// Flush barrier: frames on a connection are processed in order, so when the
// server reaches a kFlush it has fully processed every earlier frame of
// that client. It then quiesces the service (mesh mode: wait_idle), drains
// buffered composite instants (flush_composites — service-wide, like the
// broker API it calls), and replies kFlushDone. Deliveries triggered by the
// client's own earlier publishes are written before the reply, so a client
// that reads until the matching kFlushDone has observed all of them.
// Deliveries caused by *other* clients' publishes are asynchronous, as in
// any distributed pub/sub.
//
// Client lifecycle: when a connection ends — cleanly, by abrupt disconnect,
// or mid-frame — the server retracts everything the client registered
// exactly once: plain subscriptions unsubscribe, composite subscriptions
// retract their refcounted decomposed leaves (broker dedup and, in mesh
// mode, the per-link routing entries they installed). A delivery that was
// in flight during the teardown is dropped, never misdirected.
//
// Threading: one accept thread plus one handler thread per live
// connection. Delivery callbacks run on the publishing thread (broker
// mode) or a mesh worker (mesh mode) and perform a bounded-time socket
// write; a client that stalls past the write timeout is disconnected
// rather than allowed to wedge the service.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ens/broker.hpp"
#include "mesh/mesh.hpp"
#include "net/socket_channel.hpp"
#include "obs/metrics.hpp"

namespace genas::net {

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  SocketTimeouts timeouts{};
  /// When non-negative, a client that does not start a frame within this
  /// bound is disconnected (half-open and slow-loris defense; a mid-frame
  /// stall is already bounded by timeouts.read). Use only where clients
  /// are expected to keep traffic (or flush heartbeats) flowing: an idle
  /// but healthy subscriber trips it too. Negative (default) never evicts.
  std::chrono::milliseconds client_idle_timeout{-1};
};

class BrokerServer {
 public:
  /// Serves a standalone broker. The broker must outlive the server.
  BrokerServer(Broker& broker, ServerOptions options = {});
  /// Serves node `node` of a started mesh: client subscriptions propagate
  /// through the mesh with covering, publishes enter at that node. The
  /// mesh must outlive the server and stay running while it serves.
  BrokerServer(mesh::MeshNetwork& mesh, NodeId node,
               ServerOptions options = {});
  ~BrokerServer();

  BrokerServer(const BrokerServer&) = delete;
  BrokerServer& operator=(const BrokerServer&) = delete;

  /// The bound port (valid immediately after construction).
  std::uint16_t port() const noexcept;

  /// Starts the accept loop. Throws Error{kState} if already started.
  void start();

  /// Stops accepting, disconnects every client (running their lifecycle
  /// cleanup), and joins all threads. Idempotent; implied by destruction.
  void stop();

  /// Severs every live connection (lifecycle cleanup runs as usual) while
  /// the listener keeps accepting — a deterministic "link cut" for fault
  /// drills. Reconnect-mode clients redial and resume their sessions.
  void disconnect_all();

  std::size_t active_connections() const;
  std::uint64_t connections_accepted() const noexcept;
  /// Sequenced publishes dropped as session duplicates (replays the
  /// watermark already covered).
  std::uint64_t duplicate_publishes() const noexcept;

  /// Merged observability snapshot: the server's own registry
  /// (genas_server_* connection/frame/byte/error counters, flush-barrier
  /// latency) plus the served broker's registry — or, in mesh mode, the
  /// whole mesh's stats_snapshot(). This is also what a kStatsRequest
  /// frame returns to a remote scraper.
  obs::StatsSnapshot stats_snapshot() const;
  /// The server-level registry (for tests and local scraping).
  obs::Registry& metrics() const noexcept;

  /// First internal/protocol error observed (empty when healthy). Client
  /// disconnects are normal lifecycle, not errors.
  std::string first_error() const;

 private:
  struct Connection;
  struct Impl;

  void run_accept_loop();
  void run_connection(std::shared_ptr<Connection> connection);
  void cleanup_connection(Connection& connection);
  void record_error(const std::string& what);
  void reap_finished_locked();

  std::unique_ptr<Impl> impl_;
};

}  // namespace genas::net
