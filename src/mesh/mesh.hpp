// GENAS — the concurrent broker mesh: the distributed routing runtime.
//
// Where src/net/overlay.* simulates a broker network deterministically in
// one thread with abstract cost counters, MeshNetwork actually runs it: each
// node is a worker thread behind a bounded MPSC mailbox, holding a local
// ens::Broker (the lock-free snapshot/batch hot path) plus per-link routing
// tables with Siena-style covering (net::LinkTable — the same code the
// overlay uses, so routing decisions are identical by construction). Every
// tree, the broker's and each link's, is built by a FilterEngine. Links
// transport real bytes: every inter-node message is serialized through the
// binary wire codec (src/wire/codec.hpp) and decoded at the receiving
// worker, so the runtime is one socket-transport away from a true
// distributed deployment.
//
// Message flow:
//   client publish ──► origin mailbox ──► worker drains a batch, decodes
//   incoming frames, feeds all events through Broker::publish_batch (local
//   notifications), then per link matches the link's routing table and
//   forwards matching events as wire frames.
//
// Subscriptions propagate the same way: a local subscribe registers with
// the node's broker and (in routing modes) floods a kSubscribe frame; each
// receiving node installs the profile in the table of the link it arrived
// on — unless covering suppresses it — and forwards onward only when
// installed. Unsubscribes retrace that path; removing a covering entry
// re-promotes the entries it suppressed and propagates them onward like
// fresh subscriptions.
//
// Composite subscriptions (SAMOS-style detection at the subscriber, with
// Siena-style routing of the decomposed profiles): subscribe_composite
// registers the expression with the origin node's broker — which runs the
// detection tree — and propagates each *distinct* decomposed primitive
// profile over the links under its own key, exactly like a plain
// subscription. Leaf propagation follows the broker's refcounted dedup:
// equal leaf profiles (within one expression or across composites placed
// at the same node) share one network key and one routing entry per link,
// refcounted so the entry retracts only when the last composite using it
// unsubscribes. Remote nodes hold only ordinary routing entries, so
// covering, promotion, and forwarding decisions are identical by
// construction, and only primitive events matching some leaf cross links.
// Timestamp skew from unordered multi-hop delivery is absorbed by the
// broker's watermark reorder stage (MeshOptions::composite_skew;
// flush_composites() drains the tails, advance_watermark()/
// MeshOptions::auto_advance_watermark bound latency on sparse streams).
//
// Concurrency and liveness:
//   * Backpressure applies at ingress: publish()/subscribe() block while
//     the origin mailbox is full, and while the origin's staged outbox
//     frames number mailbox_capacity or more. Workers themselves never
//     block on a full peer mailbox — an undeliverable frame is staged in a
//     per-link outbox and retried while the worker keeps draining its own
//     mailbox, so mutual forwarding between busy nodes cannot deadlock,
//     and a stalled peer parks producers instead of growing the outbox.
//   * Links are lossless and in order in process. With a fault_plan, which
//     is the only thing that drops, duplicates or delays frames, every
//     link is sequenced and acked instead (go-back-N), so subscribers see
//     the same traffic either way.
//   * Every enqueued message (external or inter-node, including staged
//     outbox frames) is tracked in one in-flight counter. wait_idle()
//     blocks until the mesh is quiescent; after subscribe()+wait_idle()
//     the routing state is exactly the overlay's for the same call order.
//   * shutdown() is graceful: it stops accepting work, waits for
//     quiescence, then closes mailboxes and joins the workers. Events
//     accepted before shutdown are fully delivered; publish/subscribe
//     afterwards throw Error{kState}; no callback runs after shutdown()
//     returns.
//   * Delivery callbacks run on the owning node's worker thread and must
//     not call blocking mesh APIs (publish into a full mesh can deadlock
//     the worker); broker-level re-entrancy is fine.
//
// Statistics use the overlay's currency (net::OverlayStats) so the two
// runtimes are directly comparable — the oracle test asserts identical
// delivery multisets, routing-entry counts and filter operations.
// profile_messages counts routing-table installs (the overlay's definition),
// not raw frames. `deliveries` is the node broker's own notification count
// (Broker::counters().notifications), so it includes primitive
// deliveries into a composite subscription's detection tap — deliberately:
// that is exactly what an overlay holding the decomposed leaf profiles as
// plain subscriptions counts, so the composite oracle can compare the two
// runtimes entry for entry.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/ordering_policy.hpp"
#include "ens/broker.hpp"
#include "net/fault.hpp"
#include "net/routing.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "wire/codec.hpp"

namespace genas::mesh {

/// Opaque mailbox message (defined in mesh.cpp).
struct NodeMsg;

using net::NodeId;
using net::OverlayStats;
using net::RoutingMode;

/// Mesh-wide configuration.
struct MeshOptions {
  RoutingMode mode = RoutingMode::kRoutingCovered;
  /// Filter policy used by every node's trees (local broker and per-link).
  OrderingPolicy policy;
  /// Event distribution the trees are built for. When absent, every tree
  /// falls back to a uniform P_e, like FilterEngine.
  std::optional<JointDistribution> event_distribution;
  /// Mailbox capacity per node; full mailboxes block external producers.
  /// It also caps a node's staged outbox frames (frames held back by a full
  /// peer mailbox, summed across its links): while the staged total is at
  /// the cap, ingress at that node blocks until the stalled peer drains.
  std::size_t mailbox_capacity = 1024;
  /// Events coalesced into one event-run frame per link per drain round:
  /// a link's pending run flushes when it reaches this many events or at
  /// the round boundary, whichever comes first. Under a fault_plan the
  /// whole run rides one sequenced envelope (one seq/ack instead of one per
  /// event). 1 sends every event as its own run of one — a kEvent frame,
  /// so one frame (and one seq/ack) per event.
  std::size_t link_batch_max = 256;
  /// Watermark skew tolerance of every node's composite detector: mesh
  /// delivery is not globally ordered, so primitive firings reach a
  /// subscriber's detector with timestamp skew. An instant is evaluated
  /// once a stimulus more than `composite_skew` newer has been seen (or on
  /// flush_composites()). Generous by default; tune to the workload's
  /// clock units.
  Timestamp composite_skew = 1 << 20;
  /// When set, every node ticks its broker's composite watermark with the
  /// newest event timestamp of each drained batch — so *all* traffic
  /// through a node advances detection, not only events matching a
  /// decomposed leaf. Bounds composite firing latency (and reorder-buffer
  /// memory) on streams where leaf matches are sparse, without
  /// advance_watermark()/flush_composites() calls. Off by default: it
  /// trades the strict "only leaf stimuli drive the clock" model for
  /// latency, which only helps once composites are deployed.
  bool auto_advance_watermark = false;

  // --- Fault tolerance ----------------------------------------------------

  /// Deterministic fault injection, consulted once per inter-node frame
  /// transmission (data, retransmissions, and acks alike). Setting a plan
  /// makes every link at-least-once: each inter-node frame travels in a
  /// kLinkFrame envelope carrying a per-link monotone sequence number, is
  /// held in a bounded retransmit buffer until cumulatively acked, and is
  /// sequence-checked at the receiver, which discards duplicates and gap
  /// frames (go-back-N). So each link still delivers each frame exactly
  /// once and in order, and wait_idle()/shutdown() also wait for every
  /// link frame to be acknowledged. Without a plan nothing can drop a
  /// frame, so links send bare frames and no acks. Plans must be
  /// budget-bounded or quiescence (wait_idle) cannot be reached; an empty
  /// plan gives sequenced links with no faults.
  std::shared_ptr<net::FaultPlan> fault_plan;
  /// Retransmit window of a fault-plan link: unacked link frames
  /// transmitted concurrently per link. Frames beyond it stay buffered
  /// (unsent) until acks advance the window.
  std::size_t link_window = 128;
  /// Idle interval after which a link retransmits its unacked window.
  std::chrono::microseconds link_retransmit_interval{2000};

  // --- Observability ------------------------------------------------------

  /// Event-path trace sampling period, applied to every node's broker and
  /// to the mesh's own ingress histograms: every Nth publish is stamped at
  /// enqueue and timed through drain and routing (0 disables tracing; see
  /// obs::TraceSampler). Sampling keeps the per-event cost at one
  /// thread_local countdown decrement.
  std::uint32_t trace_period = obs::kDefaultTracePeriod;
};

/// Delivery callback: subscription `key` at `node` matched `event`.
/// Runs on the node's worker thread; `event` is valid for the duration of
/// the call (copy it to keep it), as for a broker Notification.
using MeshCallback =
    std::function<void(NodeId node, SubscriptionId key, const Event& event)>;

/// Composite firing callback: composite subscription `key` at `node`
/// completed at `time`. Runs on the node's worker thread (or on the caller
/// of flush_composites()).
using MeshCompositeCallback =
    std::function<void(NodeId node, SubscriptionId key, Timestamp time)>;

/// Per-link view of a node's state.
struct LinkStats {
  NodeId peer = 0;
  std::uint64_t event_messages = 0;  ///< events forwarded to `peer`
  std::uint64_t routing_entries = 0; ///< profiles installed toward `peer`
  // Reliable-link counters (zero without MeshOptions::fault_plan).
  std::uint64_t retransmits = 0;     ///< envelopes re-sent toward `peer`
  std::uint64_t dup_frames = 0;      ///< received duplicates discarded
  std::uint64_t gap_frames = 0;      ///< received out-of-order discarded
};

/// Acyclic mesh of broker nodes, each on its own worker thread.
class MeshNetwork {
 public:
  explicit MeshNetwork(SchemaPtr schema, MeshOptions options = {});
  ~MeshNetwork();

  MeshNetwork(const MeshNetwork&) = delete;
  MeshNetwork& operator=(const MeshNetwork&) = delete;

  /// Adds a node; returns its id (0-based, dense). Topology is fixed at
  /// start(): add_node/connect afterwards throw Error{kState}.
  NodeId add_node();

  /// Connects two nodes bidirectionally. Throws if the link would close a
  /// cycle (the mesh must stay a forest, like the overlay).
  void connect(NodeId a, NodeId b);

  /// Spawns one worker thread per node and opens the mesh for traffic.
  void start();

  /// Registers a subscription at `node` (asynchronously propagated per the
  /// routing mode) and returns its network-wide key. Use wait_idle() to
  /// observe the fully-propagated routing state.
  SubscriptionId subscribe(NodeId node, Profile profile,
                           MeshCallback callback);
  SubscriptionId subscribe(NodeId node, std::string_view expression,
                           MeshCallback callback);

  /// Registers a composite subscription at `node`. The expression (profile
  /// leaves; see parse_composite) is decomposed: detection runs in `node`'s
  /// broker, and each leaf profile propagates through the mesh exactly like
  /// a plain subscription — with covering, and with its own network key —
  /// so remote nodes forward only the primitive events the composite could
  /// consume. Firings surface once the node's watermark passes them
  /// (composite_skew) or when flush_composites() drains the tails.
  SubscriptionId subscribe_composite(NodeId node, CompositeExprPtr expression,
                                     MeshCompositeCallback callback);
  SubscriptionId subscribe_composite(NodeId node, std::string_view expression,
                                     MeshCompositeCallback callback);

  /// Withdraws a subscription — plain or composite — by key (asynchronous,
  /// like subscribe). A composite's decomposed leaf profiles retract from
  /// every link table, re-promoting entries they covered.
  void unsubscribe(SubscriptionId key);

  /// Evaluates every node's buffered composite instants (timestamp order
  /// per node). Call after wait_idle() for a deterministic end-of-stream
  /// drain; firings run on the calling thread.
  void flush_composites();

  /// Time-driven watermark tick on every node's broker (see
  /// Broker::advance_watermark): instants the new watermark passes evaluate
  /// and fire on the calling thread, and expired armed detector state is
  /// garbage-collected. The mesh-wide companion of
  /// MeshOptions::auto_advance_watermark for externally-clocked drains.
  void advance_watermark(Timestamp now);

  /// Publishes an event at `node`: enqueues it for the node's worker
  /// (blocking while the mailbox is full) and returns; matching, delivery,
  /// and forwarding happen asynchronously.
  void publish(NodeId node, Event event);

  /// Publishes a run of events at `node` as one mailbox message: the whole
  /// batch counts once against the mailbox capacity and the worker drains
  /// it in one step, so high-rate producers amortize the per-message
  /// ingress synchronization. `tokens`, when non-empty, must carry one
  /// dedup token per event (see publish(node, event, token)). Equivalent
  /// to publishing each event in order.
  void publish_batch(NodeId node, std::vector<Event> events,
                     std::vector<std::uint64_t> tokens = {});

  /// publish() with an at-least-once redelivery token, forwarded to
  /// Broker::publish(event, dedup_token) at the ingress node: a transport
  /// that may replay the same publish (client reconnect) tags each event so
  /// the ingress node's composite runtime drops redelivered stimuli. The
  /// token does not cross links — inter-node frames are exactly-once, with
  /// or without a fault_plan — so composites detected at other nodes rely
  /// on the transport not replaying across an exactly-once ingress.
  void publish(NodeId node, Event event, std::uint64_t dedup_token);

  /// Blocks until no message is in flight anywhere in the mesh.
  void wait_idle();

  /// Graceful shutdown: rejects new work, drains everything in flight,
  /// then joins all workers. Idempotent; implied by the destructor.
  void shutdown();

  std::size_t node_count() const noexcept;
  const SchemaPtr& schema() const noexcept { return schema_; }

  /// Mesh-wide totals (sum of the per-node counters).
  OverlayStats stats() const;
  /// One node's counters.
  OverlayStats node_stats(NodeId node) const;
  /// Per-link counters of one node.
  std::vector<LinkStats> link_stats(NodeId node) const;
  /// Merged observability snapshot: every node's broker registry (labeled
  /// `node="N"`), the mesh-level trace histograms, plus the overlay/link
  /// counters and queue high-waters synthesized as labeled metrics
  /// (`genas_mesh_*{node="N"}`, `genas_mesh_link_*{node="N",peer="M"}`).
  /// Safe to call while the mesh runs (relaxed reads, monitoring-grade).
  obs::StatsSnapshot stats_snapshot() const;
  /// The mesh-level registry (ingress wait / publish-to-route histograms).
  obs::Registry& metrics() const noexcept { return *metrics_; }
  /// Profiles installed across all of `node`'s link tables.
  std::size_t routing_entries(NodeId node) const;
  /// Live local subscriptions at `node`.
  std::size_t local_subscriptions(NodeId node) const;

  /// First internal error a worker hit (empty when healthy). Workers never
  /// crash the process: a poisoned message is dropped and recorded here.
  std::string first_error() const;

  /// One node's broker, for transport-level wiring (drain hooks — e.g.
  /// BrokerServer flushing staged delivery batches at the end of each
  /// worker drain round). The broker outlives every worker; hook
  /// registration is broker-synchronized.
  Broker& node_broker(NodeId node) const;

 private:
  struct Node;

  void validate_node(NodeId node) const;
  /// Ingress gate: throws unless running and accepting, then counts the
  /// message in flight and enqueues it (blocking while the mailbox is full).
  void enqueue(NodeId node, NodeMsg message);
  void messages_done(std::uint64_t n);
  void record_error(const std::string& what);

  void run_node(Node& node);
  bool flush_outboxes(Node& node);
  void handle_batch(Node& node, std::vector<NodeMsg>& batch);
  void handle_message(Node& node, NodeMsg& message);
  /// Handles one decoded inter-node subscription message (event runs take
  /// handle_message's arena path instead). `raw` is the unwrapped frame
  /// (for byte-identical relaying); under a fault plan it is the envelope's
  /// inner frame.
  void handle_link_payload(
      Node& node, NodeId source,
      const std::shared_ptr<const std::vector<std::uint8_t>>& raw,
      wire::Message& decoded);
  void route_events(Node& node);
  /// Sends a link's pending event run (a kEventBatch frame, or its kEvent
  /// form when it holds a single event) and resets the link's builder.
  void flush_link_batch(Node& node, std::size_t peer_index);
  /// Sends one shared wire frame to every peer except `skip_index` (pass
  /// peers.size() to reach all peers).
  void broadcast_frame(Node& node, std::size_t skip_index,
                       std::shared_ptr<const std::vector<std::uint8_t>> bytes);
  /// Link-layer send of one inner frame: under a fault plan it is wrapped
  /// in a sequenced envelope, buffered for retransmission and passed
  /// through the plan; otherwise it is sent bare.
  void send_link(Node& node, std::size_t peer_index,
                 const std::shared_ptr<const std::vector<std::uint8_t>>& inner);
  /// One physical transmission attempt of a sequenced link, through the
  /// fault plan.
  void transmit(Node& node, std::size_t peer_index, NodeMsg message);
  /// Periodic link maintenance: releases delayed frames, retransmits
  /// expired unacked windows. Returns whether any link still has unacked,
  /// delayed, or window-buffered frames (the worker then polls instead of
  /// blocking indefinitely).
  bool link_service(Node& node);
  /// Counts the frame in flight and delivers it to a peer's mailbox, or
  /// stages it in the per-link outbox when the mailbox is full.
  void send_frame(Node& node, std::size_t peer_index, NodeMsg message);
  void unacked_done(std::uint64_t n);

  SchemaPtr schema_;
  MeshOptions options_;
  /// Mesh-level metrics (cross-thread event-path latencies; per-node and
  /// per-link counters are synthesized from the worker atomics at snapshot
  /// time instead of being double-counted on the hot path).
  std::shared_ptr<obs::Registry> metrics_;
  obs::TraceSampler trace_;
  obs::Histogram ingress_wait_;      ///< publish enqueue -> worker drain
  obs::Histogram publish_to_route_;  ///< publish enqueue -> batch routed
  obs::Histogram events_per_frame_;  ///< events coalesced per link frame
  obs::Counter flush_cap_;           ///< batches flushed at link_batch_max
  obs::Counter flush_round_;         ///< batches flushed at round boundary
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<NodeId> forest_;  // union-find parent for cycle detection

  mutable std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<std::uint64_t> inflight_{0};
  /// Link frames buffered for retransmission and not yet cumulatively
  /// acked. wait_idle()/shutdown() wait for this to drain too: a dropped
  /// frame is "in flight" until its retransmission lands and is acked.
  std::atomic<std::uint64_t> unacked_total_{0};
  bool running_ = false;        // workers exist
  bool accepting_ = false;      // ingress open
  bool shutting_down_ = false;  // a shutdown() is in progress
  bool stopped_ = false;        // shutdown completed; the mesh cannot restart

  std::atomic<std::uint64_t> next_key_{1};
  mutable std::mutex registry_mutex_;
  /// Live externally-visible keys (decomposed composite leaves get internal
  /// keys that never appear here).
  struct KeyInfo {
    NodeId origin = 0;
    bool composite = false;
  };
  std::unordered_map<SubscriptionId, KeyInfo> key_origin_;

  mutable std::mutex error_mutex_;
  std::string first_error_;
};

}  // namespace genas::mesh
