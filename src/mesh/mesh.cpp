#include "mesh/mesh.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <variant>

#include "common/error.hpp"
#include "mesh/mailbox.hpp"
#include "profile/parser.hpp"
#include "profile/profile.hpp"
#include "wire/batch.hpp"
#include "wire/codec.hpp"

namespace genas::mesh {

namespace {

/// Messages a worker drains per lock round; also the publish_batch size cap.
constexpr std::size_t kDrainBatch = 256;

/// Sentinel "source" for events entering at this node (client publishes):
/// they are forwarded over every matching link.
constexpr NodeId kExternal = ~NodeId{0};

/// Poll interval for retrying staged outbox frames against a full peer
/// mailbox (workers never block on sends; see the liveness note in the
/// header).
constexpr std::chrono::microseconds kOutboxRetry{200};

/// Wire frames are shared, not copied, when one event fans out over
/// several links.
using Bytes = std::shared_ptr<const std::vector<std::uint8_t>>;

Bytes share(std::vector<std::uint8_t> frame) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(frame));
}

struct FrameMsg {
  NodeId source = 0;  ///< peer node the frame arrived from
  Bytes bytes;
};
/// A run of publishes riding one mailbox slot: the producer pays the
/// ingress synchronization once per run. A single publish is a run of one.
struct PublishBatchMsg {
  std::vector<Event> events;
  /// One redelivery token per event (forwarded to Broker::publish_batch),
  /// or empty when none carries one.
  std::vector<std::uint64_t> tokens;
  /// Wall stamp (obs::now_ns) set when the run was trace-sampled at
  /// enqueue; 0 = unsampled. Drives the mesh ingress-wait and
  /// publish-to-route histograms across the producer/worker thread hop.
  std::uint64_t trace_stamp = 0;
};

/// True for the frames the arena path decodes: kEvent and kEventBatch.
bool is_event_run(std::span<const std::uint8_t> frame) {
  const wire::MessageType type = wire::peek_type(frame);
  return type == wire::MessageType::kEvent ||
         type == wire::MessageType::kEventBatch;
}

/// Relaxed high-water update (monitoring-grade; lost races are benign).
void update_max(std::atomic<std::uint64_t>& mark, std::uint64_t v) {
  std::uint64_t cur = mark.load(std::memory_order_relaxed);
  while (v > cur &&
         !mark.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
struct LocalSubscribeMsg {
  SubscriptionId key = 0;
  Profile profile;
  MeshCallback callback;
};
struct LocalUnsubscribeMsg {
  SubscriptionId key = 0;
};
struct LocalCompositeSubscribeMsg {
  SubscriptionId key = 0;
  CompositeExprPtr expression;
  MeshCompositeCallback callback;
};
struct LocalCompositeUnsubscribeMsg {
  SubscriptionId key = 0;
};

}  // namespace

struct NodeMsg {
  std::variant<FrameMsg, PublishBatchMsg, LocalSubscribeMsg,
               LocalUnsubscribeMsg, LocalCompositeSubscribeMsg,
               LocalCompositeUnsubscribeMsg>
      payload;
};

struct MeshNetwork::Node {
  explicit Node(std::size_t mailbox_capacity) : mailbox(mailbox_capacity) {}

  NodeId id = 0;
  std::unique_ptr<Broker> broker;
  Mailbox<NodeMsg> mailbox;
  std::thread worker;

  struct Peer {
    Peer(NodeId peer, SchemaPtr schema, const MeshOptions& options)
        : node(peer),
          table(std::move(schema), options.policy,
                options.event_distribution) {}
    NodeId node;
    net::LinkTable table;          // worker-owned routing state
    std::deque<NodeMsg> outbox;    // frames awaiting a full peer mailbox
    /// Pending outgoing event batch (worker-owned): events routed toward
    /// this link accumulate here and flush as one kEventBatch frame at
    /// link_batch_max or at the drain-round boundary.
    wire::EventBatchBuilder batch;
    std::atomic<std::uint64_t> event_messages{0};
    std::atomic<std::uint64_t> routing_entries{0};

    // Reliable-link state, used only under a fault plan (all worker-owned:
    // sends, acks, and received frames for this link are handled
    // exclusively by the owning worker).
    std::uint64_t next_seq = 1;    ///< next envelope sequence to assign
    std::uint64_t acked_out = 0;   ///< highest cumulative ack received
    std::uint64_t highest_tx = 0;  ///< highest sequence transmitted at least once
    /// Envelopes awaiting cumulative ack, in sequence order; only those
    /// within the window are on the wire, the rest wait here unsent.
    std::deque<std::pair<std::uint64_t, Bytes>> unacked;
    std::uint64_t expected_in = 1; ///< next sequence accepted from `node`
    bool needs_ack = false;        ///< ack owed to `node` after this batch
    /// Fault-injected delayed transmissions, released after later traffic.
    std::deque<NodeMsg> delayed;
    std::chrono::steady_clock::time_point last_tx{};
    std::atomic<std::uint64_t> retransmits{0};
    std::atomic<std::uint64_t> dup_frames{0};
    std::atomic<std::uint64_t> gap_frames{0};
    /// Deepest the staging outbox toward this peer has grown (frames held
    /// back by a full peer mailbox) — the mesh backpressure signal.
    std::atomic<std::uint64_t> outbox_hwm{0};
  };
  std::vector<std::unique_ptr<Peer>> peers;

  /// Index into `peers` of the link a frame from `source` arrived on.
  std::size_t peer_index(NodeId source) const {
    std::size_t index = 0;
    while (index < peers.size() && peers[index]->node != source) ++index;
    GENAS_CHECK(index < peers.size(), "frame from a node that is not a peer");
    return index;
  }

  /// Mesh subscription key -> local broker subscription id (worker-owned).
  std::unordered_map<SubscriptionId, SubscriptionId> local_subs;

  /// Mesh composite key -> local detection handle plus the canonical
  /// profile keys of the distinct leaves it holds references on
  /// (worker-owned).
  struct CompositeLocal {
    CompositeId local = 0;
    std::vector<std::string> leaf_keys;
  };
  std::unordered_map<SubscriptionId, CompositeLocal> local_composites;

  /// Refcounted leaf propagation state, keyed by profile equality — the
  /// mesh-side mirror of the broker's leaf dedup: one network key (and thus
  /// one routing entry per link) per distinct leaf profile subscribed at
  /// this node, retracted when the last composite using it unsubscribes
  /// (worker-owned).
  struct LeafRoute {
    SubscriptionId key = 0;
    std::size_t refs = 0;
  };
  std::unordered_map<std::string, LeafRoute> leaf_routes;

  // Counters in the overlay's currency; atomics because stats() reads them
  // while the worker runs.
  std::atomic<std::uint64_t> events_published{0};
  std::atomic<std::uint64_t> event_messages{0};
  std::atomic<std::uint64_t> profile_messages{0};
  std::atomic<std::uint64_t> filter_operations{0};
  /// Deepest this node's mailbox has grown (probed under the mailbox lock
  /// at push time, so the high-water costs no extra synchronization).
  std::atomic<std::uint64_t> mailbox_hwm{0};
  /// Frames currently staged across this node's link outboxes. Ingress
  /// blocks while this is at MeshOptions::mailbox_capacity (the worker
  /// itself keeps staging — admitted frames must go somewhere — so the
  /// deque can overshoot by the traffic already admitted to this node).
  std::atomic<std::uint64_t> outbox_total{0};
  /// Receive-side index-vector recycler: decoded batch events draw their
  /// storage here and return it after the round's publish_batch, so steady
  /// state decodes allocate nothing per event (worker-owned).
  wire::EventArena arena;

  // Per-batch scratch (worker-owned): events collected from the drained
  // mailbox batch, the link each arrived on (kExternal for publishes), and
  // each event's redelivery token (0 for link-delivered events — links are
  // exactly-once, so only ingress publishes carry tokens).
  std::vector<Event> batch_events;
  std::vector<NodeId> batch_sources;
  std::vector<std::uint64_t> batch_tokens;
  /// Each link's routing tree, taken once per drain round (routing modes).
  std::vector<std::shared_ptr<const FlatProfileTree>> link_trees;
  /// Earliest trace stamp of a sampled publish in the current batch; timed
  /// against the publish-to-route histogram once route_events() returns.
  std::uint64_t batch_trace_stamp = 0;

};

MeshNetwork::MeshNetwork(SchemaPtr schema, MeshOptions options)
    : schema_(std::move(schema)),
      options_(std::move(options)),
      metrics_(std::make_shared<obs::Registry>()),
      trace_(options_.trace_period) {
  GENAS_REQUIRE(schema_ != nullptr, ErrorCode::kInvalidArgument,
                "mesh requires a schema");
  // A mailbox holds at least one message; the outbox gate uses the same cap.
  options_.mailbox_capacity =
      std::max<std::size_t>(options_.mailbox_capacity, 1);
  ingress_wait_ = metrics_->histogram(
      "genas_mesh_ingress_wait_ns", obs::default_latency_bounds(),
      "sampled wait of external publishes from enqueue to worker drain");
  publish_to_route_ = metrics_->histogram(
      "genas_mesh_publish_to_route_ns", obs::default_latency_bounds(),
      "sampled latency from publish enqueue to the ingress node finishing "
      "local delivery and link forwarding of the containing batch");
  static constexpr std::uint64_t kPerFrameBounds[] = {1,  2,  4,   8,  16,
                                                      32, 64, 128, 256};
  events_per_frame_ = metrics_->histogram(
      "genas_mesh_link_events_per_frame", kPerFrameBounds,
      "events coalesced into each outgoing link frame");
  flush_cap_ = metrics_->counter(
      "genas_mesh_batch_flush_cap_total",
      "link batches flushed by reaching link_batch_max");
  flush_round_ = metrics_->counter(
      "genas_mesh_batch_flush_round_total",
      "link batches flushed at a drain-round boundary");
}

MeshNetwork::~MeshNetwork() {
  // Destruction must never throw (a throwing destructor terminates the
  // process): the destructor path swallows shutdown failures and records
  // them so a post-mortem first_error() read still sees the cause. An
  // explicit shutdown() keeps throwing — callers who want the error get it
  // by shutting down before destruction.
  try {
    shutdown();
  } catch (const std::exception& e) {
    record_error(std::string("shutdown during destruction: ") + e.what());
  } catch (...) {
    record_error("shutdown during destruction: unknown error");
  }
}

std::size_t MeshNetwork::node_count() const noexcept { return nodes_.size(); }

void MeshNetwork::validate_node(NodeId node) const {
  GENAS_REQUIRE(node < nodes_.size(), ErrorCode::kNotFound,
                "unknown mesh node id " + std::to_string(node));
}

NodeId MeshNetwork::add_node() {
  {
    const std::scoped_lock lock(idle_mutex_);
    GENAS_REQUIRE(!running_ && !stopped_, ErrorCode::kState,
                  "mesh topology is fixed once start() has run");
  }
  auto node = std::make_unique<Node>(options_.mailbox_capacity);
  node->id = nodes_.size();
  EngineOptions engine_options;
  engine_options.policy = options_.policy;
  engine_options.prior = options_.event_distribution;
  // Each node's broker gets its own registry labeled with the node id, so
  // stats_snapshot() can merge all of them without name collisions.
  node->broker = std::make_unique<Broker>(
      schema_, std::move(engine_options),
      std::make_shared<obs::Registry>("node=\"" + std::to_string(node->id) +
                                      "\""));
  node->broker->set_trace_period(options_.trace_period);
  node->broker->set_composite_skew(options_.composite_skew);
  nodes_.push_back(std::move(node));
  forest_.push_back(forest_.size());
  return nodes_.size() - 1;
}

namespace {
NodeId find_root(std::vector<NodeId>& forest, NodeId x) {
  while (forest[x] != x) {
    forest[x] = forest[forest[x]];  // path halving
    x = forest[x];
  }
  return x;
}
}  // namespace

void MeshNetwork::connect(NodeId a, NodeId b) {
  validate_node(a);
  validate_node(b);
  {
    const std::scoped_lock lock(idle_mutex_);
    GENAS_REQUIRE(!running_ && !stopped_, ErrorCode::kState,
                  "mesh topology is fixed once start() has run");
  }
  GENAS_REQUIRE(a != b, ErrorCode::kInvalidArgument,
                "cannot link a mesh node to itself");
  const NodeId ra = find_root(forest_, a);
  const NodeId rb = find_root(forest_, b);
  GENAS_REQUIRE(ra != rb, ErrorCode::kInvalidArgument,
                "link would close a cycle; the mesh must stay acyclic");
  forest_[ra] = rb;
  nodes_[a]->peers.push_back(
      std::make_unique<Node::Peer>(b, schema_, options_));
  nodes_[b]->peers.push_back(
      std::make_unique<Node::Peer>(a, schema_, options_));
}

void MeshNetwork::start() {
  {
    const std::scoped_lock lock(idle_mutex_);
    GENAS_REQUIRE(!running_ && !stopped_, ErrorCode::kState,
                  "mesh is already running or was shut down");
    GENAS_REQUIRE(!nodes_.empty(), ErrorCode::kState,
                  "mesh has no nodes to start");
    running_ = true;
    accepting_ = true;
  }
  for (const auto& node : nodes_) {
    Node* raw = node.get();
    raw->worker = std::thread([this, raw] { run_node(*raw); });
  }
}

SubscriptionId MeshNetwork::subscribe(NodeId node, Profile profile,
                                      MeshCallback callback) {
  validate_node(node);
  GENAS_REQUIRE(profile.schema() == schema_, ErrorCode::kInvalidArgument,
                "profile schema differs from mesh schema");
  GENAS_REQUIRE(callback != nullptr, ErrorCode::kInvalidArgument,
                "mesh subscription requires a callback");
  const SubscriptionId key =
      next_key_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::scoped_lock lock(registry_mutex_);
    key_origin_.emplace(key, KeyInfo{node, false});
  }
  try {
    enqueue(node, NodeMsg{LocalSubscribeMsg{key, std::move(profile),
                                            std::move(callback)}});
  } catch (...) {
    const std::scoped_lock lock(registry_mutex_);
    key_origin_.erase(key);
    throw;
  }
  return key;
}

SubscriptionId MeshNetwork::subscribe(NodeId node, std::string_view expression,
                                      MeshCallback callback) {
  return subscribe(node, parse_profile(schema_, expression),
                   std::move(callback));
}

SubscriptionId MeshNetwork::subscribe_composite(NodeId node,
                                                CompositeExprPtr expression,
                                                MeshCompositeCallback callback) {
  validate_node(node);
  GENAS_REQUIRE(expression != nullptr, ErrorCode::kInvalidArgument,
                "composite subscription requires an expression");
  GENAS_REQUIRE(callback != nullptr, ErrorCode::kInvalidArgument,
                "mesh subscription requires a callback");
  // Validate on the caller's thread: the worker can only record errors.
  for (const CompositeExpr* leaf : leaf_nodes(*expression)) {
    GENAS_REQUIRE(
        leaf->leaf_profile() != nullptr, ErrorCode::kInvalidArgument,
        "composite subscription requires profile leaves (primitive(Profile))");
    GENAS_REQUIRE(leaf->leaf_profile()->schema() == schema_,
                  ErrorCode::kInvalidArgument,
                  "composite leaf schema differs from mesh schema");
  }
  const SubscriptionId key =
      next_key_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::scoped_lock lock(registry_mutex_);
    key_origin_.emplace(key, KeyInfo{node, true});
  }
  try {
    enqueue(node, NodeMsg{LocalCompositeSubscribeMsg{
                      key, std::move(expression), std::move(callback)}});
  } catch (...) {
    const std::scoped_lock lock(registry_mutex_);
    key_origin_.erase(key);
    throw;
  }
  return key;
}

SubscriptionId MeshNetwork::subscribe_composite(NodeId node,
                                                std::string_view expression,
                                                MeshCompositeCallback callback) {
  return subscribe_composite(node, parse_composite(schema_, expression),
                             std::move(callback));
}

void MeshNetwork::unsubscribe(SubscriptionId key) {
  KeyInfo info;
  {
    const std::scoped_lock lock(registry_mutex_);
    const auto it = key_origin_.find(key);
    GENAS_REQUIRE(it != key_origin_.end(), ErrorCode::kNotFound,
                  "unknown mesh subscription key " + std::to_string(key));
    info = it->second;
    key_origin_.erase(it);
  }
  if (info.composite) {
    enqueue(info.origin, NodeMsg{LocalCompositeUnsubscribeMsg{key}});
  } else {
    enqueue(info.origin, NodeMsg{LocalUnsubscribeMsg{key}});
  }
}

void MeshNetwork::flush_composites() {
  for (const auto& node : nodes_) {
    if (node->broker != nullptr) node->broker->flush_composites();
  }
}

void MeshNetwork::advance_watermark(Timestamp now) {
  for (const auto& node : nodes_) {
    if (node->broker != nullptr) node->broker->advance_watermark(now);
  }
}

void MeshNetwork::publish(NodeId node, Event event) {
  publish(node, std::move(event), 0);
}

void MeshNetwork::publish(NodeId node, Event event,
                          std::uint64_t dedup_token) {
  std::vector<Event> run;
  run.push_back(std::move(event));
  std::vector<std::uint64_t> tokens;
  if (dedup_token != 0) tokens.push_back(dedup_token);
  publish_batch(node, std::move(run), std::move(tokens));
}

void MeshNetwork::publish_batch(NodeId node, std::vector<Event> events,
                                std::vector<std::uint64_t> tokens) {
  validate_node(node);
  if (events.empty()) {
    GENAS_REQUIRE(tokens.empty(), ErrorCode::kInvalidArgument,
                  "publish_batch tokens without events");
    return;
  }
  GENAS_REQUIRE(tokens.empty() || tokens.size() == events.size(),
                ErrorCode::kInvalidArgument,
                "publish_batch tokens must be one per event");
  for (const Event& event : events) {
    GENAS_REQUIRE(event.schema() == schema_, ErrorCode::kInvalidArgument,
                  "event schema differs from mesh schema");
  }
  static thread_local std::uint32_t trace_countdown = 0;
  const std::uint64_t stamp =
      trace_.sample(trace_countdown) ? obs::now_ns() : 0;
  enqueue(node, NodeMsg{PublishBatchMsg{std::move(events), std::move(tokens),
                                        stamp}});
}

void MeshNetwork::enqueue(NodeId node, NodeMsg message) {
  {
    std::unique_lock<std::mutex> lock(idle_mutex_);
    // Ingress backpressure: while the node's staged outboxes are at
    // capacity (a stalled peer), external producers wait here before the
    // message is admitted. Workers never wait — admitted traffic keeps
    // draining and forwarding — so this cannot deadlock the mesh.
    idle_cv_.wait(lock, [&] {
      return !(running_ && accepting_) ||
             nodes_[node]->outbox_total.load(std::memory_order_relaxed) <
                 options_.mailbox_capacity;
    });
    GENAS_REQUIRE(running_ && accepting_, ErrorCode::kState,
                  "mesh is not accepting work (not started, or shut down)");
    inflight_.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t depth = 0;
  if (!nodes_[node]->mailbox.push(std::move(message), &depth)) {
    // Unreachable by construction (mailboxes close only at zero in-flight),
    // but never leak an in-flight count.
    messages_done(1);
    throw_error(ErrorCode::kState, "mesh mailbox closed during shutdown");
  }
  update_max(nodes_[node]->mailbox_hwm, depth);
}

void MeshNetwork::messages_done(std::uint64_t n) {
  if (n == 0) return;
  if (inflight_.fetch_sub(n) == n) {
    // Take the mutex so a waiter between its predicate check and wait()
    // cannot miss this notification.
    const std::scoped_lock lock(idle_mutex_);
    idle_cv_.notify_all();
  }
}

void MeshNetwork::unacked_done(std::uint64_t n) {
  if (n == 0) return;
  if (unacked_total_.fetch_sub(n) == n) {
    const std::scoped_lock lock(idle_mutex_);
    idle_cv_.notify_all();
  }
}

void MeshNetwork::wait_idle() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [&] {
    return inflight_.load() == 0 && unacked_total_.load() == 0;
  });
}

void MeshNetwork::shutdown() {
  {
    std::unique_lock<std::mutex> lock(idle_mutex_);
    if (stopped_) return;
    if (!running_) {
      stopped_ = true;
      return;
    }
    if (shutting_down_) {
      idle_cv_.wait(lock, [&] { return stopped_; });
      return;
    }
    shutting_down_ = true;
    accepting_ = false;
    // Wake producers parked on outbox backpressure: the gate is closed, so
    // they must recheck and throw kState instead of waiting forever.
    idle_cv_.notify_all();
    idle_cv_.wait(lock, [&] {
      return inflight_.load() == 0 && unacked_total_.load() == 0;
    });
  }
  for (const auto& node : nodes_) node->mailbox.close();
  for (const auto& node : nodes_) {
    if (node->worker.joinable()) node->worker.join();
  }
  {
    const std::scoped_lock lock(idle_mutex_);
    running_ = false;
    stopped_ = true;
  }
  idle_cv_.notify_all();
}

void MeshNetwork::record_error(const std::string& what) {
  const std::scoped_lock lock(error_mutex_);
  if (first_error_.empty()) first_error_ = what;
}

std::string MeshNetwork::first_error() const {
  const std::scoped_lock lock(error_mutex_);
  return first_error_;
}

Broker& MeshNetwork::node_broker(NodeId node) const {
  validate_node(node);
  return *nodes_[node]->broker;
}

// ---------------------------------------------------------------------------
// Worker side.

void MeshNetwork::run_node(Node& node) {
  std::vector<NodeMsg> batch;
  batch.reserve(kDrainBatch);
  for (;;) {
    const bool outbox_pending = flush_outboxes(node);
    const bool link_pending = link_service(node);
    batch.clear();
    // Outbox retries poll fast; pending link work (unacked windows awaiting
    // retransmission) polls at the retransmit interval; otherwise block
    // until traffic or close.
    const auto timeout =
        outbox_pending ? kOutboxRetry
        : link_pending
            ? std::chrono::duration_cast<std::chrono::microseconds>(
                  options_.link_retransmit_interval)
            : std::chrono::microseconds::zero();
    const std::size_t drained = node.mailbox.pop_batch(batch, kDrainBatch,
                                                       timeout);
    if (drained == 0) {
      if (!node.mailbox.closed()) continue;  // timeout; retry link/outboxes
      if (!outbox_pending && !link_pending && node.mailbox.size() == 0) break;
      // Closed with staged or unacked frames should be impossible (shutdown
      // waits for quiescence first); drop them rather than spin forever.
      if (outbox_pending || link_pending) {
        std::uint64_t dropped = 0;
        std::uint64_t unacked = 0;
        for (const auto& peer : node.peers) {
          dropped += peer->outbox.size();
          peer->outbox.clear();
          peer->delayed.clear();
          unacked += peer->unacked.size();
          peer->unacked.clear();
        }
        node.outbox_total.store(0, std::memory_order_relaxed);
        record_error("mesh node " + std::to_string(node.id) +
                     ": staged frames dropped at close");
        messages_done(dropped);
        unacked_done(unacked);
      }
      continue;
    }
    handle_batch(node, batch);
    messages_done(drained);
  }
}

bool MeshNetwork::flush_outboxes(Node& node) {
  bool pending = false;
  std::uint64_t drained = 0;
  for (const auto& peer : node.peers) {
    Mailbox<NodeMsg>& target = nodes_[peer->node]->mailbox;
    while (!peer->outbox.empty() && target.try_push(peer->outbox.front())) {
      peer->outbox.pop_front();
      ++drained;
    }
    pending = pending || !peer->outbox.empty();
  }
  if (drained > 0) {
    const std::uint64_t before =
        node.outbox_total.fetch_sub(drained, std::memory_order_relaxed);
    const std::size_t cap = options_.mailbox_capacity;
    if (before >= cap && before - drained < cap) {
      // The staged total just crossed back under the ingress cap: wake
      // producers parked in enqueue() (mutex taken so a waiter between its
      // predicate check and wait() cannot miss the notification).
      const std::scoped_lock lock(idle_mutex_);
      idle_cv_.notify_all();
    }
  }
  return pending;
}

void MeshNetwork::broadcast_frame(Node& node, std::size_t skip_index,
                                  Bytes bytes) {
  for (std::size_t p = 0; p < node.peers.size(); ++p) {
    if (p == skip_index) continue;
    send_link(node, p, bytes);
  }
}

void MeshNetwork::send_link(Node& node, std::size_t peer_index,
                            const Bytes& inner) {
  if (options_.fault_plan == nullptr) {
    // Nothing on an in-process link can lose the frame: send it bare.
    send_frame(node, peer_index, NodeMsg{FrameMsg{node.id, inner}});
    return;
  }
  Node::Peer& peer = *node.peers[peer_index];
  const std::uint64_t seq = peer.next_seq++;
  Bytes envelope = share(wire::frame_link(seq, *inner));
  peer.unacked.emplace_back(seq, envelope);
  unacked_total_.fetch_add(1, std::memory_order_relaxed);
  if (seq <= peer.acked_out + options_.link_window) {
    peer.highest_tx = seq;
    peer.last_tx = std::chrono::steady_clock::now();
    transmit(node, peer_index, NodeMsg{FrameMsg{node.id, std::move(envelope)}});
  }
  // Beyond the window the envelope stays buffered; the ack that slides the
  // window past it (or link_service) performs the first transmission.
}

void MeshNetwork::transmit(Node& node, std::size_t peer_index,
                           NodeMsg message) {
  Node::Peer& peer = *node.peers[peer_index];
  switch (options_.fault_plan->apply(node.id, peer.node)) {
    case net::FaultAction::kDrop:
      return;  // never enqueued, so never counted in flight
    case net::FaultAction::kDelay:
      // Held out of order: released behind the link's next transmission (or
      // by link_service) so the receiver observes a reordering, not a loss.
      peer.delayed.push_back(std::move(message));
      return;
    case net::FaultAction::kDuplicate:
      send_frame(node, peer_index, message);
      break;
    case net::FaultAction::kNone:
      break;
  }
  send_frame(node, peer_index, std::move(message));
  // This transmission overtook any frames held in the delay pen; release
  // them now (directly — injecting faults into a release could loop).
  while (!peer.delayed.empty()) {
    send_frame(node, peer_index, std::move(peer.delayed.front()));
    peer.delayed.pop_front();
  }
}

bool MeshNetwork::link_service(Node& node) {
  if (options_.fault_plan == nullptr) return false;
  bool pending = false;
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < node.peers.size(); ++p) {
    Node::Peer& peer = *node.peers[p];
    // Release fault-delayed frames that no later traffic flushed out.
    while (!peer.delayed.empty()) {
      send_frame(node, p, std::move(peer.delayed.front()));
      peer.delayed.pop_front();
    }
    if (peer.unacked.empty()) continue;
    pending = true;
    if (now - peer.last_tx < options_.link_retransmit_interval) continue;
    peer.last_tx = now;
    for (const auto& [seq, bytes] : peer.unacked) {
      if (seq > peer.acked_out + options_.link_window) break;
      if (seq <= peer.highest_tx) {
        peer.retransmits.fetch_add(1, std::memory_order_relaxed);
      } else {
        peer.highest_tx = seq;
      }
      transmit(node, p, NodeMsg{FrameMsg{node.id, bytes}});
    }
  }
  return pending;
}

void MeshNetwork::send_frame(Node& node, std::size_t peer_index,
                             NodeMsg message) {
  inflight_.fetch_add(1, std::memory_order_relaxed);
  Node::Peer& peer = *node.peers[peer_index];
  // Per-link FIFO: while earlier frames are staged, later ones must queue
  // behind them — overtaking would reorder subscribe/unsubscribe frames and
  // covering state depends on install order.
  std::size_t depth = 0;
  if (!peer.outbox.empty() ||
      !nodes_[peer.node]->mailbox.try_push(message, &depth)) {
    peer.outbox.push_back(std::move(message));
    node.outbox_total.fetch_add(1, std::memory_order_relaxed);
    update_max(peer.outbox_hwm, peer.outbox.size());
    return;
  }
  update_max(nodes_[peer.node]->mailbox_hwm, depth);
}

void MeshNetwork::handle_batch(Node& node, std::vector<NodeMsg>& batch) {
  node.batch_events.clear();
  node.batch_sources.clear();
  node.batch_tokens.clear();
  for (NodeMsg& message : batch) {
    try {
      handle_message(node, message);
    } catch (const std::exception& e) {
      record_error(e.what());  // drop the poisoned message, keep running
    }
  }
  try {
    route_events(node);
  } catch (const std::exception& e) {
    record_error(e.what());
    // A half-built batch from the failed round must not leak into the next
    // one: later events would ride a frame whose earlier entries were never
    // accounted for.
    for (auto& peer : node.peers) peer->batch.reset();
  }
  if (node.batch_trace_stamp != 0) {
    publish_to_route_.observe(obs::now_ns() - node.batch_trace_stamp);
    node.batch_trace_stamp = 0;
  }
  // One cumulative ack per link that received envelopes this batch — acks
  // are unsequenced and idempotent, and they take the fault plan too (a
  // lost ack is recovered by retransmit -> duplicate -> re-ack).
  for (std::size_t p = 0; p < node.peers.size(); ++p) {
    Node::Peer& peer = *node.peers[p];
    if (!peer.needs_ack) continue;
    peer.needs_ack = false;
    transmit(node, p,
             NodeMsg{FrameMsg{node.id,
                              share(wire::frame_link_ack(peer.expected_in - 1))}});
  }
}

void MeshNetwork::handle_message(Node& node, NodeMsg& message) {
  if (auto* publish_run = std::get_if<PublishBatchMsg>(&message.payload)) {
    const std::size_t n = publish_run->events.size();
    node.events_published.fetch_add(n, std::memory_order_relaxed);
    if (publish_run->trace_stamp != 0) {
      ingress_wait_.observe(obs::now_ns() - publish_run->trace_stamp);
      if (node.batch_trace_stamp == 0) {
        node.batch_trace_stamp = publish_run->trace_stamp;
      }
    }
    node.batch_events.insert(node.batch_events.end(),
                             std::make_move_iterator(publish_run->events.begin()),
                             std::make_move_iterator(publish_run->events.end()));
    node.batch_sources.insert(node.batch_sources.end(), n, kExternal);
    if (publish_run->tokens.empty()) {
      node.batch_tokens.insert(node.batch_tokens.end(), n, 0);
    } else {
      node.batch_tokens.insert(node.batch_tokens.end(),
                               publish_run->tokens.begin(),
                               publish_run->tokens.end());
    }
    return;
  }

  if (auto* frame = std::get_if<FrameMsg>(&message.payload)) {
    // Hot path: a bare event run decodes straight into the round's scratch
    // through the arena — no wire::Message materialization and, once the
    // arena is warm, no per-event allocation. The decode is all or
    // nothing, so a rejected frame leaves the scratch vectors aligned.
    if (is_event_run(*frame->bytes)) {
      const std::size_t n =
          wire::decode_event_batch(*frame->bytes, schema_, node.arena,
                                   node.batch_events, node.batch_tokens);
      node.batch_sources.insert(node.batch_sources.end(), n, frame->source);
      return;
    }
    wire::Message decoded = wire::decode_message(*frame->bytes, schema_);

    if (auto* link = std::get_if<wire::LinkFrameMsg>(&decoded)) {
      Node::Peer& from = *node.peers[node.peer_index(frame->source)];
      // Go-back-N receive: exactly the expected sequence is processed.
      // Anything else is discarded (duplicates from retransmission,
      // out-of-order frames behind a loss) and the cumulative ack tells the
      // sender where to resume. Every envelope earns an ack — re-acking a
      // duplicate is what recovers a lost ack.
      from.needs_ack = true;
      if (link->sequence < from.expected_in) {
        from.dup_frames.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (link->sequence > from.expected_in) {
        from.gap_frames.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      ++from.expected_in;
      // The envelope's usual cargo is an event run: take the arena path
      // without materializing a wire::Message.
      if (is_event_run(link->inner)) {
        const std::size_t n =
            wire::decode_event_batch(link->inner, schema_, node.arena,
                                     node.batch_events, node.batch_tokens);
        node.batch_sources.insert(node.batch_sources.end(), n, frame->source);
        return;
      }
      wire::Message inner = wire::decode_message(link->inner, schema_);
      GENAS_CHECK(!std::holds_alternative<wire::LinkFrameMsg>(inner) &&
                      !std::holds_alternative<wire::LinkAckMsg>(inner),
                  "nested link envelope on a mesh link");
      const Bytes raw = share(std::move(link->inner));
      handle_link_payload(node, frame->source, raw, inner);
      return;
    }

    if (auto* ack = std::get_if<wire::LinkAckMsg>(&decoded)) {
      const std::size_t from_index = node.peer_index(frame->source);
      Node::Peer& from = *node.peers[from_index];
      if (ack->sequence <= from.acked_out) return;  // stale/duplicate ack
      std::uint64_t pruned = 0;
      while (!from.unacked.empty() &&
             from.unacked.front().first <= ack->sequence) {
        from.unacked.pop_front();
        ++pruned;
      }
      from.acked_out = ack->sequence;
      // The window slid forward: frames buffered beyond the old window may
      // now take their first transmission.
      for (const auto& [seq, bytes] : from.unacked) {
        if (seq > from.acked_out + options_.link_window) break;
        if (seq <= from.highest_tx) continue;  // already on the wire
        from.highest_tx = seq;
        from.last_tx = std::chrono::steady_clock::now();
        transmit(node, from_index, NodeMsg{FrameMsg{node.id, bytes}});
      }
      unacked_done(pruned);
      return;
    }

    handle_link_payload(node, frame->source, frame->bytes, decoded);
    return;
  }

  if (auto* sub = std::get_if<LocalSubscribeMsg>(&message.payload)) {
    const NodeId node_id = node.id;
    const SubscriptionId key = sub->key;
    MeshCallback callback = std::move(sub->callback);
    const SubscriptionId local = node.broker->subscribe(
        sub->profile,
        [callback = std::move(callback), key, node_id](const Notification& n) {
          // MeshCallback takes the event by reference under the same
          // for-the-call lifetime, so the borrowed event passes straight on.
          callback(node_id, key, n.event);
        });
    node.local_subs.emplace(key, local);
    if (options_.mode != RoutingMode::kFlooding) {
      broadcast_frame(node, node.peers.size(),
                      share(wire::frame_subscribe(key, sub->profile)));
    }
    return;
  }

  if (auto* unsub = std::get_if<LocalUnsubscribeMsg>(&message.payload)) {
    const auto it = node.local_subs.find(unsub->key);
    GENAS_CHECK(it != node.local_subs.end(),
                "mesh unsubscribe for a key this node never registered");
    node.broker->unsubscribe(it->second);
    node.local_subs.erase(it);
    if (options_.mode != RoutingMode::kFlooding) {
      broadcast_frame(node, node.peers.size(),
                      share(wire::frame_unsubscribe(unsub->key)));
    }
    return;
  }

  if (auto* csub = std::get_if<LocalCompositeSubscribeMsg>(&message.payload)) {
    const NodeId node_id = node.id;
    const SubscriptionId key = csub->key;
    MeshCompositeCallback callback = std::move(csub->callback);
    // Detection runs here, in this node's broker; the composite callback
    // fires on this worker (or on a flush_composites() caller).
    const CompositeId local = node.broker->subscribe_composite(
        csub->expression,
        [callback = std::move(callback), key,
         node_id](const CompositeFiring& firing) {
          callback(node_id, key, firing.time);
        });
    Node::CompositeLocal entry{local, {}};
    if (options_.mode != RoutingMode::kFlooding) {
      // Each *distinct* decomposed leaf propagates like a plain
      // subscription under its own internal network key — remote nodes
      // cannot tell the difference, so covering and promotion apply
      // unchanged. Leaf keys follow the broker's refcounted dedup: an
      // equal profile already propagated from this node (by this or any
      // earlier composite) reuses its key instead of installing a second
      // routing entry on every link.
      for (const CompositeExpr* leaf : leaf_nodes(*csub->expression)) {
        std::string profile_key = canonical_profile_key(*leaf->leaf_profile());
        if (std::find(entry.leaf_keys.begin(), entry.leaf_keys.end(),
                      profile_key) != entry.leaf_keys.end()) {
          continue;  // duplicate leaf within this expression
        }
        auto [route, inserted] =
            node.leaf_routes.try_emplace(profile_key);
        if (inserted) {
          route->second.key =
              next_key_.fetch_add(1, std::memory_order_relaxed);
          broadcast_frame(node, node.peers.size(),
                          share(wire::frame_subscribe(
                              route->second.key, *leaf->leaf_profile())));
        }
        ++route->second.refs;
        entry.leaf_keys.push_back(std::move(profile_key));
      }
    }
    node.local_composites.emplace(key, std::move(entry));
    return;
  }

  if (auto* cunsub =
          std::get_if<LocalCompositeUnsubscribeMsg>(&message.payload)) {
    const auto it = node.local_composites.find(cunsub->key);
    GENAS_CHECK(it != node.local_composites.end(),
                "mesh composite unsubscribe for a key this node never "
                "registered");
    node.broker->unsubscribe_composite(it->second.local);
    if (options_.mode != RoutingMode::kFlooding) {
      for (const std::string& profile_key : it->second.leaf_keys) {
        const auto route = node.leaf_routes.find(profile_key);
        if (route == node.leaf_routes.end()) continue;
        if (--route->second.refs > 0) continue;  // still referenced
        broadcast_frame(node, node.peers.size(),
                        share(wire::frame_unsubscribe(route->second.key)));
        node.leaf_routes.erase(route);
      }
    }
    node.local_composites.erase(it);
    return;
  }
}

void MeshNetwork::handle_link_payload(Node& node, NodeId source,
                                      const Bytes& raw,
                                      wire::Message& decoded) {
  const std::size_t from_index = node.peer_index(source);
  Node::Peer* from = node.peers[from_index].get();

  if (auto* sub = std::get_if<wire::SubscribeMsg>(&decoded)) {
    // Install toward the link the subscription arrived on; covering may
    // suppress it, which also stops propagation here (overlay semantics).
    const bool installed =
        from->table.add(sub->key, sub->profile,
                        options_.mode == RoutingMode::kRoutingCovered);
    if (!installed) return;
    node.profile_messages.fetch_add(1, std::memory_order_relaxed);
    from->routing_entries.fetch_add(1, std::memory_order_relaxed);
    // The onward frame is byte-identical to the one that just arrived:
    // relay the shared buffer instead of re-encoding the profile.
    broadcast_frame(node, from_index, raw);
    return;
  }

  if (auto* unsub = std::get_if<wire::UnsubscribeMsg>(&decoded)) {
    const net::LinkTable::Removal removal = from->table.remove(unsub->key);
    if (!removal.installed) return;  // suppressed or unknown: it never
                                     // propagated past this node
    from->routing_entries.fetch_sub(1, std::memory_order_relaxed);
    broadcast_frame(node, from_index, raw);
    // Entries the removed profile had been covering are installed now;
    // propagate them onward like fresh subscriptions.
    for (const auto& [key, profile] : removal.promoted) {
      node.profile_messages.fetch_add(1, std::memory_order_relaxed);
      from->routing_entries.fetch_add(1, std::memory_order_relaxed);
      broadcast_frame(node, from_index,
                      share(wire::frame_subscribe(key, profile)));
    }
    return;
  }

  throw_error(ErrorCode::kInternal, "unexpected wire message on a mesh link");
}

void MeshNetwork::route_events(Node& node) {
  if (node.batch_events.empty()) return;

  // Local matching and delivery: the whole drained batch goes through one
  // publish_batch call (one snapshot acquisition, one delivery drain).
  // Tokens ride along so a replayed ingress publish cannot double-fire the
  // local composite runtime.
  const BatchPublishResult result =
      node.broker->publish_batch(node.batch_events, node.batch_tokens);
  node.filter_operations.fetch_add(result.operations,
                                   std::memory_order_relaxed);
  // result.notified is counted by the broker itself (counters()).

  if (options_.auto_advance_watermark) {
    // Every event through this node drives the composite watermark, not
    // only those matching a decomposed leaf — sparse leaf streams fire as
    // soon as unrelated traffic passes the skew instead of waiting for a
    // flush. Composite callbacks run here, on the worker, like leaf-driven
    // firings.
    Timestamp newest = kCompositeNever;
    for (const Event& event : node.batch_events) {
      if (newest == kCompositeNever || event.time() > newest) {
        newest = event.time();
      }
    }
    if (newest != kCompositeNever) node.broker->advance_watermark(newest);
  }

  // Forwarding decision per event and link (minus the arrival link). A
  // matching event is appended to the link's pending batch frame instead of
  // traveling alone: the batch flushes at link_batch_max or at the round
  // boundary below, so a busy round pays one frame — and under a fault plan
  // one sequenced envelope and one ack — per link instead of one per event.
  // The event_messages counters keep counting events (the overlay's
  // currency), so the mesh-vs-overlay oracles see identical numbers.
  const std::size_t batch_cap = std::max<std::size_t>(options_.link_batch_max,
                                                      1);
  const bool routed_mode = options_.mode != RoutingMode::kFlooding;
  node.link_trees.clear();
  if (routed_mode) {
    for (const auto& peer : node.peers) {
      node.link_trees.push_back(peer->table.snapshot());
    }
  }
  for (std::size_t i = 0; i < node.batch_events.size(); ++i) {
    const Event& event = node.batch_events[i];
    const NodeId source = node.batch_sources[i];
    for (std::size_t p = 0; p < node.peers.size(); ++p) {
      Node::Peer& peer = *node.peers[p];
      if (peer.node == source) continue;
      if (routed_mode) {
        const FlatMatch routed = node.link_trees[p]->match(event);
        node.filter_operations.fetch_add(routed.operations,
                                         std::memory_order_relaxed);
        if (routed.matched_count == 0) continue;
      }
      node.event_messages.fetch_add(1, std::memory_order_relaxed);
      peer.event_messages.fetch_add(1, std::memory_order_relaxed);
      peer.batch.append(event);
      if (peer.batch.pending() >= batch_cap) {
        flush_cap_.add();
        flush_link_batch(node, p);
      }
    }
  }
  // Round boundary: every pending link batch flushes before the batch's
  // acks go out, preserving the per-link event order the unbatched path
  // had.
  for (std::size_t p = 0; p < node.peers.size(); ++p) {
    if (node.peers[p]->batch.empty()) continue;
    flush_round_.add();
    flush_link_batch(node, p);
  }
  // The drained events' index storage funds the next decode: recycling
  // here is what makes the receive path allocation-free in steady state.
  node.arena.recycle_all(node.batch_events);
  node.link_trees.clear();
  node.batch_sources.clear();
  node.batch_tokens.clear();
}

void MeshNetwork::flush_link_batch(Node& node, std::size_t peer_index) {
  Node::Peer& peer = *node.peers[peer_index];
  events_per_frame_.observe(peer.batch.pending());
  send_link(node, peer_index, share(peer.batch.take_frame()));
}

// ---------------------------------------------------------------------------
// Statistics.

OverlayStats MeshNetwork::node_stats(NodeId node) const {
  validate_node(node);
  const Node& n = *nodes_[node];
  OverlayStats stats;
  stats.events_published = n.events_published.load(std::memory_order_relaxed);
  stats.event_messages = n.event_messages.load(std::memory_order_relaxed);
  stats.profile_messages = n.profile_messages.load(std::memory_order_relaxed);
  stats.filter_operations =
      n.filter_operations.load(std::memory_order_relaxed);
  stats.deliveries = n.broker->counters().notifications;
  return stats;
}

OverlayStats MeshNetwork::stats() const {
  OverlayStats total;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const OverlayStats one = node_stats(id);
    total.events_published += one.events_published;
    total.event_messages += one.event_messages;
    total.profile_messages += one.profile_messages;
    total.filter_operations += one.filter_operations;
    total.deliveries += one.deliveries;
  }
  return total;
}

std::vector<LinkStats> MeshNetwork::link_stats(NodeId node) const {
  validate_node(node);
  std::vector<LinkStats> stats;
  stats.reserve(nodes_[node]->peers.size());
  for (const auto& peer : nodes_[node]->peers) {
    stats.push_back(LinkStats{
        peer->node, peer->event_messages.load(std::memory_order_relaxed),
        peer->routing_entries.load(std::memory_order_relaxed),
        peer->retransmits.load(std::memory_order_relaxed),
        peer->dup_frames.load(std::memory_order_relaxed),
        peer->gap_frames.load(std::memory_order_relaxed)});
  }
  return stats;
}

obs::StatsSnapshot MeshNetwork::stats_snapshot() const {
  obs::StatsSnapshot out = metrics_->snapshot();

  // The worker-maintained overlay/link atomics are the single source of
  // truth on the hot path; they become labeled metrics only here, at read
  // time, so instrumentation adds no second counter bump per event.
  const auto synthesize = [&out](std::string name, std::string_view labels,
                                 obs::MetricKind kind, std::uint64_t value) {
    obs::MetricSnapshot m;
    m.name = std::move(name);
    m.name += labels;
    m.kind = kind;
    m.value = static_cast<std::int64_t>(value);
    out.metrics.push_back(std::move(m));
  };

  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = *nodes_[id];
    out.merge(n.broker->metrics().snapshot());

    const std::string node_labels = "{node=\"" + std::to_string(id) + "\"}";
    const auto load = [](const std::atomic<std::uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    synthesize("genas_mesh_events_published_total", node_labels,
               obs::MetricKind::kCounter, load(n.events_published));
    synthesize("genas_mesh_event_messages_total", node_labels,
               obs::MetricKind::kCounter, load(n.event_messages));
    synthesize("genas_mesh_profile_messages_total", node_labels,
               obs::MetricKind::kCounter, load(n.profile_messages));
    synthesize("genas_mesh_filter_operations_total", node_labels,
               obs::MetricKind::kCounter, load(n.filter_operations));
    synthesize("genas_mesh_deliveries_total", node_labels,
               obs::MetricKind::kCounter, n.broker->counters().notifications);
    synthesize("genas_mesh_mailbox_depth_highwater", node_labels,
               obs::MetricKind::kGauge, load(n.mailbox_hwm));

    for (const auto& peer : n.peers) {
      const std::string link_labels = "{node=\"" + std::to_string(id) +
                                      "\",peer=\"" +
                                      std::to_string(peer->node) + "\"}";
      synthesize("genas_mesh_link_event_messages_total", link_labels,
                 obs::MetricKind::kCounter, load(peer->event_messages));
      synthesize("genas_mesh_link_routing_entries", link_labels,
                 obs::MetricKind::kGauge, load(peer->routing_entries));
      synthesize("genas_mesh_link_retransmits_total", link_labels,
                 obs::MetricKind::kCounter, load(peer->retransmits));
      synthesize("genas_mesh_link_dup_frames_total", link_labels,
                 obs::MetricKind::kCounter, load(peer->dup_frames));
      synthesize("genas_mesh_link_gap_frames_total", link_labels,
                 obs::MetricKind::kCounter, load(peer->gap_frames));
      synthesize("genas_mesh_link_outbox_depth_highwater", link_labels,
                 obs::MetricKind::kGauge, load(peer->outbox_hwm));
    }
  }
  out.sort();
  return out;
}

std::size_t MeshNetwork::routing_entries(NodeId node) const {
  validate_node(node);
  std::size_t total = 0;
  for (const auto& peer : nodes_[node]->peers) {
    total += peer->routing_entries.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t MeshNetwork::local_subscriptions(NodeId node) const {
  validate_node(node);
  return nodes_[node]->broker->subscription_count();
}

}  // namespace genas::mesh
