#include "ens/broker.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "profile/profile.hpp"

namespace genas {

namespace {

/// One pending delivery collected during matching and drained afterwards.
/// The callback pointer aims into the borrowed snapshot's route table (kept
/// alive by its thread-local slot or, once displaced, by the retire list of
/// PublishScope until the outermost publish returns).
struct Delivery {
  const NotificationCallback* callback = nullptr;
  SubscriptionId subscription = 0;
  std::size_t event_index = 0;  // into the published run
};

/// Redelivery token of the notification currently being delivered on this
/// thread (0 = none). The tokened publish paths set it around each callback
/// invocation so composite_ingest — reached through an internal leaf
/// subscription's callback — can tag its ingress stimulus without widening
/// the Notification structure on the untokened hot path.
thread_local std::uint64_t current_dedup_token = 0;

class TokenGuard {
 public:
  explicit TokenGuard(std::uint64_t token) noexcept
      : saved_(current_dedup_token) {
    current_dedup_token = token;
  }
  ~TokenGuard() { current_dedup_token = saved_; }
  TokenGuard(const TokenGuard&) = delete;
  TokenGuard& operator=(const TokenGuard&) = delete;

 private:
  std::uint64_t saved_;
};

/// Publish nesting on this thread. A publish borrows its snapshot from the
/// thread-local cache slot without taking a reference, so a callback's
/// re-entrant publish — on the same broker after a mutation, or on another
/// broker whose slot evicts this one's — must not drop a handle an outer
/// drain still reads. While any publish is draining (depth > 0), a slot
/// refresh moves the displaced handle onto `retired`; the outermost publish
/// releases them when it returns, normally or by exception.
///
/// The publish at depth d drains from delivery scratch buffer d - 1, so a
/// re-entrant publish gets its own buffer, warm from earlier publishes at
/// that depth, instead of the one its caller is draining. A deque, so
/// growing the stack never moves a buffer an outer publish still holds.
struct PublishNesting {
  std::uint32_t depth = 0;
  std::vector<std::shared_ptr<const void>> retired;
  std::deque<std::vector<Delivery>> scratch;
};
thread_local PublishNesting publish_nesting;

/// The calling publish's (cleared) delivery scratch; call inside its
/// PublishScope.
std::vector<Delivery>& delivery_scratch() {
  std::deque<std::vector<Delivery>>& stack = publish_nesting.scratch;
  if (stack.size() < publish_nesting.depth) stack.resize(publish_nesting.depth);
  std::vector<Delivery>& buffer = stack[publish_nesting.depth - 1];
  buffer.clear();
  return buffer;
}

class PublishScope {
 public:
  PublishScope() noexcept { ++publish_nesting.depth; }
  ~PublishScope() {
    if (--publish_nesting.depth != 0 || publish_nesting.retired.empty()) {
      return;
    }
    // Swapped out before release: dropping a snapshot destroys callback
    // objects, whose destructors must not see a half-cleared list.
    std::vector<std::shared_ptr<const void>> retired;
    retired.swap(publish_nesting.retired);
  }
  PublishScope(const PublishScope&) = delete;
  PublishScope& operator=(const PublishScope&) = delete;
};

std::uint64_t next_broker_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Broker::Broker(SchemaPtr schema, EngineOptions options,
               std::shared_ptr<obs::Registry> metrics)
    : schema_(schema),
      engine_(schema, std::move(options)),
      broker_id_(next_broker_id()),
      metrics_(metrics != nullptr ? std::move(metrics)
                                  : std::make_shared<obs::Registry>()) {
  GENAS_REQUIRE(schema_ != nullptr, ErrorCode::kInvalidArgument,
                "broker requires a schema");
  register_metrics();
}

Broker::~Broker() { alive_->store(false, std::memory_order_release); }

void Broker::register_metrics() {
  obs::Registry& reg = *metrics_;
  const auto latency = obs::default_latency_bounds();
  events_published_ = reg.counter("genas_broker_events_published_total",
                                  "events accepted by publish");
  events_matched_ = reg.counter("genas_broker_events_matched_total",
                                "events matching >= 1 profile");
  notifications_ = reg.counter("genas_broker_notifications_total",
                               "(event, subscription) deliveries");
  operations_ = reg.counter("genas_broker_filter_operations_total",
                            "predicate comparisons performed");
  snapshot_rebuilds_ = reg.counter("genas_broker_snapshot_rebuilds_total",
                                   "read-side snapshot rebuilds");
  adaptive_rebuilds_ = reg.counter("genas_broker_adaptive_rebuilds_total",
                                   "adaptive-engine tree rebuilds");
  tree_builds_ = reg.counter(
      "genas_broker_tree_builds_total",
      "full structural tree builds (a recost of the live tree is not one)");
  slot_refreshes_ =
      reg.counter("genas_broker_snapshot_slot_refreshes_total",
                  "thread snapshot-slot refreshes under the mutation mutex");
  match_latency_ = reg.histogram("genas_broker_match_latency_ns", latency,
                                 "sampled publish->match latency");
  delivery_latency_ = reg.histogram("genas_broker_delivery_latency_ns",
                                    latency,
                                    "sampled publish->deliver latency");
  rebuild_pause_ = reg.histogram("genas_broker_rebuild_pause_ns", latency,
                                 "snapshot and drift rebuild pause duration");
  composite_firings_ = reg.counter("genas_composite_firings_total",
                                   "composite subscriptions fired");
  composite_dedup_drops_ =
      reg.counter("genas_composite_dedup_drops_total",
                  "redelivered stimuli dropped by the dedup window");
  composite_expired_ = reg.counter("genas_composite_expired_total",
                                   "armed operator timestamps expired by GC");
  composite_firing_latency_ =
      reg.histogram("genas_composite_firing_latency_ns", latency,
                    "sampled publish->composite-firing latency");
  composite_reorder_depth_ = reg.gauge("genas_composite_reorder_depth",
                                       "instants held in the reorder stage");
  composite_armed_ = reg.gauge("genas_composite_armed",
                               "operator nodes holding an armed timestamp");
  composite_watermark_lag_ =
      reg.gauge("genas_composite_watermark_lag",
                "logical-time span the reorder stage holds back");
}

SubscriptionId Broker::subscribe(Profile profile,
                                 NotificationCallback callback) {
  GENAS_REQUIRE(callback != nullptr, ErrorCode::kInvalidArgument,
                "subscription requires a callback");
  const std::scoped_lock lock(mutex_);
  const ProfileId profile_id = engine_.subscribe(std::move(profile));
  const SubscriptionId id = next_id_++;
  subscriptions_.emplace(
      id, Subscription{profile_id, std::make_shared<const NotificationCallback>(
                                       std::move(callback))});
  by_profile_.emplace(profile_id, id);
  version_.fetch_add(1, std::memory_order_release);
  return id;
}

SubscriptionId Broker::subscribe(std::string_view expression,
                                 NotificationCallback callback) {
  return subscribe(parse_profile(schema_, expression), std::move(callback));
}

DrainHookId Broker::add_drain_hook(DrainHook hook) {
  GENAS_REQUIRE(hook != nullptr, ErrorCode::kInvalidArgument,
                "drain hook requires a callable");
  const std::scoped_lock lock(mutex_);
  const DrainHookId id = next_drain_hook_id_++;
  drain_hooks_.push_back(
      DrainHookEntry{id, std::make_shared<const DrainHook>(std::move(hook))});
  version_.fetch_add(1, std::memory_order_release);
  return id;
}

void Broker::remove_drain_hook(DrainHookId id) {
  const std::scoped_lock lock(mutex_);
  const auto it = std::find_if(
      drain_hooks_.begin(), drain_hooks_.end(),
      [id](const DrainHookEntry& entry) { return entry.id == id; });
  GENAS_REQUIRE(it != drain_hooks_.end(), ErrorCode::kNotFound,
                "unknown drain hook " + std::to_string(id));
  drain_hooks_.erase(it);
  version_.fetch_add(1, std::memory_order_release);
}

void Broker::unsubscribe(SubscriptionId id) {
  const std::scoped_lock lock(mutex_);
  const auto it = subscriptions_.find(id);
  GENAS_REQUIRE(it != subscriptions_.end(), ErrorCode::kNotFound,
                "unknown subscription id " + std::to_string(id));
  engine_.unsubscribe(it->second.profile);
  by_profile_.erase(it->second.profile);
  subscriptions_.erase(it);
  version_.fetch_add(1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Composite subscriptions.

namespace {

/// Rebuilds `expr` with each profile leaf replaced by its detector-level
/// (profile-id) form; `ids` maps leaf nodes to their registered engine ids.
CompositeExprPtr mirror_with_ids(
    const CompositeExpr& expr,
    const std::unordered_map<const CompositeExpr*, ProfileId>& ids) {
  switch (expr.kind()) {
    case CompositeExpr::Kind::kPrimitive:
      return primitive(ids.at(&expr));
    case CompositeExpr::Kind::kSeq:
      return seq(mirror_with_ids(*expr.left(), ids),
                 mirror_with_ids(*expr.right(), ids), expr.window());
    case CompositeExpr::Kind::kConj:
      return conj(mirror_with_ids(*expr.left(), ids),
                  mirror_with_ids(*expr.right(), ids), expr.window());
    case CompositeExpr::Kind::kDisj:
      return disj(mirror_with_ids(*expr.left(), ids),
                  mirror_with_ids(*expr.right(), ids));
    case CompositeExpr::Kind::kNeg:
      return neg(mirror_with_ids(*expr.left(), ids),
                 mirror_with_ids(*expr.right(), ids), expr.window());
  }
  throw_error(ErrorCode::kInternal, "unreachable composite kind");
}

}  // namespace

CompositeId Broker::subscribe_composite(CompositeExprPtr expression,
                                        CompositeCallback callback) {
  GENAS_REQUIRE(expression != nullptr, ErrorCode::kInvalidArgument,
                "composite subscription requires an expression");
  GENAS_REQUIRE(callback != nullptr, ErrorCode::kInvalidArgument,
                "composite subscription requires a callback");
  const std::vector<const CompositeExpr*> leaves = leaf_nodes(*expression);
  for (const CompositeExpr* leaf : leaves) {
    GENAS_REQUIRE(
        leaf->leaf_profile() != nullptr, ErrorCode::kInvalidArgument,
        "composite subscription requires profile leaves (primitive(Profile))");
    GENAS_REQUIRE(leaf->leaf_profile()->schema() == schema_,
                  ErrorCode::kInvalidArgument,
                  "composite leaf schema differs from broker schema");
  }

  // Decompose: register each *distinct* leaf profile as an internal
  // primitive subscription whose deliveries drive the composite runtime.
  // Registration is refcounted broker-wide and keyed by profile equality
  // (canonical_profile_key), so equal leaves — duplicated within this
  // expression, shared subtrees, or leaves of other live composites —
  // reuse one engine registration and produce one ingress stimulus per
  // matching event.
  std::unordered_map<const CompositeExpr*, ProfileId> leaf_ids;
  std::vector<std::string> leaf_keys;  // distinct keys this composite refs
  {
    const std::scoped_lock lock(mutex_);
    bool registered_new = false;
    for (const CompositeExpr* leaf : leaves) {
      if (leaf_ids.contains(leaf)) continue;
      std::string key = canonical_profile_key(*leaf->leaf_profile());
      auto [it, inserted] = composite_leaves_.try_emplace(std::move(key));
      if (inserted) {
        const ProfileId pid = engine_.subscribe(*leaf->leaf_profile());
        const SubscriptionId sid = next_id_++;
        subscriptions_.emplace(
            sid,
            Subscription{pid, std::make_shared<const NotificationCallback>(
                                  [this, pid](const Notification& n) {
                                    composite_ingest(pid, n.event.time());
                                  })});
        by_profile_.emplace(pid, sid);
        ++internal_subscriptions_;
        it->second = LeafRegistration{pid, sid, 0};
        registered_new = true;
      }
      leaf_ids.emplace(leaf, it->second.profile);
      if (std::find(leaf_keys.begin(), leaf_keys.end(), it->first) ==
          leaf_keys.end()) {
        ++it->second.refs;  // one reference per composite per distinct leaf
        leaf_keys.push_back(it->first);
      }
    }
    if (registered_new) version_.fetch_add(1, std::memory_order_release);
  }

  const CompositeExprPtr mirror = mirror_with_ids(*expression, leaf_ids);
  const std::scoped_lock lock(composite_mutex_);
  const CompositeId id = composite_detector_.add(
      mirror,
      [this](const CompositeFiring& f) { composite_pending_.push_back(f); });
  composites_.emplace(
      id, CompositeEntry{std::make_shared<const CompositeCallback>(
                             std::move(callback)),
                         std::move(leaf_keys)});
  return id;
}

CompositeId Broker::subscribe_composite(std::string_view expression,
                                        CompositeCallback callback) {
  return subscribe_composite(parse_composite(schema_, expression),
                             std::move(callback));
}

void Broker::unsubscribe_composite(CompositeId id) {
  std::vector<std::string> leaf_keys;
  {
    const std::scoped_lock lock(composite_mutex_);
    const auto it = composites_.find(id);
    GENAS_REQUIRE(it != composites_.end(), ErrorCode::kNotFound,
                  "unknown composite subscription " + std::to_string(id));
    composite_detector_.remove(id);
    leaf_keys = std::move(it->second.leaf_keys);
    composites_.erase(it);
  }
  const std::scoped_lock lock(mutex_);
  bool retracted = false;
  for (const std::string& key : leaf_keys) {
    const auto it = composite_leaves_.find(key);
    if (it == composite_leaves_.end()) continue;
    if (--it->second.refs > 0) continue;  // other composites still use it
    const auto sub = subscriptions_.find(it->second.subscription);
    if (sub != subscriptions_.end()) {
      engine_.unsubscribe(sub->second.profile);
      by_profile_.erase(sub->second.profile);
      subscriptions_.erase(sub);
      --internal_subscriptions_;
    }
    composite_leaves_.erase(it);
    retracted = true;
  }
  if (retracted) version_.fetch_add(1, std::memory_order_release);
}

std::size_t Broker::composite_count() const {
  const std::scoped_lock lock(composite_mutex_);
  return composites_.size();
}

std::size_t Broker::composite_leaf_count() const {
  const std::scoped_lock lock(mutex_);
  return composite_leaves_.size();
}

std::size_t Broker::composite_buffered() const {
  const std::scoped_lock lock(composite_mutex_);
  return composite_ingress_.buffered();
}

void Broker::set_composite_skew(Timestamp skew) {
  const std::scoped_lock lock(composite_mutex_);
  composite_ingress_.set_skew(skew);
}

void Broker::set_composite_index_enabled(bool enabled) {
  const std::scoped_lock lock(composite_mutex_);
  composite_detector_.set_use_index(enabled);
}

void Broker::flush_composites() {
  std::unique_lock<std::mutex> lock(composite_mutex_);
  composite_ingress_.flush();
  composite_armed_.set(
      static_cast<std::int64_t>(composite_detector_.armed_count()));
  update_composite_gauges_locked();
  dispatch_composite_firings(lock);
}

void Broker::advance_watermark(Timestamp now) {
  std::unique_lock<std::mutex> lock(composite_mutex_);
  composite_ingress_.advance_to(now);
  // Armed-state GC runs here — and only here — so the stimulus-driven push
  // path stays deterministic for beyond-skew late stimuli (whether they
  // complete must not depend on unrelated broker traffic). Skipped when
  // the watermark has not moved past the last collected horizon: a no-op
  // sweep would otherwise cost O(composites) per auto-advance batch.
  const Timestamp mark = composite_ingress_.watermark();
  if (mark != kCompositeNever &&
      (composite_expired_horizon_ == kCompositeNever ||
       mark > composite_expired_horizon_)) {
    composite_expired_.add(composite_detector_.expire_before(mark));
    composite_expired_horizon_ = mark;
  }
  composite_armed_.set(
      static_cast<std::int64_t>(composite_detector_.armed_count()));
  update_composite_gauges_locked();
  dispatch_composite_firings(lock);
}

void Broker::composite_ingest(ProfileId profile, Timestamp time) {
  static thread_local std::uint32_t trace_countdown = 0;
  const bool traced = trace_.sample(trace_countdown);
  std::unique_lock<std::mutex> lock(composite_mutex_);
  if (!composite_ingress_.push(profile, time, current_dedup_token)) {
    composite_dedup_drops_.add(1);
    return;  // redelivered stimulus dropped by the dedup window
  }
  if (traced) {
    // Bounded FIFO of sampled ingest stamps; a matching firing turns one
    // into a publish->firing latency observation.
    constexpr std::size_t kMaxTraceStamps = 256;
    if (composite_trace_stamps_.size() >= kMaxTraceStamps) {
      composite_trace_stamps_.erase(composite_trace_stamps_.begin());
    }
    composite_trace_stamps_.emplace_back(time, obs::now_ns());
  }
  update_composite_gauges_locked();
  if (composite_pending_.empty()) return;
  dispatch_composite_firings(lock);
}

void Broker::update_composite_gauges_locked() {
  composite_reorder_depth_.set(
      static_cast<std::int64_t>(composite_ingress_.buffered()));
  const Timestamp oldest = composite_ingress_.oldest_buffered();
  const Timestamp mark = composite_ingress_.watermark();
  std::int64_t lag = 0;
  if (oldest != kCompositeNever && mark != kCompositeNever) {
    // Logical span the reorder stage holds back: newest seen stimulus
    // (watermark + skew) minus the oldest instant still buffered.
    const Timestamp newest = mark + composite_ingress_.skew();
    if (newest > oldest) lag = newest - oldest;
  }
  composite_watermark_lag_.set(lag);
}

std::uint64_t Broker::composite_duplicates_dropped() const {
  const std::scoped_lock lock(composite_mutex_);
  return composite_ingress_.dropped_duplicates();
}

void Broker::dispatch_composite_firings(std::unique_lock<std::mutex>& lock) {
  std::vector<std::pair<std::shared_ptr<const CompositeCallback>,
                        CompositeFiring>>
      out;
  out.reserve(composite_pending_.size());
  for (const CompositeFiring& firing : composite_pending_) {
    const auto it = composites_.find(firing.subscription);
    if (it == composites_.end()) continue;  // racing unsubscribe_composite
    out.emplace_back(it->second.callback, firing);
  }
  composite_pending_.clear();
  composite_firings_.add(out.size());
  if (!out.empty() && !composite_trace_stamps_.empty()) {
    // Match firings against the sampled ingest stamps (still locked: the
    // stamp FIFO is composite_mutex_ state). A stamp is consumed by the
    // first firing whose completion time equals the stimulus time.
    const std::uint64_t now = obs::now_ns();
    for (const auto& [callback, firing] : out) {
      const auto stamp = std::find_if(
          composite_trace_stamps_.begin(), composite_trace_stamps_.end(),
          [&firing](const auto& s) { return s.first == firing.time; });
      if (stamp == composite_trace_stamps_.end()) continue;
      composite_firing_latency_.observe(now - stamp->second);
      composite_trace_stamps_.erase(stamp);
    }
  }
  lock.unlock();
  for (const auto& [callback, firing] : out) (*callback)(firing);
}

const Broker::Snapshot* Broker::acquire_snapshot(bool* rebuilt) {
  // Per-thread snapshot handles. Only this thread ever touches its slots,
  // so the fast path below performs no shared-state access beyond the
  // version load; the caller borrows the slot's snapshot. The array is
  // fully associative (linear scan of 8 entries): up to 8 live brokers per
  // thread cache without evicting each other; beyond that, colliding
  // brokers fall back to the mutex slow path on each publish. A broker
  // without a slot takes an empty one, else one whose broker is destroyed
  // (its snapshot is released on reuse), and only then the hashed one.
  struct Slot {
    std::uint64_t broker = 0;
    std::shared_ptr<const Snapshot> snapshot;
  };
  static thread_local std::array<Slot, 8> slots;
  Slot* slot = nullptr;
  for (Slot& candidate : slots) {
    if (candidate.broker == broker_id_) {
      slot = &candidate;
      break;
    }
    if (slot == nullptr && candidate.broker == 0) slot = &candidate;
  }
  if (slot == nullptr) {
    for (Slot& candidate : slots) {
      if (!candidate.snapshot->broker_alive->load(std::memory_order_acquire)) {
        slot = &candidate;
        break;
      }
    }
  }
  if (slot == nullptr) slot = &slots[broker_id_ % slots.size()];

  // Fast path: the cached snapshot is current — one atomic version load.
  const std::uint64_t version = version_.load(std::memory_order_acquire);
  if (slot->broker == broker_id_ && slot->snapshot != nullptr &&
      slot->snapshot->version == version) {
    return slot->snapshot.get();
  }

  // Slow path: refresh the cache — and rebuild the snapshot if a mutation
  // outdated it — under the mutation mutex.
  const std::scoped_lock lock(mutex_);
  slot_refreshes_.add(1);
  const std::uint64_t current = version_.load(std::memory_order_relaxed);
  if (snapshot_ == nullptr || snapshot_->version != current) {
    // The rebuild pause is the stop-the-world cost every reader behind this
    // mutex pays; rebuilds are rare, so it is always timed (no sampling).
    const std::uint64_t pause_start = obs::now_ns();
    auto fresh = std::make_shared<Snapshot>();
    fresh->version = current;
    fresh->broker_alive = alive_;
    const std::uint64_t builds_before = engine_.rebuild_count();
    fresh->tree = engine_.snapshot();
    count_tree_builds_locked();
    if (rebuilt != nullptr && engine_.rebuild_count() != builds_before) {
      *rebuilt = true;
    }
    fresh->routes.resize(engine_.profiles().capacity());
    for (const auto& [profile, subscription] : by_profile_) {
      fresh->routes[profile] =
          Route{subscription, subscriptions_.at(subscription).callback};
    }
    fresh->drain_hooks.reserve(drain_hooks_.size());
    for (const DrainHookEntry& entry : drain_hooks_) {
      fresh->drain_hooks.push_back(entry.hook);
    }
    snapshot_ = std::move(fresh);
    snapshot_rebuilds_.add(1);
    rebuild_pause_.observe(obs::now_ns() - pause_start);
  }
  // Inside a drain, the displaced handle may be the one an outer publish
  // borrowed (this broker's older snapshot, or an evicted broker's).
  if (publish_nesting.depth > 0 && slot->snapshot != nullptr) {
    publish_nesting.retired.push_back(std::move(slot->snapshot));
  }
  slot->broker = broker_id_;
  slot->snapshot = snapshot_;
  return slot->snapshot.get();
}

bool Broker::observe(std::span<const Event> events) {
  const std::scoped_lock lock(mutex_);
  // A drift rebuild stalls every other publisher's observe step, so it is
  // timed into the same pause histogram as a snapshot rebuild.
  const std::uint64_t pause_start = obs::now_ns();
  if (!engine_.observe(events)) return false;
  count_tree_builds_locked();
  rebuild_pause_.observe(obs::now_ns() - pause_start);
  adaptive_rebuilds_.add(1);
  version_.fetch_add(1, std::memory_order_release);
  return true;
}

PublishResult Broker::publish(const Event& event) { return publish(event, 0); }

PublishResult Broker::publish(std::string_view event_text, Timestamp time) {
  return publish(parse_event(schema_, event_text, time));
}

PublishResult Broker::publish(const Event& event, std::uint64_t dedup_token) {
  // A single event is a run of one; token 0 means untracked, like an empty
  // token span.
  const BatchPublishResult run = publish_batch_impl(
      {&event, 1}, dedup_token == 0 ? std::span<const std::uint64_t>{}
                                    : std::span{&dedup_token, 1});
  return PublishResult{run.notified, run.operations, run.rebuilt};
}

BatchPublishResult Broker::publish_batch(std::span<const Event> events) {
  return publish_batch_impl(events, {});
}

BatchPublishResult Broker::publish_batch(
    std::span<const Event> events,
    std::span<const std::uint64_t> dedup_tokens) {
  GENAS_REQUIRE(dedup_tokens.size() == events.size(),
                ErrorCode::kInvalidArgument,
                "publish_batch requires one dedup token per event");
  return publish_batch_impl(events, dedup_tokens);
}

BatchPublishResult Broker::publish_batch_impl(
    std::span<const Event> events,
    std::span<const std::uint64_t> dedup_tokens) {
  BatchPublishResult result;
  result.events = events.size();
  if (events.empty()) return result;
  for (const Event& event : events) {
    GENAS_REQUIRE(event.schema() == schema_, ErrorCode::kInvalidArgument,
                  "event schema differs from broker schema");
  }

  // One trace decision per batch: a sampled batch times the whole
  // match-then-drain pipeline (stage latencies are per batch, not per
  // event — the batch is the unit the caller waits on).
  static thread_local std::uint32_t trace_countdown = 0;
  const bool traced = trace_.sample(trace_countdown);
  const std::uint64_t trace_start = traced ? obs::now_ns() : 0;

  // Borrowed, not copied: the drain below dereferences the snapshot and raw
  // pointers into its route table, and a callback may re-enter and refresh
  // the slot that owns it. The scope keeps any handle displaced meanwhile
  // alive until the outermost publish on this thread returns.
  const Snapshot* const snapshot = acquire_snapshot(&result.rebuilt);
  const PublishScope scope;
  std::vector<Delivery>& deliveries = delivery_scratch();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlatMatch match = snapshot->tree->match(events[i]);
    result.operations += match.operations;
    if (match.matched_count > 0) ++result.matched_events;
    for (const ProfileId profile : match.span()) {
      const Route& route = snapshot->routes[profile];
      if (route.callback == nullptr) continue;  // racing unsubscribe
      deliveries.push_back(
          Delivery{route.callback.get(), route.subscription, i});
    }
  }

  if (traced) match_latency_.observe(obs::now_ns() - trace_start);
  events_published_.add(events.size());
  events_matched_.add(result.matched_events);
  operations_.add(result.operations);
  notifications_.add(deliveries.size());
  result.notified = deliveries.size();

  // Drain every notification in one pass, outside any lock.
  if (dedup_tokens.empty()) {
    for (const Delivery& delivery : deliveries) {
      const Notification notification{delivery.subscription,
                                      events[delivery.event_index]};
      (*delivery.callback)(notification);
    }
  } else {
    for (const Delivery& delivery : deliveries) {
      const Notification notification{delivery.subscription,
                                      events[delivery.event_index]};
      // The event's token is visible to composite_ingest (and any
      // re-entrant publish) for exactly this notification's callbacks.
      const TokenGuard guard(dedup_tokens[delivery.event_index]);
      (*delivery.callback)(notification);
    }
  }
  for (const auto& hook : snapshot->drain_hooks) (*hook)();
  if (traced) delivery_latency_.observe(obs::now_ns() - trace_start);
  if (engine_.adaptive() != nullptr && observe(events)) result.rebuilt = true;
  return result;
}

ServiceCounters Broker::counters() const {
  ServiceCounters counters;
  counters.events_published = events_published_.value();
  counters.events_matched = events_matched_.value();
  counters.notifications = notifications_.value();
  counters.operations = operations_.value();
  return counters;
}

std::size_t Broker::subscription_count() const {
  const std::scoped_lock lock(mutex_);
  return subscriptions_.size() - internal_subscriptions_;
}

ProfileStatistics Broker::profile_statistics() const {
  const std::scoped_lock lock(mutex_);
  ProfileStatistics stats(schema_);
  stats.rebuild(engine_.profiles());
  return stats;
}

std::string Broker::tree_dump() {
  const std::scoped_lock lock(mutex_);
  std::string dump = engine_.tree_dump();
  count_tree_builds_locked();
  return dump;
}

void Broker::count_tree_builds_locked() {
  const std::uint64_t builds = engine_.build_count();
  tree_builds_.add(builds - tree_builds_counted_);
  tree_builds_counted_ = builds;
}

}  // namespace genas
