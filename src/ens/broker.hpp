// GENAS — the event notification broker.
//
// The service surface of an ENS (paper §1): users register profiles with a
// callback; providers publish events; the broker filters through the
// distribution-based engine and delivers notifications.
//
// Threading model (RCU-style snapshots):
//   * publish()/publish_batch() are lock-free on the hot path: each thread
//     caches a shared_ptr to the current immutable Snapshot (flat profile
//     tree + profile→callback route table) in thread-local storage and
//     revalidates it with a single atomic version load per publish — no
//     lock, no shared-state write beyond one refcount bump. Service
//     counters are atomics. (A deliberate non-use of
//     std::atomic<shared_ptr>: libstdc++'s is an embedded spinlock whose
//     GCC 12 load unlocks relaxed — formally racy under TSan — and it costs
//     three shared RMWs per load where the cache costs one.)
//   * subscribe()/unsubscribe() take the mutation mutex, update the engine,
//     and bump the snapshot version; the next publish that notices the stale
//     version rebuilds the snapshot off to the side (under the mutex) and
//     swaps it in atomically, so a burst of mutations costs one rebuild.
//   * Callbacks are invoked outside the lock, so subscribers may re-enter
//     the broker (subscribe/unsubscribe/publish) from a callback.
//   * Consequence of snapshotting: a publish that raced a subscribe may
//     either see or miss the new subscription, and an in-flight publish may
//     deliver one final notification to a subscription whose unsubscribe()
//     already returned. Deliveries are never lost or duplicated for
//     subscriptions that are stable across the publish.
//   * The engine's adaptive loop, when enabled, runs after the lock-free
//     match: the publish takes the mutation mutex once to observe its
//     events, and a drift rebuild bumps the snapshot version exactly like a
//     subscription change. Matching and delivery never wait on it, and the
//     non-adaptive path takes no lock at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/filter_engine.hpp"
#include "ens/composite.hpp"
#include "ens/statistics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace genas {

/// Handle of one subscription.
using SubscriptionId = std::uint64_t;

/// Handle of one broker-wide delivery sink.
using SinkId = std::uint64_t;

/// Handle of one drain hook (see Broker::add_drain_hook).
using DrainHookId = std::uint64_t;

/// Invoked once per publish/publish_batch after all of its notifications
/// have drained. See Broker::add_drain_hook.
using DrainHook = std::function<void()>;

/// Delivered to a subscriber when an event matches its profile.
struct Notification {
  SubscriptionId subscription = 0;
  Event event;
};

using NotificationCallback = std::function<void(const Notification&)>;

/// Result of one publish call.
struct PublishResult {
  std::size_t notified = 0;        ///< notifications delivered
  std::uint64_t operations = 0;    ///< filter comparisons
  bool rebuilt = false;            ///< adaptive/snapshot rebuild happened
};

/// Aggregate result of one publish_batch call.
struct BatchPublishResult {
  std::size_t events = 0;          ///< events published
  std::size_t matched_events = 0;  ///< events matching ≥ 1 profile
  std::size_t notified = 0;        ///< notifications delivered
  std::uint64_t operations = 0;    ///< filter comparisons
  bool rebuilt = false;            ///< the batch refreshed the tree
};

class Broker {
 public:
  /// `metrics` is the obs registry this broker instruments (counters,
  /// latency histograms, composite gauges); when null the broker creates a
  /// private one. A host embedding several brokers (the mesh) passes
  /// per-node registries with distinguishing labels so their snapshots
  /// merge without name collisions.
  explicit Broker(SchemaPtr schema, EngineOptions options = {},
                  std::shared_ptr<obs::Registry> metrics = nullptr);

  /// Registers a profile with its delivery callback.
  SubscriptionId subscribe(Profile profile, NotificationCallback callback);
  /// Parses the expression, then registers it.
  SubscriptionId subscribe(std::string_view expression,
                           NotificationCallback callback);

  void unsubscribe(SubscriptionId id);

  /// Filters and delivers one event (matching is lock-free; an adaptive
  /// broker then locks once to observe the event).
  PublishResult publish(const Event& event);
  /// Parses "a=1; b=2" and publishes.
  PublishResult publish(std::string_view event_text, Timestamp time = 0);

  /// publish() with an at-least-once redelivery token. A transport that may
  /// deliver the same publish twice (reconnect replay, link retransmission)
  /// tags each event with a stable nonzero token; plain deliveries still
  /// duplicate (at-least-once semantics, counted by the caller), but the
  /// composite runtime dedups stimuli per (token, leaf) within the window
  /// set by set_composite_dedup_window(), so a redelivered event never
  /// double-arms or double-fires a composite. Token 0 == plain publish().
  PublishResult publish(const Event& event, std::uint64_t dedup_token);

  /// Filters and delivers a batch against one snapshot acquisition:
  /// matching reuses one scratch buffer across the batch and all
  /// notifications drain in a single pass after matching.
  BatchPublishResult publish_batch(std::span<const Event> events);

  /// publish_batch() with one redelivery token per event (same length as
  /// `events`; 0 entries are untracked). See publish(event, dedup_token).
  BatchPublishResult publish_batch(std::span<const Event> events,
                                   std::span<const std::uint64_t> dedup_tokens);

  const SchemaPtr& schema() const noexcept { return schema_; }

  // --- Composite subscriptions (the paper's §5 extension) ----------------
  //
  // A composite subscription is an expression over profile leaves
  // (`primitive(Profile)` / parse_composite). subscribe_composite
  // decomposes it: each leaf profile is registered through the ordinary
  // snapshot/FilterEngine path as an internal primitive subscription whose
  // deliveries drive a broker-internal CompositeDetector — the lock-free
  // publish hot path is untouched, and a composite coexists with plain
  // subscriptions and delivery sinks. Leaf registration is refcounted and
  // keyed by profile equality (canonical_profile_key): equal leaf profiles
  // — across composites, or duplicated within one expression — share one
  // engine registration and one ingress stimulus per matching event; the
  // registration retracts when the last composite using it unsubscribes.
  // Detection is watermark-based: primitive firings buffer in a reorder
  // stage (CompositeIngress) and an instant is evaluated once a later
  // instant passes the skew tolerance (set_composite_skew; default 0) — so
  // distributed transports delivering out of order by up to the skew detect
  // exactly like an ordered stream. flush_composites() evaluates everything
  // still buffered (quiescence / end of stream); advance_watermark(now) is
  // the time-driven tick for sparse streams. Composite callbacks run on the
  // publishing (or flushing/advancing) thread, outside all broker locks;
  // they may re-enter the broker, including
  // subscribe_composite/unsubscribe_composite.

  /// Registers a composite subscription; every leaf must carry a profile
  /// with this broker's schema. Returns its handle.
  CompositeId subscribe_composite(CompositeExprPtr expression,
                                  CompositeCallback callback);
  /// Parses the textual composite form, then registers it.
  CompositeId subscribe_composite(std::string_view expression,
                                  CompositeCallback callback);
  /// Withdraws a composite subscription and its internal leaf profiles.
  void unsubscribe_composite(CompositeId id);
  /// Live composite subscriptions.
  std::size_t composite_count() const;
  /// Distinct leaf profiles currently registered for composite detection
  /// (the refcounted dedup table's size — equal leaves count once).
  std::size_t composite_leaf_count() const;
  /// Composite instants buffered in the reorder stage.
  std::size_t composite_buffered() const;
  /// Watermark skew tolerance for composite detection (>= 0; default 0).
  void set_composite_skew(Timestamp skew);
  /// Evaluates all buffered composite instants, in timestamp order.
  void flush_composites();
  /// Time-driven watermark tick: advances composite detection to `now` as
  /// if a (non-buffered) stimulus at `now` had been seen — instants the new
  /// watermark passed evaluate and fire, and armed operator state whose
  /// window has fully passed is garbage-collected. Bounds composite firing
  /// latency and buffered-instant memory on sparse streams without
  /// flush_composites() calls. Callbacks run on the calling thread.
  void advance_watermark(Timestamp now);
  /// Debug/oracle switch for the detector's per-leaf dispatch index
  /// (default on). With the index off, every stimulus sweeps all composite
  /// subscriptions; firing multisets are identical in both modes.
  void set_composite_index_enabled(bool enabled);
  /// Capacity (in distinct tokens) of the composite redelivery filter fed
  /// by publish(event, dedup_token); 0 (default) disables it. See
  /// CompositeIngress::set_dedup_window for the eviction contract.
  void set_composite_dedup_window(std::size_t capacity);
  /// Stimuli the composite redelivery filter has dropped.
  std::uint64_t composite_duplicates_dropped() const;

  /// Installs (or, with nullptr, clears) the broker's *default* delivery
  /// sink: an observer invoked for every delivered notification, after the
  /// owning subscription's callback, outside all locks, on the publishing
  /// thread. External transports tap the full delivery stream this way —
  /// the mesh runtime counts per-node deliveries without wrapping each
  /// callback — and like callbacks, a sink may re-enter the broker.
  ///
  /// Swap semantics are explicit: set_delivery_sink replaces only the sink
  /// a previous set_delivery_sink call installed. Sinks installed through
  /// add_delivery_sink are independent and are never clobbered by it.
  void set_delivery_sink(NotificationCallback sink);

  /// Installs an additional delivery sink and returns its handle. All
  /// installed sinks observe every delivery, in installation order (the
  /// set_delivery_sink slot counts as one of them).
  SinkId add_delivery_sink(NotificationCallback sink);
  /// Removes a sink installed by add_delivery_sink; Error{kNotFound} for
  /// unknown handles.
  void remove_delivery_sink(SinkId id);

  /// Installs a drain hook: invoked once per publish()/publish_batch(),
  /// after every notification of that call (callbacks and sinks) has been
  /// delivered, outside all broker locks, on the publishing thread. This is
  /// the batching boundary for transports that stage per-notification
  /// output: a sink appends, the drain hook flushes, so one publish emits
  /// one frame regardless of how many subscriptions matched. A publish that
  /// delivers nothing still runs the hooks (cheap, and it lets a stage
  /// flush output that arrived through a different path). Hooks run in
  /// installation order and may re-enter the broker.
  DrainHookId add_drain_hook(DrainHook hook);
  /// Removes a hook installed by add_drain_hook; Error{kNotFound} for
  /// unknown handles.
  void remove_drain_hook(DrainHookId id);

  ServiceCounters counters() const;
  /// Live user subscriptions (composite-internal leaf registrations are
  /// excluded; see composite_count() for composites).
  std::size_t subscription_count() const;

  /// The obs registry this broker instruments (scrape with
  /// metrics().snapshot() or obs::render_prometheus).
  obs::Registry& metrics() const noexcept { return *metrics_; }
  const std::shared_ptr<obs::Registry>& metrics_ptr() const noexcept {
    return metrics_;
  }

  /// Event-path trace sampling: every Nth publish per thread records
  /// publish→match and publish→deliver latency (and composite ingest
  /// stamps for publish→firing latency). 0 disables tracing; the default
  /// is obs::kDefaultTracePeriod. Reconfigurable under live traffic.
  void set_trace_period(std::uint32_t period) noexcept {
    trace_.set_period(period);
  }
  std::uint32_t trace_period() const noexcept { return trace_.period(); }

  /// Profile-side statistics (P_p) over the current subscriptions.
  ProfileStatistics profile_statistics() const;

  /// Structural dump of the current profile tree (rebuilds if stale). A
  /// diagnostic: it rebuilds the node form from the profile set, the policy,
  /// and the distribution the live tree was built for.
  std::string tree_dump();

 private:
  struct Subscription {
    ProfileId profile;
    /// Single owner of the callback object; snapshots and in-flight
    /// deliveries share it so a rebuild copies pointers, not
    /// std::function state.
    std::shared_ptr<const NotificationCallback> callback;
  };

  /// One routing entry of a snapshot: where a matched profile's
  /// notifications go.
  struct Route {
    SubscriptionId subscription = 0;
    std::shared_ptr<const NotificationCallback> callback;
  };

  /// Immutable read-side state, swapped atomically on rebuild. Profile ids
  /// are dense and append-only, so the route table is a flat vector indexed
  /// by ProfileId; a null callback marks an id with no live subscription.
  struct Snapshot {
    std::uint64_t version = 0;
    std::shared_ptr<const FlatProfileTree> tree;
    std::vector<Route> routes;
    /// Broker-wide delivery observers, in installation order; empty when
    /// none are installed.
    std::vector<std::shared_ptr<const NotificationCallback>> sinks;
    /// Post-drain hooks, in installation order; empty when none are
    /// installed.
    std::vector<std::shared_ptr<const DrainHook>> drain_hooks;
  };

  /// Returns the current snapshot: the thread-local cached handle when its
  /// version is current (lock-free), else refreshes — rebuilding the
  /// snapshot if stale — under the mutation mutex.
  std::shared_ptr<const Snapshot> acquire_snapshot(bool* rebuilt);

  /// The adaptive loop's step after a lock-free match: feeds `events` to
  /// the engine under mutex_ and, on a drift rebuild, bumps the snapshot
  /// version. Returns true when it rebuilt.
  bool observe(std::span<const Event> events);

  /// Shared body of both publish_batch overloads; `dedup_tokens` is empty
  /// or parallel to `events`.
  BatchPublishResult publish_batch_impl(
      std::span<const Event> events,
      std::span<const std::uint64_t> dedup_tokens);

  /// Feeds one internal leaf firing into the composite runtime, then
  /// dispatches any completed composite callbacks outside composite_mutex_.
  void composite_ingest(ProfileId profile, Timestamp time);
  /// Registers this broker's metrics in metrics_ (constructor helper).
  void register_metrics();
  /// Refreshes the composite depth/lag gauges (composite_mutex_ held).
  void update_composite_gauges_locked();
  /// Moves composite_pending_ out (composite_mutex_ must be held by `lock`),
  /// releases the lock, and invokes the subscribers' callbacks.
  void dispatch_composite_firings(std::unique_lock<std::mutex>& lock);

  SchemaPtr schema_;
  mutable std::mutex mutex_;  // guards engine_, tables, snapshot rebuild
  FilterEngine engine_;
  std::unordered_map<SubscriptionId, Subscription> subscriptions_;
  std::unordered_map<ProfileId, SubscriptionId> by_profile_;
  SubscriptionId next_id_ = 1;
  /// Composite-internal leaf registrations inside subscriptions_ (excluded
  /// from subscription_count()); guarded by mutex_.
  std::size_t internal_subscriptions_ = 0;

  /// Distinguishes brokers in the thread-local snapshot caches (slots must
  /// never alias across broker instances, even address-reused ones).
  const std::uint64_t broker_id_;

  /// Mutation counter; a snapshot built at version v serves reads until the
  /// next mutation bumps it (always bumped under mutex_, read lock-free).
  std::atomic<std::uint64_t> version_{1};
  std::shared_ptr<const Snapshot> snapshot_;  // guarded by mutex_

  /// Installed delivery sinks, in installation order; guarded by mutex_.
  struct SinkEntry {
    SinkId id = 0;
    std::shared_ptr<const NotificationCallback> callback;
  };
  std::vector<SinkEntry> sinks_;
  SinkId next_sink_id_ = 1;
  /// Sink owned by set_delivery_sink (its explicit-swap slot); 0 when none.
  SinkId default_sink_id_ = 0;

  /// Installed drain hooks, in installation order; guarded by mutex_.
  struct DrainHookEntry {
    DrainHookId id = 0;
    std::shared_ptr<const DrainHook> hook;
  };
  std::vector<DrainHookEntry> drain_hooks_;
  DrainHookId next_drain_hook_id_ = 1;

  /// Composite runtime. composite_mutex_ serializes detector and reorder
  /// state; it is never nested with mutex_ and never held while invoking
  /// user callbacks (firings collect in composite_pending_ and dispatch
  /// after release, so composite callbacks may re-enter the broker).
  mutable std::mutex composite_mutex_;
  CompositeDetector composite_detector_;
  CompositeIngress composite_ingress_{composite_detector_};
  std::vector<CompositeFiring> composite_pending_;
  /// Highest horizon already passed to expire_before; advance_watermark
  /// skips the O(composites) GC sweep until the watermark moves past it.
  /// Guarded by composite_mutex_. GC runs only from advance_watermark, so
  /// the stimulus-driven push path stays deterministic for late stimuli.
  Timestamp composite_expired_horizon_ = kCompositeNever;
  struct CompositeEntry {
    std::shared_ptr<const CompositeCallback> callback;
    /// Canonical keys of the distinct leaf profiles this composite holds a
    /// reference on (one per distinct profile, duplicates collapsed).
    std::vector<std::string> leaf_keys;
  };
  std::unordered_map<CompositeId, CompositeEntry> composites_;
  /// Refcounted composite-leaf registrations, keyed by profile equality
  /// (canonical_profile_key); guarded by mutex_ like the subscription
  /// tables it feeds.
  struct LeafRegistration {
    ProfileId profile = 0;
    SubscriptionId subscription = 0;
    std::size_t refs = 0;
  };
  std::unordered_map<std::string, LeafRegistration> composite_leaves_;

  // Observability. Service counters live in the obs registry (sharded
  // relaxed atomics, so the lock-free publish path can bump them without
  // contention); the trace sampler decides which publishes pay for stage
  // timestamps. Handles are registered once in the constructor.
  std::shared_ptr<obs::Registry> metrics_;
  obs::TraceSampler trace_;
  obs::Counter events_published_;
  obs::Counter events_matched_;
  obs::Counter notifications_;
  obs::Counter operations_;
  obs::Counter snapshot_rebuilds_;
  obs::Counter adaptive_rebuilds_;
  obs::Histogram match_latency_;
  obs::Histogram delivery_latency_;
  obs::Histogram rebuild_pause_;
  obs::Counter composite_firings_;
  obs::Counter composite_dedup_drops_;
  obs::Counter composite_expired_;
  obs::Histogram composite_firing_latency_;
  obs::Gauge composite_reorder_depth_;
  obs::Gauge composite_armed_;
  obs::Gauge composite_watermark_lag_;
  /// Sampled composite ingest stamps: (logical stimulus time, wall ns),
  /// bounded FIFO; guarded by composite_mutex_. dispatch_composite_firings
  /// matches firings against them for publish→firing latency.
  std::vector<std::pair<Timestamp, std::uint64_t>> composite_trace_stamps_;
};

}  // namespace genas
