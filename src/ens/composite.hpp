// GENAS — composite events (the paper's stated extension, §5).
//
// "We will extend the filter to handle composite events" — temporal
// combinations of primitive profile matches. The algebra here covers the
// standard operators of the active-database literature the paper builds on
// (SAMOS et al.):
//
//   primitive(P)            fires when profile P matches an event
//   seq(A, B, window)       A then B, with time(B) - time(A) <= window
//   conj(A, B, window)      both A and B within `window`, any order
//   disj(A, B)              either A or B
//   neg(A, B, window)       B fires with no A in the preceding `window`
//                           (window 0: only a simultaneous A blocks)
//
// Leaves come in two forms: profile-expression leaves (`primitive(Profile)`,
// the service-level form the Broker accepts, serializes over the wire, and
// decomposes for distributed routing) and profile-id leaves
// (`primitive(ProfileId)`, the detector-level form fed by a broker's
// notification stream). The Broker decomposes the first form into the
// second when a composite subscription is registered.
//
// The detector consumes a (profile, timestamp) notification stream and
// evaluates each composite subscription's expression tree incrementally;
// each operator node keeps only the last relevant child timestamps, so
// detection is O(expression size) per stimulus. All stimuli sharing one
// call (`on_event`) are simultaneous: an event matching both operands of a
// conj completes it in one step, and a neg blocker suppresses a
// same-instant completion deterministically. Out-of-order timestamps do
// not corrupt state — a stale stimulus merely fails the operators' window
// checks — but combinations spanning a reordering can be missed, which is
// what CompositeIngress (a watermark reorder stage with a bounded skew
// tolerance) exists to absorb in distributed deployments.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "event/event.hpp"
#include "profile/profile.hpp"

namespace genas {

/// Sentinel for "no timestamp": distinct from every legal event time
/// (including a legitimate time of -1).
inline constexpr Timestamp kCompositeNever =
    std::numeric_limits<Timestamp>::min();

/// Expression tree of a composite subscription. Build with the factory
/// functions below; expressions are immutable and shareable.
class CompositeExpr;
using CompositeExprPtr = std::shared_ptr<const CompositeExpr>;

class CompositeExpr {
 public:
  enum class Kind : std::uint8_t { kPrimitive, kSeq, kConj, kDisj, kNeg };

  Kind kind() const noexcept { return kind_; }
  ProfileId profile() const noexcept { return profile_; }
  /// Profile-expression payload of a service-level leaf; null for operator
  /// nodes and for detector-level (profile-id) leaves.
  const std::shared_ptr<const Profile>& leaf_profile() const noexcept {
    return leaf_;
  }
  const CompositeExprPtr& left() const noexcept { return left_; }
  const CompositeExprPtr& right() const noexcept { return right_; }
  Timestamp window() const noexcept { return window_; }

  /// Renders the expression. For profile-expression leaves the output is
  /// `parse_composite`-compatible: leaves print as `{profile expression}`,
  /// operators as `seq(A, B, w=10)` / `conj(A, B, w=10)` / `disj(A, B)` /
  /// `neg(A, B, w=10)`. Profile-id leaves print as `pN` (not parseable —
  /// ids only mean something inside one broker).
  std::string to_string() const;

 private:
  friend CompositeExprPtr primitive(ProfileId profile);
  friend CompositeExprPtr primitive(Profile profile);
  friend CompositeExprPtr seq(CompositeExprPtr a, CompositeExprPtr b,
                              Timestamp window);
  friend CompositeExprPtr conj(CompositeExprPtr a, CompositeExprPtr b,
                               Timestamp window);
  friend CompositeExprPtr disj(CompositeExprPtr a, CompositeExprPtr b);
  friend CompositeExprPtr neg(CompositeExprPtr absent, CompositeExprPtr then,
                              Timestamp window);

  CompositeExpr() = default;

  Kind kind_ = Kind::kPrimitive;
  ProfileId profile_ = 0;
  std::shared_ptr<const Profile> leaf_;  // service-level leaves only
  CompositeExprPtr left_;
  CompositeExprPtr right_;
  Timestamp window_ = 0;
};

CompositeExprPtr primitive(ProfileId profile);
CompositeExprPtr primitive(Profile profile);
CompositeExprPtr seq(CompositeExprPtr a, CompositeExprPtr b, Timestamp window);
CompositeExprPtr conj(CompositeExprPtr a, CompositeExprPtr b,
                      Timestamp window);
CompositeExprPtr disj(CompositeExprPtr a, CompositeExprPtr b);
/// `window` may be 0 for neg: only a blocker at the completing timestamp
/// suppresses. seq/conj require a positive window.
CompositeExprPtr neg(CompositeExprPtr absent, CompositeExprPtr then,
                     Timestamp window);

/// Leaf nodes in evaluation (pre-order) sequence. The decomposition order is
/// part of the wire contract: broker and mesh key the decomposed primitive
/// profiles by this order.
std::vector<const CompositeExpr*> leaf_nodes(const CompositeExpr& expr);

/// True when every leaf is a service-level (profile-expression) leaf.
bool has_profile_leaves(const CompositeExpr& expr);

/// Parses the textual composite form produced by to_string():
///
///   expr   := op '(' expr ',' expr [',' ['w='] window] ')' | '{' profile '}'
///   op     := seq | conj | disj | neg
///
/// Leaves are profile expressions in braces, parsed with parse_profile
/// against `schema`; window is a non-negative integer (seq/conj: positive).
/// Malformed input throws Error{kParse}.
CompositeExprPtr parse_composite(const SchemaPtr& schema,
                                 std::string_view text);

/// Handle of one composite subscription.
using CompositeId = std::uint64_t;

/// Fired when a composite expression completes.
struct CompositeFiring {
  CompositeId subscription = 0;
  Timestamp time = 0;  ///< timestamp of the completing primitive
};

using CompositeCallback = std::function<void(const CompositeFiring&)>;

/// Incremental composite-event detector.
///
/// Dispatch: subscriptions live in a slot-stable slab, and a per-leaf index
/// (ProfileId -> slots whose expression contains that leaf) is maintained
/// incrementally through add()/remove(). A stimulus therefore evaluates
/// only the affected entries — O(affected), not O(subscriptions) — in
/// registration order, identical to the full sweep. set_use_index(false)
/// restores the O(subscriptions) sweep; it exists as the oracle baseline
/// for equivalence tests and as a debugging escape hatch.
///
/// Re-entrancy: add() and remove() may be called from inside a callback
/// that on_match()/on_event() is currently invoking. Mutations are deferred
/// until the running sweep finishes — a removed subscription stops firing
/// immediately (later entries of the same sweep skip it); an added one
/// first sees the next stimulus.
class CompositeDetector {
 public:
  CompositeId add(CompositeExprPtr expression, CompositeCallback callback);
  void remove(CompositeId id);

  /// Feeds one primitive firing: profile `profile` matched at `time`.
  void on_match(ProfileId profile, Timestamp time);

  /// Feeds one instant: all `profiles` matched simultaneously at `time`.
  /// Feeding instants in non-decreasing time order detects every
  /// combination; out-of-order instants are tolerated but combinations that
  /// span the reordering may be missed (see CompositeIngress).
  void on_event(std::span<const ProfileId> profiles, Timestamp time);

  /// Enables (default) or disables the per-leaf dispatch index. With the
  /// index off every stimulus sweeps all subscriptions — the behavioral
  /// oracle the index is tested against. Firing multisets are identical in
  /// both modes.
  void set_use_index(bool enabled) noexcept { use_index_ = enabled; }
  bool use_index() const noexcept { return use_index_; }

  /// Garbage-collects armed operator state: clears every armed timestamp
  /// whose window lies entirely before `horizon` (it can no longer complete
  /// off any in-order stimulus at time >= horizon). Late (out-of-order)
  /// stimuli older than the horizon may miss combinations the cleared state
  /// would have completed — exactly the detector's out-of-order contract.
  /// Call with the watermark when one advances. Returns the number of
  /// armed timestamps cleared (memory-accounting / obs signal).
  std::size_t expire_before(Timestamp horizon);

  /// Operator nodes currently holding an armed timestamp (bounded-state
  /// introspection for tests and memory accounting).
  std::size_t armed_count() const noexcept;

  std::size_t subscription_count() const noexcept {
    return live_count_ + pending_add_.size() - pending_remove_.size();
  }

 private:
  /// Per-subscription evaluation state: one slot per expression node.
  struct NodeState {
    Timestamp left_fired = kCompositeNever;  ///< operator bookkeeping
    Timestamp right_fired = kCompositeNever;
  };

  struct EntryData {
    CompositeId id = 0;
    bool live = false;  ///< false: tombstoned slab slot awaiting reuse
    CompositeExprPtr expression;
    CompositeCallback callback;
    std::vector<const CompositeExpr*> nodes;  // flattened expression
    std::vector<std::int32_t> left_child;     // per node, -1 = none
    std::vector<std::int32_t> right_child;
    std::vector<NodeState> states;
    std::vector<ProfileId> leaf_profiles;     // distinct leaves, for the index
  };

  /// Returns the firing time if the node completed on this stimulus.
  Timestamp evaluate(EntryData& entry, std::size_t node,
                     std::span<const ProfileId> profiles, Timestamp time);

  bool pending_removal(CompositeId id) const;
  void apply_deferred();
  /// Places a fully-built entry into the slab and indexes its leaves.
  void install(EntryData&& entry);
  /// Tombstones a slab slot and unindexes its leaves.
  void detach(std::uint32_t slot);
  /// Evaluates one live entry against the stimulus, firing its callback.
  void dispatch(EntryData& entry, std::span<const ProfileId> profiles,
                Timestamp time);

  /// Slot-stable slab: erased entries tombstone their slot (freelisted) so
  /// the index and a running sweep can hold slot numbers across mutations.
  std::vector<EntryData> entries_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
  /// Per-leaf dispatch index: profile -> slots of entries containing it.
  std::unordered_map<ProfileId, std::vector<std::uint32_t>> index_;
  std::unordered_map<CompositeId, std::uint32_t> slot_of_;
  /// Per-slot visit stamp deduplicating the affected-slot gather when one
  /// instant stimulates several leaves of the same entry.
  std::vector<std::uint64_t> slot_stamp_;
  std::uint64_t stamp_ = 0;
  bool use_index_ = true;
  CompositeId next_id_ = 1;

  /// Sweep depth; while > 0, add/remove defer into the vectors below.
  int iterating_ = 0;
  std::vector<EntryData> pending_add_;
  std::vector<CompositeId> pending_remove_;
};

/// Distinct redelivery tokens CompositeIngress remembers. A reconnecting
/// RemoteBrokerClient replays at most its publish window (256 publishes by
/// default) and each replayed publish carries one token, so 4096 tokens
/// catch a full replay even when fifteen other windows' worth of tokened
/// traffic arrived between the original and the replay. Memory stays
/// bounded at a few hundred KiB; a redelivery older than the window slips
/// through and is counted as an at-least-once duplicate.
inline constexpr std::size_t kCompositeDedupWindow = 4096;

/// Watermark reorder stage in front of a CompositeDetector.
///
/// Distributed delivery is not globally ordered: primitive firings reach a
/// subscriber's detector with bounded timestamp skew. CompositeIngress
/// buffers stimuli per instant and releases an instant — as one simultaneous
/// on_event batch, in timestamp order — only once the watermark
/// (`max time seen - skew`) has passed it. Stimuli arriving later than the
/// skew bound are fed immediately (late, never dropped); combinations they
/// complete may be missed, exactly the detector's out-of-order contract.
/// flush() releases everything buffered (end of stream / quiescence).
class CompositeIngress {
 public:
  explicit CompositeIngress(CompositeDetector& detector)
      : detector_(detector) {}

  /// Skew tolerance; must be >= 0. Raising it mid-stream is safe; lowering
  /// it takes effect on the next push.
  void set_skew(Timestamp skew);
  Timestamp skew() const noexcept { return skew_; }

  /// Buffers one stimulus and releases every instant the watermark passed.
  void push(ProfileId profile, Timestamp time);

  /// push() with a redelivery token (at-least-once transports): when
  /// `token` is nonzero, a (token, profile) pair already seen among the
  /// most recent kCompositeDedupWindow distinct tokens is dropped —
  /// redelivered stimuli never double-arm or double-fire a composite. Once
  /// the window is full the oldest token is evicted, so a redelivery
  /// arriving later than kCompositeDedupWindow fresher tokens slips
  /// through. Token 0 means "untracked" (never deduped). Returns false
  /// when the stimulus was dropped as a duplicate.
  bool push(ProfileId profile, Timestamp time, std::uint64_t token);

  /// Stimuli dropped by the duplicate filter so far.
  std::uint64_t dropped_duplicates() const noexcept { return dropped_; }

  /// Time-driven watermark tick: advances "max time seen" to `now` (if
  /// later) and releases every instant the new watermark passed, exactly as
  /// if a stimulus at `now` had arrived — without buffering one. Bounds
  /// firing latency and buffered-instant memory on sparse streams where no
  /// later stimulus would otherwise push the watermark.
  void advance_to(Timestamp now);

  /// Releases everything still buffered, in timestamp order.
  void flush();

  /// Current watermark (`max time seen - skew`, clamped), or
  /// kCompositeNever before any stimulus/advance.
  Timestamp watermark() const noexcept;

  /// Instants currently held back.
  std::size_t buffered() const noexcept { return pending_.size(); }

  /// Timestamp of the oldest instant held back, or kCompositeNever when
  /// nothing is buffered (watermark-lag introspection).
  Timestamp oldest_buffered() const noexcept {
    return pending_.empty() ? kCompositeNever : pending_.begin()->first;
  }

 private:
  void release_below(Timestamp watermark);

  CompositeDetector& detector_;
  std::map<Timestamp, std::vector<ProfileId>> pending_;
  Timestamp max_seen_ = kCompositeNever;
  Timestamp skew_ = 0;

  /// Duplicate filter state: token -> profiles seen under it, with FIFO
  /// eviction once more than kCompositeDedupWindow distinct tokens are
  /// tracked.
  std::unordered_map<std::uint64_t, std::vector<ProfileId>> seen_;
  std::deque<std::uint64_t> seen_order_;
  std::uint64_t dropped_ = 0;
};

}  // namespace genas
