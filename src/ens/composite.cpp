#include "ens/composite.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "profile/parser.hpp"

namespace genas {

namespace {
CompositeExprPtr make_node(CompositeExpr&& node) {
  return std::make_shared<const CompositeExpr>(std::move(node));
}
}  // namespace

CompositeExprPtr primitive(ProfileId profile) {
  CompositeExpr node;
  node.kind_ = CompositeExpr::Kind::kPrimitive;
  node.profile_ = profile;
  return make_node(std::move(node));
}

CompositeExprPtr primitive(Profile profile) {
  GENAS_REQUIRE(profile.schema() != nullptr, ErrorCode::kInvalidArgument,
                "composite leaf requires a schema-bound profile");
  CompositeExpr node;
  node.kind_ = CompositeExpr::Kind::kPrimitive;
  node.leaf_ = std::make_shared<const Profile>(std::move(profile));
  return make_node(std::move(node));
}

CompositeExprPtr seq(CompositeExprPtr a, CompositeExprPtr b,
                     Timestamp window) {
  GENAS_REQUIRE(a != nullptr && b != nullptr, ErrorCode::kInvalidArgument,
                "seq requires two operands");
  GENAS_REQUIRE(window > 0, ErrorCode::kInvalidArgument,
                "seq requires a positive window");
  CompositeExpr node;
  node.kind_ = CompositeExpr::Kind::kSeq;
  node.left_ = std::move(a);
  node.right_ = std::move(b);
  node.window_ = window;
  return make_node(std::move(node));
}

CompositeExprPtr conj(CompositeExprPtr a, CompositeExprPtr b,
                      Timestamp window) {
  GENAS_REQUIRE(a != nullptr && b != nullptr, ErrorCode::kInvalidArgument,
                "conj requires two operands");
  GENAS_REQUIRE(window > 0, ErrorCode::kInvalidArgument,
                "conj requires a positive window");
  CompositeExpr node;
  node.kind_ = CompositeExpr::Kind::kConj;
  node.left_ = std::move(a);
  node.right_ = std::move(b);
  node.window_ = window;
  return make_node(std::move(node));
}

CompositeExprPtr disj(CompositeExprPtr a, CompositeExprPtr b) {
  GENAS_REQUIRE(a != nullptr && b != nullptr, ErrorCode::kInvalidArgument,
                "disj requires two operands");
  CompositeExpr node;
  node.kind_ = CompositeExpr::Kind::kDisj;
  node.left_ = std::move(a);
  node.right_ = std::move(b);
  return make_node(std::move(node));
}

CompositeExprPtr neg(CompositeExprPtr absent, CompositeExprPtr then,
                     Timestamp window) {
  GENAS_REQUIRE(absent != nullptr && then != nullptr,
                ErrorCode::kInvalidArgument, "neg requires two operands");
  GENAS_REQUIRE(window >= 0, ErrorCode::kInvalidArgument,
                "neg requires a non-negative window");
  CompositeExpr node;
  node.kind_ = CompositeExpr::Kind::kNeg;
  node.left_ = std::move(absent);
  node.right_ = std::move(then);
  node.window_ = window;
  return make_node(std::move(node));
}

std::string CompositeExpr::to_string() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kPrimitive:
      if (leaf_ != nullptr) {
        os << '{' << format_profile(*leaf_) << '}';
      } else {
        os << 'p' << profile_;
      }
      break;
    case Kind::kSeq:
      os << "seq(" << left_->to_string() << ", " << right_->to_string()
         << ", w=" << window_ << ')';
      break;
    case Kind::kConj:
      os << "conj(" << left_->to_string() << ", " << right_->to_string()
         << ", w=" << window_ << ')';
      break;
    case Kind::kDisj:
      os << "disj(" << left_->to_string() << ", " << right_->to_string()
         << ')';
      break;
    case Kind::kNeg:
      os << "neg(" << left_->to_string() << ", " << right_->to_string()
         << ", w=" << window_ << ')';
      break;
  }
  return os.str();
}

namespace {
void collect_leaves(const CompositeExpr& expr,
                    std::vector<const CompositeExpr*>& out) {
  if (expr.kind() == CompositeExpr::Kind::kPrimitive) {
    out.push_back(&expr);
    return;
  }
  if (expr.left() != nullptr) collect_leaves(*expr.left(), out);
  if (expr.right() != nullptr) collect_leaves(*expr.right(), out);
}
}  // namespace

std::vector<const CompositeExpr*> leaf_nodes(const CompositeExpr& expr) {
  std::vector<const CompositeExpr*> leaves;
  collect_leaves(expr, leaves);
  return leaves;
}

bool has_profile_leaves(const CompositeExpr& expr) {
  for (const CompositeExpr* leaf : leaf_nodes(expr)) {
    if (leaf->leaf_profile() == nullptr) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Textual composite form.

namespace {

class CompositeParser {
 public:
  CompositeParser(const SchemaPtr& schema, std::string_view text)
      : schema_(schema), text_(text) {}

  CompositeExprPtr parse() {
    CompositeExprPtr expr = expression();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after expression");
    return expr;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw_error(ErrorCode::kParse, "composite (at offset " +
                                       std::to_string(pos_) + "): " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  CompositeExprPtr expression() {
    skip_ws();
    if (pos_ >= text_.size()) fail("expected an expression");
    if (text_[pos_] == '{') {
      const std::size_t close = text_.find('}', pos_ + 1);
      if (close == std::string_view::npos) fail("unterminated '{' leaf");
      const std::string_view inner = text_.substr(pos_ + 1, close - pos_ - 1);
      pos_ = close + 1;
      return primitive(parse_profile(schema_, inner));
    }

    std::size_t end = pos_;
    while (end < text_.size() && text_[end] >= 'a' && text_[end] <= 'z') {
      ++end;
    }
    const std::string_view op = text_.substr(pos_, end - pos_);
    pos_ = end;
    const bool is_seq = op == "seq";
    const bool is_conj = op == "conj";
    const bool is_disj = op == "disj";
    const bool is_neg = op == "neg";
    if (!is_seq && !is_conj && !is_disj && !is_neg) {
      fail("expected seq|conj|disj|neg or a '{profile}' leaf");
    }

    expect('(');
    CompositeExprPtr a = expression();
    expect(',');
    CompositeExprPtr b = expression();
    Timestamp window = 0;
    if (!is_disj) {
      expect(',');
      window = parse_window();
    }
    expect(')');
    if (is_seq) return seq(std::move(a), std::move(b), window);
    if (is_conj) return conj(std::move(a), std::move(b), window);
    if (is_neg) return neg(std::move(a), std::move(b), window);
    return disj(std::move(a), std::move(b));
  }

  Timestamp parse_window() {
    skip_ws();
    // Accept the `w=` prefix to_string() emits.
    if (pos_ + 1 < text_.size() && text_[pos_] == 'w' &&
        text_[pos_ + 1] == '=') {
      pos_ += 2;
    }
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    Timestamp value = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr == begin) fail("expected a window integer");
    if (value < 0) fail("window must be non-negative");
    pos_ = static_cast<std::size_t>(ptr - text_.data());
    return value;
  }

  const SchemaPtr& schema_;
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

CompositeExprPtr parse_composite(const SchemaPtr& schema,
                                 std::string_view text) {
  GENAS_REQUIRE(schema != nullptr, ErrorCode::kInvalidArgument,
                "composite parsing requires a schema");
  return CompositeParser(schema, text).parse();
}

// ---------------------------------------------------------------------------
// Detector.

namespace {
/// Flattens the expression tree, returning the index of `expr`'s slot.
std::int32_t flatten(const CompositeExpr* expr,
                     std::vector<const CompositeExpr*>& nodes,
                     std::vector<std::int32_t>& left,
                     std::vector<std::int32_t>& right) {
  const auto index = static_cast<std::int32_t>(nodes.size());
  nodes.push_back(expr);
  left.push_back(-1);
  right.push_back(-1);
  if (expr->left() != nullptr) {
    left[static_cast<std::size_t>(index)] =
        flatten(expr->left().get(), nodes, left, right);
  }
  if (expr->right() != nullptr) {
    right[static_cast<std::size_t>(index)] =
        flatten(expr->right().get(), nodes, left, right);
  }
  return index;
}
}  // namespace

CompositeId CompositeDetector::add(CompositeExprPtr expression,
                                   CompositeCallback callback) {
  GENAS_REQUIRE(expression != nullptr, ErrorCode::kInvalidArgument,
                "composite subscription requires an expression");
  GENAS_REQUIRE(callback != nullptr, ErrorCode::kInvalidArgument,
                "composite subscription requires a callback");
  EntryData entry;
  entry.id = next_id_++;
  entry.expression = std::move(expression);
  entry.callback = std::move(callback);
  flatten(entry.expression.get(), entry.nodes, entry.left_child,
          entry.right_child);
  entry.states.resize(entry.nodes.size());
  for (const CompositeExpr* node : entry.nodes) {
    if (node->kind() == CompositeExpr::Kind::kPrimitive) {
      entry.leaf_profiles.push_back(node->profile());
    }
  }
  // Distinct leaf profiles only: a duplicated leaf must index (and later
  // unindex) its entry exactly once.
  std::sort(entry.leaf_profiles.begin(), entry.leaf_profiles.end());
  entry.leaf_profiles.erase(
      std::unique(entry.leaf_profiles.begin(), entry.leaf_profiles.end()),
      entry.leaf_profiles.end());
  const CompositeId id = entry.id;
  if (iterating_ > 0) {
    pending_add_.push_back(std::move(entry));
  } else {
    install(std::move(entry));
  }
  return id;
}

void CompositeDetector::install(EntryData&& entry) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    entries_[slot] = std::move(entry);
  } else {
    slot = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(std::move(entry));
    slot_stamp_.push_back(0);
  }
  EntryData& installed = entries_[slot];
  installed.live = true;
  for (const ProfileId profile : installed.leaf_profiles) {
    index_[profile].push_back(slot);
  }
  slot_of_.emplace(installed.id, slot);
  ++live_count_;
}

void CompositeDetector::detach(std::uint32_t slot) {
  EntryData& entry = entries_[slot];
  for (const ProfileId profile : entry.leaf_profiles) {
    const auto bucket = index_.find(profile);
    if (bucket == index_.end()) continue;
    std::erase(bucket->second, slot);
    if (bucket->second.empty()) index_.erase(bucket);
  }
  slot_of_.erase(entry.id);
  entry.live = false;
  // Release the heavy members now; the slot itself waits on the free list.
  entry.expression.reset();
  entry.callback = nullptr;
  entry.nodes.clear();
  entry.left_child.clear();
  entry.right_child.clear();
  entry.states.clear();
  entry.leaf_profiles.clear();
  free_slots_.push_back(slot);
  --live_count_;
}

bool CompositeDetector::pending_removal(CompositeId id) const {
  return std::find(pending_remove_.begin(), pending_remove_.end(), id) !=
         pending_remove_.end();
}

void CompositeDetector::remove(CompositeId id) {
  if (iterating_ > 0) {
    // A sweep is running: never touch the slab under the iteration. Entries
    // added during this sweep can be erased directly (the sweep never sees
    // pending_add_); settled entries are only marked.
    const auto pending = std::find_if(
        pending_add_.begin(), pending_add_.end(),
        [id](const EntryData& e) { return e.id == id; });
    if (pending != pending_add_.end()) {
      pending_add_.erase(pending);
      return;
    }
    GENAS_REQUIRE(slot_of_.contains(id) && !pending_removal(id),
                  ErrorCode::kNotFound,
                  "unknown composite subscription " + std::to_string(id));
    pending_remove_.push_back(id);
    return;
  }
  const auto it = slot_of_.find(id);
  GENAS_REQUIRE(it != slot_of_.end(), ErrorCode::kNotFound,
                "unknown composite subscription " + std::to_string(id));
  detach(it->second);
}

void CompositeDetector::apply_deferred() {
  for (const CompositeId id : pending_remove_) {
    const auto it = slot_of_.find(id);
    if (it != slot_of_.end()) detach(it->second);
  }
  pending_remove_.clear();
  for (EntryData& entry : pending_add_) {
    install(std::move(entry));
  }
  pending_add_.clear();
}

Timestamp CompositeDetector::evaluate(EntryData& entry, std::size_t node,
                                      std::span<const ProfileId> profiles,
                                      Timestamp time) {
  const CompositeExpr& expr = *entry.nodes[node];
  NodeState& state = entry.states[node];

  // Evaluate children first (bottom-up stimulus propagation).
  Timestamp left_now = kCompositeNever;
  Timestamp right_now = kCompositeNever;
  if (entry.left_child[node] >= 0) {
    left_now = evaluate(entry, static_cast<std::size_t>(entry.left_child[node]),
                        profiles, time);
  }
  if (entry.right_child[node] >= 0) {
    right_now = evaluate(
        entry, static_cast<std::size_t>(entry.right_child[node]), profiles,
        time);
  }

  Timestamp fired = kCompositeNever;
  switch (expr.kind()) {
    case CompositeExpr::Kind::kPrimitive:
      if (std::find(profiles.begin(), profiles.end(), expr.profile()) !=
          profiles.end()) {
        fired = time;
      }
      break;

    case CompositeExpr::Kind::kSeq:
      // "A then B": B strictly after A, within the window; A is consumed.
      if (left_now != kCompositeNever) state.left_fired = left_now;
      if (right_now != kCompositeNever && state.left_fired != kCompositeNever &&
          state.left_fired < right_now &&
          right_now - state.left_fired <= expr.window()) {
        fired = right_now;
        state.left_fired = kCompositeNever;
      }
      break;

    case CompositeExpr::Kind::kConj:
      // Both within the window, any order; both are consumed.
      if (left_now != kCompositeNever) state.left_fired = left_now;
      if (right_now != kCompositeNever) state.right_fired = right_now;
      if (state.left_fired != kCompositeNever &&
          state.right_fired != kCompositeNever &&
          std::max(state.left_fired, state.right_fired) -
                  std::min(state.left_fired, state.right_fired) <=
              expr.window()) {
        fired = std::max(state.left_fired, state.right_fired);
        state.left_fired = kCompositeNever;
        state.right_fired = kCompositeNever;
      }
      break;

    case CompositeExpr::Kind::kDisj:
      fired = std::max(left_now, right_now);
      break;

    case CompositeExpr::Kind::kNeg:
      // `then` fires with no `absent` in the preceding window (inclusive:
      // a simultaneous blocker suppresses, even at window 0). The blocker
      // is not consumed: it suppresses every completion inside its window.
      if (left_now != kCompositeNever) state.left_fired = left_now;
      if (right_now != kCompositeNever &&
          (state.left_fired == kCompositeNever ||
           right_now < state.left_fired ||
           right_now - state.left_fired > expr.window())) {
        fired = right_now;
      }
      break;
  }

  return fired;
}

void CompositeDetector::on_match(ProfileId profile, Timestamp time) {
  on_event({&profile, 1}, time);
}

namespace {
/// Thread-local affected-slot scratch, moved out while in use so re-entrant
/// on_event calls from callbacks get their own buffer.
std::vector<std::uint32_t>& affected_scratch_slot() {
  static thread_local std::vector<std::uint32_t> scratch;
  return scratch;
}
}  // namespace

void CompositeDetector::dispatch(EntryData& entry,
                                 std::span<const ProfileId> profiles,
                                 Timestamp time) {
  const Timestamp fired = evaluate(entry, 0, profiles, time);
  if (fired != kCompositeNever) {
    entry.callback(CompositeFiring{entry.id, fired});
  }
}

void CompositeDetector::on_event(std::span<const ProfileId> profiles,
                                 Timestamp time) {
  if (profiles.empty()) return;
  // Unwind-safe sweep depth: a throwing callback must still restore
  // iterating_ and apply deferred mutations, or add/remove would defer
  // forever afterwards.
  struct SweepGuard {
    CompositeDetector& detector;
    explicit SweepGuard(CompositeDetector& d) : detector(d) {
      ++detector.iterating_;
    }
    ~SweepGuard() {
      if (--detector.iterating_ == 0) detector.apply_deferred();
    }
  } guard(*this);

  // Gather the slots to evaluate. The slab is never resized while a sweep
  // runs (add/remove defer), so slot numbers stay valid across re-entrant
  // callbacks. Gathering completes before any callback runs, so the visit
  // stamps of a nested on_event (which bumps stamp_) cannot corrupt this
  // sweep's dedup — by then this sweep only reads its local `affected` list.
  std::vector<std::uint32_t> affected =
      std::move(affected_scratch_slot());
  affected.clear();
  if (use_index_) {
    const std::uint64_t mark = ++stamp_;
    for (const ProfileId profile : profiles) {
      const auto bucket = index_.find(profile);
      if (bucket == index_.end()) continue;
      for (const std::uint32_t slot : bucket->second) {
        if (slot_stamp_[slot] == mark) continue;  // several leaves stimulated
        slot_stamp_[slot] = mark;
        affected.push_back(slot);
      }
    }
  } else {
    // Oracle sweep: every live entry, regardless of the stimulus.
    for (std::uint32_t slot = 0; slot < entries_.size(); ++slot) {
      if (entries_[slot].live) affected.push_back(slot);
    }
  }
  // Registration (id) order — bit-identical callback order to the sweep
  // even when freelisted slots were reused out of order.
  std::sort(affected.begin(), affected.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return entries_[a].id < entries_[b].id;
            });

  for (const std::uint32_t slot : affected) {
    EntryData& entry = entries_[slot];
    if (!entry.live) continue;
    if (!pending_remove_.empty() && pending_removal(entry.id)) continue;
    dispatch(entry, profiles, time);
  }
  affected.clear();
  affected_scratch_slot() = std::move(affected);
}

std::size_t CompositeDetector::expire_before(Timestamp horizon) {
  const auto expired = [horizon](Timestamp armed, Timestamp window) {
    // Unsigned difference: exact even when the span exceeds the signed
    // range (armed can sit anywhere in the timestamp domain).
    return armed != kCompositeNever && horizon > armed &&
           static_cast<std::uint64_t>(horizon) -
                   static_cast<std::uint64_t>(armed) >
               static_cast<std::uint64_t>(window);
  };
  std::size_t cleared = 0;
  for (EntryData& entry : entries_) {
    if (!entry.live) continue;
    for (std::size_t n = 0; n < entry.nodes.size(); ++n) {
      const CompositeExpr& expr = *entry.nodes[n];
      if (expr.kind() == CompositeExpr::Kind::kPrimitive ||
          expr.kind() == CompositeExpr::Kind::kDisj) {
        continue;  // no armed state
      }
      NodeState& state = entry.states[n];
      if (expired(state.left_fired, expr.window())) {
        state.left_fired = kCompositeNever;
        ++cleared;
      }
      if (expired(state.right_fired, expr.window())) {
        state.right_fired = kCompositeNever;
        ++cleared;
      }
    }
  }
  return cleared;
}

std::size_t CompositeDetector::armed_count() const noexcept {
  std::size_t count = 0;
  for (const EntryData& entry : entries_) {
    if (!entry.live) continue;
    for (const NodeState& state : entry.states) {
      if (state.left_fired != kCompositeNever) ++count;
      if (state.right_fired != kCompositeNever) ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// Reorder stage.

void CompositeIngress::set_skew(Timestamp skew) {
  GENAS_REQUIRE(skew >= 0, ErrorCode::kInvalidArgument,
                "composite skew tolerance must be >= 0");
  skew_ = skew;
}

void CompositeIngress::push(ProfileId profile, Timestamp time) {
  push(profile, time, 0);
}

bool CompositeIngress::push(ProfileId profile, Timestamp time,
                            std::uint64_t token) {
  if (token != 0) {
    auto [it, inserted] = seen_.try_emplace(token);
    if (!inserted) {
      if (std::find(it->second.begin(), it->second.end(), profile) !=
          it->second.end()) {
        ++dropped_;
        return false;  // redelivered stimulus: already armed this instant
      }
    } else {
      seen_order_.push_back(token);
      while (seen_order_.size() > kCompositeDedupWindow) {
        seen_.erase(seen_order_.front());
        seen_order_.pop_front();
      }
    }
    it->second.push_back(profile);
  }
  pending_[time].push_back(profile);
  if (max_seen_ == kCompositeNever || time > max_seen_) max_seen_ = time;
  const Timestamp mark = watermark();
  if (mark != kCompositeNever) release_below(mark);
  return true;
}

void CompositeIngress::advance_to(Timestamp now) {
  if (max_seen_ == kCompositeNever || now > max_seen_) max_seen_ = now;
  const Timestamp mark = watermark();
  if (mark == kCompositeNever) return;
  release_below(mark);
}

Timestamp CompositeIngress::watermark() const noexcept {
  // Instants strictly below max_seen - skew can no longer gain stimuli
  // within the tolerance. Clamp the subtraction (skew can exceed the whole
  // timestamp range by design — "buffer until flush").
  if (max_seen_ == kCompositeNever ||
      max_seen_ < std::numeric_limits<Timestamp>::min() + skew_) {
    return kCompositeNever;
  }
  return max_seen_ - skew_;
}

void CompositeIngress::flush() {
  while (!pending_.empty()) {
    const auto it = pending_.begin();
    const Timestamp time = it->first;
    // Detach before feeding: a re-entrant push from a detector callback
    // must not invalidate the node being released.
    std::vector<ProfileId> batch = std::move(it->second);
    pending_.erase(it);
    detector_.on_event(batch, time);
  }
}

void CompositeIngress::release_below(Timestamp watermark) {
  while (!pending_.empty() && pending_.begin()->first < watermark) {
    const auto it = pending_.begin();
    const Timestamp time = it->first;
    std::vector<ProfileId> batch = std::move(it->second);
    pending_.erase(it);
    detector_.on_event(batch, time);
  }
}

}  // namespace genas
