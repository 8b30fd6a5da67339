#include "net/routing.hpp"

#include <algorithm>

namespace genas::net {

std::string_view to_string(RoutingMode mode) noexcept {
  switch (mode) {
    case RoutingMode::kFlooding:        return "flooding";
    case RoutingMode::kRouting:         return "routing";
    case RoutingMode::kRoutingCovered:  return "routing+covering";
  }
  return "?";
}

LinkTable::LinkTable(SchemaPtr schema, OrderingPolicy policy,
                     std::optional<JointDistribution> event_distribution)
    : engine_(std::move(schema),
              EngineOptions{std::move(policy), std::move(event_distribution),
                            std::nullopt}) {}

bool LinkTable::add(std::uint64_t key, const Profile& profile, bool covering) {
  if (covering) {
    for (const Installed& existing : installed_) {
      if (covers(installed_profile(existing), profile)) {
        suppressed_.push_back(Suppressed{key, profile, existing.key});
        return false;
      }
    }
  }
  installed_.push_back(Installed{key, engine_.subscribe(profile)});
  return true;
}

LinkTable::Removal LinkTable::remove(std::uint64_t key) {
  Removal removal;

  const auto installed_it =
      std::find_if(installed_.begin(), installed_.end(),
                   [&](const Installed& e) { return e.key == key; });
  if (installed_it != installed_.end()) {
    removal.removed = true;
    removal.installed = true;
    engine_.unsubscribe(installed_it->id);
    installed_.erase(installed_it);

    // Promote entries this key had been covering: re-check each against the
    // remaining installed entries; still-covered ones just switch their
    // recorded coverer, the rest are installed and reported to the caller.
    for (auto it = suppressed_.begin(); it != suppressed_.end();) {
      if (it->covered_by != key) {
        ++it;
        continue;
      }
      const auto coverer =
          std::find_if(installed_.begin(), installed_.end(),
                       [&](const Installed& e) {
                         return covers(installed_profile(e), it->profile);
                       });
      if (coverer != installed_.end()) {
        it->covered_by = coverer->key;
        ++it;
        continue;
      }
      installed_.push_back(Installed{it->key, engine_.subscribe(it->profile)});
      removal.promoted.emplace_back(it->key, std::move(it->profile));
      it = suppressed_.erase(it);
    }
    return removal;
  }

  const auto suppressed_it =
      std::find_if(suppressed_.begin(), suppressed_.end(),
                   [&](const Suppressed& e) { return e.key == key; });
  if (suppressed_it != suppressed_.end()) {
    removal.removed = true;
    suppressed_.erase(suppressed_it);
  }
  return removal;
}

}  // namespace genas::net
