// GENAS — exact expected filter cost (the TV4 engine).
//
// Implements the paper's response-time model (Eq. 2 summed over all levels):
// given the tree and a joint event distribution, the expected number of
// comparison operations per event is computed exactly by propagating reach
// probabilities through the DFSA. The paper's prototype approximates the
// same quantity by manipulating statistic counters ("the result is similar
// to posting the events with the given distribution, which requires a
// multiple number of events", §4.2); here the expectation is closed-form.
//
// Mixture distributions are handled exactly: reach probabilities are kept
// per mixture component, which makes P(cell | path) exact without
// enumerating paths (linear in nodes × components × cells).
//
// The report also contains the per-profile metrics behind the paper's
// Fig. 5: expected operations conditioned on matching each profile, and the
// per-event-and-profile normalization.
#pragma once

#include <vector>

#include "dist/joint.hpp"
#include "dist/sampler.hpp"
#include "tree/profile_tree.hpp"

namespace genas {

/// Cost metrics of one tree under one event distribution.
struct CostReport {
  /// E[comparisons] per posted event, including non-matching events
  /// (the paper's "average # operations per event").
  double ops_per_event = 0.0;
  /// P(event matches at least one profile).
  double match_probability = 0.0;
  /// E[# matched profiles per event].
  double pairs_per_event = 0.0;
  /// Mean over profiles of E[comparisons | event matches the profile]
  /// (the paper's "average # operations per profile", Fig. 5(b)).
  /// Profiles never matched under the distribution are excluded.
  double ops_per_profile = 0.0;
  /// ops_per_event normalized by pairs_per_event (Fig. 5(c)); 0 when no
  /// profile can match.
  double ops_per_event_and_profile = 0.0;
  /// Per-profile E[comparisons | match]; NaN for profiles that cannot match
  /// under the distribution (indexed by ProfileId up to the set capacity).
  std::vector<double> per_profile_ops;
  /// Expected comparisons attributable to each attribute's tree levels —
  /// the paper's per-level decomposition E(X_j | X_{j-1}..) of Example 3.
  /// Indexed by AttributeId; sums to ops_per_event. Exact runs only (empty
  /// in empirical reports).
  std::vector<double> per_attribute_ops;
};

/// Exact expectation under `joint` (TV4).
CostReport expected_cost(const ProfileTree& tree,
                         const JointDistribution& joint);

/// Monte-Carlo counterpart (TV3): posts `count` sampled events through the
/// tree's compiled flat form (the matcher every publish uses) and measures
/// the same metrics empirically.
CostReport empirical_cost(const ProfileTree& tree, EventSampler& sampler,
                          std::size_t count);

/// Posts sampled events until the half-width of the 95% confidence interval
/// of ops-per-event falls below `relative_precision` × mean (the paper's
/// "event tests until 95% precision ... is reached", TV1/TV2), or until
/// `max_events`. Returns the report plus the number of events posted.
struct PrecisionRun {
  CostReport report;
  std::size_t events_posted = 0;
};
PrecisionRun empirical_cost_to_precision(const ProfileTree& tree,
                                         EventSampler& sampler,
                                         double relative_precision = 0.05,
                                         std::size_t min_events = 200,
                                         std::size_t max_events = 200000);

}  // namespace genas
