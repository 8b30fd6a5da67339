// The benchmark workloads and the layer probes they share.
#pragma once

#include <memory>
#include <span>

#include "core/ordering_policy.hpp"
#include "tree/flat_tree.hpp"
#include "harness.hpp"
#include "profile/profile.hpp"

namespace perfbench {

/// static_eq10k: 10,000 equality profiles, static tree, nproc (<= 4)
/// publisher threads on an in-process Broker.
Result run_static_eq10k(const Options& options);

/// drift_churn_eq2k: 2,000 equality profiles with the adaptive loop on; P_e
/// alternates between gauss and relocated gauss, and publisher 0 churns a
/// subscription at a fixed event interval.
Result run_drift_churn_eq2k(const Options& options);

/// Layer probes of a traced run, each on the caller's own inputs.
/// tree.*: build, compile, replay and expected cost of the static tree.
/// Returns the compiled tree; its replay cost per event is also left in
/// result.info["tree_match_ns_per_event"].
std::shared_ptr<const genas::FlatProfileTree> add_tree_metrics(
    Result& result, const genas::ProfileSet& profiles,
    const genas::OrderingPolicy& policy,
    const genas::JointDistribution& event_distribution,
    std::span<const genas::Event> events);
/// wire.*: batch codecs over `events`.
void add_wire_metrics(Result& result, std::span<const genas::Event> events);
/// core.* from per-event operation counts in publish order. `block` is the
/// P_e regime length in events (0 when P_e never shifts); `static_ops` is
/// the same events' mean through a tree that never adapts.
void add_core_metrics(Result& result, const std::vector<std::uint32_t>& ops,
                      std::size_t block, double static_ops);
/// net.*, mesh.* and bench.generator_lag_us_p99 from a 2-second probe of
/// the client path: a 3-node line mesh served over loopback TCP, one
/// publishing and two subscribing RemoteBrokerClients; `seed` drives its
/// events.
void add_socket_metrics(std::uint64_t seed, Result& result);

}  // namespace perfbench
