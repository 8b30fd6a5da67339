// GENAS test support — hostile-scenario harness: deterministic fault
// drills with an exactness oracle.
//
// run_hostile_mesh builds one canonical workload — a chain of broker nodes
// with overlapping plain subscriptions and composite expressions spread
// across them, plus a seeded event stream — and runs it through a real
// MeshNetwork under a caller-supplied fault plan. Everything observable is
// returned as sorted multisets (delivery records, composite firings), so a
// test can run the same seed twice — once pristine, once with drops,
// duplicates, delays, or mid-stream subscription churn — and assert the
// multisets are identical: a fault plan makes every link at-least-once,
// so injected faults must be invisible to subscribers.
//
// The harness is deliberately deterministic end to end: the workload
// derives from the seed alone, churn points are barriered with wait_idle()
// (which also waits for link-level acknowledgement), and fault plans are
// budget-bounded by construction (net::FaultPlan enforces it), so a failing
// seed reproduces byte-for-byte.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "event/schema.hpp"
#include "mesh/mesh.hpp"
#include "net/fault.hpp"

namespace genas::sim {

/// One hostile mesh drill.
struct HostileMeshConfig {
  std::uint64_t seed = 1;
  /// Chain topology 0-1-...-(nodes-1); subscriptions round-robin over it.
  std::size_t nodes = 4;
  std::size_t events = 160;
  mesh::RoutingMode mode = mesh::RoutingMode::kRoutingCovered;
  std::size_t link_window = 16;
  /// Aggressive by default so dropped frames recover within test budgets.
  std::chrono::microseconds retransmit_interval{500};
  /// Faults injected per transmission; null runs pristine (bare links).
  std::shared_ptr<net::FaultPlan> fault_plan;
  /// Mid-stream churn: after the first half of the stream (barriered),
  /// every other plain subscription is withdrawn and re-registered, so
  /// unsubscribe/resubscribe propagation runs under the fault plan too.
  bool churn = false;
};

/// Sorted observations of one run (multiset-comparable across runs).
struct HostileMeshRun {
  /// "s<sub index>@n<node>:e<event id>" per plain delivery. Subscriptions
  /// are labeled by workload index, stable across churned re-registration.
  std::vector<std::string> deliveries;
  /// "c<composite index>:t<firing time>" per composite firing.
  std::vector<std::string> firings;
  net::FaultPlan::Stats faults{};  ///< zeros when no plan was injected
  std::string first_error;         ///< mesh-internal error, if any
};

/// The harness schema (shared by baseline and hostile runs).
SchemaPtr hostile_schema();

/// Runs the canonical workload under `config`; see the header comment.
HostileMeshRun run_hostile_mesh(const HostileMeshConfig& config);

}  // namespace genas::sim
