// Standalone mesh throughput report: aggregate events/sec of the concurrent
// broker mesh on 4-node line and star topologies across the three routing
// modes, printed as `key = value` lines on stdout. Single-shot numbers for
// reading by hand; the repository's performance record is perfbench/.
//
//   ./bench_mesh [--quick]
//
// Workload: 240 range profiles (don't-cares + overlaps, so covering has
// state to elide) spread round-robin across the nodes, gauss events
// published round-robin; the rate includes wire encode/decode on every hop
// and wait_idle() drain, i.e. it is end-to-end delivered throughput.
//
// Each topology/mode pair is measured twice: `mesh_*_events_per_sec` pins
// link_batch_max = 1 and publishes single events — the pre-batching wire
// traffic, one frame per event, kept comparable with earlier reports —
// while `mesh_*_batched_events_per_sec` leaves link batching at its
// default and feeds the ingress through publish_batch. The gap between the
// two is what batched link frames buy. The batched runs also report the
// measured coalescing ratio as mesh_link_events_per_frame_avg.
#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "dist/sampler.hpp"
#include "mesh/mesh.hpp"
#include "obs/metrics.hpp"
#include "sim/workload.hpp"

namespace {

using namespace genas;
using Clock = std::chrono::steady_clock;

struct Topology {
  const char* name;
  std::size_t nodes;
  std::vector<std::pair<net::NodeId, net::NodeId>> links;
};

struct ModeResult {
  double events_per_sec = 0;
  double frames = 0;        ///< link frames sent during the timed window
  double frame_events = 0;  ///< events those frames carried
  double elapsed = 0;       ///< timed-window seconds
};

/// `batched` = false: link_batch_max = 1 and per-event publish (the legacy
/// wire traffic). `batched` = true: default link batching, ingress through
/// publish_batch in 256-event chunks.
ModeResult measure_mode(const Topology& topology, net::RoutingMode mode,
                        const SchemaPtr& schema, const ProfileSet& profiles,
                        const std::vector<Event>& events, bool batched) {
  mesh::MeshOptions options;
  options.mode = mode;
  options.mailbox_capacity = 4096;
  if (!batched) options.link_batch_max = 1;
  mesh::MeshNetwork net(schema, options);
  for (std::size_t n = 0; n < topology.nodes; ++n) net.add_node();
  for (const auto& [a, b] : topology.links) net.connect(a, b);
  net.start();

  std::atomic<std::uint64_t> delivered{0};
  std::size_t at = 0;
  for (const ProfileId id : profiles.active_ids()) {
    net.subscribe(at++ % topology.nodes, profiles.profile(id),
                  [&delivered](net::NodeId, SubscriptionId, const Event&) {
                    delivered.fetch_add(1, std::memory_order_relaxed);
                  });
  }
  net.wait_idle();

  constexpr std::size_t kChunk = 256;
  const auto pump = [&](std::size_t limit) {
    if (!batched) {
      for (std::size_t i = 0; i < limit; ++i) {
        net.publish(i % topology.nodes, events[i]);
      }
      return;
    }
    std::size_t round = 0;
    for (std::size_t base = 0; base < limit; base += kChunk, ++round) {
      const std::size_t end = std::min(base + kChunk, limit);
      std::vector<Event> chunk(
          events.begin() + static_cast<std::ptrdiff_t>(base),
          events.begin() + static_cast<std::ptrdiff_t>(end));
      net.publish_batch(round % topology.nodes, std::move(chunk));
    }
  };

  // Warm-up: routing tables, matchers, broker snapshots, decode arenas.
  // Ingress must hit every node (one chunk each in the batched shape) —
  // each link direction's forwarding matcher builds lazily on first use,
  // and a warm-up that only feeds node 0 would leave the reverse-direction
  // builds inside the measured window.
  pump(std::min<std::size_t>(topology.nodes * kChunk, events.size()));
  net.wait_idle();

  // Coalescing stats are diffed across the timed window only, so the
  // warm-up's frames do not dilute the measured events-per-frame ratio or
  // the link-transmission rate.
  const auto per_frame_totals = [&net] {
    std::pair<double, double> totals{0, 0};  // frames, events carried
    const obs::StatsSnapshot snapshot = net.stats_snapshot();
    if (const obs::MetricSnapshot* per_frame =
            snapshot.find("genas_mesh_link_events_per_frame")) {
      totals.first = static_cast<double>(per_frame->count());
      totals.second = static_cast<double>(per_frame->sum);
    }
    return totals;
  };
  const auto before = per_frame_totals();

  const auto start = Clock::now();
  pump(events.size());
  net.wait_idle();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  ModeResult result;
  result.events_per_sec = static_cast<double>(events.size()) / elapsed;
  result.elapsed = elapsed;
  const auto after = per_frame_totals();
  result.frames = after.first - before.first;
  result.frame_events = after.second - before.second;

  net.shutdown();
  if (!net.first_error().empty()) {
    std::cerr << "worker error: " << net.first_error() << "\n";
    std::abort();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  const SchemaPtr schema = SchemaBuilder()
                               .add_integer("a0", 0, 99)
                               .add_integer("a1", 0, 99)
                               .add_integer("a2", 0, 99)
                               .build();
  ProfileWorkloadOptions profile_options;
  profile_options.count = 240;
  profile_options.dont_care_probability = 0.3;
  profile_options.equality_only = false;
  profile_options.range_width_mean = 0.15;
  profile_options.seed = 33;
  const ProfileSet profiles = generate_profiles(
      schema, make_profile_distributions(schema, {"gauss"}), profile_options);

  const JointDistribution joint =
      make_event_distribution(schema, {"gauss"});
  EventSampler sampler(joint, 7);
  const std::vector<Event> events =
      sampler.sample_batch(quick ? 2000 : 20000);

  const std::vector<Topology> topologies = {
      {"line4", 4, {{0, 1}, {1, 2}, {2, 3}}},
      {"star4", 4, {{0, 1}, {0, 2}, {0, 3}}},
  };
  const std::vector<std::pair<const char*, net::RoutingMode>> modes = {
      {"flooding", net::RoutingMode::kFlooding},
      {"routing", net::RoutingMode::kRouting},
      {"covered", net::RoutingMode::kRoutingCovered},
  };

  const auto report = [](const std::string& key, double value) {
    std::cout << key << " = " << static_cast<std::uint64_t>(value) << "\n";
  };
  double total_frames = 0;
  double total_frame_events = 0;
  for (const Topology& topology : topologies) {
    for (const auto& [mode_name, mode] : modes) {
      const std::string base =
          std::string("mesh_") + topology.name + "_" + mode_name;

      const ModeResult legacy =
          measure_mode(topology, mode, schema, profiles, events, false);
      report(base + "_events_per_sec", legacy.events_per_sec);

      const ModeResult batched =
          measure_mode(topology, mode, schema, profiles, events, true);
      report(base + "_batched_events_per_sec", batched.events_per_sec);
      // Link-layer rate: event transmissions the wire path encoded,
      // framed, and decoded per second (each event counts once per link
      // it crosses, which is what the link layer actually moves).
      if (batched.elapsed > 0) {
        report(base + "_batched_link_events_per_sec",
               batched.frame_events / batched.elapsed);
      }
      total_frames += batched.frames;
      total_frame_events += batched.frame_events;
    }
  }
  if (total_frames > 0) {
    std::cout << "mesh_link_events_per_frame_avg = "
              << total_frame_events / total_frames << "\n";
  }
  return 0;
}
