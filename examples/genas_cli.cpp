// genas_cli — the "generic parameterized event notification system" shell
// (the paper's prototype is a generic service whose events, attributes,
// domains and operators are specified at runtime, §4.2). Reads commands from
// stdin (or the built-in demo script when stdin is a terminal-less pipe is
// absent) and drives a broker interactively:
//
//   attr <name> int <lo> <hi>        declare an integer attribute
//   attr <name> cat <a,b,c>          declare a categorical attribute
//   done                             freeze the schema, start the broker
//   sub <profile expression>         subscribe (prints the assigned id)
//   unsub <id>                       unsubscribe
//   csub <composite expression>      composite subscribe, e.g.
//                                    seq({a >= 3}, {b = 1}, w=10)
//   cunsub <id>                      composite unsubscribe
//   cskew <n>                        composite watermark skew tolerance
//   cflush                           evaluate buffered composite instants
//   cadvance <t>                     time-driven watermark tick: evaluate
//                                    instants older than t - skew
//   pub <event expression>           publish ("a=1; b=2")
//   policy <natural|v1|v2|v3> <linear|binary|interpolation|hash> [a1|a2|a3]
//   tree                             dump the current profile tree
//   stats                            service counters and full tree builds
//   quit
//
// The `mesh` subcommand instead drives the concurrent broker mesh from a
// topology file plus a config_io service configuration:
//
//   genas_cli mesh <topology> <config> [--mode flooding|routing|covered]
//                  [--events N] [--dist NAME] [--seed S] [--auto-watermark]
//                  [--stats-json]
//
// --stats-json appends a JSON document to stdout at the end of the run:
// per-node overlay counters, per-link counters, and the merged
// observability snapshot (see README "Observability").
//
// The socket transport pair (see README "Socket transport"):
//
//   genas_cli serve <config> [--port P]   broker behind a TCP BrokerServer
//                                         on 127.0.0.1 (port 0 = ephemeral,
//                                         printed on startup); runs until
//                                         stdin reaches EOF
//   genas_cli connect <host> <port>       interactive shell over a
//                                         RemoteBrokerClient: sub/unsub/
//                                         csub/cunsub/pub/pubat/flush/quit
//   genas_cli stats <host> <port>         scrape a serving broker's metrics
//                                         (kStatsRequest round trip) and
//                                         print the Prometheus exposition
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/text.hpp"
#include "core/filter_engine.hpp"
#include "dist/sampler.hpp"
#include "ens/broker.hpp"
#include "ens/config_io.hpp"
#include "mesh/mesh.hpp"
#include "mesh/topology.hpp"
#include "net/broker_server.hpp"
#include "net/remote_client.hpp"
#include "net/socket_channel.hpp"
#include "obs/metrics.hpp"
#include "sim/report.hpp"
#include "sim/workload.hpp"

namespace {

using namespace genas;

void print_composite_firing(const CompositeFiring& f) {
  std::cout << "  composite csub#" << f.subscription << " fired at t="
            << f.time << "\n";
}

struct CliState {
  SchemaBuilder builder;
  SchemaPtr schema;
  std::unique_ptr<Broker> broker;
  OrderingPolicy policy;
  std::map<SubscriptionId, std::string> expressions;  // live subscriptions
  std::map<CompositeId, std::string> composites;      // live composites
  Timestamp composite_skew = 0;

  /// (Re)creates the broker with the current policy and re-subscribes all
  /// live expressions (they receive fresh subscription ids).
  void start_broker() {
    EngineOptions options;
    options.policy = policy;
    broker = std::make_unique<Broker>(schema, std::move(options));
    broker->set_composite_skew(composite_skew);
    std::map<SubscriptionId, std::string> renewed;
    for (const auto& [old_id, expression] : expressions) {
      const SubscriptionId id =
          broker->subscribe(expression, [](const Notification& n) {
            std::cout << "  notify sub#" << n.subscription << ": "
                      << n.event.to_string() << "\n";
          });
      renewed.emplace(id, expression);
    }
    expressions = std::move(renewed);
    std::map<CompositeId, std::string> renewed_composites;
    for (const auto& [old_id, expression] : composites) {
      const CompositeId id =
          broker->subscribe_composite(expression, print_composite_firing);
      renewed_composites.emplace(id, expression);
    }
    composites = std::move(renewed_composites);
  }
};

OrderingPolicy parse_policy(const std::vector<std::string_view>& words) {
  OrderingPolicy policy;
  if (words.size() > 1) {
    const std::string order = to_lower(words[1]);
    if (order == "v1") policy.value_order = ValueOrder::kEventProbability;
    else if (order == "v2") policy.value_order = ValueOrder::kProfileProbability;
    else if (order == "v3") policy.value_order = ValueOrder::kCombinedProbability;
    else if (order != "natural")
      throw Error(ErrorCode::kParse, "policy value order must be natural|v1|v2|v3");
  }
  if (words.size() > 2) {
    const std::string strat = to_lower(words[2]);
    if (strat == "binary") policy.strategy = SearchStrategy::kBinary;
    else if (strat == "interpolation") policy.strategy = SearchStrategy::kInterpolation;
    else if (strat == "hash") policy.strategy = SearchStrategy::kHash;
    else if (strat != "linear")
      throw Error(ErrorCode::kParse,
                  "policy search must be linear|binary|interpolation|hash");
  }
  if (words.size() > 3) {
    const std::string measure = to_lower(words[3]);
    if (measure == "a1") policy.attribute_measure = AttributeMeasure::kA1;
    else if (measure == "a2") policy.attribute_measure = AttributeMeasure::kA2;
    else if (measure == "a3") policy.attribute_measure = AttributeMeasure::kA3;
    else
      throw Error(ErrorCode::kParse, "policy attribute measure must be a1|a2|a3");
  }
  return policy;
}

bool handle(CliState& state, const std::string& line) {
  const std::string_view trimmed = trim(line);
  if (trimmed.empty() || trimmed[0] == '#') return true;

  std::vector<std::string_view> words;
  {
    std::size_t pos = 0;
    while (pos < trimmed.size()) {
      const std::size_t next = trimmed.find(' ', pos);
      if (next == std::string_view::npos) {
        words.push_back(trimmed.substr(pos));
        break;
      }
      if (next > pos) words.push_back(trimmed.substr(pos, next - pos));
      pos = next + 1;
    }
  }
  const std::string cmd = to_lower(words[0]);
  const std::string rest =
      words.size() > 1
          ? std::string(trim(trimmed.substr(words[0].size())))
          : std::string();

  try {
    if (cmd == "quit" || cmd == "exit") return false;

    if (cmd == "attr") {
      if (words.size() < 3) throw Error(ErrorCode::kParse, "attr needs args");
      const std::string name(words[1]);
      const std::string kind = to_lower(words[2]);
      if (kind == "int" && words.size() >= 5) {
        state.builder.add_integer(name, std::stoll(std::string(words[3])),
                                  std::stoll(std::string(words[4])));
      } else if (kind == "cat" && words.size() >= 4) {
        std::vector<std::string> cats;
        for (const auto piece : split(words[3], ',')) {
          cats.emplace_back(piece);
        }
        state.builder.add_categorical(name, std::move(cats));
      } else {
        throw Error(ErrorCode::kParse, "attr <name> int <lo> <hi> | cat <a,b>");
      }
      std::cout << "ok: attribute " << name << "\n";
      return true;
    }

    if (cmd == "done") {
      state.schema = state.builder.build();
      state.start_broker();
      std::cout << "schema: " << state.schema->to_string() << "\n";
      return true;
    }

    if (state.broker == nullptr) {
      std::cout << "error: declare attributes first, then 'done'\n";
      return true;
    }

    if (cmd == "sub") {
      const SubscriptionId id = state.broker->subscribe(
          rest, [](const Notification& n) {
            std::cout << "  notify sub#" << n.subscription << ": "
                      << n.event.to_string() << "\n";
          });
      state.expressions.emplace(id, rest);
      std::cout << "ok: subscription " << id << "\n";
    } else if (cmd == "unsub") {
      const SubscriptionId id = std::stoull(rest);
      state.broker->unsubscribe(id);
      state.expressions.erase(id);
      std::cout << "ok\n";
    } else if (cmd == "csub") {
      const CompositeId id =
          state.broker->subscribe_composite(rest, print_composite_firing);
      state.composites.emplace(id, rest);
      std::cout << "ok: composite subscription " << id << "\n";
    } else if (cmd == "cunsub") {
      const CompositeId id = std::stoull(rest);
      state.broker->unsubscribe_composite(id);
      state.composites.erase(id);
      std::cout << "ok\n";
    } else if (cmd == "cskew") {
      state.composite_skew = std::stoll(rest);
      state.broker->set_composite_skew(state.composite_skew);
      std::cout << "ok: composite skew " << state.composite_skew << "\n";
    } else if (cmd == "cflush") {
      state.broker->flush_composites();
      std::cout << "ok\n";
    } else if (cmd == "cadvance") {
      state.broker->advance_watermark(std::stoll(rest));
      std::cout << "ok: " << state.broker->composite_buffered()
                << " instants still buffered\n";
    } else if (cmd == "policy") {
      state.policy = parse_policy(words);
      state.start_broker();  // rebuild with the new ordering policy
      std::cout << "ok: policy " << state.policy.label()
                << " (subscriptions re-registered)\n";
    } else if (cmd == "pub") {
      const PublishResult result = state.broker->publish(rest);
      std::cout << "ok: " << result.notified << " notifications, "
                << result.operations << " ops\n";
    } else if (cmd == "pubat") {
      // pubat <time> <event expression> — timestamped publish, the input
      // composite detection consumes.
      const std::size_t space = rest.find(' ');
      if (space == std::string::npos) {
        throw Error(ErrorCode::kParse, "pubat <time> <event expression>");
      }
      const Timestamp time = std::stoll(rest.substr(0, space));
      const PublishResult result =
          state.broker->publish(std::string_view(rest).substr(space + 1), time);
      std::cout << "ok: " << result.notified << " notifications, "
                << result.operations << " ops\n";
    } else if (cmd == "tree") {
      std::cout << state.broker->tree_dump();
    } else if (cmd == "stats") {
      const ServiceCounters counters = state.broker->counters();
      // Full tree builds; a restructure that only recosted the live tree
      // (drift, or a churn that left the profile set as it was) is not one.
      const obs::StatsSnapshot scrape = state.broker->metrics().snapshot();
      std::cout << "events=" << counters.events_published
                << " matched=" << counters.events_matched
                << " notifications=" << counters.notifications
                << " ops/event=" << counters.ops_per_event()
                << " tree_builds="
                << scrape.value("genas_broker_tree_builds_total") << "\n";
    } else {
      std::cout << "error: unknown command '" << cmd << "'\n";
    }
  } catch (const std::exception& e) {
    std::cout << "error: " << e.what() << "\n";
  }
  return true;
}

constexpr const char* kDemoScript = R"(# GENAS demo session
attr temperature int -30 50
attr humidity int 0 100
attr state cat ok,warn,err
done
sub temperature >= 35 && humidity >= 90
sub state = err
sub temperature in [-30, -20]
pub temperature = 40; humidity = 95; state = ok
pub temperature = 0; humidity = 10; state = err
pub temperature = -25; humidity = 5; state = ok
pub temperature = 10; humidity = 50; state = ok
stats
quit
)";

// ---------------------------------------------------------------------------
// `mesh` subcommand: run a workload through the concurrent broker mesh.

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Emits one observability snapshot as a JSON array of metric objects.
void print_metrics_json(std::ostream& os, const obs::StatsSnapshot& snapshot,
                        std::string_view indent) {
  os << "[";
  for (std::size_t i = 0; i < snapshot.metrics.size(); ++i) {
    const obs::MetricSnapshot& m = snapshot.metrics[i];
    os << (i == 0 ? "\n" : ",\n") << indent << "  {\"name\": \""
       << json_escape(m.name) << "\", \"kind\": \"" << obs::to_string(m.kind)
       << "\"";
    if (m.kind == obs::MetricKind::kHistogram) {
      os << ", \"count\": " << m.count() << ", \"sum\": " << m.sum
         << ", \"bounds\": [";
      for (std::size_t b = 0; b < m.bounds.size(); ++b) {
        os << (b == 0 ? "" : ", ") << m.bounds[b];
      }
      os << "], \"counts\": [";
      for (std::size_t b = 0; b < m.counts.size(); ++b) {
        os << (b == 0 ? "" : ", ") << m.counts[b];
      }
      os << "]";
    } else {
      os << ", \"value\": " << m.value;
    }
    os << "}";
  }
  os << "\n" << indent << "]";
}

int run_mesh(int argc, char** argv) {
  std::string topology_path;
  std::string config_path;
  net::RoutingMode mode = net::RoutingMode::kRoutingCovered;
  std::size_t event_count = 1000;
  std::string dist_name = "equal";
  std::uint64_t seed = 1;
  bool auto_watermark = false;
  bool stats_json = false;

  const auto usage = [] {
    std::cerr << "usage: genas_cli mesh <topology> <config> "
                 "[--mode flooding|routing|covered] [--events N] "
                 "[--dist NAME] [--seed S] [--auto-watermark] "
                 "[--stats-json]\n";
    return 2;
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw Error(ErrorCode::kParse, arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--mode") {
      const std::string value = to_lower(next());
      if (value == "flooding") mode = net::RoutingMode::kFlooding;
      else if (value == "routing") mode = net::RoutingMode::kRouting;
      else if (value == "covered") mode = net::RoutingMode::kRoutingCovered;
      else return usage();
    } else if (arg == "--events") {
      event_count = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--dist") {
      dist_name = next();
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--auto-watermark") {
      auto_watermark = true;  // all traffic drives composite watermarks
    } else if (arg == "--stats-json") {
      stats_json = true;
    } else if (topology_path.empty()) {
      topology_path = arg;
    } else if (config_path.empty()) {
      config_path = arg;
    } else {
      return usage();
    }
  }
  if (topology_path.empty() || config_path.empty()) return usage();

  const auto load_file = [](const std::string& path) {
    std::ifstream is(path);
    if (!is) throw Error(ErrorCode::kNotFound, "cannot open " + path);
    return is;
  };
  std::ifstream topology_is = load_file(topology_path);
  const mesh::MeshTopology topology = mesh::load_topology(topology_is);
  std::ifstream config_is = load_file(config_path);
  const ServiceConfig config = load_config(config_is);

  mesh::MeshOptions options;
  options.mode = mode;
  options.auto_advance_watermark = auto_watermark;
  mesh::MeshNetwork net(config.schema, options);
  for (std::size_t n = 0; n < topology.nodes; ++n) net.add_node();
  for (const auto& [a, b] : topology.links) net.connect(a, b);
  net.start();

  // Subscriptions come from the topology file; when it has none, the
  // config's profile population is spread round-robin across the nodes.
  std::atomic<std::uint64_t> delivered{0};
  const mesh::MeshCallback count_delivery =
      [&delivered](net::NodeId, SubscriptionId, const Event&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
      };
  std::size_t subscriptions = 0;
  if (!topology.subscriptions.empty()) {
    for (const auto& [node, expression] : topology.subscriptions) {
      net.subscribe(node, expression, count_delivery);
      ++subscriptions;
    }
  } else if (topology.composites.empty()) {
    std::size_t at = 0;
    for (const ProfileId id : config.profiles.active_ids()) {
      net.subscribe(at++ % topology.nodes, config.profiles.profile(id),
                    count_delivery);
      ++subscriptions;
    }
  }
  // Composite subscriptions (csub lines): detection at the placing node,
  // decomposed primitive profiles routed like plain subscriptions.
  std::atomic<std::uint64_t> composite_firings{0};
  for (const auto& [node, expression] : topology.composites) {
    net.subscribe_composite(node, expression,
                            [&composite_firings](net::NodeId, SubscriptionId,
                                                 Timestamp) {
                              composite_firings.fetch_add(
                                  1, std::memory_order_relaxed);
                            });
  }
  net.wait_idle();

  const JointDistribution joint =
      make_event_distribution(config.schema, {dist_name});
  EventSampler sampler(joint, seed);
  std::vector<Event> events = sampler.sample_batch(event_count);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].set_time(static_cast<Timestamp>(i));  // composite time axis
  }

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < events.size(); ++i) {
    net.publish(i % topology.nodes, events[i]);
  }
  net.wait_idle();
  net.flush_composites();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const net::OverlayStats stats = net.stats();
  std::vector<net::OverlayStats> per_node;
  std::vector<std::vector<mesh::LinkStats>> per_link;
  obs::StatsSnapshot obs_snapshot;
  if (stats_json) {
    for (std::size_t n = 0; n < topology.nodes; ++n) {
      per_node.push_back(net.node_stats(n));
      per_link.push_back(net.link_stats(n));
    }
    obs_snapshot = net.stats_snapshot();
  }
  net.shutdown();

  std::cout << "mesh: " << topology.nodes << " nodes, "
            << topology.links.size() << " links, mode "
            << net::to_string(mode) << "\n";
  std::cout << "subscriptions: " << subscriptions << " (+ "
            << topology.composites.size() << " composite), events: "
            << event_count << " (dist " << dist_name << ", seed " << seed
            << ")\n";
  if (!topology.composites.empty()) {
    std::cout << "composite firings: " << composite_firings.load() << "\n";
  }
  std::cout << "events_published=" << stats.events_published
            << " event_messages=" << stats.event_messages
            << " profile_messages=" << stats.profile_messages
            << " filter_operations=" << stats.filter_operations
            << " deliveries=" << stats.deliveries << "\n";
  for (std::size_t n = 0; n < topology.nodes; ++n) {
    std::cout << "node " << n << ": routing_entries="
              << net.routing_entries(n) << " local_subscriptions="
              << net.local_subscriptions(n) << "\n";
  }
  std::cout << "elapsed " << elapsed << " s, "
            << static_cast<std::uint64_t>(
                   elapsed > 0 ? static_cast<double>(event_count) / elapsed
                               : 0)
            << " events/sec\n";
  if (stats_json) {
    std::ostream& os = std::cout;
    os << "{\n  \"nodes\": [";
    for (std::size_t n = 0; n < topology.nodes; ++n) {
      const net::OverlayStats& one = per_node[n];
      os << (n == 0 ? "\n" : ",\n") << "    {\"id\": " << n
         << ", \"events_published\": " << one.events_published
         << ", \"event_messages\": " << one.event_messages
         << ", \"profile_messages\": " << one.profile_messages
         << ", \"filter_operations\": " << one.filter_operations
         << ", \"deliveries\": " << one.deliveries << ", \"links\": [";
      for (std::size_t l = 0; l < per_link[n].size(); ++l) {
        const mesh::LinkStats& link = per_link[n][l];
        os << (l == 0 ? "" : ", ") << "{\"peer\": " << link.peer
           << ", \"event_messages\": " << link.event_messages
           << ", \"routing_entries\": " << link.routing_entries
           << ", \"retransmits\": " << link.retransmits
           << ", \"dup_frames\": " << link.dup_frames
           << ", \"gap_frames\": " << link.gap_frames << "}";
      }
      os << "]}";
    }
    os << "\n  ],\n  \"metrics\": ";
    print_metrics_json(os, obs_snapshot, "  ");
    os << "\n}\n";
  }
  if (!net.first_error().empty()) {
    std::cerr << "worker error: " << net.first_error() << "\n";
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `stats` subcommand: scrape a serving broker and print the exposition.

int run_stats(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: genas_cli stats <host> <port>\n";
    return 2;
  }
  const std::string host = argv[2];
  const auto port = static_cast<std::uint16_t>(std::stoul(argv[3]));
  net::RemoteBrokerClient client(host, port);
  const obs::StatsSnapshot snapshot =
      client.stats(std::chrono::milliseconds{10000});
  client.close();
  std::cout << obs::render_prometheus(snapshot);
  return 0;
}

// ---------------------------------------------------------------------------
// `serve` subcommand: a broker behind a TCP BrokerServer on 127.0.0.1.

int run_serve(int argc, char** argv) {
  std::string config_path;
  std::uint16_t port = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") {
      if (i + 1 >= argc) throw Error(ErrorCode::kParse, "--port needs a value");
      port = static_cast<std::uint16_t>(std::stoul(argv[++i]));
    } else if (config_path.empty()) {
      config_path = arg;
    } else {
      std::cerr << "usage: genas_cli serve <config> [--port P]\n";
      return 2;
    }
  }
  if (config_path.empty()) {
    std::cerr << "usage: genas_cli serve <config> [--port P]\n";
    return 2;
  }

  std::ifstream config_is(config_path);
  if (!config_is) throw Error(ErrorCode::kNotFound, "cannot open " + config_path);
  const ServiceConfig config = load_config(config_is);

  Broker broker(config.schema);
  net::ServerOptions options;
  options.port = port;
  net::BrokerServer server(broker, options);
  server.start();
  std::cout << "listening on 127.0.0.1:" << server.port() << "\n"
            << "schema: " << config.schema->to_string() << "\n"
            << "(EOF on stdin stops the server)\n"
            << std::flush;

  // Block until stdin closes; clients drive everything over the socket.
  std::string line;
  while (std::getline(std::cin, line)) {
    if (trim(line) == "quit") break;
  }
  server.stop();
  if (!server.first_error().empty()) {
    std::cerr << "server error: " << server.first_error() << "\n";
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `connect` subcommand: the interactive shell against a remote broker.

int run_connect(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: genas_cli connect <host> <port> [--retry N]\n";
    return 2;
  }
  const std::string host = argv[2];
  const auto port = static_cast<std::uint16_t>(std::stoul(argv[3]));
  std::size_t retries = 1;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--retry" && i + 1 < argc) {
      retries = std::stoul(argv[++i]);
    } else {
      std::cerr << "usage: genas_cli connect <host> <port> [--retry N]\n";
      return 2;
    }
  }

  if (retries > 1) {
    // Wait for the server to come up: capped-backoff probe dials, then
    // keep the session alive across server restarts with the same budget.
    net::connect_with_retry(host, port, retries).close();
  }
  net::ClientOptions options;
  options.max_redials = retries > 1 ? retries : 0;
  net::RemoteBrokerClient client(host, port, options);
  std::cout << "connected to " << host << ":" << port << "\n"
            << "schema: " << client.schema()->to_string() << "\n"
            << "commands: sub <expr> | unsub <id> | csub <expr> | cunsub <id>"
               " | pub <event> | pubat <t> <event> | flush | quit\n";

  std::string line;
  while (std::cout << "genas> " << std::flush && std::getline(std::cin, line)) {
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const std::size_t space = trimmed.find(' ');
    const std::string cmd = to_lower(space == std::string_view::npos
                                         ? trimmed
                                         : trimmed.substr(0, space));
    const std::string rest(space == std::string_view::npos
                               ? std::string_view{}
                               : trim(trimmed.substr(space + 1)));
    try {
      if (cmd == "quit" || cmd == "exit") break;
      if (cmd == "sub") {
        const SubscriptionId id =
            client.subscribe(rest, [](const Notification& n) {
              std::cout << "\n  notify sub#" << n.subscription << ": "
                        << n.event.to_string() << "\n";
            });
        std::cout << "ok: subscription " << id << "\n";
      } else if (cmd == "unsub") {
        client.unsubscribe(std::stoull(rest));
        std::cout << "ok\n";
      } else if (cmd == "csub") {
        const SubscriptionId id =
            client.subscribe_composite(rest, [](const CompositeFiring& f) {
              std::cout << "\n  composite csub#" << f.subscription
                        << " fired at t=" << f.time << "\n";
            });
        std::cout << "ok: composite subscription " << id << "\n";
      } else if (cmd == "cunsub") {
        client.unsubscribe_composite(std::stoull(rest));
        std::cout << "ok\n";
      } else if (cmd == "pub") {
        client.publish(rest);
        std::cout << "ok\n";
      } else if (cmd == "pubat") {
        const std::size_t cut = rest.find(' ');
        if (cut == std::string::npos) {
          throw Error(ErrorCode::kParse, "pubat <time> <event expression>");
        }
        client.publish(std::string_view(rest).substr(cut + 1),
                       std::stoll(rest.substr(0, cut)));
        std::cout << "ok\n";
      } else if (cmd == "flush") {
        client.flush();
        std::cout << "ok: " << client.deliveries() << " deliveries, "
                  << client.firings() << " composite firings so far\n";
      } else {
        std::cout << "error: unknown command '" << cmd << "'\n";
      }
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
      if (!client.connected()) {
        std::cerr << "connection lost: " << client.last_error() << "\n";
        return 1;
      }
    }
  }
  client.close();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "serve") {
    try {
      return run_serve(argc, argv);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  if (argc > 1 && std::string(argv[1]) == "connect") {
    try {
      return run_connect(argc, argv);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  if (argc > 1 && std::string(argv[1]) == "mesh") {
    try {
      return run_mesh(argc, argv);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  if (argc > 1 && std::string(argv[1]) == "stats") {
    try {
      return run_stats(argc, argv);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  CliState state;
  const bool demo = argc > 1 && std::string(argv[1]) == "--demo";

  if (demo) {
    std::istringstream script((std::string(kDemoScript)));
    std::string line;
    while (std::getline(script, line)) {
      std::cout << "genas> " << line << "\n";
      if (!handle(state, line)) break;
    }
    return 0;
  }

  std::cout << "GENAS interactive shell (try --demo for a scripted tour)\n";
  std::string line;
  while (std::cout << "genas> " && std::getline(std::cin, line)) {
    if (!handle(state, line)) break;
  }
  return 0;
}
