#include "mesh/topology.hpp"

#include <istream>
#include <sstream>

#include "common/error.hpp"
#include "common/text.hpp"

namespace genas::mesh {

namespace {

[[noreturn]] void topology_fail(std::size_t line_no, const std::string& what) {
  throw_error(ErrorCode::kParse,
              "topology line " + std::to_string(line_no) + ": " + what);
}

std::size_t parse_index(std::string_view token, std::size_t line_no) {
  if (const auto v = parse_number<std::size_t>(token)) return *v;
  topology_fail(line_no,
                "expected a node id, got '" + std::string(token) + "'");
}

}  // namespace

MeshTopology load_topology(std::istream& is) {
  MeshTopology topology;
  bool saw_nodes = false;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;

    if (starts_with(body, "nodes ")) {
      if (saw_nodes) topology_fail(line_no, "duplicate nodes directive");
      topology.nodes = parse_index(trim(body.substr(6)), line_no);
      if (topology.nodes == 0) topology_fail(line_no, "mesh needs >= 1 node");
      saw_nodes = true;
      continue;
    }

    if (!saw_nodes) {
      topology_fail(line_no, "the nodes directive must come first");
    }

    if (starts_with(body, "link ")) {
      const auto words = split(body.substr(5), ' ');
      std::vector<std::string_view> tokens;
      for (const auto w : words) {
        if (!w.empty()) tokens.push_back(w);
      }
      if (tokens.size() != 2) topology_fail(line_no, "link needs two node ids");
      const std::size_t a = parse_index(tokens[0], line_no);
      const std::size_t b = parse_index(tokens[1], line_no);
      if (a >= topology.nodes || b >= topology.nodes) {
        topology_fail(line_no, "link references an unknown node");
      }
      topology.links.emplace_back(a, b);
      continue;
    }

    if (starts_with(body, "sub ") || starts_with(body, "csub ")) {
      const bool composite = body[0] == 'c';
      const char* what = composite ? "csub" : "sub";
      const std::string_view rest = trim(body.substr(composite ? 5 : 4));
      const std::size_t space = rest.find(' ');
      if (space == std::string_view::npos) {
        topology_fail(line_no, std::string(what) +
                                   " needs a node id and an expression");
      }
      const std::size_t node = parse_index(rest.substr(0, space), line_no);
      if (node >= topology.nodes) {
        topology_fail(line_no,
                      std::string(what) + " references an unknown node");
      }
      const std::string_view expression = trim(rest.substr(space));
      if (expression.empty()) {
        topology_fail(line_no, std::string(what) + " has an empty expression");
      }
      auto& into = composite ? topology.composites : topology.subscriptions;
      into.emplace_back(node, std::string(expression));
      continue;
    }

    topology_fail(line_no, "unknown directive '" + std::string(body) + "'");
  }

  if (!saw_nodes) topology_fail(line_no, "topology declares no nodes");
  return topology;
}

MeshTopology topology_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_topology(is);
}

std::string topology_to_string(const MeshTopology& topology) {
  std::ostringstream os;
  os << "# GENAS mesh topology\n";
  os << "nodes " << topology.nodes << '\n';
  for (const auto& [a, b] : topology.links) {
    os << "link " << a << ' ' << b << '\n';
  }
  for (const auto& [node, expression] : topology.subscriptions) {
    os << "sub " << node << ' ' << expression << '\n';
  }
  for (const auto& [node, expression] : topology.composites) {
    os << "csub " << node << ' ' << expression << '\n';
  }
  return os.str();
}

}  // namespace genas::mesh
