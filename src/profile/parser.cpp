#include "profile/parser.hpp"

#include <string>

#include "common/error.hpp"
#include "common/text.hpp"

namespace genas {

namespace {

[[noreturn]] void parse_fail(std::string_view what, std::string_view fragment) {
  throw_error(ErrorCode::kParse, std::string(what) + " near '" +
                                     std::string(fragment) + "'");
}

/// Converts a scalar token to a Value suited to the attribute's domain kind.
Value parse_scalar(const Domain& domain, std::string_view token) {
  token = trim(token);
  if (token.empty()) parse_fail("empty scalar", token);
  switch (domain.kind()) {
    case ValueKind::kInt:
      if (const auto v = parse_number<std::int64_t>(token)) return Value(*v);
      parse_fail("expected integer", token);
    case ValueKind::kReal:
      if (const auto v = parse_number<double>(token)) return Value(*v);
      parse_fail("expected real number", token);
    case ValueKind::kCategory:
      return Value(std::string(token));
  }
  parse_fail("unknown domain kind", token);
}

/// Splits "lhs <op> rhs" returning the operator token; chooses the longest
/// matching operator at the first operator position.
struct OpSplit {
  std::string_view lhs;
  Op op;
  std::string_view rhs;
};

OpSplit split_operator(std::string_view cond) {
  static constexpr std::pair<std::string_view, Op> kOps[] = {
      {"<=", Op::kLe}, {">=", Op::kGe}, {"!=", Op::kNe},
      {"==", Op::kEq}, {"<", Op::kLt},  {">", Op::kGt},
      {"=", Op::kEq},
  };
  for (std::size_t i = 0; i < cond.size(); ++i) {
    for (const auto& [tok, op] : kOps) {
      if (cond.substr(i, tok.size()) == tok) {
        return {trim(cond.substr(0, i)), op, trim(cond.substr(i + tok.size()))};
      }
    }
  }
  parse_fail("missing comparison operator", cond);
}

/// Parses "[lo , hi]" range bodies.
std::pair<std::string_view, std::string_view> split_range(
    std::string_view body, std::string_view original) {
  const std::size_t comma = body.find(',');
  if (comma == std::string_view::npos) {
    parse_fail("range requires 'lo,hi'", original);
  }
  return {trim(body.substr(0, comma)), trim(body.substr(comma + 1))};
}

void parse_condition(ProfileBuilder& builder, const SchemaPtr& schema,
                     std::string_view cond) {
  cond = trim(cond);
  if (cond.empty()) parse_fail("empty condition", cond);

  // "name [not] in [...]" / "name in {...}" forms: find the attribute name
  // as the first whitespace-delimited token.
  const std::size_t space = cond.find_first_of(" \t");
  if (space != std::string_view::npos) {
    const std::string_view name = trim(cond.substr(0, space));
    std::string_view rest = trim(cond.substr(space));
    bool negated = false;
    if (starts_with(rest, "not")) {
      negated = true;
      rest = trim(rest.substr(3));
    }
    if (starts_with(rest, "in")) {
      rest = trim(rest.substr(2));
      if (!schema->has_attribute(name)) {
        parse_fail("unknown attribute", name);
      }
      const Domain& domain = schema->attribute(schema->id_of(name)).domain;
      if (starts_with(rest, "[")) {
        if (rest.back() != ']') parse_fail("unterminated range", cond);
        const auto [lo, hi] =
            split_range(rest.substr(1, rest.size() - 2), cond);
        if (negated) {
          builder.outside(name, parse_scalar(domain, lo),
                          parse_scalar(domain, hi));
        } else {
          builder.between(name, parse_scalar(domain, lo),
                          parse_scalar(domain, hi));
        }
        return;
      }
      if (starts_with(rest, "{")) {
        if (negated) parse_fail("'not in {set}' is not supported", cond);
        if (rest.back() != '}') parse_fail("unterminated set", cond);
        std::vector<Value> values;
        for (std::string_view piece :
             split(rest.substr(1, rest.size() - 2), ',')) {
          values.push_back(parse_scalar(domain, piece));
        }
        builder.in(name, values);
        return;
      }
      parse_fail("'in' requires [range] or {set}", cond);
    }
    if (negated) parse_fail("'not' requires 'in'", cond);
  }

  // Plain comparison form.
  const OpSplit parts = split_operator(cond);
  if (!schema->has_attribute(parts.lhs)) {
    parse_fail("unknown attribute", parts.lhs);
  }
  const Domain& domain = schema->attribute(schema->id_of(parts.lhs)).domain;
  builder.where(parts.lhs, parts.op, parse_scalar(domain, parts.rhs));
}

/// Splits on "&&" at the top level.
std::vector<std::string_view> split_conjunction(std::string_view text) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find("&&", start);
    if (pos == std::string_view::npos) {
      parts.push_back(trim(text.substr(start)));
      break;
    }
    parts.push_back(trim(text.substr(start, pos - start)));
    start = pos + 2;
  }
  return parts;
}

}  // namespace

Profile parse_profile(const SchemaPtr& schema, std::string_view text) {
  GENAS_REQUIRE(schema != nullptr, ErrorCode::kInvalidArgument,
                "parse_profile requires a schema");
  ProfileBuilder builder(schema);
  text = trim(text);
  if (text == "*" || text.empty()) {
    return builder.build();  // match-all profile
  }
  for (std::string_view cond : split_conjunction(text)) {
    parse_condition(builder, schema, cond);
  }
  return builder.build();
}

Event parse_event(const SchemaPtr& schema, std::string_view text,
                  Timestamp time) {
  GENAS_REQUIRE(schema != nullptr, ErrorCode::kInvalidArgument,
                "parse_event requires a schema");
  std::vector<std::pair<std::string, Value>> pairs;
  for (std::string_view piece : split(text, ';')) {
    if (piece.empty()) continue;
    const std::size_t eq = piece.find('=');
    if (eq == std::string_view::npos) {
      parse_fail("event assignment requires '='", piece);
    }
    const std::string_view name = trim(piece.substr(0, eq));
    const std::string_view value = trim(piece.substr(eq + 1));
    if (!schema->has_attribute(name)) parse_fail("unknown attribute", name);
    const Domain& domain = schema->attribute(schema->id_of(name)).domain;
    pairs.emplace_back(std::string(name), parse_scalar(domain, value));
  }
  return Event::from_pairs(schema, pairs, time);
}

namespace {

/// Renders one predicate as a parse-compatible condition. Works from the
/// normalized IntervalSet, so any operator family round-trips.
std::string format_predicate(const Schema& schema, const Predicate& predicate) {
  const AttributeId a = predicate.attribute();
  const Domain& domain = schema.attribute(a).domain;
  const std::string& name = schema.attribute(a).name;
  const auto& intervals = predicate.accepted().intervals();

  const auto render_value = [&](DomainIndex v) {
    return domain.value_at(v).to_string();
  };

  if (intervals.size() == 1 && intervals[0].size() == 1) {
    return name + " = " + render_value(intervals[0].lo);
  }
  // Range forms are only parseable on ordered (non-categorical) domains.
  if (domain.kind() != ValueKind::kCategory) {
    if (intervals.size() == 1) {
      const Interval iv = intervals[0];
      return name + " in [" + render_value(iv.lo) + ", " +
             render_value(iv.hi) + "]";
    }
    // Two intervals forming a complement of one range: "not in".
    const Interval full = domain.full();
    if (intervals.size() == 2 && intervals[0].lo == full.lo &&
        intervals[1].hi == full.hi) {
      return name + " not in [" + render_value(intervals[0].hi + 1) + ", " +
             render_value(intervals[1].lo - 1) + "]";
    }
  }
  // General case: point sets render as "{...}"; other shapes are split into
  // a set of points only when small, otherwise the widest form we can
  // express is the union of points (categorical/IN predicates are always
  // point sets, so this covers every constructible predicate).
  std::string out = name + " in {";
  bool first = true;
  for (const Interval& iv : intervals) {
    for (DomainIndex v = iv.lo; v <= iv.hi; ++v) {
      if (!first) out += ", ";
      first = false;
      out += render_value(v);
    }
  }
  out += '}';
  return out;
}

}  // namespace

std::string format_profile(const Profile& profile) {
  if (profile.constrained_count() == 0) return "*";
  std::string out;
  for (const Predicate& predicate : profile.predicates()) {
    if (!out.empty()) out += " && ";
    out += format_predicate(*profile.schema(), predicate);
  }
  return out;
}

std::string format_event(const Event& event) {
  const Schema& schema = *event.schema();
  std::string out;
  for (AttributeId a = 0; a < schema.attribute_count(); ++a) {
    if (!out.empty()) out += "; ";
    out += schema.attribute(a).name + " = " + event.value(a).to_string();
  }
  return out;
}

}  // namespace genas
