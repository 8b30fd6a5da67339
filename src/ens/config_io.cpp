#include "ens/config_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/text.hpp"
#include "profile/parser.hpp"

namespace genas {

namespace {

bool is_blank(char c) noexcept { return c == ' ' || c == '\t'; }

/// Escapes one category name for the `attr ... cat` list: `\\` `\,` always,
/// `\s`/`\t` for leading and trailing whitespace (which line trimming and
/// comma splitting would otherwise eat). Newlines cannot be escaped in a
/// line-oriented format and are rejected.
std::string escape_category(const std::string& name) {
  std::size_t lead = 0;
  while (lead < name.size() && is_blank(name[lead])) ++lead;
  std::size_t trail = name.size();
  while (trail > lead && is_blank(name[trail - 1])) --trail;

  std::string out;
  out.reserve(name.size() + 2);
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    GENAS_REQUIRE(c != '\n' && c != '\r', ErrorCode::kInvalidArgument,
                  "category name '" + name +
                      "' contains a newline and cannot be saved in the "
                      "line-oriented config format");
    const bool edge_blank = is_blank(c) && (i < lead || i >= trail);
    if (c == '\\') {
      out += "\\\\";
    } else if (c == ',') {
      out += "\\,";
    } else if (edge_blank) {
      out += (c == ' ') ? "\\s" : "\\t";
    } else {
      out += c;
    }
  }
  return out;
}

/// Splits a `cat` payload on unescaped commas, materializing escapes and
/// trimming only unescaped edge whitespace (so `a, b` still parses as
/// {"a","b"} while `a\s` keeps its trailing space).
std::vector<std::string> parse_category_list(std::string_view payload,
                                             std::size_t line_no);

}  // namespace

void save_config(std::ostream& os, const ProfileSet& profiles) {
  const Schema& schema = *profiles.schema();
  // Rendered into a buffer first so a rejected name (escape_category throws
  // on newlines) cannot leave a half-written config behind `os`.
  std::ostringstream rendered;
  rendered << "# GENAS service configuration\n";
  for (const Attribute& attribute : schema.attributes()) {
    rendered << "attr " << attribute.name << ' ';
    const Domain& domain = attribute.domain;
    switch (domain.kind()) {
      case ValueKind::kInt:
        rendered << "int " << static_cast<std::int64_t>(domain.numeric_lo())
                 << ' ' << static_cast<std::int64_t>(domain.numeric_hi());
        break;
      case ValueKind::kReal:
        rendered << "real " << format_double(domain.numeric_lo(), 9) << ' '
                 << format_double(domain.numeric_hi(), 9) << ' '
                 << format_double(domain.resolution(), 9);
        break;
      case ValueKind::kCategory: {
        rendered << "cat ";
        for (DomainIndex i = 0; i < domain.size(); ++i) {
          if (i > 0) rendered << ',';
          rendered << escape_category(domain.value_at(i).as_category());
        }
        break;
      }
    }
    rendered << '\n';
  }
  for (const ProfileId id : profiles.active_ids()) {
    rendered << "profile";
    if (profiles.weight(id) != 1.0) {
      rendered << " weight=" << format_double(profiles.weight(id), 6);
    }
    rendered << ' ' << format_profile(profiles.profile(id)) << '\n';
  }
  os << rendered.str();
}

namespace {

[[noreturn]] void config_fail(std::size_t line_no, const std::string& what) {
  throw_error(ErrorCode::kParse,
              "config line " + std::to_string(line_no) + ": " + what);
}

double parse_real(std::string_view token, std::size_t line_no) {
  if (const auto v = parse_number<double>(token)) return *v;
  config_fail(line_no, "expected a number, got '" + std::string(token) + "'");
}

std::int64_t parse_integer(std::string_view token, std::size_t line_no) {
  if (const auto v = parse_number<std::int64_t>(token)) return *v;
  config_fail(line_no,
              "expected a 64-bit integer, got '" + std::string(token) + "'");
}

std::vector<std::string> parse_category_list(std::string_view payload,
                                             std::size_t line_no) {
  std::vector<std::string> categories;
  std::string piece;
  std::vector<bool> from_escape;  // parallel: char was produced by an escape

  const auto finish_piece = [&] {
    // Trim unescaped whitespace at both ends (hand-written files may pad
    // after commas); escaped whitespace is payload.
    std::size_t lo = 0;
    std::size_t hi = piece.size();
    while (lo < hi && is_blank(piece[lo]) && !from_escape[lo]) ++lo;
    while (hi > lo && is_blank(piece[hi - 1]) && !from_escape[hi - 1]) --hi;
    categories.emplace_back(piece.substr(lo, hi - lo));
    piece.clear();
    from_escape.clear();
  };

  for (std::size_t i = 0; i < payload.size(); ++i) {
    const char c = payload[i];
    if (c == '\\') {
      if (i + 1 >= payload.size()) {
        config_fail(line_no, "category list ends in a lone backslash");
      }
      const char next = payload[++i];
      char materialized = 0;
      switch (next) {
        case '\\': materialized = '\\'; break;
        case ',':  materialized = ',';  break;
        case 's':  materialized = ' ';  break;
        case 't':  materialized = '\t'; break;
        default:
          config_fail(line_no, std::string("invalid escape '\\") + next +
                                   "' in category list");
      }
      piece += materialized;
      from_escape.push_back(true);
      continue;
    }
    if (c == ',') {
      finish_piece();
      continue;
    }
    piece += c;
    from_escape.push_back(false);
  }
  finish_piece();
  return categories;
}

}  // namespace

ServiceConfig load_config(std::istream& is) {
  SchemaBuilder builder;
  struct PendingProfile {
    std::string expression;
    double weight;
    std::size_t line_no;
  };
  std::vector<PendingProfile> pending;
  bool saw_attribute = false;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;

    if (starts_with(body, "attr ")) {
      if (!pending.empty()) {
        config_fail(line_no, "attribute lines must precede profiles");
      }
      // Name and kind are single tokens; the payload after the kind is
      // kept raw so categorical lists can carry escaped characters (and
      // interior spaces) without being destroyed by tokenization.
      const std::string_view after_attr = trim(body.substr(5));
      const std::size_t name_end = after_attr.find(' ');
      if (name_end == std::string_view::npos) {
        config_fail(line_no, "malformed attr line");
      }
      const std::string name(after_attr.substr(0, name_end));
      const std::string_view after_name = trim(after_attr.substr(name_end));
      const std::size_t kind_end = after_name.find(' ');
      const std::string kind =
          to_lower(after_name.substr(0, kind_end));
      const std::string_view payload =
          kind_end == std::string_view::npos
              ? std::string_view{}
              : trim(after_name.substr(kind_end));

      // split() on ' ' keeps empties for double spaces; filter them.
      std::vector<std::string_view> tokens;
      for (const auto w : split(payload, ' ')) {
        if (!w.empty()) tokens.push_back(w);
      }
      if (kind == "int" && tokens.size() == 2) {
        const std::int64_t lo = parse_integer(tokens[0], line_no);
        builder.add_integer(name, lo, parse_integer(tokens[1], line_no));
      } else if (kind == "real" && tokens.size() == 3) {
        builder.add_real(name, parse_real(tokens[0], line_no),
                         parse_real(tokens[1], line_no),
                         parse_real(tokens[2], line_no));
      } else if (kind == "cat" && !payload.empty()) {
        builder.add_categorical(name, parse_category_list(payload, line_no));
      } else {
        config_fail(line_no, "malformed attr line");
      }
      saw_attribute = true;
      continue;
    }

    if (starts_with(body, "profile")) {
      if (!saw_attribute) {
        config_fail(line_no, "attribute lines must precede profiles");
      }
      std::string_view rest = trim(body.substr(7));
      double weight = 1.0;
      if (starts_with(rest, "weight=")) {
        const std::size_t space = rest.find(' ');
        if (space == std::string_view::npos) {
          config_fail(line_no, "profile line missing expression");
        }
        weight = parse_real(rest.substr(7, space - 7), line_no);
        rest = trim(rest.substr(space));
      }
      pending.push_back(PendingProfile{std::string(rest), weight, line_no});
      continue;
    }

    config_fail(line_no, "unknown directive '" + std::string(body) + "'");
  }

  if (!saw_attribute) {
    config_fail(line_no, "configuration declares no attributes");
  }
  SchemaPtr schema = builder.build();
  ServiceConfig config{schema, ProfileSet(schema)};
  for (const PendingProfile& p : pending) {
    try {
      const ProfileId id =
          config.profiles.add(parse_profile(schema, p.expression));
      if (p.weight != 1.0) config.profiles.set_weight(id, p.weight);
    } catch (const Error& e) {
      config_fail(p.line_no, e.what());
    }
  }
  return config;
}

std::string config_to_string(const ProfileSet& profiles) {
  std::ostringstream os;
  save_config(os, profiles);
  return os.str();
}

ServiceConfig config_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_config(is);
}

}  // namespace genas
