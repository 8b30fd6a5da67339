#include "common/text.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace genas {

namespace {
bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}
}  // namespace

std::string_view trim(std::string_view s) noexcept {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_space(s[begin])) ++begin;
  while (end > begin && is_space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(trim(s.substr(start)));
      break;
    }
    out.push_back(trim(s.substr(start, pos - start)));
    start = pos + 1;
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

template <class T>
std::optional<T> parse_number(std::string_view token) noexcept {
  T value{};
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

template std::optional<int> parse_number<int>(std::string_view) noexcept;
template std::optional<std::int64_t> parse_number<std::int64_t>(
    std::string_view) noexcept;
template std::optional<std::size_t> parse_number<std::size_t>(
    std::string_view) noexcept;
template std::optional<double> parse_number<double>(std::string_view) noexcept;

}  // namespace genas
