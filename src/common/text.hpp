// GENAS — small string utilities shared by the parser and report writers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace genas {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s) noexcept;

/// Splits on `sep`, trimming each piece; empty pieces are kept.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Case-sensitive prefix test.
bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Lower-cases ASCII letters.
std::string to_lower(std::string_view s);

/// Formats a double with the given precision, trimming trailing zeros
/// ("1.50" -> "1.5", "2.00" -> "2").
std::string format_double(double v, int precision = 4);

/// Parses the whole token as a number with std::from_chars: an optional
/// leading '-', no padding, no '+'. Returns nullopt for an empty token,
/// trailing bytes or a value out of T's range. Instantiated for int,
/// std::int64_t, std::size_t and double.
template <class T>
std::optional<T> parse_number(std::string_view token) noexcept;

}  // namespace genas
