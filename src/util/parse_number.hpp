#pragma once

/// \file parse_number.hpp
/// \brief The one strict number parser of the tools and HTTP endpoints.

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <type_traits>

namespace ubac::util {

/// All of `text` as a T: nullopt when it is empty, malformed, preceded or
/// trailed by anything (a space, a '+'), out of range or not finite.
/// Unsigned types take no sign.
template <class T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(value)) return std::nullopt;
  return value;
}

}  // namespace ubac::util
