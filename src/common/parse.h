// Strict number parsing for command-line values and environment knobs: the
// whole text must be one number of the target type inside the given range,
// or the call throws. Unlike atoi/atof, "abc", "8x", "1.5" (for an integer)
// and values that overflow the type are errors, never a silent 0 or garbage.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace peel {

/// Parses all of `text` as a T in [lo, hi]. Throws std::invalid_argument
/// naming `what` (the flag, argument or variable) otherwise.
template <typename T>
[[nodiscard]] T parse_number(std::string_view text, std::string_view what,
                             T lo = std::numeric_limits<T>::lowest(),
                             T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T>);
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && stop == end && value >= lo && value <= hi) {
    return value;
  }
  std::string expected = std::is_integral_v<T> ? "an integer" : "a number";
  if (lo != std::numeric_limits<T>::lowest() ||
      hi != std::numeric_limits<T>::max()) {
    const auto show = [](T v) {
      if constexpr (std::is_integral_v<T>) {
        return std::to_string(v);
      } else {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", static_cast<double>(v));
        return std::string(buf);
      }
    };
    expected += " in [" + show(lo) + ", " + show(hi) + "]";
  }
  throw std::invalid_argument(std::string(what) + ": expected " + expected +
                              ", got '" + std::string(text) + "'");
}

/// The environment variable `name` parsed with parse_number; nullopt when it
/// is unset or empty.
template <typename T>
[[nodiscard]] std::optional<T> env_number(
    const char* name, T lo = std::numeric_limits<T>::lowest(),
    T hi = std::numeric_limits<T>::max()) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return parse_number<T>(v, name, lo, hi);
}

}  // namespace peel
