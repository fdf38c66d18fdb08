// Overflow-checked arithmetic for table-size computations. Higher-dimensional
// DP table sizes are products of many per-dimension extents and silently
// wrapping would corrupt every downstream index computation.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace pcmax::util {

/// Signed 128-bit integer for exact cross-products and ceilings whose
/// intermediates can exceed 64 bits. It is a GCC/Clang extension;
/// `__extension__` keeps -Wpedantic quiet here, once, instead of at every use.
__extension__ typedef __int128 int128;

/// Thrown when a checked operation would overflow its result type.
class overflow_error : public std::overflow_error {
 public:
  using std::overflow_error::overflow_error;
};

/// Returns a*b, throwing overflow_error on wrap.
[[nodiscard]] inline std::uint64_t checked_mul(std::uint64_t a,
                                               std::uint64_t b) {
  std::uint64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r))
    throw overflow_error("checked_mul: 64-bit overflow");
  return r;
}

/// Returns a+b, throwing overflow_error on wrap.
[[nodiscard]] inline std::uint64_t checked_add(std::uint64_t a,
                                               std::uint64_t b) {
  std::uint64_t r = 0;
  if (__builtin_add_overflow(a, b, &r))
    throw overflow_error("checked_add: 64-bit overflow");
  return r;
}

/// Ceiling division for non-negative integers; b must be positive.
[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t a,
                                               std::uint64_t b) noexcept {
  return a == 0 ? 0 : 1 + (a - 1) / b;
}

/// Largest integer whose square does not exceed n.
[[nodiscard]] constexpr std::uint64_t isqrt(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  // Newton iteration from an initial guess >= sqrt(n); all intermediate
  // values stay well below 2^64 because x >= sqrt(n) implies n/x <= sqrt(n).
  std::uint64_t x = n / 2 + 1;
  std::uint64_t y = (x + n / x) / 2;
  while (y < x) {
    x = y;
    y = (x + n / x) / 2;
  }
  // Division-based overshoot guard (x*x could overflow for huge n).
  while (x > n / x) --x;
  return x;
}

}  // namespace pcmax::util
