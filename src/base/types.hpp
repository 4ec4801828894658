// Core scalar/index types and precision traits used throughout hpgmx.
//
// The benchmark mixes IEEE double and single precision; every kernel is
// templated on its value type(s) and uses these traits to reason about
// precision-dependent properties (bytes moved, unit roundoff, display name).
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>

namespace hpgmx {

/// Local (per-rank) row/column index. 32-bit: a rank never owns > 2^31 rows.
using local_index_t = std::int32_t;

/// Global index across all ranks. 64-bit: global problems exceed 2^31 rows.
using global_index_t = std::int64_t;

/// Floating-point operation counter. Counts can exceed 2^53 at scale, so use
/// a 64-bit unsigned integer rather than double.
using flop_count_t = std::uint64_t;

/// True for the value types kernels are instantiated with. The 16-bit
/// storage formats (src/precision/float16.hpp) specialize this to opt in.
template <typename T>
inline constexpr bool is_supported_value_v =
    std::is_same_v<T, float> || std::is_same_v<T, double>;

/// Compile-time description of a floating-point working precision. The
/// 16-bit storage formats provide their own specializations.
template <typename T>
struct PrecisionTraits {
  static_assert(is_supported_value_v<T>, "unsupported value type");

  /// IEEE unit roundoff (half the machine epsilon).
  static constexpr T unit_roundoff = std::numeric_limits<T>::epsilon() / T(2);

  /// Bytes occupied by one value; the quantity that matters for a
  /// bandwidth-bound kernel.
  static constexpr std::size_t bytes = sizeof(T);

  /// Largest finite value (as double): what a ScaleGuard compares magnitudes
  /// against before demoting into this format.
  static constexpr double max_finite = std::numeric_limits<T>::max();

  /// Short display name used in reports ("fp64" / "fp32").
  static constexpr std::string_view name =
      std::is_same_v<T, double> ? "fp64" : "fp32";
};

/// The wider of two precisions: accumulations in mixed kernels happen here.
template <typename A, typename B>
using wider_t = std::conditional_t<(sizeof(A) >= sizeof(B)), A, B>;

/// Accumulator type a streaming kernel uses for a running sum over values of
/// type T. Identity for the hardware types; the 16-bit storage formats
/// specialize it to float (their arithmetic is promoted through float, and
/// a 16-bit running sum would lose the whole row to roundoff).
template <typename T>
struct accum {
  using type = T;
};

template <typename T>
using accum_t = typename accum<T>::type;

}  // namespace hpgmx
