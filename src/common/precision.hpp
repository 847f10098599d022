#pragma once
// Precision traits used throughout the library.
//
// The paper's contribution #2 is templating TuckerMPI over the working
// precision; every numerical component in this library is templated on a
// real scalar type T and consults these traits for machine epsilon and for
// the cost-model parameters that depend on word size.
//
// Three layers live here:
//   * precision<T>  -- name/eps/bytes_per_word for each storage type,
//     including the 2-byte `half` sketch payload (storage-only, never an
//     accumulator).
//   * accum_for<T> / wide_t<T> -- the wide-accumulator trait behind
//     Accum::kWide: fp32 storage pairs with fp64 register tiles, fp64
//     storage is already as wide as we go.
//   * Accum -- the runtime knob threaded through SthosvdOptions and the
//     tensor kernels (env TUCKER_ACCUM; see tune::accum_wide_default).

#include <cstdint>
#include <cstddef>
#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>

namespace tucker {

// ------------------------------------------------------------------- half
//
// IEEE 754 binary16 storage scalar with software conversions (the cpp
// toolchain here has no guaranteed _Float16). Only the sketch path stores
// numbers at this width -- range +-65504 and eps ~ 9.8e-4 are far too
// coarse for factor matrices or Gram accumulation, but a Gaussian test
// matrix only needs to span the range of the unfolding (HMT / randomized
// range-finder argument), so quantizing Omega draws to half costs one
// rung-harmless perturbation of the sketch while halving the modeled
// sketch-word traffic. Conversions round to nearest-even, matching what
// hardware fp16 units would produce.

struct half {
  std::uint16_t bits = 0;
};

namespace detail_half {

inline std::uint32_t float_bits(float f) {
  std::uint32_t x;
  std::memcpy(&x, &f, sizeof x);
  return x;
}

inline float bits_float(std::uint32_t x) {
  float f;
  std::memcpy(&f, &x, sizeof f);
  return f;
}

}  // namespace detail_half

/// float -> half with round-to-nearest-even, overflow to +-inf, NaN
/// preserved (quieted).
inline half to_half(float f) {
  const std::uint32_t x = detail_half::float_bits(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t fexp = (x >> 23) & 0xffu;
  std::uint32_t m = x & 0x7fffffu;
  half h;
  if (fexp == 0xffu) {  // inf / nan
    h.bits = static_cast<std::uint16_t>(sign | 0x7c00u | (m ? 0x200u : 0u));
    return h;
  }
  const std::int32_t e = static_cast<std::int32_t>(fexp) - 127 + 15;
  if (e >= 31) {  // overflow -> inf
    h.bits = static_cast<std::uint16_t>(sign | 0x7c00u);
    return h;
  }
  if (e <= 0) {  // subnormal half (or zero)
    if (e < -10) {  // underflows past the smallest subnormal
      h.bits = static_cast<std::uint16_t>(sign);
      return h;
    }
    m |= 0x800000u;  // make the implicit bit explicit
    const int shift = 14 - e;  // in [14, 24]
    const std::uint32_t q = m >> shift;
    const std::uint32_t rem = m & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    std::uint32_t r = q;
    if (rem > halfway || (rem == halfway && (q & 1u))) ++r;
    // A carry out of the subnormal mantissa lands on the smallest normal
    // encoding (exponent field 1), which is exactly what `sign | r` gives.
    h.bits = static_cast<std::uint16_t>(sign | r);
    return h;
  }
  const std::uint32_t q = m >> 13;
  const std::uint32_t rem = m & 0x1fffu;
  std::uint16_t r = static_cast<std::uint16_t>(
      sign | (static_cast<std::uint32_t>(e) << 10) | q);
  // Ties to even; mantissa carry propagates into the exponent field (and,
  // at the very top, to inf) by ordinary integer increment.
  if (rem > 0x1000u || (rem == 0x1000u && (q & 1u))) ++r;
  h.bits = r;
  return h;
}

/// half -> float, exact (every half is representable as a float).
inline float from_half(half h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h.bits & 0x8000u)
                             << 16;
  std::uint32_t e = (h.bits >> 10) & 0x1fu;
  std::uint32_t m = h.bits & 0x3ffu;
  if (e == 0) {
    if (m == 0) return detail_half::bits_float(sign);  // +-0
    // Normalize the subnormal: shift until the implicit bit appears.
    int s = 0;
    while (!(m & 0x400u)) {
      m <<= 1;
      ++s;
    }
    return detail_half::bits_float(
        sign | (static_cast<std::uint32_t>(113 - s) << 23) |
        ((m & 0x3ffu) << 13));
  }
  if (e == 31)
    return detail_half::bits_float(sign | 0x7f800000u | (m << 13));
  return detail_half::bits_float(sign | ((e - 15 + 127) << 23) | (m << 13));
}

/// Round-trip a value through half storage; the quantizer the fp16 sketch
/// payload applies to every Omega draw.
inline float quantize_half(float f) { return from_half(to_half(f)); }
inline double quantize_half(double d) {
  return static_cast<double>(from_half(to_half(static_cast<float>(d))));
}

// ------------------------------------------------------------ precision<T>

template <class T>
struct precision;

template <>
struct precision<float> {
  using type = float;
  static constexpr std::string_view name = "single";
  // Unit roundoff 2^-24; the paper quotes eps_s = 2^-23 ~ 1e-7 (the gap
  // between adjacent floats at 1), which is numeric_limits::epsilon().
  static constexpr float eps = std::numeric_limits<float>::epsilon();
  static constexpr std::size_t bytes_per_word = sizeof(float);
};

template <>
struct precision<double> {
  using type = double;
  static constexpr std::string_view name = "double";
  static constexpr double eps = std::numeric_limits<double>::epsilon();
  static constexpr std::size_t bytes_per_word = sizeof(double);
};

template <>
struct precision<half> {
  using type = half;
  static constexpr std::string_view name = "half";
  // eps of binary16: 2^-10.
  static constexpr float eps = 9.765625e-4f;
  static constexpr std::size_t bytes_per_word = 2;
};

template <class T>
concept Real = std::is_same_v<T, float> || std::is_same_v<T, double>;

// ------------------------------------------------- wide-accumulator traits

/// Register-tile accumulator type used when a kernel runs with
/// Accum::kWide: fp32 storage accumulates in fp64; fp64 storage has no
/// wider native type, so wide degenerates to native (one instantiation,
/// bitwise-identical results).
template <class T>
struct accum_for {
  using type = T;
};

template <>
struct accum_for<float> {
  using type = double;
};

template <class T>
using wide_t = typename accum_for<T>::type;

/// Accumulator-width knob carried by SthosvdOptions and threaded through
/// gram/ttm/sketch/rand-svd dispatch. kNative keeps the historical behavior
/// (accumulate at storage precision); kWide loads/stores storage-width
/// words but keeps every register tile in wide_t<T>. Flop credits are
/// unchanged (same operation count); word-traffic credits stay at storage
/// width -- that split is the whole point (satellite: flop precision !=
/// word width).
enum class Accum {
  kNative,
  kWide,
};

}  // namespace tucker
