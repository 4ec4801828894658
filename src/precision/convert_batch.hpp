// Batched (span-level) precision conversion primitives.
//
// The scalar conversion routines in float16.hpp are exact but branchy —
// inlined into a streaming kernel they keep the loop from vectorizing, so
// the 16-bit storage formats were paying their byte savings back in scalar
// convert latency. This header provides block conversions written so that
// `#pragma omp simd` auto-vectorizes them:
//
//   widen_block   bf16/fp16 -> float   bf16 is a pure bit shift; fp16 uses
//                                      the branch-light exponent-rebias
//                                      trick (select-form, no early returns)
//   narrow_block  float -> bf16/fp16   RNE via integer manipulation, all
//                                      range cases computed unconditionally
//                                      and combined with selects
//
// Every fast path is bit-identical to its scalar counterpart in
// float16.hpp; tests/test_precision.cpp asserts this exhaustively over all
// 65536 16-bit patterns (widen) and over widened + randomized float inputs
// (narrow). convert_block()/convert_span() route any supported value-type
// pair through these primitives (staging through float where needed) and
// are what EllMatrix::convert and convert_copy stream through.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

#include "base/error.hpp"
#include "base/types.hpp"
#include "precision/float16.hpp"

namespace hpgmx {
namespace detail {

/// Block length the staged kernels and convert_span() chunk by: big enough
/// to amortize the loop prologue, small enough that a float staging tile
/// (4 KiB) plus its 16-bit source stays L1-resident.
inline constexpr std::size_t kConvertBlock = 1024;

/// Branch-light fp16 bits -> float bits (Giesen-style exponent rebias).
/// Normals get the +112 exponent rebias directly; inf/NaN take a second
/// rebias so the exponent saturates; subnormals renormalize through one
/// exact float subtraction. All three candidates are computed and the
/// result selected, so the loop body has no control flow to break SIMD.
[[nodiscard]] inline float fp16_bits_to_float_fast(std::uint16_t h) {
  const std::uint32_t em = (static_cast<std::uint32_t>(h) & 0x7fffu) << 13;
  const std::uint32_t exp = em & 0x0f800000u;  // exponent field, shifted
  std::uint32_t o = em + 0x38000000u;          // (127 - 15) << 23 rebias
  o = (exp == 0x0f800000u) ? o + 0x38000000u : o;  // inf/NaN: saturate
  // Zero/subnormal: value = mant * 2^-24, produced exactly by subtracting
  // the magic 2^-14 from (em | 2^-14's bits) — same-exponent floats, so the
  // subtraction is exact (Sterbenz).
  const float sub = std::bit_cast<float>(em + 0x38800000u) -
                    std::bit_cast<float>(0x38800000u);
  o = (exp == 0) ? std::bit_cast<std::uint32_t>(sub) : o;
  return std::bit_cast<float>(
      o | (static_cast<std::uint32_t>(h & 0x8000u) << 16));
}

/// Branch-light float -> bf16 bits (RNE): the scalar routine's NaN early
/// return becomes a select.
[[nodiscard]] inline std::uint16_t float_to_bf16_bits_fast(float f) {
  const std::uint32_t u = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t rounded = u + 0x7fffu + ((u >> 16) & 1u);
  return ((u & 0x7fffffffu) > 0x7f800000u)
             ? static_cast<std::uint16_t>((u >> 16) | 0x0040u)  // quiet NaN
             : static_cast<std::uint16_t>(rounded >> 16);
}

/// Branch-light float -> fp16 bits (RNE, overflow to inf, gradual
/// underflow): every range case of the scalar routine computed
/// unconditionally (shifts clamped so nothing is UB), then selected in
/// nesting order — later selects override earlier ones.
[[nodiscard]] inline std::uint16_t float_to_fp16_bits_fast(float f) {
  const std::uint32_t u = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (u >> 16) & 0x8000u;
  const std::uint32_t abs = u & 0x7fffffffu;
  // NaN payload and the normal-range RNE (unsigned wrap below the normal
  // threshold is harmless — the select gates it out).
  const std::uint32_t nan16 = 0x7c00u | ((abs >> 13) & 0x3ffu) | 0x200u;
  const std::uint32_t norm =
      (abs + 0xfffu + ((abs >> 13) & 1u) - 0x38000000u) >> 13;
  // Subnormal half: quantize to multiples of 2^-24 with RNE. The true shift
  // is 14..24 in the gated range; clamp keeps the speculative computation
  // defined for every input.
  const std::uint32_t exp = abs >> 23;
  const std::uint32_t mant = (abs & 0x7fffffu) | 0x800000u;
  const std::uint32_t shift = std::min(126u - exp, 24u);
  const std::uint32_t q = mant >> shift;
  const std::uint32_t rem = mant & ((1u << shift) - 1u);
  const std::uint32_t half = (shift > 0) ? (1u << (shift - 1u)) : 0u;
  const std::uint32_t subn =
      q + ((rem > half || (rem == half && (q & 1u))) ? 1u : 0u);
  std::uint32_t h16 = (abs < 0x33000000u) ? 0u : subn;  // < 2^-25: signed zero
  h16 = (abs >= 0x38800000u) ? norm : h16;              // normal half range
  h16 = (abs >= 0x47800000u) ? 0x7c00u : h16;           // overflow -> inf
  h16 = (abs > 0x7f800000u) ? nan16 : h16;              // NaN
  return static_cast<std::uint16_t>(sign | h16);
}

}  // namespace detail

/// dst[i] = float(src[i]) — bf16 widening is one shift per lane.
inline void widen_block(const bf16_t* src, float* dst, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = std::bit_cast<float>(static_cast<std::uint32_t>(src[i].bits)
                                  << 16);
  }
}

/// dst[i] = float(src[i]) — branch-light fp16 widening.
inline void widen_block(const fp16_t* src, float* dst, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = detail::fp16_bits_to_float_fast(src[i].bits);
  }
}

/// dst[i] = bf16(src[i]) with round-to-nearest-even.
inline void narrow_block(const float* src, bf16_t* dst, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = bf16_t::from_bits(detail::float_to_bf16_bits_fast(src[i]));
  }
}

/// dst[i] = fp16(src[i]) with round-to-nearest-even.
inline void narrow_block(const float* src, fp16_t* dst, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = fp16_t::from_bits(detail::float_to_fp16_bits_fast(src[i]));
  }
}

namespace detail {
template <typename T>
inline constexpr bool is_16bit_value_v =
    std::is_same_v<T, bf16_t> || std::is_same_v<T, fp16_t>;
}  // namespace detail

/// Convert one block (n <= detail::kConvertBlock) between any two supported
/// value types, bit-identical to the per-element `static_cast<TY>(TX)` path:
/// 16-bit endpoints stage through float exactly as the scalar conversion
/// chain does (e.g. static_cast<bf16_t>(double) == bf16_t(float(double))).
template <typename TX, typename TY>
inline void convert_block(const TX* src, TY* dst, std::size_t n) {
  HPGMX_CHECK(n <= detail::kConvertBlock);
  if constexpr (std::is_same_v<TX, TY>) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = src[i];
    }
  } else if constexpr (detail::is_16bit_value_v<TX> &&
                       std::is_same_v<TY, float>) {
    widen_block(src, dst, n);
  } else if constexpr (std::is_same_v<TX, float> &&
                       detail::is_16bit_value_v<TY>) {
    narrow_block(src, dst, n);
  } else if constexpr (detail::is_16bit_value_v<TX>) {
    // 16-bit -> double / other 16-bit: widen to a float tile, then cast or
    // re-narrow — the same two-step chain the scalar conversions take.
    float stage[detail::kConvertBlock];
    widen_block(src, stage, n);
    if constexpr (std::is_same_v<TY, double>) {
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<double>(stage[i]);
      }
    } else {
      narrow_block(stage, dst, n);
    }
  } else if constexpr (detail::is_16bit_value_v<TY>) {
    // double -> 16-bit: demote to float first (what the explicit 16-bit
    // constructors from double do), then narrow.
    float stage[detail::kConvertBlock];
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
      stage[i] = static_cast<float>(src[i]);
    }
    narrow_block(stage, dst, n);
  } else {
    // float <-> double.
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = static_cast<TY>(src[i]);
    }
  }
}

/// Whole-span conversion: OpenMP-parallel over kConvertBlock chunks, each
/// chunk converted by the SIMD block primitive. This is the engine behind
/// convert_copy() and the matrix convert() routines.
template <typename TX, typename TY>
inline void convert_span(std::span<const TX> src, std::span<TY> dst) {
  HPGMX_CHECK(src.size() == dst.size());
  const std::size_t n = src.size();
  const std::size_t nblocks =
      (n + detail::kConvertBlock - 1) / detail::kConvertBlock;
  const TX* __restrict s = src.data();
  TY* __restrict d = dst.data();
#pragma omp parallel for schedule(static)
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t i0 = blk * detail::kConvertBlock;
    const std::size_t len = std::min(detail::kConvertBlock, n - i0);
    convert_block(s + i0, d + i0, len);
  }
}

}  // namespace hpgmx
