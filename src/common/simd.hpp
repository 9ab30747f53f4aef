#pragma once
// Minimal double-precision SIMD shim for the batched schedule-evaluation
// kernel (DESIGN.md §5.10). One vector type (VecD, kWidth lanes) and the
// handful of ops the kernel needs; the backend is picked per translation
// unit at preprocessing time:
//
//   CLR_FORCE_SCALAR   -> scalar (CI leg; also any unknown architecture)
//   __AVX2__           -> 4-lane AVX
//   __SSE2__ / x86-64  -> 2-lane SSE2
//   __aarch64__ NEON   -> 2-lane NEON
//
// The batched kernel is additionally compiled twice (portable flags and
// -mavx2) and dispatched at runtime, so a default x86-64 build still uses
// AVX2 on machines that have it — see schedule/batch_kernel.inl.
//
// Semantics contract (what keeps the batch path bit-identical to the scalar
// kernel): every op performs exactly the IEEE-754 operation of its scalar
// counterpart, element-wise, with no fusing and no reassociation.
//   - add/sub/mul/div are the plain IEEE ops (the kernel is built without
//     FMA codegen; never introduce fma here — it changes rounding).
//   - min/max match std::min / std::max *bitwise*, including NaN and signed
//     zero: std::max(a, b) is (a < b) ? b : a, which is x86 maxpd with the
//     operands swapped (maxpd returns its SECOND operand when the compare is
//     false or unordered). NEON vmax/vmin propagate NaN differently, so that
//     backend uses an explicit compare + select.
// tests/common/test_simd.cpp cross-checks every op against the scalar
// fallback on denormal / NaN / ±0 / infinity inputs.
//
// One program holds two backends (the -mavx2 kernel TU and everything
// else), so each backend lives in its own inline namespace: VecD and its ops
// then have distinct mangled names per backend. Without that, the linker
// keeps one out-of-line copy of, say, `load(const double*)` for both TUs,
// and an unoptimized build (nothing inlined) runs the AVX2 kernel on SSE2
// vectors.

#include <cstddef>

#if !defined(CLR_FORCE_SCALAR) && (defined(__AVX2__) || defined(__SSE2__) || \
                                   defined(__x86_64__) || defined(_M_X64))
#define CLR_SIMD_X86 1
#include <immintrin.h>
#elif !defined(CLR_FORCE_SCALAR) && defined(__aarch64__) && defined(__ARM_NEON)
#define CLR_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace clr::simd {

#if defined(CLR_SIMD_X86) && defined(__AVX2__)

inline namespace avx2 {

inline constexpr std::size_t kWidth = 4;
inline constexpr const char* kBackend = "avx2";

struct VecD {
  __m256d v;
};

inline VecD load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void store(double* p, VecD a) { _mm256_storeu_pd(p, a.v); }
inline VecD set1(double x) { return {_mm256_set1_pd(x)}; }
inline VecD add(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VecD sub(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline VecD mul(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VecD div(VecD a, VecD b) { return {_mm256_div_pd(a.v, b.v)}; }
// Operand order: see the semantics contract above — (a < b) ? b : a.
inline VecD max(VecD a, VecD b) { return {_mm256_max_pd(b.v, a.v)}; }
inline VecD min(VecD a, VecD b) { return {_mm256_min_pd(b.v, a.v)}; }

}  // namespace avx2

#elif defined(CLR_SIMD_X86)

inline namespace sse2 {

inline constexpr std::size_t kWidth = 2;
inline constexpr const char* kBackend = "sse2";

struct VecD {
  __m128d v;
};

inline VecD load(const double* p) { return {_mm_loadu_pd(p)}; }
inline void store(double* p, VecD a) { _mm_storeu_pd(p, a.v); }
inline VecD set1(double x) { return {_mm_set1_pd(x)}; }
inline VecD add(VecD a, VecD b) { return {_mm_add_pd(a.v, b.v)}; }
inline VecD sub(VecD a, VecD b) { return {_mm_sub_pd(a.v, b.v)}; }
inline VecD mul(VecD a, VecD b) { return {_mm_mul_pd(a.v, b.v)}; }
inline VecD div(VecD a, VecD b) { return {_mm_div_pd(a.v, b.v)}; }
inline VecD max(VecD a, VecD b) { return {_mm_max_pd(b.v, a.v)}; }
inline VecD min(VecD a, VecD b) { return {_mm_min_pd(b.v, a.v)}; }

}  // namespace sse2

#elif defined(CLR_SIMD_NEON)

inline namespace neon {

inline constexpr std::size_t kWidth = 2;
inline constexpr const char* kBackend = "neon";

struct VecD {
  float64x2_t v;
};

inline VecD load(const double* p) { return {vld1q_f64(p)}; }
inline void store(double* p, VecD a) { vst1q_f64(p, a.v); }
inline VecD set1(double x) { return {vdupq_n_f64(x)}; }
inline VecD add(VecD a, VecD b) { return {vaddq_f64(a.v, b.v)}; }
inline VecD sub(VecD a, VecD b) { return {vsubq_f64(a.v, b.v)}; }
inline VecD mul(VecD a, VecD b) { return {vmulq_f64(a.v, b.v)}; }
inline VecD div(VecD a, VecD b) { return {vdivq_f64(a.v, b.v)}; }
// vmaxq_f64 returns NaN when either input is NaN; std::max does not. Compare
// + bitwise-select reproduces (a < b) ? b : a exactly (an unordered compare
// yields all-zero lanes, selecting a).
inline VecD max(VecD a, VecD b) {
  return {vbslq_f64(vcltq_f64(a.v, b.v), b.v, a.v)};
}
inline VecD min(VecD a, VecD b) {
  return {vbslq_f64(vcltq_f64(b.v, a.v), b.v, a.v)};
}

}  // namespace neon

#else

inline namespace scalar {

inline constexpr std::size_t kWidth = 1;
inline constexpr const char* kBackend = "scalar";

struct VecD {
  double v;
};

inline VecD load(const double* p) { return {*p}; }
inline void store(double* p, VecD a) { *p = a.v; }
inline VecD set1(double x) { return {x}; }
inline VecD add(VecD a, VecD b) { return {a.v + b.v}; }
inline VecD sub(VecD a, VecD b) { return {a.v - b.v}; }
inline VecD mul(VecD a, VecD b) { return {a.v * b.v}; }
inline VecD div(VecD a, VecD b) { return {a.v / b.v}; }
inline VecD max(VecD a, VecD b) { return {a.v < b.v ? b.v : a.v}; }
inline VecD min(VecD a, VecD b) { return {b.v < a.v ? b.v : a.v}; }

}  // namespace scalar

#endif

/// The reference semantics every backend must reproduce bitwise; the shim
/// unit test runs each op against these on denormal/NaN/boundary inputs.
namespace scalar_ref {
inline double add(double a, double b) { return a + b; }
inline double sub(double a, double b) { return a - b; }
inline double mul(double a, double b) { return a * b; }
inline double div(double a, double b) { return a / b; }
inline double max(double a, double b) { return a < b ? b : a; }
inline double min(double a, double b) { return b < a ? b : a; }
}  // namespace scalar_ref

}  // namespace clr::simd
