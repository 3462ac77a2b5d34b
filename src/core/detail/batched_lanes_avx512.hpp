#pragma once

// AVX-512 specialization of the batched window sweep's phase-2 hot loop
// (see batched_lanes.hpp). Only compiled when the target has AVX-512F and
// the build pins -ffp-contract=off (KREG_NATIVE builds on such machines);
// the generic auto-vectorized path remains the portable default and the
// two produce bit-identical profiles because each lane executes the scalar
// sweep's exact floating-point operation sequence.
//
// One kernel body serves both precisions through the `Zmm<Scalar>` traits
// below: a zmm register holds W = 64 / sizeof(Scalar) lanes — 8 doubles or
// 16 floats — and every step of the kernel is written in terms of W:
//
//   - phase-1 pointer walks test W admission candidates per vector
//     compare and stop at the same first-failing element as the scalar
//     walk (phase 1 carries no FP state, so identical stopping points
//     mean identical extents);
//   - admissions stay in the scalar order (left side descending, then
//     right side ascending), realized here as two separate step loops so
//     the gather index is a linear function of the step — no per-lane
//     select, no branch;
//   - masked hardware gathers with 64-bit indices (vgatherqpd, or two
//     vgatherqps halves for float) feed exact zeros into lanes that ran
//     out of admissions, the same ±0.0-padding discipline the generic
//     path uses, at any n;
//   - contiguous runs — all of a group's step-0 bases inside one 2W-element
//     window (16 doubles, 32 floats), the common case because batches are
//     consecutive rows of the sorted array — swap the gather for two
//     full-width loads + a masked two-register permute (vpermt2pd /
//     vpermt2ps) selecting the very same elements with the very same
//     masked zeros, so consumed values are unchanged bit for bit; runs
//     are clipped where the block read would leave [0, n) and the gather
//     resumes seamlessly (see batched_lanes_contig.hpp);
//   - |xi − xl| is computed by clearing the sign bit of (xi − xl), which is
//     IEEE-identical to the scalar sweep's compare-and-subtract;
//   - t_m ← t_m + y·pw stays an explicit multiply-then-add, matching the
//     scalar TU exactly because this path is only enabled together with
//     -ffp-contract=off (the KREG_NATIVE configuration, which defines
//     KREG_FP_CONTRACT_OFF); under the default -ffp-contract=fast, GCC
//     contracts or not per call site, so no intrinsic choice could match
//     every inlined copy of the scalar sweep at once;
//   - moment sums live in zmm registers across the whole grid slice, one
//     register per (term, W-lane group), instead of round-tripping
//     through memory every step.
//
// A lane width C maps onto V = C / W register groups, so the kernel serves
// every width that is a multiple of W: doubles at C = 8 and 16, floats at
// C = 16 (float C = 8 is half a register and runs the generic path).

#if defined(__AVX512F__) && defined(KREG_FP_CONTRACT_OFF)
#define KREG_HAVE_BATCHED_AVX512 1
#else
#define KREG_HAVE_BATCHED_AVX512 0
#endif

#if KREG_HAVE_BATCHED_AVX512

#include <immintrin.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "core/batch_stats.hpp"
#include "core/kernels.hpp"
#include "core/detail/batched_lanes_contig.hpp"

namespace kreg::detail {

template <class Scalar, std::size_t C>
struct LaneBatch;

/// The zmm vocabulary the kernel is written in, per scalar type: the
/// register and mask types, W lanes per register, and the handful of
/// operations the sweep needs. Lane counts and step indices stay 64-bit
/// (`__m512i` holds 8 of them, so a W-lane group uses W / 8 index
/// registers).
template <class Scalar>
struct Zmm;

template <>
struct Zmm<double> {
  using Reg = __m512d;
  using Mask = __mmask8;
  using PermIndex = std::int64_t;  ///< vpermt2pd selects by 64-bit index
  static constexpr std::size_t kWidth = 8;

  static Reg load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, Reg v) { _mm512_storeu_pd(p, v); }
  static Reg set1(double x) { return _mm512_set1_pd(x); }
  static Reg zero() { return _mm512_setzero_pd(); }
  static Reg add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm512_sub_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }
  static Reg abs(Reg a) { return _mm512_abs_pd(a); }
  static Mask le(Reg a, Reg b) { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
  static Reg blend(Mask m, Reg a, Reg b) {
    return _mm512_mask_blend_pd(m, a, b);
  }
  /// Lane l ← (lo:hi)[idx_l] where m is set, +0.0 elsewhere.
  static Reg permute2(Mask m, Reg lo, __m512i idx, Reg hi) {
    return _mm512_maskz_permutex2var_pd(m, lo, idx, hi);
  }
  /// Lanes with s < cnt_l.
  static Mask active(const __m512i* cnt, __m512i s) {
    return _mm512_cmplt_epi64_mask(s, cnt[0]);
  }
  /// Lane l ← p[idx_l] where m is set, +0.0 elsewhere.
  static Reg gather(Mask m, const __m512i* idx, const double* p) {
    return _mm512_mask_i64gather_pd(zero(), m, idx[0], p, 8);
  }
};

template <>
struct Zmm<float> {
  using Reg = __m512;
  using Mask = __mmask16;
  using PermIndex = std::int32_t;  ///< vpermt2ps selects by 32-bit index
  static constexpr std::size_t kWidth = 16;

  static Reg load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, Reg v) { _mm512_storeu_ps(p, v); }
  static Reg set1(float x) { return _mm512_set1_ps(x); }
  static Reg zero() { return _mm512_setzero_ps(); }
  static Reg add(Reg a, Reg b) { return _mm512_add_ps(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm512_sub_ps(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm512_mul_ps(a, b); }
  static Reg abs(Reg a) { return _mm512_abs_ps(a); }
  static Mask le(Reg a, Reg b) { return _mm512_cmp_ps_mask(a, b, _CMP_LE_OQ); }
  static Reg blend(Mask m, Reg a, Reg b) {
    return _mm512_mask_blend_ps(m, a, b);
  }
  static Reg permute2(Mask m, Reg lo, __m512i idx, Reg hi) {
    return _mm512_maskz_permutex2var_ps(m, lo, idx, hi);
  }
  static Mask active(const __m512i* cnt, __m512i s) {
    return _mm512_kunpackb(_mm512_cmplt_epi64_mask(s, cnt[1]),
                           _mm512_cmplt_epi64_mask(s, cnt[0]));
  }
  /// Two 8-lane 64-bit-index gathers, one per register half, joined by a
  /// permute (the insert intrinsics trip -Wmaybe-uninitialized in GCC 12).
  static Reg gather(Mask m, const __m512i* idx, const float* p) {
    const __m256 lo = _mm512_mask_i64gather_ps(
        _mm256_setzero_ps(), static_cast<__mmask8>(m), idx[0], p, 4);
    const __m256 hi = _mm512_mask_i64gather_ps(
        _mm256_setzero_ps(), static_cast<__mmask8>(m >> 8), idx[1], p, 4);
    const __m512i halves = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 16, 17,
                                             18, 19, 20, 21, 22, 23);
    return _mm512_permutex2var_ps(_mm512_castps256_ps512(lo), halves,
                                  _mm512_castps256_ps512(hi));
  }
};

/// True when the zmm kernel serves LaneBatch<Scalar, C>: C is a whole
/// number of registers.
template <class Scalar, std::size_t C>
inline constexpr bool kZmmServes =
    (std::is_same_v<Scalar, float> || std::is_same_v<Scalar, double>) &&
    C % (64 / sizeof(Scalar)) == 0;

/// Blocked phase-1 pointer walks: test W admission candidates per compare
/// instead of one. The scalar walk stops at the *first* failing element;
/// counting the leading (left walk, descending) or trailing (right walk,
/// ascending) accepted lanes of the W-wide predicate mask stops at exactly
/// the same element — each lane evaluates the scalar predicate's own
/// subtract-and-compare, and phase 1 carries no floating-point state, so
/// the extents are identical integers. The scalar loop serves the < W
/// remaining candidates at the array edges.
template <class Scalar>
inline std::size_t walk_lo_zmm(Scalar x, const Scalar* xs, std::size_t lo,
                               Scalar h) {
  using Z = Zmm<Scalar>;
  constexpr std::size_t W = Z::kWidth;
  const typename Z::Reg vx = Z::set1(x);
  const typename Z::Reg vh = Z::set1(h);
  while (lo >= W) {
    const typename Z::Mask m = Z::le(Z::sub(vx, Z::load(xs + lo - W)), vh);
    const auto acc = static_cast<std::size_t>(std::countl_one(m));
    lo -= acc;
    if (acc < W) {
      return lo;
    }
  }
  while (lo > 0 && x - xs[lo - 1] <= h) {
    --lo;
  }
  return lo;
}

template <class Scalar>
inline std::size_t walk_hi_zmm(Scalar x, const Scalar* xs, std::size_t hi,
                               std::size_t n, Scalar h) {
  using Z = Zmm<Scalar>;
  constexpr std::size_t W = Z::kWidth;
  const typename Z::Reg vx = Z::set1(x);
  const typename Z::Reg vh = Z::set1(h);
  while (hi + W < n) {
    const typename Z::Mask m = Z::le(Z::sub(Z::load(xs + hi + 1), vx), vh);
    const auto acc = static_cast<std::size_t>(std::countr_one(m));
    hi += acc;
    if (acc < W) {
      return hi;
    }
  }
  while (hi + 1 < n && xs[hi + 1] - x <= h) {
    ++hi;
  }
  return hi;
}

/// Compile-time-terms AVX-512 resume for LaneBatch<Scalar, C>.
/// Bit-for-bit the operations of `window_sweep_resume` per lane.
template <std::size_t T, class Scalar, std::size_t C, class HView,
          class WriteResid>
inline void batch_resume_zmm_impl(LaneBatch<Scalar, C>& st,
                                  std::span<const Scalar> xs_sorted,
                                  std::span<const Scalar> ys_sorted, HView hs,
                                  const SweepPolynomial& poly,
                                  WriteResid&& write, BatchRunStats* stats) {
  using Z = Zmm<Scalar>;
  using Reg = typename Z::Reg;
  using Mask = typename Z::Mask;
  using PermIndex = typename Z::PermIndex;
  constexpr std::size_t W = Z::kWidth;
  constexpr std::size_t V = C / W;  // register groups per batch
  constexpr std::size_t R = W / 8;  // 64-bit index registers per group
  const std::size_t n = xs_sorted.size();
  const std::size_t k = hs.size();
  const Scalar* xs = xs_sorted.data();
  const Scalar* ys = ys_sorted.data();

  Reg sm[T][V], tm[T][V], xi[V];
  for (std::size_t m = 0; m < T; ++m) {
    for (std::size_t v = 0; v < V; ++v) {
      sm[m][v] = Z::load(st.s_m[m] + W * v);
      tm[m][v] = Z::load(st.t_m[m] + W * v);
    }
  }
  for (std::size_t v = 0; v < V; ++v) {
    xi[v] = Z::load(st.xi.data() + W * v);
  }
  const Reg one = Z::set1(Scalar{1});
  const Reg zero = Z::zero();

  alignas(64) std::int64_t cnt[C], base[C];
  alignas(64) Scalar smbuf[T][C], tmbuf[T][C];
  alignas(64) Scalar num[C], den[C];
  std::array<std::size_t, C> lo_new{}, hi_new{};

  for (std::size_t b = 0; b < k; ++b) {
    const Scalar h = hs[b];

    // Phase 1: blocked pointer walks (W candidates per compare), same
    // admission predicate and the same stopping element as the scalar
    // sweep — see walk_lo_zmm/walk_hi_zmm above.
    for (std::size_t l = 0; l < st.lanes; ++l) {
      const Scalar x = st.xi[l];
      lo_new[l] = walk_lo_zmm(x, xs, st.lo[l], h);
      hi_new[l] = walk_hi_zmm(x, xs, st.hi[l], n, h);
    }

    // Phase 2: left run (descending from the old lo − 1), then right run
    // (ascending from the old hi + 1) — the scalar admission order. Each
    // W-lane group runs its own step loop so the contiguous-run detection
    // (batched_lanes_contig.hpp) applies per group: the bases are fixed
    // for the whole run, so when the group's active bases fit one
    // 2W-element window the per-step masked gather becomes two full-width
    // loads + one masked two-register permute — the same elements and the
    // same masked zeros, so bitwise-identical values — and the remaining
    // (bounds-clipped) steps fall back to the gather.
    for (int phase = 0; phase < 2; ++phase) {
      const bool left = phase == 0;
      for (std::size_t l = 0; l < st.lanes; ++l) {
        if (left) {
          cnt[l] = static_cast<std::int64_t>(st.lo[l] - lo_new[l]);
          base[l] = static_cast<std::int64_t>(st.lo[l]) - 1;
        } else {
          cnt[l] = static_cast<std::int64_t>(hi_new[l] - st.hi[l]);
          base[l] = static_cast<std::int64_t>(st.hi[l]) + 1;
        }
      }
      for (std::size_t l = st.lanes; l < C; ++l) {
        cnt[l] = 0;
        base[l] = 0;
      }
      for (std::size_t v = 0; v < V; ++v) {
        const std::int64_t* gcnt = cnt + W * v;
        const std::int64_t* gbase = base + W * v;
        std::size_t gmax = 0;
        for (std::size_t l = 0; l < W; ++l) {
          const auto c = static_cast<std::size_t>(gcnt[l]);
          gmax = c > gmax ? c : gmax;
        }
        if (gmax == 0) {
          continue;
        }
        const ContigRun run =
            detect_contig_run(gcnt, gbase, W, gmax, n, left, 2 * W);
        __m512i vpidx = _mm512_setzero_si512();
        if (run.steps != 0) {
          alignas(64) PermIndex pidx[W];
          for (std::size_t l = 0; l < W; ++l) {
            pidx[l] = gcnt[l] > 0
                          ? static_cast<PermIndex>(gbase[l] - run.min_base)
                          : 0;
          }
          vpidx = _mm512_load_si512(pidx);
        }
        if (stats != nullptr) {
          stats->contig_steps += run.steps;
          stats->gather_steps += gmax - run.steps;
        }
        __m512i vcnt[R], vbase[R];
        for (std::size_t r = 0; r < R; ++r) {
          vcnt[r] = _mm512_load_si512(gcnt + 8 * r);
          vbase[r] = _mm512_load_si512(gbase + 8 * r);
        }
        for (std::size_t s = 0; s < gmax; ++s) {
          const auto si = static_cast<std::int64_t>(s);
          const __m512i vs = _mm512_set1_epi64(si);
          const Mask act = Z::active(vcnt, vs);
          Reg xv, yv;
          if (s < run.steps) {
            const std::int64_t blk = left ? run.min_base - si
                                          : run.min_base + si;
            const Scalar* px = xs + blk;
            const Scalar* py = ys + blk;
            xv = Z::permute2(act, Z::load(px), vpidx, Z::load(px + W));
            yv = Z::permute2(act, Z::load(py), vpidx, Z::load(py + W));
          } else {
            __m512i vidx[R];
            for (std::size_t r = 0; r < R; ++r) {
              vidx[r] = left ? _mm512_sub_epi64(vbase[r], vs)
                             : _mm512_add_epi64(vbase[r], vs);
            }
            xv = Z::gather(act, vidx, xs);
            yv = Z::gather(act, vidx, ys);
          }
          const Reg dv = Z::abs(Z::sub(xi[v], xv));
          Reg pw = Z::blend(act, zero, one);
          for (std::size_t m = 0; m < T; ++m) {
            sm[m][v] = Z::add(sm[m][v], pw);
            tm[m][v] = Z::add(tm[m][v], Z::mul(yv, pw));
            pw = Z::mul(pw, dv);
          }
        }
      }
    }
    for (std::size_t l = 0; l < st.lanes; ++l) {
      st.lo[l] = lo_new[l];
      st.hi[l] = hi_new[l];
    }

    // Phase 3: recombination, identical expression shapes to the generic
    // path (spilled to buffers — k iterations, cold next to phase 2).
    for (std::size_t m = 0; m < T; ++m) {
      for (std::size_t v = 0; v < V; ++v) {
        Z::store(smbuf[m] + W * v, sm[m][v]);
        Z::store(tmbuf[m] + W * v, tm[m][v]);
      }
    }
    for (std::size_t l = 0; l < C; ++l) {
      num[l] = Scalar{0};
      den[l] = Scalar{0};
    }
    const Scalar inv_h = Scalar{1} / h;
    Scalar inv_pow = Scalar{1};
    for (std::size_t m = 0; m < T; ++m) {
      const auto c = static_cast<Scalar>(poly.coeff[m]);
      if (c != Scalar{0}) {
        if (m == 0) {
          for (std::size_t l = 0; l < C; ++l) {
            num[l] += c * (tmbuf[0][l] - st.yi[l]) * inv_pow;
          }
          for (std::size_t l = 0; l < C; ++l) {
            den[l] += c * (smbuf[0][l] - Scalar{1}) * inv_pow;
          }
        } else {
          for (std::size_t l = 0; l < C; ++l) {
            num[l] += c * tmbuf[m][l] * inv_pow;
          }
          for (std::size_t l = 0; l < C; ++l) {
            den[l] += c * smbuf[m][l] * inv_pow;
          }
        }
      }
      inv_pow *= inv_h;
    }
    for (std::size_t l = 0; l < st.lanes; ++l) {
      const Scalar dd = den[l];
      const Scalar guarded = dd > Scalar{0} ? dd : Scalar{1};
      const Scalar e = st.yi[l] - num[l] / guarded;
      write(b, l, dd > Scalar{0} ? e * e : Scalar{0});
    }
  }

  for (std::size_t m = 0; m < T; ++m) {
    for (std::size_t v = 0; v < V; ++v) {
      Z::store(st.s_m[m] + W * v, sm[m][v]);
      Z::store(st.t_m[m] + W * v, tm[m][v]);
    }
  }
}

/// Runtime→compile-time dispatch on the polynomial's term count. Returns
/// false (caller falls back to the generic path) for term counts outside
/// the supported 1…kMaxPower+1 range.
template <class Scalar, std::size_t C, class HView, class WriteResid>
inline bool batch_resume_zmm(LaneBatch<Scalar, C>& st,
                             std::span<const Scalar> xs_sorted,
                             std::span<const Scalar> ys_sorted, HView hs,
                             const SweepPolynomial& poly, WriteResid&& write,
                             BatchRunStats* stats) {
  static_assert(kZmmServes<Scalar, C>);
  const auto run = [&](auto terms) {
    batch_resume_zmm_impl<decltype(terms)::value>(st, xs_sorted, ys_sorted,
                                                  hs, poly, write, stats);
    return true;
  };
  switch (poly.max_power + 1) {
    case 1:
      return run(std::integral_constant<std::size_t, 1>{});
    case 2:
      return run(std::integral_constant<std::size_t, 2>{});
    case 3:
      return run(std::integral_constant<std::size_t, 3>{});
    case 4:
      return run(std::integral_constant<std::size_t, 4>{});
    case 5:
      return run(std::integral_constant<std::size_t, 5>{});
    case 6:
      return run(std::integral_constant<std::size_t, 6>{});
    case 7:
      return run(std::integral_constant<std::size_t, 7>{});
    default:
      return false;
  }
}

}  // namespace kreg::detail

#endif  // KREG_HAVE_BATCHED_AVX512
