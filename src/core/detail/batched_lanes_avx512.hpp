#pragma once

// AVX-512 specialization of the batched window sweep's phase-2 hot loop
// (see batched_lanes.hpp). Only compiled when the target has AVX-512F and
// FMA (KREG_NATIVE builds on such machines); the generic auto-vectorized
// path remains the portable default and the two produce bit-identical
// profiles because each lane executes the scalar sweep's exact
// floating-point operation sequence:
//
//   - phase-1 pointer walks test 8 admission candidates per vector
//     compare and stop at the same first-failing element as the scalar
//     walk (phase 1 carries no FP state, so identical stopping points
//     mean identical extents);
//   - admissions stay in the scalar order (left side descending, then
//     right side ascending), realized here as two separate step loops so
//     the gather index is a linear function of the step — no per-lane
//     select, no branch;
//   - masked hardware gathers (vgatherqpd) feed exact zeros into lanes
//     that ran out of admissions, the same ±0.0-padding discipline the
//     generic path uses;
//   - contiguous runs — all of a group's step-0 bases inside one
//     16-double window, the common case because batches are consecutive
//     rows of the sorted array — swap
//     the gather for two full-width loads + a masked two-register permute
//     (vpermt2pd) selecting the very same elements with the very same
//     masked zeros, so consumed values are unchanged bit for bit; runs
//     are clipped where the block read would leave [0, n) and the gather
//     resumes seamlessly (see batched_lanes_contig.hpp);
//   - |xi − xl| is computed as a sign-bit mask of (xi − xl), which is
//     IEEE-identical to the scalar sweep's compare-and-subtract;
//   - t_m ← t_m + y·pw stays an explicit multiply-then-add, matching the
//     scalar TU exactly because this path is only enabled together with
//     -ffp-contract=off (the KREG_NATIVE configuration, which defines
//     KREG_FP_CONTRACT_OFF); under the default -ffp-contract=fast, GCC
//     contracts or not per call site, so no intrinsic choice could match
//     every inlined copy of the scalar sweep at once;
//   - moment sums live in zmm registers across the whole grid slice, one
//     register per (term, 8-lane group), instead of round-tripping
//     through memory every step.
//
// Lane widths map onto V = C/8 zmm register groups: C = 8 is one group,
// C = 16 two (two independent gather/multiply dependency chains, which is
// what hides the gather latency on one core).

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

#include "core/batch_stats.hpp"
#include "core/kernels.hpp"
#include "core/detail/batched_lanes_contig.hpp"

namespace kreg::detail {

template <class Scalar, std::size_t C>
struct LaneBatch;

/// Blocked phase-1 pointer walks: test 8 admission candidates per compare
/// instead of one. The scalar walk stops at the *first* failing element;
/// counting the leading (left walk, descending) or trailing (right walk,
/// ascending) accepted lanes of the 8-wide predicate mask stops at exactly
/// the same element — each lane evaluates the scalar predicate's own
/// subtract-and-compare, and phase 1 carries no floating-point state, so
/// the extents are identical integers. The scalar loop serves the < 8
/// remaining candidates at the array edges.
inline std::size_t walk_lo_avx512(double x, const double* xs, std::size_t lo,
                                  double h) {
  const __m512d vx = _mm512_set1_pd(x);
  const __m512d vh = _mm512_set1_pd(h);
  while (lo >= 8) {
    const __m512d vs = _mm512_loadu_pd(xs + lo - 8);
    const __mmask8 m =
        _mm512_cmp_pd_mask(_mm512_sub_pd(vx, vs), vh, _CMP_LE_OQ);
    const auto acc = static_cast<std::size_t>(
        std::countl_one(static_cast<unsigned char>(m)));
    lo -= acc;
    if (acc < 8) {
      return lo;
    }
  }
  while (lo > 0 && x - xs[lo - 1] <= h) {
    --lo;
  }
  return lo;
}

inline std::size_t walk_hi_avx512(double x, const double* xs, std::size_t hi,
                                  std::size_t n, double h) {
  const __m512d vx = _mm512_set1_pd(x);
  const __m512d vh = _mm512_set1_pd(h);
  while (hi + 8 < n) {
    const __m512d vs = _mm512_loadu_pd(xs + hi + 1);
    const __mmask8 m =
        _mm512_cmp_pd_mask(_mm512_sub_pd(vs, vx), vh, _CMP_LE_OQ);
    const auto acc = static_cast<std::size_t>(
        std::countr_one(static_cast<unsigned char>(m)));
    hi += acc;
    if (acc < 8) {
      return hi;
    }
  }
  while (hi + 1 < n && xs[hi + 1] - x <= h) {
    ++hi;
  }
  return hi;
}

/// Compile-time-terms AVX-512 resume for LaneBatch<double, 8·V>.
/// Bit-for-bit the operations of `window_sweep_resume` per lane.
template <std::size_t T, std::size_t V, class HView, class WriteResid>
inline void batch_resume_avx512_impl(LaneBatch<double, 8 * V>& st,
                                     std::span<const double> xs_sorted,
                                     std::span<const double> ys_sorted,
                                     HView hs, const SweepPolynomial& poly,
                                     WriteResid&& write,
                                     BatchRunStats* stats) {
  constexpr std::size_t C = 8 * V;
  const std::size_t n = xs_sorted.size();
  const std::size_t k = hs.size();
  const double* xs = xs_sorted.data();
  const double* ys = ys_sorted.data();

  __m512d sm[T][V], tm[T][V], xi[V];
  for (std::size_t m = 0; m < T; ++m) {
    for (std::size_t v = 0; v < V; ++v) {
      sm[m][v] = _mm512_loadu_pd(st.s_m[m] + 8 * v);
      tm[m][v] = _mm512_loadu_pd(st.t_m[m] + 8 * v);
    }
  }
  for (std::size_t v = 0; v < V; ++v) {
    xi[v] = _mm512_loadu_pd(st.xi.data() + 8 * v);
  }
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d zero = _mm512_setzero_pd();
  const __m512i onei = _mm512_set1_epi64(1);
  const __m512d absmask =
      _mm512_castsi512_pd(_mm512_set1_epi64(0x7fffffffffffffffLL));

  alignas(64) std::int64_t cnt[C], base[C];
  alignas(64) double smbuf[T][C], tmbuf[T][C];
  alignas(64) double num[C], den[C];
  std::array<std::size_t, C> lo_new{}, hi_new{};

  for (std::size_t b = 0; b < k; ++b) {
    const double h = hs[b];

    // Phase 1: blocked pointer walks (8 candidates per compare), same
    // admission predicate and the same stopping element as the scalar
    // sweep — see walk_lo_avx512/walk_hi_avx512 above.
    for (std::size_t l = 0; l < st.lanes; ++l) {
      const double x = st.xi[l];
      lo_new[l] = walk_lo_avx512(x, xs, st.lo[l], h);
      hi_new[l] = walk_hi_avx512(x, xs, st.hi[l], n, h);
    }

    // Phase 2: left run (descending from the old lo − 1), then right run
    // (ascending from the old hi + 1) — the scalar admission order. Each
    // 8-lane group runs its own step loop so the contiguous-run detection
    // (batched_lanes_contig.hpp) applies per group: the bases are fixed
    // for the whole run, so when the group's active bases fit one
    // 16-double window the per-step masked gather becomes two full-width
    // loads + one masked two-register permute (vpermt2pd) — the same
    // elements and the same masked zeros, so bitwise-identical values —
    // and the remaining (bounds-clipped) steps fall back to the gather.
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
        std::size_t gmax = 0;
        for (std::size_t l = 8 * v; l < 8 * v + 8; ++l) {
          const auto c = static_cast<std::size_t>(cnt[l]);
          gmax = c > gmax ? c : gmax;
        }
        if (gmax == 0) {
          continue;
        }
        const ContigRun run =
            detect_contig_run(cnt + 8 * v, base + 8 * v, 8, gmax, n, left);
        __m512i vpidx = _mm512_setzero_si512();
        if (run.steps != 0) {
          alignas(64) std::int64_t pidx[8];
          for (std::size_t l = 0; l < 8; ++l) {
            pidx[l] =
                cnt[8 * v + l] > 0 ? base[8 * v + l] - run.min_base : 0;
          }
          vpidx = _mm512_load_si512(pidx);
        }
        if (stats != nullptr) {
          stats->contig_steps += run.steps;
          stats->gather_steps += gmax - run.steps;
        }
        const __m512i vcnt = _mm512_load_si512(cnt + 8 * v);
        const __m512i vbase = _mm512_load_si512(base + 8 * v);
        __m512i vs = _mm512_setzero_si512();
        for (std::size_t s = 0; s < gmax; ++s) {
          const __mmask8 act = _mm512_cmplt_epi64_mask(vs, vcnt);
          __m512d xv, yv;
          if (s < run.steps) {
            const std::int64_t blk =
                left ? run.min_base - static_cast<std::int64_t>(s)
                     : run.min_base + static_cast<std::int64_t>(s);
            const double* px = xs + blk;
            const double* py = ys + blk;
            xv = _mm512_maskz_permutex2var_pd(act, _mm512_loadu_pd(px),
                                              vpidx, _mm512_loadu_pd(px + 8));
            yv = _mm512_maskz_permutex2var_pd(act, _mm512_loadu_pd(py),
                                              vpidx, _mm512_loadu_pd(py + 8));
          } else {
            const __m512i vidx = left ? _mm512_sub_epi64(vbase, vs)
                                      : _mm512_add_epi64(vbase, vs);
            xv = _mm512_mask_i64gather_pd(zero, act, vidx, xs, 8);
            yv = _mm512_mask_i64gather_pd(zero, act, vidx, ys, 8);
          }
          const __m512d dv = _mm512_and_pd(absmask, _mm512_sub_pd(xi[v], xv));
          __m512d pw = _mm512_mask_blend_pd(act, zero, one);
          vs = _mm512_add_epi64(vs, onei);
          for (std::size_t m = 0; m < T; ++m) {
            sm[m][v] = _mm512_add_pd(sm[m][v], pw);
            tm[m][v] = _mm512_add_pd(tm[m][v], _mm512_mul_pd(yv, pw));
            pw = _mm512_mul_pd(pw, dv);
          }
        }
      }
      if (phase == 1) {
        for (std::size_t l = 0; l < st.lanes; ++l) {
          st.lo[l] = lo_new[l];
          st.hi[l] = hi_new[l];
        }
      }
    }

    // Phase 3: recombination, identical expression shapes to the generic
    // path (spilled to buffers — k iterations, cold next to phase 2).
    for (std::size_t m = 0; m < T; ++m) {
      for (std::size_t v = 0; v < V; ++v) {
        _mm512_store_pd(smbuf[m] + 8 * v, sm[m][v]);
        _mm512_store_pd(tmbuf[m] + 8 * v, tm[m][v]);
      }
    }
    for (std::size_t l = 0; l < C; ++l) {
      num[l] = 0.0;
      den[l] = 0.0;
    }
    const double inv_h = 1.0 / h;
    double inv_pow = 1.0;
    for (std::size_t m = 0; m < T; ++m) {
      const double c = poly.coeff[m];
      if (c != 0.0) {
        if (m == 0) {
          for (std::size_t l = 0; l < C; ++l) {
            num[l] += c * (tmbuf[0][l] - st.yi[l]) * inv_pow;
          }
          for (std::size_t l = 0; l < C; ++l) {
            den[l] += c * (smbuf[0][l] - 1.0) * inv_pow;
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
      const double dd = den[l];
      const double guarded = dd > 0.0 ? dd : 1.0;
      const double e = st.yi[l] - num[l] / guarded;
      write(b, l, dd > 0.0 ? e * e : 0.0);
    }
  }

  for (std::size_t m = 0; m < T; ++m) {
    for (std::size_t v = 0; v < V; ++v) {
      _mm512_storeu_pd(st.s_m[m] + 8 * v, sm[m][v]);
      _mm512_storeu_pd(st.t_m[m] + 8 * v, tm[m][v]);
    }
  }
}

/// Runtime→compile-time dispatch on the polynomial's term count. Returns
/// false (caller falls back to the generic path) for term counts outside
/// the supported 1…kMaxPower+1 range.
template <std::size_t C, class HView, class WriteResid>
inline bool batch_resume_avx512(LaneBatch<double, C>& st,
                                std::span<const double> xs_sorted,
                                std::span<const double> ys_sorted, HView hs,
                                const SweepPolynomial& poly,
                                WriteResid&& write, BatchRunStats* stats) {
  static_assert(C % 8 == 0);
  constexpr std::size_t V = C / 8;
  switch (poly.max_power + 1) {
    case 1:
      batch_resume_avx512_impl<1, V>(st, xs_sorted, ys_sorted, hs, poly,
                                     write, stats);
      return true;
    case 2:
      batch_resume_avx512_impl<2, V>(st, xs_sorted, ys_sorted, hs, poly,
                                     write, stats);
      return true;
    case 3:
      batch_resume_avx512_impl<3, V>(st, xs_sorted, ys_sorted, hs, poly,
                                     write, stats);
      return true;
    case 4:
      batch_resume_avx512_impl<4, V>(st, xs_sorted, ys_sorted, hs, poly,
                                     write, stats);
      return true;
    case 5:
      batch_resume_avx512_impl<5, V>(st, xs_sorted, ys_sorted, hs, poly,
                                     write, stats);
      return true;
    case 6:
      batch_resume_avx512_impl<6, V>(st, xs_sorted, ys_sorted, hs, poly,
                                     write, stats);
      return true;
    case 7:
      batch_resume_avx512_impl<7, V>(st, xs_sorted, ys_sorted, hs, poly,
                                     write, stats);
      return true;
    default:
      return false;
  }
}

}  // namespace kreg::detail

#endif  // KREG_HAVE_BATCHED_AVX512
