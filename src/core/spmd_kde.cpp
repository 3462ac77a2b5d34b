#include "core/spmd_kde.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/detail/device_sweep.hpp"
#include "core/detail/kde_polynomials.hpp"
#include "core/detail/lane_reduce.hpp"
#include "core/detail/window_tiles.hpp"
#include "sort/introsort.hpp"
#include "sort/iterative_quicksort.hpp"

namespace kreg {

namespace {

constexpr std::size_t kSums = detail::kKdeMaxMoment + 1;

/// The KDE window sweep's tile byte model: the window model with one data
/// array (the sorted x) and two admission windows carried per row, each a
/// lo/hi pointer pair and a kSums-long moment-sum array.
detail::WindowTileModel kde_tile_model(std::size_t n, std::size_t k,
                                       std::size_t lane_dim) {
  return {.n = n, .rows = n, .k = k, .elem = sizeof(double), .terms = kSums,
          .lane_dim = lane_dim, .arrays = 1, .pointers = 4};
}

/// The KDE window sweep on a device: one tile loop for every plan, the LSCV
/// counterpart of the NW sweep's detail::run_window_tiles.
///
/// Sweeps the host-sorted x over the ascending `host_grid` in n-blocks ×
/// k-blocks and returns the k per-bandwidth LSCV-partial totals. Each
/// n-block uploads only its halo slab of x — the halo reach is the widest
/// admission of either window at h_max, max(K, K̄ support scale)·h_max — so
/// an n-resident plan uploads all of x. Each k-block uploads its slice of
/// the grid to constant memory and runs one `kde_lscv_sweep` launch, which
/// seeds both admission windows on the first k-block and resumes them
/// after. The plan shape changes only what is kept between tiles:
///   - more than one k-block: both windows' moment sums and pointers carry
///     between k-blocks in O(n_block) device buffers;
///   - more than one n-block: partials fold into per-lane accumulators and
///     one tree replay per bandwidth finishes the reduction (see
///     lane_reduce.hpp); otherwise each k-block's partial columns reduce
///     right away.
/// A resident plan is the 1×1 tiling and keeps neither. Every plan performs
/// the resident sweep's arithmetic in the resident order, so the totals
/// agree bitwise across tilings.
std::vector<double> run_kde_tiles(spmd::Device& device,
                                  const SpmdKdeConfig& config,
                                  std::span<const double> host_x,
                                  std::span<const double> host_grid,
                                  const detail::SupportPolynomial& kpoly,
                                  const detail::SupportPolynomial& cpoly,
                                  const StreamingPlan& plan, std::size_t tpb) {
  const std::size_t n = host_x.size();
  const std::size_t k = host_grid.size();
  const std::size_t lane_dim = spmd::detail::reduction_block_dim(device, tpb);
  const double reach =
      std::max(kpoly.support_scale, cpoly.support_scale) * host_grid.back();
  const bool carried = plan.blocks(k) > 1;
  const bool lane_carried = plan.n_blocks(n) > 1;

  // Carried per-(bandwidth, lane) partial-sum accumulators, zero-uploaded:
  // phase 1 of the resident reduction starts every lane at zero too.
  spmd::DeviceBuffer<double> d_lanes;
  if (lane_carried) {
    d_lanes = device.alloc_global<double>(k * lane_dim, "lscv-lanes");
    const std::vector<double> zeros(k * lane_dim, 0.0);
    device.copy_to_device(d_lanes, std::span<const double>(zeros));
  }
  spmd::MemView<double> lanes = d_lanes.view();

  std::vector<double> totals(k);
  for (std::size_t n0 = 0; n0 < n; n0 += plan.n_block) {
    const std::size_t nb = std::min(plan.n_block, n - n0);
    const std::size_t slab_begin = detail::halo_begin(host_x, n0, reach);
    const std::size_t slab =
        detail::halo_end(host_x, n0 + nb - 1, reach) - slab_begin;
    spmd::DeviceBuffer<double> d_x = device.alloc_global<double>(slab, "x");
    device.copy_to_device(d_x, host_x.subspan(slab_begin, slab));

    // Both admission windows' state, carried between k-blocks.
    spmd::DeviceBuffer<double> d_csums;
    spmd::DeviceBuffer<double> d_lsums;
    spmd::DeviceBuffer<std::size_t> d_clo;
    spmd::DeviceBuffer<std::size_t> d_chi;
    spmd::DeviceBuffer<std::size_t> d_llo;
    spmd::DeviceBuffer<std::size_t> d_lhi;
    if (carried) {
      d_csums = device.alloc_global<double>(nb * kSums, "conv-moments");
      d_lsums = device.alloc_global<double>(nb * kSums, "loo-moments");
      d_clo = device.alloc_global<std::size_t>(nb, "conv-lo");
      d_chi = device.alloc_global<std::size_t>(nb, "conv-hi");
      d_llo = device.alloc_global<std::size_t>(nb, "loo-lo");
      d_lhi = device.alloc_global<std::size_t>(nb, "loo-hi");
    }
    spmd::DeviceBuffer<double> d_partial =
        device.alloc_global<double>(nb * plan.k_block, "lscv-partials");

    std::span<const double> dxs = d_x.span();
    spmd::MemView<double> cs_all = d_csums.view();
    spmd::MemView<double> ls_all = d_lsums.view();
    spmd::MemView<std::size_t> clo_all = d_clo.view();
    spmd::MemView<std::size_t> chi_all = d_chi.view();
    spmd::MemView<std::size_t> llo_all = d_llo.view();
    spmd::MemView<std::size_t> lhi_all = d_lhi.view();
    spmd::MemView<double> partial_all = d_partial.view();

    const spmd::LaunchConfig cfg = spmd::LaunchConfig::cover(nb, tpb);
    const std::size_t rel0 = n0 - slab_begin;  // row 0's slab index

    for (std::size_t b0 = 0; b0 < k; b0 += plan.k_block) {
      const std::size_t kb = std::min(plan.k_block, k - b0);
      spmd::ConstantBuffer<double> c_block = device.upload_constant<double>(
          host_grid.subspan(b0, kb), "bandwidth-grid");
      spmd::MemView<const double> hs = c_block.view();
      const bool first = b0 == 0;
      const bool last = b0 + kb == k;

      // Main kernel: one thread per row, positions slab-relative. The halo
      // guarantees the slab never truncates an admission, so the slab-edge
      // guards decide exactly as the whole-array guards.
      device.launch("kde_lscv_sweep", cfg,
                    [&, nb, rel0, first, last](const spmd::ThreadCtx& t) {
        const std::size_t r = t.global_idx();
        if (r >= nb) {
          return;  // padding thread in the last block
        }
        const std::size_t pos = rel0 + r;
        detail::WindowMomentSweep conv_sweep;  // admits |Δ| <= 2h
        detail::WindowMomentSweep loo_sweep;   // admits |Δ| <= h
        if (first) {
          conv_sweep.seed(pos);
          loo_sweep.seed(pos);
        } else {
          for (std::size_t m = 0; m < kSums; ++m) {
            conv_sweep.sums[m] = cs_all[r * kSums + m];
            loo_sweep.sums[m] = ls_all[r * kSums + m];
          }
          conv_sweep.lo = clo_all[r];
          conv_sweep.hi = chi_all[r];
          loo_sweep.lo = llo_all[r];
          loo_sweep.hi = lhi_all[r];
        }
        detail::kde_window_sweep_resume(
            dxs, hs, kpoly, cpoly, pos, conv_sweep, loo_sweep,
            [&](std::size_t b, double conv, double loo) {
              partial_all[b * nb + r] =
                  detail::lscv_pair_partial(conv, loo, n, hs[b]);
            });
        if (!last) {
          for (std::size_t m = 0; m < kSums; ++m) {
            cs_all[r * kSums + m] = conv_sweep.sums[m];
            ls_all[r * kSums + m] = loo_sweep.sums[m];
          }
          clo_all[r] = conv_sweep.lo;
          chi_all[r] = conv_sweep.hi;
          llo_all[r] = loo_sweep.lo;
          lhi_all[r] = loo_sweep.hi;
        }
      });

      if (lane_carried) {
        detail::lane_accumulate<double>(device, lanes, partial_all, nb, kb,
                                        /*bandwidth_major=*/true, n0, b0,
                                        lane_dim);
        continue;
      }
      // One n-block: reduce each partial column right away.
      for (std::size_t b = 0; b < kb; ++b) {
        totals[b0 + b] = spmd::reduce_sum<double>(
            device, partial_all.subview(b * nb, nb), tpb,
            config.reduce_variant);
      }
    }
  }

  if (lane_carried) {
    // Phase-2 replay: one tree reduction per bandwidth over its carried
    // lanes, with the same variant the resident reduction uses.
    for (std::size_t b = 0; b < k; ++b) {
      totals[b] = detail::lane_tree_reduce<double>(
          device, lanes, b * lane_dim, lane_dim, config.reduce_variant);
    }
  }
  return totals;
}

/// The per-row-sort KDE sweep (the paper-style ablation baseline): an n×n
/// |Δ| row matrix, one quicksorted row per thread, two n×k contribution
/// matrices and 2k single-block reductions. Returns the k LSCV scores.
std::vector<double> run_per_row_kde(spmd::Device& device,
                                    const SpmdKdeConfig& config,
                                    std::span<const double> host_x,
                                    std::span<const double> host_grid,
                                    const detail::SupportPolynomial& kpoly,
                                    const detail::SupportPolynomial& cpoly,
                                    double roughness_value, std::size_t tpb) {
  const std::size_t n = host_x.size();
  const std::size_t k = host_grid.size();
  spmd::ConstantBuffer<double> c_grid =
      device.upload_constant<double>(host_grid, "bandwidth-grid");
  spmd::DeviceBuffer<double> d_x = device.alloc_global<double>(n, "x");
  device.copy_to_device(d_x, host_x);
  spmd::DeviceBuffer<double> d_rows =
      device.alloc_global<double>(n * n, "dist-rows");
  spmd::DeviceBuffer<double> d_conv =
      device.alloc_global<double>(n * k, "conv-sums");
  spmd::DeviceBuffer<double> d_loo =
      device.alloc_global<double>(n * k, "loo-sums");

  // X and the row matrix stay raw spans (the per-thread quicksort needs raw
  // element references); the grid and contribution sums go through checked
  // views for the sanitizer.
  std::span<const double> dxs = d_x.span();
  spmd::MemView<const double> hs = c_grid.view();
  std::span<double> rows = d_rows.span();
  spmd::MemView<double> conv_all = d_conv.view();
  spmd::MemView<double> loo_all = d_loo.view();

  // Main kernel, one thread per observation.
  const std::size_t max_power = std::max(kpoly.max_power, cpoly.max_power);
  device.launch(
      "kde_lscv_sweep", spmd::LaunchConfig::cover(n, tpb),
      [&, n, k](const spmd::ThreadCtx& t) {
        const std::size_t i = t.global_idx();
        if (i >= n) {
          return;
        }
        std::span<double> row = rows.subspan(i * n, n);
        const double xi = dxs[i];
        for (std::size_t l = 0; l < n; ++l) {
          const double d = dxs[l] - xi;
          row[l] = d < 0.0 ? -d : d;
        }
        sort::iterative_quicksort(row);

        detail::MomentSweep conv_sweep;
        detail::MomentSweep loo_sweep;
        for (std::size_t b = 0; b < k; ++b) {
          const double h = hs[b];
          conv_sweep.admit_through(row, cpoly.support_scale * h, max_power);
          loo_sweep.admit_through(row, kpoly.support_scale * h, max_power);
          // Bandwidth-major for contiguous per-bandwidth reductions.
          conv_all[b * n + i] = conv_sweep.combine(cpoly, h);
          loo_all[b * n + i] = loo_sweep.combine(kpoly, h);
        }
      });

  std::vector<double> scores(k);
  for (std::size_t b = 0; b < k; ++b) {
    const double conv_total = spmd::reduce_sum<double>(
        device, conv_all.subview(b * n, n), tpb, config.reduce_variant);
    const double loo_total = spmd::reduce_sum<double>(
        device, loo_all.subview(b * n, n), tpb, config.reduce_variant);
    scores[b] = detail::assemble_lscv(roughness_value, conv_total, loo_total,
                                      n, host_grid[b]);
  }
  return scores;
}

}  // namespace

SpmdKdeSelector::SpmdKdeSelector(spmd::Device& device, SpmdKdeConfig config)
    : device_(device), config_(config) {
  if (config_.threads_per_block == 0) {
    throw std::invalid_argument("SpmdKdeSelector: threads_per_block == 0");
  }
}

std::size_t SpmdKdeSelector::estimated_bytes(std::size_t n, std::size_t k,
                                             SweepAlgorithm algorithm) {
  if (algorithm == SweepAlgorithm::kWindow) {
    // Sorted x + scores + the n×k LSCV-partial matrix.
    return (n + k + n * k) * sizeof(double);
  }
  // x + scores + the n×n row matrix + two n×k contribution matrices.
  return (n + k + n * n + 2 * n * k) * sizeof(double);
}

std::size_t SpmdKdeSelector::estimated_streamed_bytes(std::size_t n,
                                                      std::size_t k_block) {
  return kde_tile_model(n, 0, 0).bytes(n, k_block);
}

SelectionResult SpmdKdeSelector::select(std::span<const double> xs,
                                        const BandwidthGrid& grid) const {
  if (!is_kde_sweepable(config_.kernel)) {
    throw std::invalid_argument(
        "SpmdKdeSelector: kernel '" + std::string(to_string(config_.kernel)) +
        "' lacks a single-polynomial self-convolution");
  }
  if (xs.size() < 2) {
    throw std::invalid_argument("SpmdKdeSelector: need >= 2 observations");
  }
  const std::size_t n = xs.size();
  const std::size_t k = grid.size();
  const std::size_t tpb = std::min(config_.threads_per_block,
                                   device_.properties().max_threads_per_block);
  const detail::SupportPolynomial kpoly =
      detail::kde_kernel_poly(config_.kernel);
  const detail::SupportPolynomial cpoly =
      detail::kde_convolution_poly(config_.kernel);
  const double roughness_value = roughness(config_.kernel);
  const bool window = config_.algorithm == SweepAlgorithm::kWindow;
  const std::vector<double> host_grid(grid.values());

  // Host-side staging: the window sweep sorts X once before upload — the
  // LSCV sums run over all (i, l) pairs, so visiting observations in
  // sorted order changes nothing.
  std::vector<double> host_x(xs.begin(), xs.end());
  if (window) {
    sort::introsort(std::span<double>(host_x));
  }

  // Tile plan (window algorithm only): resolve the 2-D (n-block × k-block)
  // plan against the byte model and the device budget. The default keeps
  // small problems resident (one tile), engages n-resident k-blocks when
  // only the n×k partial matrix is over budget, and tiles the observations
  // too (halo slab + lane-carried partial sums) once even the O(n) carry
  // state would not fit. The per-row sweep always runs resident.
  StreamingPlan plan;
  if (window) {
    plan = detail::plan_window_tiles<double>(
        device_, config_.stream,
        kde_tile_model(n, k, spmd::detail::reduction_block_dim(device_, tpb)),
        std::span<const double>(host_x), 0,
        std::max(kpoly.support_scale, cpoly.support_scale) * grid[k - 1],
        estimated_bytes(n, k, config_.algorithm));
  }

  // The resident plans keep Program 4's finish: the k scores stay on the
  // device for one argmin reduction.
  spmd::DeviceBuffer<double> d_scores;
  if (!plan.streamed) {
    d_scores = device_.alloc_global<double>(k, "lscv-scores");
  }
  std::vector<double> scores;
  if (window) {
    scores = run_kde_tiles(device_, config_, host_x, host_grid, kpoly, cpoly,
                           plan, tpb);
    for (std::size_t b = 0; b < k; ++b) {
      scores[b] = roughness_value / (static_cast<double>(n) * grid[b]) +
                  scores[b];
    }
  } else {
    scores = run_per_row_kde(device_, config_, host_x, host_grid, kpoly,
                             cpoly, roughness_value, tpb);
  }

  std::size_t best_index = 0;
  if (plan.streamed) {
    // Streamed plans keep only the scores: a host running argmin, strict <
    // so the smallest index wins ties, the same order as the device argmin.
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < k; ++b) {
      if (scores[b] < best_score) {
        best_score = scores[b];
        best_index = b;
      }
    }
  } else {
    device_.copy_to_device(d_scores, std::span<const double>(scores));
    best_index = spmd::reduce_argmin<double>(
                     device_, spmd::MemView<const double>(d_scores.view()),
                     tpb)
                     .index;
  }

  SelectionResult result;
  result.bandwidth = grid[best_index];
  result.cv_score = scores[best_index];
  result.grid = grid.values();
  result.scores = std::move(scores);
  result.evaluations = k;
  result.method = name();
  return result;
}

std::string SpmdKdeSelector::name() const {
  std::string n = "spmd-kde-lscv(";
  n += to_string(config_.kernel);
  n += ",tpb=" + std::to_string(config_.threads_per_block);
  if (config_.algorithm == SweepAlgorithm::kWindow) {
    n += ",window";
  }
  if (config_.stream.k_block != 0) {
    n += ",kblock=" + std::to_string(config_.stream.k_block);
  }
  if (config_.stream.n_block != 0) {
    n += ",nblock=" + std::to_string(config_.stream.n_block);
  }
  if (config_.stream.memory_budget_bytes != 0) {
    n += ",budget=" + std::to_string(config_.stream.memory_budget_bytes);
  }
  n += ")";
  return n;
}

}  // namespace kreg
