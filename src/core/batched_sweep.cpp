#include "core/batched_sweep.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/detail/batched_lanes.hpp"
#include "core/validate_grid.hpp"
#include "core/window_sweep.hpp"
#include "parallel/parallel_for.hpp"

namespace kreg {

std::size_t resolve_lane_width(std::size_t requested, Precision precision) {
  if (requested == 0) {
    return 64 / (precision == Precision::kFloat ? sizeof(float)
                                                : sizeof(double));
  }
  if (requested == 1 || requested == 8 || requested == 16) {
    return requested;
  }
  throw std::invalid_argument("lane_width must be 0 (auto), 1, 8, or 16 (got " +
                              std::to_string(requested) + ")");
}

template <class Scalar>
AdmissionWindows admission_windows(std::span<const Scalar> xs_sorted,
                                   Scalar h_max) {
  const std::size_t n = xs_sorted.size();
  AdmissionWindows win;
  win.length.resize(n);
  // Both window bounds at h_max are monotone in pos, so one two-pointer
  // pass computes every length — the same O(n) discipline as the sweep
  // itself, using its exact admission predicate.
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const Scalar x = xs_sorted[pos];
    while (x - xs_sorted[lo] > h_max) {
      ++lo;
    }
    if (hi < pos) {
      hi = pos;
    }
    while (hi + 1 < n && xs_sorted[hi + 1] - x <= h_max) {
      ++hi;
    }
    win.length[pos] = hi - lo + 1;
  }
  return win;
}

template AdmissionWindows admission_windows<float>(std::span<const float>,
                                                   float);
template AdmissionWindows admission_windows<double>(std::span<const double>,
                                                    double);

namespace {

/// The batched mirror of window_sweep.cpp's profile_tiled: same tiling
/// defaults, same tile-order combination, same per-tile ascending-row fold
/// into the accumulator — only the per-row sweep is replaced by C-wide lane
/// batches of consecutive rows. Because every accumulator entry receives
/// its residuals in the same ascending row order as the scalar tiled
/// kernel, the profile is bitwise identical to the scalar one for any lane
/// width.
template <class Scalar, std::size_t C>
std::vector<double> profile_batched(const data::Dataset& data,
                                    std::span<const double> grid,
                                    KernelType kernel, HostTiling tiling,
                                    parallel::ThreadPool* pool,
                                    BatchRunStats* stats) {
  const std::size_t n = data.size();
  const std::size_t k = grid.size();
  const SweepPolynomial poly = sweep_polynomial(kernel);
  if (pool == nullptr) {
    pool = &parallel::ThreadPool::global();
  }
  const std::size_t n_block = tiling.n_block != 0 ? tiling.n_block : 2048;
  const std::size_t k_block = tiling.k_block != 0
                                  ? std::min(tiling.k_block, k)
                                  : std::min<std::size_t>(64, k);

  const SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
  const std::vector<Scalar> host_grid(grid.begin(), grid.end());
  const std::span<const Scalar> xs(sorted.x);
  const std::span<const Scalar> ys(sorted.y);

  const std::size_t tiles = (n + n_block - 1) / n_block;
  std::vector<std::vector<double>> partials(tiles,
                                            std::vector<double>(k, 0.0));
  std::vector<BatchRunStats> tile_stats(stats != nullptr ? tiles : 0);

  parallel::parallel_for(
      tiles,
      [&](std::size_t tile) {
        const std::size_t begin = tile * n_block;
        const std::size_t nb = std::min(n_block, n - begin);
        std::vector<double>& acc = partials[tile];
        BatchRunStats* tstats =
            stats != nullptr ? &tile_stats[tile] : nullptr;

        // Batch g holds the tile's rows [g·C, g·C + C), the last padded.
        const std::size_t nbatches = (nb + C - 1) / C;
        std::vector<detail::LaneBatch<Scalar, C>> batches(nbatches);
        for (std::size_t g = 0; g < nbatches; ++g) {
          detail::LaneBatch<Scalar, C>& st = batches[g];
          st.lanes = std::min(C, nb - g * C);
          for (std::size_t l = 0; l < st.lanes; ++l) {
            st.pos[l] = begin + g * C + l;
          }
          detail::batch_seed(st, xs, ys);
        }

        // Batches run in row order and each emits its lanes in row order,
        // so every acc[b] receives residuals in ascending row order — the
        // scalar tiled kernel's fold order — without a staging buffer.
        for (std::size_t b0 = 0; b0 < k; b0 += k_block) {
          const std::size_t kb = std::min(k_block, k - b0);
          const std::span<const Scalar> hs(host_grid.data() + b0, kb);
          for (detail::LaneBatch<Scalar, C>& st : batches) {
            detail::batch_resume(
                st, xs, ys, hs, poly,
                [&](std::size_t b, std::size_t, Scalar sq) {
                  acc[b0 + b] += static_cast<double>(sq);
                },
                tstats);
          }
        }
      },
      pool);

  std::vector<double> totals(k, 0.0);
  for (const std::vector<double>& partial : partials) {
    for (std::size_t b = 0; b < k; ++b) {
      totals[b] += partial[b];
    }
  }
  for (double& total : totals) {
    total /= static_cast<double>(n);
  }
  if (stats != nullptr) {
    for (const BatchRunStats& ts : tile_stats) {
      *stats += ts;
    }
  }
  return totals;
}

}  // namespace

std::vector<double> window_cv_profile_batched(const data::Dataset& data,
                                              std::span<const double> grid,
                                              KernelType kernel,
                                              Precision precision,
                                              BatchedSweep batched,
                                              HostTiling tiling,
                                              parallel::ThreadPool* pool,
                                              BatchRunStats* stats) {
  if (data.empty()) {
    throw std::invalid_argument("window_cv_profile_batched: empty dataset");
  }
  validate_bandwidth_grid(grid, "window_cv_profile_batched");
  if (!is_sweepable(kernel)) {
    throw std::invalid_argument(
        "window_cv_profile_batched: kernel '" +
        std::string(to_string(kernel)) +
        "' is not supported by the window sweep; use the naive path");
  }
  const std::size_t lane_width =
      resolve_lane_width(batched.lane_width, precision);
  return detail::with_lane_width(lane_width, [&](auto width) {
    constexpr std::size_t C = decltype(width)::value;
    return precision == Precision::kFloat
               ? profile_batched<float, C>(data, grid, kernel, tiling, pool,
                                           stats)
               : profile_batched<double, C>(data, grid, kernel, tiling, pool,
                                            stats);
  });
}

}  // namespace kreg
