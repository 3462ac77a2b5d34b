#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/detail/device_sweep.hpp"
#include "core/spmd_selector.hpp"
#include "core/streaming.hpp"
#include "core/window_sweep.hpp"
#include "data/dataset.hpp"
#include "spmd/device.hpp"

namespace kreg::detail {

/// The window sweep's tile byte model — the one formula behind every
/// window plan resolver and footprint estimate (the NW sweep on a single
/// device and on each multi-device slice, the KDE LSCV sweep, and the
/// public estimated_* helpers).
///
/// An n-resident tile (n_block >= rows) holds the `arrays` sorted data
/// arrays over all n rows, the slice's carried window state (`pointers`
/// window pointers and two `terms`-long moment-sum arrays per row) and one
/// rows×k_block partial block. An n-streamed tile holds a halo slab of each
/// data array, the carry and partial block of n_block rows, and the
/// k×lane_dim per-lane score accumulators. The NW sweep carries (x, y) and
/// one window (lo/hi, S_m/T_m); the KDE sweep carries x alone and two
/// windows (conv/loo lo/hi and moment sums).
struct WindowTileModel {
  std::size_t n = 0;         ///< rows of the sorted arrays
  std::size_t rows = 0;      ///< rows of the slice being planned
  std::size_t k = 0;         ///< grid size
  std::size_t elem = 0;      ///< sizeof(Scalar)
  std::size_t terms = 0;     ///< terms per carried moment-sum array
  std::size_t lane_dim = 0;  ///< reduction lanes per bandwidth
  std::size_t arrays = 2;    ///< sorted data arrays uploaded
  std::size_t pointers = 2;  ///< carried window pointers per row

  /// `slab` is the widest halo slab of the n_block tiling; unused when the
  /// tile is n-resident.
  std::size_t bytes(std::size_t n_block, std::size_t k_block,
                    std::size_t slab = 0) const noexcept {
    const std::size_t carry_row =
        2 * terms * elem + pointers * sizeof(std::size_t);
    if (n_block >= rows) {
      return arrays * n * elem + rows * carry_row + rows * k_block * elem;
    }
    return arrays * slab * elem + n_block * carry_row +
           n_block * k_block * elem + k * lane_dim * elem;
  }
};

/// The per-row-sort sweep's footprint for the slice of `rows` rows out of
/// n: the full x/y, the k-element score buffer the argmin reads, the
/// slice's two rows×k sum matrices and rows×k residual matrix, and — unless
/// streaming keeps the rows in thread-local scratch — its two rows×n
/// distance/Y row matrices. Exact for a single device; on a multi-device
/// list the primary device allocates its combined scores only after its
/// slice buffers are freed, so there the score term is headroom.
inline std::size_t per_row_bytes(std::size_t n, std::size_t rows,
                                 std::size_t k, std::size_t elem,
                                 bool streaming) noexcept {
  const std::size_t row_matrices = streaming ? 0 : 2 * rows * n;
  return (2 * n + k + 3 * rows * k + row_matrices) * elem;
}

/// The host copy of (x, y) a device sweep uploads: sorted by x once for the
/// window sweep (the CV criterion sums over all observations, so visiting
/// them in sorted order changes nothing), in input order for the per-row
/// sweep, whose threads fill and sort their own distance rows.
template <class Scalar>
SortedDataset<Scalar> stage_dataset(const data::Dataset& data, bool sorted) {
  if (sorted) {
    return sort_dataset<Scalar>(data.x, data.y);
  }
  SortedDataset<Scalar> staged{std::vector<Scalar>(data.size()),
                               std::vector<Scalar>(data.size())};
  for (std::size_t i = 0; i < data.size(); ++i) {
    staged.x[i] = static_cast<Scalar>(data.x[i]);
    staged.y[i] = static_cast<Scalar>(data.y[i]);
  }
  return staged;
}

/// Resolves the tile plan of the slice [base, base + model.rows) of the
/// host-sorted x against `device`'s budget: resident while `resident_bytes`
/// fits, else the largest tiles `model` admits, n-streamed tiles sized by
/// their widest halo slab at the reach h_max.
template <class Scalar>
StreamingPlan plan_window_tiles(const spmd::Device& device,
                                const StreamingConfig& stream,
                                const WindowTileModel& model,
                                std::span<const Scalar> host_x,
                                std::size_t base, Scalar reach,
                                std::size_t resident_bytes) {
  const TileBytesFn tile_bytes = [&](std::size_t nb, std::size_t kb) {
    const std::size_t slab =
        nb >= model.rows
            ? 0
            : max_halo_span(host_x, base, base + model.rows, nb, reach);
    return model.bytes(nb, kb, slab);
  };
  return resolve_streaming_2d(stream, model.rows, model.k, resident_bytes,
                              tile_bytes,
                              device.properties().memory_budget().global_bytes);
}

/// The NW window sweep on a device: one tile loop for every plan.
///
/// Sweeps the rows [base, base + rows) of the host-sorted (x, y) over the
/// ascending `host_grid` in n-blocks × k-blocks and returns the k
/// per-bandwidth sums of squared LOO residuals over those rows. Each
/// n-block uploads only its halo slab of the sorted arrays (the whole
/// arrays for a single-device n-resident plan); each k-block uploads its
/// slice of the grid to constant memory and runs one `cv_sweep` launch.
/// The plan shape changes only what is kept between tiles:
///   - more than one k-block: window state carries between k-blocks in
///     O(n_block) device buffers;
///   - more than one n-block: residuals fold into per-lane accumulators
///     (`score_lane_accum`) and one tree replay per bandwidth finishes the
///     reduction (see lane_reduce.hpp); otherwise each k-block's residual
///     columns reduce right away.
/// A resident plan is the 1×1 tiling and keeps neither. Every plan performs
/// the resident sweep's arithmetic in the resident order, so the totals
/// agree bitwise across tilings.
template <class Scalar>
std::vector<Scalar> run_window_tiles(spmd::Device& device,
                                     const SpmdSelectorConfig& config,
                                     std::span<const Scalar> host_x,
                                     std::span<const Scalar> host_y,
                                     std::size_t base, std::size_t rows,
                                     std::span<const Scalar> host_grid,
                                     const StreamingPlan& plan);

/// The paper's per-row-sort sweep (Program 4 as published) on a device.
///
/// Sweeps the rows [base, base + rows) of the unsorted (x, y) over the
/// ascending `host_grid` and returns the k per-bandwidth sums of squared LOO
/// residuals over those rows. The full x/y go to the device (distances need
/// every observation) and the grid to constant memory; one `cv_sweep`
/// thread per row fills, sorts and sweeps its distance/Y row — in the
/// rows×n global matrices, or in thread-local scratch when
/// `config.streaming` — and writes its residuals in `config.layout`. One
/// single-block sum reduction per bandwidth then finishes each total. A
/// single device is the one-slice case (base = 0, rows = n).
template <class Scalar>
std::vector<Scalar> run_per_row_slice(spmd::Device& device,
                                      const SpmdSelectorConfig& config,
                                      std::span<const Scalar> host_x,
                                      std::span<const Scalar> host_y,
                                      std::size_t base, std::size_t rows,
                                      std::span<const Scalar> host_grid);

/// The config part of the device selectors' names, shared by
/// SpmdGridSelector::name() and MultiDeviceGridSelector::name().
std::string selector_config_suffix(const SpmdSelectorConfig& config);

extern template std::vector<float> run_window_tiles<float>(
    spmd::Device&, const SpmdSelectorConfig&, std::span<const float>,
    std::span<const float>, std::size_t, std::size_t, std::span<const float>,
    const StreamingPlan&);
extern template std::vector<double> run_window_tiles<double>(
    spmd::Device&, const SpmdSelectorConfig&, std::span<const double>,
    std::span<const double>, std::size_t, std::size_t,
    std::span<const double>, const StreamingPlan&);
extern template std::vector<float> run_per_row_slice<float>(
    spmd::Device&, const SpmdSelectorConfig&, std::span<const float>,
    std::span<const float>, std::size_t, std::size_t, std::span<const float>);
extern template std::vector<double> run_per_row_slice<double>(
    spmd::Device&, const SpmdSelectorConfig&, std::span<const double>,
    std::span<const double>, std::size_t, std::size_t,
    std::span<const double>);

}  // namespace kreg::detail
