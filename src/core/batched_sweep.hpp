#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/batch_stats.hpp"
#include "core/kernels.hpp"
#include "core/window_sweep.hpp"
#include "data/dataset.hpp"
#include "parallel/thread_pool.hpp"

namespace kreg {

/// Configuration of the batched window-sweep execution layer: observations
/// are grouped into C-wide lanes with structure-of-arrays state so the
/// sweep's hot loops vectorize. Batch g of a tile holds its rows
/// [g·C, g·C + C) of the globally sorted array, so the lanes of one batch
/// admit from overlapping windows (small zero-padded tails, coherent
/// simulated warps, contiguous-run loads). See core/detail/batched_lanes.hpp
/// for the kernel itself.
struct BatchedSweep {
  /// Lanes per batch. 0 = auto (see resolve_lane_width); 1 runs the batch
  /// machinery degenerately (the parity anchor); 8/16 are the vector
  /// widths. Any other value throws.
  std::size_t lane_width = 0;
};

/// Resolves a requested lane width for a sweep in `precision`: 0 → the auto
/// width, one 64-byte zmm register of lanes (16 floats, 8 doubles); 1/8/16
/// pass through; anything else throws std::invalid_argument.
std::size_t resolve_lane_width(std::size_t requested, Precision precision);

/// Per-observation admission-window lengths at h_max on the sorted array:
/// `length[pos]` = |{l : |x_l − x_pos| ≤ h_max}|, the exact number of
/// elements the sweep will admit for that observation across the whole
/// grid. One O(n) two-pointer pass (both window bounds are monotone in pos).
struct AdmissionWindows {
  std::vector<std::size_t> length;
};

template <class Scalar>
AdmissionWindows admission_windows(std::span<const Scalar> xs_sorted,
                                   Scalar h_max);

extern template AdmissionWindows admission_windows<float>(
    std::span<const float>, float);
extern template AdmissionWindows admission_windows<double>(
    std::span<const double>, double);

/// The batched window-sweep CV profile: same contract as
/// `window_cv_profile_tiled` (tiles scheduled across the pool, k-blocks
/// innermost, deterministic tile-order combination), with each tile's
/// observations executed as C-wide lane batches of consecutive rows.
/// Each tile folds its residuals in ascending observation order, so the
/// result is **bitwise identical** to `window_cv_profile_tiled` with
/// the same tiling — and to the sequential `window_cv_profile` whenever one
/// tile covers the dataset — for every lane width. `stats`, when non-null,
/// receives the summed contiguous-run / gather step ledger of every tile.
std::vector<double> window_cv_profile_batched(
    const data::Dataset& data, std::span<const double> grid,
    KernelType kernel, Precision precision = Precision::kDouble,
    BatchedSweep batched = {}, HostTiling tiling = {},
    parallel::ThreadPool* pool = nullptr, BatchRunStats* stats = nullptr);

}  // namespace kreg
