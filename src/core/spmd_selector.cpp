#include "core/spmd_selector.hpp"

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/batched_sweep.hpp"
#include "core/detail/device_sweep.hpp"
#include "core/detail/lane_reduce.hpp"
#include "core/detail/window_tiles.hpp"
#include "core/window_sweep.hpp"

namespace kreg {

std::string_view to_string(ResidualLayout layout) noexcept {
  switch (layout) {
    case ResidualLayout::kObservationMajor:
      return "observation-major";
    case ResidualLayout::kBandwidthMajor:
      return "bandwidth-major";
  }
  return "unknown";
}

SpmdGridSelector::SpmdGridSelector(spmd::Device& device,
                                   SpmdSelectorConfig config)
    : device_(device), config_(config) {
  if (config_.threads_per_block == 0) {
    throw std::invalid_argument("SpmdGridSelector: threads_per_block == 0");
  }
  // Reject bad widths early.
  (void)resolve_lane_width(config_.lane_width, config_.precision);
}

std::size_t SpmdGridSelector::estimated_bytes(std::size_t n, std::size_t k,
                                              Precision precision,
                                              bool streaming,
                                              SweepAlgorithm algorithm) {
  const std::size_t elem =
      precision == Precision::kFloat ? sizeof(float) : sizeof(double);
  if (algorithm == SweepAlgorithm::kWindow) {
    // Sorted x + y + scores + the n×k residual matrix; no row matrices and
    // no per-thread sum matrices — the window sweep recombines in place.
    return (2 * n + k + n * k) * elem;
  }
  // x + y + scores + two n×k sum matrices + n×k residual matrix …
  std::size_t elems = 2 * n + k + 3 * n * k;
  // … plus the two n×n matrices unless streaming.
  if (!streaming) {
    elems += 2 * n * n;
  }
  return elems * elem;
}

std::size_t SpmdGridSelector::estimated_streamed_bytes(std::size_t n,
                                                       std::size_t k_block,
                                                       Precision precision,
                                                       KernelType kernel) {
  // Sorted x + y, the carried moment sums S_m/T_m, the two window pointers,
  // and one resident n×k_block residual block: the n-resident tile.
  const detail::WindowTileModel model{
      .n = n, .rows = n,
      .elem = precision == Precision::kFloat ? sizeof(float) : sizeof(double),
      .terms = sweep_polynomial(kernel).max_power + 1};
  return model.bytes(n, k_block);
}

namespace detail {

std::string selector_config_suffix(const SpmdSelectorConfig& config) {
  std::string s;
  if (config.streaming) {
    s += ",streaming";
  }
  if (config.algorithm == SweepAlgorithm::kWindow) {
    s += ",window";
  }
  if (config.stream.k_block != 0) {
    s += ",kblock=" + std::to_string(config.stream.k_block);
  }
  if (config.stream.n_block != 0) {
    s += ",nblock=" + std::to_string(config.stream.n_block);
  }
  if (config.stream.memory_budget_bytes != 0) {
    s += ",budget=" + std::to_string(config.stream.memory_budget_bytes);
  }
  if (config.algorithm == SweepAlgorithm::kWindow) {
    const std::size_t lanes =
        resolve_lane_width(config.lane_width, config.precision);
    if (lanes > 1) {
      s += ",lanes=" + std::to_string(lanes);
    }
  }
  return s;
}

}  // namespace detail

namespace {

SelectionResult make_result(const BandwidthGrid& grid, std::vector<double> cv,
                            std::size_t best_index, std::string method_name) {
  SelectionResult result;
  result.bandwidth = grid[best_index];
  result.cv_score = cv[best_index];
  result.grid = grid.values();
  result.scores = std::move(cv);
  result.evaluations = grid.size();
  result.method = std::move(method_name);
  return result;
}

/// The window sweep: sort (X, Y) once on the host, resolve the tile plan
/// against the device budget, and run the one tile loop over all n rows.
/// The default plan keeps small problems resident (one tile, Program 4's
/// kernel sequence), switches to n-resident k-blocks when only the n×k
/// residual matrix is over budget, and tiles the observations too (halo
/// slab + lane-carried scores) once even the O(n) carry state would not fit.
template <class Scalar>
SelectionResult run_window_selection(spmd::Device& device,
                                     const SpmdSelectorConfig& config,
                                     const data::Dataset& data,
                                     const BandwidthGrid& grid,
                                     std::string method_name) {
  const std::size_t n = data.size();
  const std::size_t k = grid.size();
  const std::size_t tpb = std::min(config.threads_per_block,
                                   device.properties().max_threads_per_block);

  // The device threads index into the globally sorted arrays instead of
  // filling and quicksorting private rows. (The CV criterion sums over all
  // observations, so visiting them in sorted order changes nothing.)
  const SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
  std::vector<Scalar> host_grid(k);
  for (std::size_t b = 0; b < k; ++b) {
    host_grid[b] = static_cast<Scalar>(grid[b]);
  }

  const detail::WindowTileModel model{
      .n = n, .rows = n, .k = k, .elem = sizeof(Scalar),
      .terms = sweep_polynomial(config.kernel).max_power + 1,
      .lane_dim = spmd::detail::reduction_block_dim(device, tpb)};
  const StreamingPlan plan = detail::plan_window_tiles<Scalar>(
      device, config.stream, model, std::span<const Scalar>(sorted.x), 0,
      host_grid.back(),
      SpmdGridSelector::estimated_bytes(n, k, config.precision,
                                        config.streaming, config.algorithm));

  // The resident plan keeps Program 4's finish: the k scores stay on the
  // device for one argmin reduction.
  spmd::DeviceBuffer<Scalar> d_scores;
  if (!plan.streamed) {
    d_scores = device.alloc_global<Scalar>(k, "cv-scores");
  }
  const std::vector<Scalar> totals = detail::run_window_tiles<Scalar>(
      device, config, std::span<const Scalar>(sorted.x),
      std::span<const Scalar>(sorted.y), 0, n, host_grid, plan);

  // Normalize the paper's raw sums to CV_lc's n⁻¹ scale.
  std::vector<double> cv(k);
  for (std::size_t b = 0; b < k; ++b) {
    cv[b] = static_cast<double>(totals[b]) / static_cast<double>(n);
  }
  std::size_t best_index = 0;
  if (plan.streamed) {
    // Streamed plans keep only the totals: a host running argmin, strict <
    // so the smallest index wins ties, the same order as the device argmin.
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < k; ++b) {
      if (cv[b] < best_score) {
        best_score = cv[b];
        best_index = b;
      }
    }
  } else {
    device.copy_to_device(d_scores, std::span<const Scalar>(totals));
    best_index = spmd::reduce_argmin<Scalar>(
                     device, spmd::MemView<const Scalar>(d_scores.view()), tpb)
                     .index;
  }
  return make_result(grid, std::move(cv), best_index, std::move(method_name));
}

/// The paper-faithful per-row-sort path (Program 4 as published).
template <class Scalar>
SelectionResult run_device_selection(spmd::Device& device,
                                     const SpmdSelectorConfig& config,
                                     const data::Dataset& data,
                                     const BandwidthGrid& grid,
                                     std::string method_name) {
  const std::size_t n = data.size();
  const std::size_t k = grid.size();
  // The paper used the device maximum (512); clamp the request the same way
  // so one selector config runs on any device.
  const std::size_t tpb = std::min(config.threads_per_block,
                                   device.properties().max_threads_per_block);
  const SweepPolynomial poly = sweep_polynomial(config.kernel);

  // --- Host-side staging -------------------------------------------------
  std::vector<Scalar> host_x(n);
  std::vector<Scalar> host_y(n);
  for (std::size_t i = 0; i < n; ++i) {
    host_x[i] = static_cast<Scalar>(data.x[i]);
    host_y[i] = static_cast<Scalar>(data.y[i]);
  }
  std::vector<Scalar> host_grid(k);
  for (std::size_t b = 0; b < k; ++b) {
    host_grid[b] = static_cast<Scalar>(grid[b]);
  }

  // --- Device memory plan (paper §IV-A) -----------------------------------
  // Bandwidths live in constant memory; the 8 KB working set caps k.
  spmd::ConstantBuffer<Scalar> c_grid =
      device.upload_constant<Scalar>(host_grid, "bandwidth-grid");

  spmd::DeviceBuffer<Scalar> d_x = device.alloc_global<Scalar>(n, "x");
  spmd::DeviceBuffer<Scalar> d_y = device.alloc_global<Scalar>(n, "y");
  device.copy_to_device(d_x, std::span<const Scalar>(host_x));
  device.copy_to_device(d_y, std::span<const Scalar>(host_y));

  // Two n×n matrices for the per-thread sorted rows (skipped in streaming
  // mode, the paper's future-work extension).
  spmd::DeviceBuffer<Scalar> d_dist;
  spmd::DeviceBuffer<Scalar> d_ymat;
  if (!config.streaming) {
    d_dist = device.alloc_global<Scalar>(n * n, "dist-rows");
    d_ymat = device.alloc_global<Scalar>(n * n, "y-rows");
  }

  // Two n×k matrices of bandwidth-specific sums, and the n×k squared
  // residual matrix feeding the reductions.
  spmd::DeviceBuffer<Scalar> d_sum_y =
      device.alloc_global<Scalar>(n * k, "sum-y");
  spmd::DeviceBuffer<Scalar> d_sum_w =
      device.alloc_global<Scalar>(n * k, "sum-w");
  spmd::DeviceBuffer<Scalar> d_resid =
      device.alloc_global<Scalar>(n * k, "residuals");
  spmd::DeviceBuffer<Scalar> d_scores =
      device.alloc_global<Scalar>(k, "cv-scores");

  // X/Y and the row matrices stay raw spans: the per-thread quicksort needs
  // raw element references. The grid, sums, residuals, and scores go
  // through checked views so a sanitizer-enabled device instruments them.
  std::span<const Scalar> xs = d_x.span();
  std::span<const Scalar> ys = d_y.span();
  spmd::MemView<const Scalar> hs = c_grid.view();
  std::span<Scalar> dist_all = d_dist.span();
  std::span<Scalar> ymat_all = d_ymat.span();
  spmd::MemView<Scalar> sum_y_all = d_sum_y.view();
  spmd::MemView<Scalar> sum_w_all = d_sum_w.view();
  spmd::MemView<Scalar> resid_all = d_resid.view();
  const bool bandwidth_major = config.layout == ResidualLayout::kBandwidthMajor;
  const bool streaming = config.streaming;

  // --- Main kernel (paper §IV-B) ------------------------------------------
  // One thread per observation; no shared memory or cross-thread
  // coordination, so an independent launch.
  const spmd::LaunchConfig main_cfg = spmd::LaunchConfig::cover(n, tpb);
  device.launch("cv_sweep", main_cfg, [&, n, k](const spmd::ThreadCtx& t) {
    const std::size_t j = t.global_idx();
    if (j >= n) {
      return;  // padding thread in the last block
    }

    // Thread j's rows of the distance and Y matrices. In streaming mode the
    // rows live in thread-local scratch ("local memory") instead of the
    // global-memory matrices.
    std::vector<Scalar> local_dist;
    std::vector<Scalar> local_y;
    std::span<Scalar> dist;
    std::span<Scalar> yrow;
    if (streaming) {
      local_dist.resize(n);
      local_y.resize(n);
      dist = local_dist;
      yrow = local_y;
    } else {
      dist = dist_all.subspan(j * n, n);
      yrow = ymat_all.subspan(j * n, n);
    }

    // Fill + sort + sweep + residual loop (shared kernel body); residuals
    // land with the indices switched to bandwidth-major when configured —
    // "to facilitate efficient caching… the array is indexed as k separate
    // groups of n".
    detail::sweep_thread<Scalar>(
        xs, ys, hs, poly, j, dist, yrow, sum_y_all.subview(j * k, k),
        sum_w_all.subview(j * k, k), [&](std::size_t b, Scalar sq) {
          resid_all[bandwidth_major ? b * n + j : j * k + b] = sq;
        });
  });

  // --- Reductions (paper §IV-B) --------------------------------------------
  // One single-block sum reduction per bandwidth. Bandwidth-major layout
  // reads a contiguous run; observation-major reads with stride k.
  spmd::MemView<Scalar> scores = d_scores.view();
  const std::size_t block_dim = spmd::detail::reduction_block_dim(device, tpb);
  for (std::size_t b = 0; b < k; ++b) {
    if (bandwidth_major) {
      scores[b] = spmd::reduce_sum<Scalar>(
          device, resid_all.subview(b * n, n), tpb, config.reduce_variant);
    } else {
      scores[b] = detail::strided_score_reduce<Scalar>(device, resid_all, n,
                                                       k, b, block_dim);
    }
  }

  // Argmin reduction over the k scores (2T shared elements: values +
  // payload, per the paper; index payload per its footnote 2).
  const spmd::ArgminResult<Scalar> best = spmd::reduce_argmin<Scalar>(
      device, spmd::MemView<const Scalar>(scores), tpb);

  // --- Assemble the result --------------------------------------------------
  std::vector<Scalar> host_scores(k);
  device.copy_to_host(std::span<Scalar>(host_scores), d_scores);
  std::vector<double> cv(k);
  for (std::size_t b = 0; b < k; ++b) {
    // Normalize the paper's raw sums to CV_lc's n⁻¹ scale.
    cv[b] = static_cast<double>(host_scores[b]) / static_cast<double>(n);
  }
  return make_result(grid, std::move(cv), best.index, std::move(method_name));
}

}  // namespace

SelectionResult SpmdGridSelector::select(const data::Dataset& data,
                                         const BandwidthGrid& grid) const {
  data.validate();
  if (data.empty()) {
    throw std::invalid_argument("SpmdGridSelector: empty dataset");
  }
  if (!is_sweepable(config_.kernel)) {
    throw std::invalid_argument(
        "SpmdGridSelector: kernel '" +
        std::string(to_string(config_.kernel)) +
        "' is not supported by the device sweep");
  }
  const bool single = config_.precision == Precision::kFloat;
  if (config_.algorithm == SweepAlgorithm::kWindow) {
    return single ? run_window_selection<float>(device_, config_, data, grid,
                                                name())
                  : run_window_selection<double>(device_, config_, data, grid,
                                                 name());
  }
  return single
             ? run_device_selection<float>(device_, config_, data, grid, name())
             : run_device_selection<double>(device_, config_, data, grid,
                                            name());
}

std::string SpmdGridSelector::name() const {
  std::string n = "spmd-grid(";
  n += to_string(config_.kernel);
  n += ",";
  n += to_string(config_.precision);
  n += ",tpb=" + std::to_string(config_.threads_per_block);
  n += ",";
  n += to_string(config_.layout);
  n += detail::selector_config_suffix(config_);
  n += ")";
  return n;
}

}  // namespace kreg
