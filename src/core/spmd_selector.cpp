#include "core/spmd_selector.hpp"

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/batched_sweep.hpp"
#include "core/detail/window_tiles.hpp"
#include "core/window_sweep.hpp"
#include "spmd/reduce.hpp"

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
  return detail::per_row_bytes(n, n, k, elem, streaming);
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

/// One device, one slice of all n rows. The window sweep sorts (X, Y) once
/// on the host, resolves the tile plan against the device budget, and runs
/// the one tile loop: the default plan keeps small problems resident (one
/// tile, Program 4's kernel sequence), switches to n-resident k-blocks when
/// only the n×k residual matrix is over budget, and tiles the observations
/// too (halo slab + lane-carried scores) once even the O(n) carry state
/// would not fit. The per-row-sort sweep (Program 4 as published) always
/// runs resident.
template <class Scalar>
SelectionResult run_selection(spmd::Device& device,
                              const SpmdSelectorConfig& config,
                              const data::Dataset& data,
                              const BandwidthGrid& grid,
                              std::string method_name) {
  const std::size_t n = data.size();
  const std::size_t k = grid.size();
  const std::size_t tpb = std::min(config.threads_per_block,
                                   device.properties().max_threads_per_block);
  const bool window = config.algorithm == SweepAlgorithm::kWindow;

  const SortedDataset<Scalar> host =
      detail::stage_dataset<Scalar>(data, window);
  const std::span<const Scalar> host_x(host.x);
  const std::span<const Scalar> host_y(host.y);
  std::vector<Scalar> host_grid(k);
  for (std::size_t b = 0; b < k; ++b) {
    host_grid[b] = static_cast<Scalar>(grid[b]);
  }

  StreamingPlan plan;  // per-row: resident
  if (window) {
    const detail::WindowTileModel model{
        .n = n, .rows = n, .k = k, .elem = sizeof(Scalar),
        .terms = sweep_polynomial(config.kernel).max_power + 1,
        .lane_dim = spmd::detail::reduction_block_dim(device, tpb)};
    plan = detail::plan_window_tiles<Scalar>(
        device, config.stream, model, host_x, 0, host_grid.back(),
        SpmdGridSelector::estimated_bytes(n, k, config.precision,
                                          config.streaming, config.algorithm));
  }

  // The resident plan keeps Program 4's finish: the k scores stay on the
  // device for one argmin reduction.
  spmd::DeviceBuffer<Scalar> d_scores;
  if (!plan.streamed) {
    d_scores = device.alloc_global<Scalar>(k, "cv-scores");
  }
  const std::vector<Scalar> totals =
      window ? detail::run_window_tiles<Scalar>(device, config, host_x,
                                                host_y, 0, n, host_grid, plan)
             : detail::run_per_row_slice<Scalar>(device, config, host_x,
                                                 host_y, 0, n, host_grid);

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
    // Argmin reduction over the k scores (2T shared elements: values +
    // payload, per the paper; index payload per its footnote 2).
    device.copy_to_device(d_scores, std::span<const Scalar>(totals));
    best_index = spmd::reduce_argmin<Scalar>(
                     device, spmd::MemView<const Scalar>(d_scores.view()), tpb)
                     .index;
  }
  return make_result(grid, std::move(cv), best_index, std::move(method_name));
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
  return config_.precision == Precision::kFloat
             ? run_selection<float>(device_, config_, data, grid, name())
             : run_selection<double>(device_, config_, data, grid, name());
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
