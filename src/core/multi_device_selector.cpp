#include "core/multi_device_selector.hpp"

#include <stdexcept>
#include <utility>

#include "core/batched_sweep.hpp"
#include "core/detail/window_tiles.hpp"
#include "core/window_sweep.hpp"
#include "parallel/blocked_range.hpp"
#include "spmd/reduce.hpp"

namespace kreg {

MultiDeviceGridSelector::MultiDeviceGridSelector(
    std::vector<spmd::Device*> devices, SpmdSelectorConfig config)
    : devices_(std::move(devices)), config_(config) {
  if (devices_.empty()) {
    throw std::invalid_argument("MultiDeviceGridSelector: no devices");
  }
  for (const spmd::Device* device : devices_) {
    if (device == nullptr) {
      throw std::invalid_argument("MultiDeviceGridSelector: null device");
    }
  }
  // Reject bad widths early.
  (void)resolve_lane_width(config_.lane_width, config_.precision);
}

std::size_t MultiDeviceGridSelector::estimated_bytes_per_device(
    std::size_t n, std::size_t k, std::size_t devices, Precision precision,
    bool streaming, SweepAlgorithm algorithm, std::size_t k_block,
    KernelType kernel) {
  if (devices == 0) {
    throw std::invalid_argument("estimated_bytes_per_device: devices == 0");
  }
  const std::size_t elem =
      precision == Precision::kFloat ? sizeof(float) : sizeof(double);
  const std::size_t slice = (n + devices - 1) / devices;  // worst slice
  if (algorithm == SweepAlgorithm::kWindow) {
    // The worst slice's n-resident tile with one k_block residual block
    // (k_block = 0 keeps the whole grid).
    const detail::WindowTileModel model{
        .n = n, .rows = slice, .k = k, .elem = elem,
        .terms = sweep_polynomial(kernel).max_power + 1};
    return model.bytes(slice, k_block == 0 ? k : std::min(k_block, k));
  }
  return detail::per_row_bytes(n, slice, k, elem, streaming);
}

namespace {

template <class Scalar>
SelectionResult run_multi_device(const std::vector<spmd::Device*>& devices,
                                 const SpmdSelectorConfig& config,
                                 const data::Dataset& data,
                                 const BandwidthGrid& grid,
                                 std::string method_name) {
  const std::size_t n = data.size();
  const std::size_t k = grid.size();
  const bool window = config.algorithm == SweepAlgorithm::kWindow;

  // Window path: one global sort on the host; every device indexes the same
  // sorted arrays, each sweeping its contiguous slice of *positions*.
  const SortedDataset<Scalar> host =
      detail::stage_dataset<Scalar>(data, window);
  const std::span<const Scalar> host_x(host.x);
  const std::span<const Scalar> host_y(host.y);
  std::vector<Scalar> host_grid(k);
  for (std::size_t b = 0; b < k; ++b) {
    host_grid[b] = static_cast<Scalar>(grid[b]);
  }

  const std::vector<parallel::BlockedRange> slices =
      parallel::partition_evenly(n, devices.size());

  // Combined per-bandwidth sums of squared residuals across devices.
  std::vector<double> combined(k, 0.0);

  // Each device sweeps its contiguous slice of rows with the single-device
  // sweep: the window tile loop with the tile plan sized to that device's
  // own budget (resident = one tile per slice), or the per-row-sort sweep.
  // Slices always reduce bandwidth-major; only the per-bandwidth slice
  // totals leave the device, and every shard shape is bitwise identical to
  // the resident sweep.
  SpmdSelectorConfig slice_config = config;
  slice_config.layout = ResidualLayout::kBandwidthMajor;
  for (std::size_t d = 0; d < slices.size(); ++d) {
    spmd::Device& device = *devices[d];
    const std::size_t base = slices[d].begin;
    const std::size_t rows = slices[d].size();
    std::vector<Scalar> totals;
    if (window) {
      const std::size_t tpb = std::min(
          config.threads_per_block, device.properties().max_threads_per_block);
      const detail::WindowTileModel model{
          .n = n, .rows = rows, .k = k, .elem = sizeof(Scalar),
          .terms = sweep_polynomial(config.kernel).max_power + 1,
          .lane_dim = spmd::detail::reduction_block_dim(device, tpb)};
      const StreamingPlan plan = detail::plan_window_tiles<Scalar>(
          device, config.stream, model, host_x, base, host_grid.back(),
          model.bytes(rows, k));
      totals = detail::run_window_tiles<Scalar>(
          device, slice_config, host_x, host_y, base, rows, host_grid, plan);
    } else {
      totals = detail::run_per_row_slice<Scalar>(
          device, slice_config, host_x, host_y, base, rows, host_grid);
    }
    for (std::size_t b = 0; b < k; ++b) {
      combined[b] += static_cast<double>(totals[b]);
    }
  }

  // Final argmin on device 0, as the published program does with its single
  // GPU (host-combined partials are uploaded as the reduction input).
  std::vector<Scalar> combined_scalar(k);
  for (std::size_t b = 0; b < k; ++b) {
    combined_scalar[b] = static_cast<Scalar>(combined[b]);
  }
  spmd::Device& primary = *devices.front();
  spmd::DeviceBuffer<Scalar> d_combined =
      primary.alloc_global<Scalar>(k, "combined-scores");
  primary.copy_to_device(d_combined, std::span<const Scalar>(combined_scalar));
  const spmd::ArgminResult<Scalar> best = spmd::reduce_argmin<Scalar>(
      primary, spmd::MemView<const Scalar>(d_combined.view()),
      std::min(config.threads_per_block,
               primary.properties().max_threads_per_block));

  SelectionResult result;
  std::vector<double> cv(k);
  for (std::size_t b = 0; b < k; ++b) {
    cv[b] = combined[b] / static_cast<double>(n);
  }
  result.bandwidth = grid[best.index];
  result.cv_score = cv[best.index];
  result.grid = grid.values();
  result.scores = std::move(cv);
  result.evaluations = k;
  result.method = std::move(method_name);
  return result;
}

}  // namespace

SelectionResult MultiDeviceGridSelector::select(
    const data::Dataset& data, const BandwidthGrid& grid) const {
  data.validate();
  if (data.empty()) {
    throw std::invalid_argument("MultiDeviceGridSelector: empty dataset");
  }
  if (!is_sweepable(config_.kernel)) {
    throw std::invalid_argument(
        "MultiDeviceGridSelector: kernel '" +
        std::string(to_string(config_.kernel)) +
        "' is not supported by the device sweep");
  }
  return config_.precision == Precision::kFloat
             ? run_multi_device<float>(devices_, config_, data, grid, name())
             : run_multi_device<double>(devices_, config_, data, grid, name());
}

std::string MultiDeviceGridSelector::name() const {
  std::string n = "multi-device-grid(devices=" +
                  std::to_string(devices_.size()) + ",";
  n += to_string(config_.kernel);
  n += ",";
  n += to_string(config_.precision);
  n += detail::selector_config_suffix(config_);
  n += ")";
  return n;
}

}  // namespace kreg
