#include "core/detail/window_tiles.hpp"

#include <algorithm>

#include "core/batched_sweep.hpp"
#include "core/detail/batched_lanes.hpp"
#include "core/detail/lane_reduce.hpp"
#include "spmd/reduce.hpp"

namespace kreg::detail {

template <class Scalar>
std::vector<Scalar> run_window_tiles(spmd::Device& device,
                                     const SpmdSelectorConfig& config,
                                     std::span<const Scalar> host_x,
                                     std::span<const Scalar> host_y,
                                     std::size_t base, std::size_t rows,
                                     std::span<const Scalar> host_grid,
                                     const StreamingPlan& plan) {
  const std::size_t k = host_grid.size();
  // The paper used the device maximum (512); clamp the request the same way
  // so one selector config runs on any device.
  const std::size_t tpb = std::min(config.threads_per_block,
                                   device.properties().max_threads_per_block);
  const SweepPolynomial poly = sweep_polynomial(config.kernel);
  const std::size_t terms = poly.max_power + 1;
  const bool bandwidth_major = config.layout == ResidualLayout::kBandwidthMajor;
  const std::size_t lane_width =
      resolve_lane_width(config.lane_width, config.precision);
  const std::size_t lane_dim = spmd::detail::reduction_block_dim(device, tpb);
  const Scalar reach = host_grid.back();  // widest admission: h_max
  const bool carried = plan.blocks(k) > 1;
  const bool lane_carried = plan.n_blocks(rows) > 1;

  // Carried per-(bandwidth, lane) score accumulators, keyed on the
  // slice-local row index mod lane_dim. Uploaded as zeros — phase 1 of the
  // resident reduction starts every lane at zero too, so accumulating each
  // block's residuals in ascending row order reproduces its exact left fold.
  spmd::DeviceBuffer<Scalar> d_lanes;
  if (lane_carried) {
    d_lanes = device.alloc_global<Scalar>(k * lane_dim, "score-lanes");
    const std::vector<Scalar> zeros(k * lane_dim, Scalar{});
    device.copy_to_device(d_lanes, std::span<const Scalar>(zeros));
  }
  spmd::MemView<Scalar> lanes = d_lanes.view();

  std::vector<Scalar> totals(k);
  for (std::size_t n0 = 0; n0 < rows; n0 += plan.n_block) {
    const std::size_t nb = std::min(plan.n_block, rows - n0);
    // The block's slab: the block plus a halo covering every admission at
    // h_max (see halo_begin/halo_end); a block of all n rows uploads the
    // whole sorted arrays.
    const std::size_t slab_begin = halo_begin(host_x, base + n0, reach);
    const std::size_t slab =
        halo_end(host_x, base + n0 + nb - 1, reach) - slab_begin;
    spmd::DeviceBuffer<Scalar> d_x = device.alloc_global<Scalar>(slab, "x");
    spmd::DeviceBuffer<Scalar> d_y = device.alloc_global<Scalar>(slab, "y");
    device.copy_to_device(d_x, host_x.subspan(slab_begin, slab));
    device.copy_to_device(d_y, host_y.subspan(slab_begin, slab));

    // The block's window state, carried between k-blocks.
    spmd::DeviceBuffer<std::size_t> d_lo;
    spmd::DeviceBuffer<std::size_t> d_hi;
    spmd::DeviceBuffer<Scalar> d_sm;
    spmd::DeviceBuffer<Scalar> d_tm;
    if (carried) {
      d_lo = device.alloc_global<std::size_t>(nb, "window-lo");
      d_hi = device.alloc_global<std::size_t>(nb, "window-hi");
      d_sm = device.alloc_global<Scalar>(nb * terms, "moment-s");
      d_tm = device.alloc_global<Scalar>(nb * terms, "moment-t");
    }
    spmd::DeviceBuffer<Scalar> d_resid =
        device.alloc_global<Scalar>(nb * plan.k_block, "residuals");

    std::span<const Scalar> xs = d_x.span();
    std::span<const Scalar> ys = d_y.span();
    spmd::MemView<std::size_t> lo_all = d_lo.view();
    spmd::MemView<std::size_t> hi_all = d_hi.view();
    spmd::MemView<Scalar> sm_all = d_sm.view();
    spmd::MemView<Scalar> tm_all = d_tm.view();
    spmd::MemView<Scalar> resid_all = d_resid.view();

    const spmd::LaunchConfig cfg = spmd::LaunchConfig::cover(nb, tpb);
    const std::size_t rel0 = base + n0 - slab_begin;  // row 0's slab index

    for (std::size_t b0 = 0; b0 < k; b0 += plan.k_block) {
      const std::size_t kb = std::min(plan.k_block, k - b0);
      spmd::ConstantBuffer<Scalar> c_block = device.upload_constant<Scalar>(
          host_grid.subspan(b0, kb), "bandwidth-grid");
      spmd::MemView<const Scalar> hs = c_block.view();
      const bool first = b0 == 0;
      const bool last = b0 + kb == k;

      // Main kernel: one thread per row, positions slab-relative. The halo
      // guarantees no admission ever reaches a slab edge the whole-array
      // sweep would cross, so the slab-relative guards decide exactly as
      // the absolute ones. Carry and residuals are keyed by the row's
      // tile index, so every lane width is bitwise the scalar kernel.
      if (lane_width > 1) {
        with_lane_width(lane_width, [&](auto width_c) {
          constexpr std::size_t C = decltype(width_c)::value;
          device.launch_lanes("cv_sweep", cfg, C,
                              [&, nb, kb, rel0, first, last](
                                  const spmd::LaneCtx& t) {
            LaneBatch<Scalar, C> st;
            st.lanes = 0;
            for (std::size_t l = 0; l < t.lanes; ++l) {
              const std::size_t r = t.global_base() + l;
              if (r < nb) {
                st.pos[st.lanes++] = rel0 + r;
              }
            }
            if (st.lanes == 0) {
              return;  // all-padding dispatch in the last block
            }
            const auto key = [&st, rel0](std::size_t l) {
              return st.pos[l] - rel0;
            };
            if (first) {
              batch_seed(st, xs, ys);
            } else {
              batch_load(st, xs, ys, lo_all, hi_all, sm_all, tm_all, terms,
                         key);
            }
            batch_resume(st, xs, ys, hs, poly,
                         [&](std::size_t b, std::size_t l, Scalar sq) {
              const std::size_t q = st.pos[l] - rel0;
              resid_all[bandwidth_major ? b * nb + q : q * kb + b] = sq;
            });
            if (!last) {
              batch_store(st, lo_all, hi_all, sm_all, tm_all, terms, key);
            }
          });
        });
      } else {
        device.launch("cv_sweep", cfg, [&, nb, kb, rel0, first, last](
                                           const spmd::ThreadCtx& t) {
          const std::size_t r = t.global_idx();
          if (r >= nb) {
            return;  // padding thread in the last block
          }
          const std::size_t pos = rel0 + r;
          Scalar s_m[SweepPolynomial::kMaxPower + 1] = {};
          Scalar t_m[SweepPolynomial::kMaxPower + 1] = {};
          const std::span<Scalar> sm(s_m, terms);
          const std::span<Scalar> tm(t_m, terms);
          std::size_t lo = 0;
          std::size_t hi = 0;
          if (first) {
            window_sweep_seed<Scalar>(ys, pos, lo, hi, sm, tm);
          } else {
            lo = lo_all[r];
            hi = hi_all[r];
            for (std::size_t m = 0; m < terms; ++m) {
              s_m[m] = sm_all[r * terms + m];
              t_m[m] = tm_all[r * terms + m];
            }
          }
          window_sweep_resume<Scalar>(
              xs, ys, hs, poly, pos, lo, hi, sm, tm,
              [&](std::size_t b, Scalar sq) {
                resid_all[bandwidth_major ? b * nb + r : r * kb + b] = sq;
              });
          if (!last) {
            lo_all[r] = lo;
            hi_all[r] = hi;
            for (std::size_t m = 0; m < terms; ++m) {
              sm_all[r * terms + m] = s_m[m];
              tm_all[r * terms + m] = t_m[m];
            }
          }
        });
      }

      if (lane_carried) {
        lane_accumulate<Scalar>(device, lanes, resid_all, nb, kb,
                                bandwidth_major, n0, b0, lane_dim);
        continue;
      }
      // One n-block: reduce each residual column right away (paper §IV-B:
      // one single-block sum reduction per bandwidth — a contiguous run
      // bandwidth-major, stride kb observation-major).
      for (std::size_t b = 0; b < kb; ++b) {
        totals[b0 + b] =
            bandwidth_major
                ? spmd::reduce_sum<Scalar>(device,
                                           resid_all.subview(b * nb, nb), tpb,
                                           config.reduce_variant)
                : strided_score_reduce<Scalar>(device, resid_all, nb, kb, b,
                                               lane_dim);
      }
    }
  }

  if (lane_carried) {
    // Phase-2 replay: one tree reduction per bandwidth over its carried
    // lanes. The one-block observation-major reduction is the hardcoded
    // sequential strided kernel, so only bandwidth-major honours the
    // configured variant.
    const spmd::ReduceVariant variant = bandwidth_major
                                            ? config.reduce_variant
                                            : spmd::ReduceVariant::kSequential;
    for (std::size_t b = 0; b < k; ++b) {
      totals[b] =
          lane_tree_reduce<Scalar>(device, lanes, b * lane_dim, lane_dim,
                                   variant);
    }
  }
  return totals;
}

template <class Scalar>
std::vector<Scalar> run_per_row_slice(spmd::Device& device,
                                      const SpmdSelectorConfig& config,
                                      std::span<const Scalar> host_x,
                                      std::span<const Scalar> host_y,
                                      std::size_t base, std::size_t rows,
                                      std::span<const Scalar> host_grid) {
  const std::size_t n = host_x.size();
  const std::size_t k = host_grid.size();
  const std::size_t tpb = std::min(config.threads_per_block,
                                   device.properties().max_threads_per_block);
  const SweepPolynomial poly = sweep_polynomial(config.kernel);
  const bool bandwidth_major = config.layout == ResidualLayout::kBandwidthMajor;
  const bool streaming = config.streaming;

  // Device memory plan (paper §IV-A): bandwidths in constant memory (the
  // 8 KB working set caps k), the full X/Y in global memory.
  spmd::ConstantBuffer<Scalar> c_grid =
      device.upload_constant<Scalar>(host_grid, "bandwidth-grid");
  spmd::DeviceBuffer<Scalar> d_x = device.alloc_global<Scalar>(n, "x");
  spmd::DeviceBuffer<Scalar> d_y = device.alloc_global<Scalar>(n, "y");
  device.copy_to_device(d_x, host_x);
  device.copy_to_device(d_y, host_y);

  // Two rows×n matrices for the per-thread sorted rows (skipped in
  // streaming mode, the paper's future-work extension), two rows×k matrices
  // of bandwidth-specific sums, and the rows×k squared-residual matrix
  // feeding the reductions.
  spmd::DeviceBuffer<Scalar> d_dist;
  spmd::DeviceBuffer<Scalar> d_ymat;
  if (!streaming) {
    d_dist = device.alloc_global<Scalar>(rows * n, "dist-rows");
    d_ymat = device.alloc_global<Scalar>(rows * n, "y-rows");
  }
  spmd::DeviceBuffer<Scalar> d_sum_y =
      device.alloc_global<Scalar>(rows * k, "sum-y");
  spmd::DeviceBuffer<Scalar> d_sum_w =
      device.alloc_global<Scalar>(rows * k, "sum-w");
  spmd::DeviceBuffer<Scalar> d_resid =
      device.alloc_global<Scalar>(rows * k, "residuals");

  // X/Y and the row matrices stay raw spans: the per-thread quicksort needs
  // raw element references. The grid, sums and residuals go through
  // checked views so a sanitizer-enabled device instruments them.
  std::span<const Scalar> xs = d_x.span();
  std::span<const Scalar> ys = d_y.span();
  spmd::MemView<const Scalar> hs = c_grid.view();
  std::span<Scalar> dist_all = d_dist.span();
  std::span<Scalar> ymat_all = d_ymat.span();
  spmd::MemView<Scalar> sum_y_all = d_sum_y.view();
  spmd::MemView<Scalar> sum_w_all = d_sum_w.view();
  spmd::MemView<Scalar> resid_all = d_resid.view();

  // Main kernel (paper §IV-B): one thread per row; no shared memory or
  // cross-thread coordination, so an independent launch.
  device.launch("cv_sweep", spmd::LaunchConfig::cover(rows, tpb),
                [&, base, rows, n, k](const spmd::ThreadCtx& t) {
    const std::size_t r = t.global_idx();
    if (r >= rows) {
      return;  // padding thread in the last block
    }
    // Thread r's rows of the distance and Y matrices. In streaming mode the
    // rows live in thread-local scratch ("local memory") instead.
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
      dist = dist_all.subspan(r * n, n);
      yrow = ymat_all.subspan(r * n, n);
    }
    // Bandwidth-major "to facilitate efficient caching… the array is
    // indexed as k separate groups of n" (here: of `rows`).
    sweep_thread<Scalar>(
        xs, ys, hs, poly, base + r, dist, yrow, sum_y_all.subview(r * k, k),
        sum_w_all.subview(r * k, k), [&](std::size_t b, Scalar sq) {
          resid_all[bandwidth_major ? b * rows + r : r * k + b] = sq;
        });
  });

  // Reductions (paper §IV-B): one single-block sum reduction per bandwidth
  // — a contiguous run bandwidth-major, stride k observation-major.
  const std::size_t block_dim = spmd::detail::reduction_block_dim(device, tpb);
  std::vector<Scalar> totals(k);
  for (std::size_t b = 0; b < k; ++b) {
    totals[b] = bandwidth_major
                    ? spmd::reduce_sum<Scalar>(
                          device, resid_all.subview(b * rows, rows), tpb,
                          config.reduce_variant)
                    : strided_score_reduce<Scalar>(device, resid_all, rows,
                                                   k, b, block_dim);
  }
  return totals;
}

template std::vector<float> run_window_tiles<float>(
    spmd::Device&, const SpmdSelectorConfig&, std::span<const float>,
    std::span<const float>, std::size_t, std::size_t, std::span<const float>,
    const StreamingPlan&);
template std::vector<double> run_window_tiles<double>(
    spmd::Device&, const SpmdSelectorConfig&, std::span<const double>,
    std::span<const double>, std::size_t, std::size_t,
    std::span<const double>, const StreamingPlan&);

template std::vector<float> run_per_row_slice<float>(
    spmd::Device&, const SpmdSelectorConfig&, std::span<const float>,
    std::span<const float>, std::size_t, std::size_t, std::span<const float>);
template std::vector<double> run_per_row_slice<double>(
    spmd::Device&, const SpmdSelectorConfig&, std::span<const double>,
    std::span<const double>, std::size_t, std::size_t,
    std::span<const double>);

}  // namespace kreg::detail
