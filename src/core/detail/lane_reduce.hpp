#pragma once

#include <cstddef>

#include "spmd/device.hpp"
#include "spmd/reduce.hpp"

namespace kreg::detail {

/// Lane-carried score reduction for n-block streaming.
///
/// The resident per-bandwidth reduction (spmd::reduce_sum and the
/// observation-major strided variant) is a two-phase schedule: phase 1 has
/// thread t fold the elements j ≡ t (mod D) in ascending j into a private
/// accumulator (D = the power-of-two reduction block size), phase 2 tree-
/// reduces the D accumulators in shared memory. Floating-point addition is
/// not associative, so a streamed sweep that reduced each n-block
/// separately and added block totals would NOT reproduce the resident
/// score bitwise.
///
/// Carrying the *lane accumulators* instead does: keep k×D per-(bandwidth,
/// lane) partials resident on the device, have each n-block add its
/// residuals into lane (global observation index mod D) in ascending order
/// (`lane_accumulate`), and replay phase 2's exact tree
/// schedule once at the end — the sequence of additions each lane and each
/// tree node performs is then identical to the resident reduction for ANY
/// n-block size, so the streamed profile is bitwise identical to the
/// resident one. (Phase 1 of reduce_sum starts each lane at T{} = 0 and
/// left-folds with +=; accumulating directly into the zero-initialized
/// lane slot element-by-element reproduces that left fold across blocks.)
///
/// `lane_tree_reduce` is that final phase-2 replay: load the D carried
/// lanes into shared memory and run the requested Harris schedule. The
/// bandwidth-major resident path honours the configured ReduceVariant; the
/// observation-major path's strided reduction is hardcoded sequential, so
/// callers pass the variant their resident counterpart uses.
template <class Scalar>
Scalar lane_tree_reduce(spmd::Device& device, spmd::MemView<Scalar> lanes,
                        std::size_t offset, std::size_t block_dim,
                        spmd::ReduceVariant variant) {
  Scalar total{};
  device.launch_cooperative(
      "score_lane_reduce", spmd::LaunchConfig{1, block_dim},
      block_dim * sizeof(Scalar), [&](spmd::BlockCtx& ctx) {
        auto shared = ctx.template shared_as<Scalar>(block_dim);
        ctx.for_each_thread(
            [&](std::size_t t) { shared[t] = lanes[offset + t]; });
        if (variant == spmd::ReduceVariant::kSequential) {
          for (std::size_t stride = block_dim / 2; stride > 0; stride /= 2) {
            ctx.for_each_thread([&](std::size_t t) {
              if (t < stride) {
                shared[t] += shared[t + stride];
              }
            });
          }
        } else {
          for (std::size_t stride = 1; stride < block_dim; stride *= 2) {
            ctx.for_each_thread([&](std::size_t t) {
              if (t % (2 * stride) == 0 && t + stride < block_dim) {
                shared[t] += shared[t + stride];
              }
            });
          }
        }
        total = shared[0];
      });
  return total;
}

/// Single-block cooperative sum over values[j * stride + offset] for
/// j < count: the observation-major score reduction (stride = the residual
/// block's bandwidth count). Phase 1 lanes the rows like reduce_sum; phase 2
/// is the sequential tree.
template <class Scalar>
Scalar strided_score_reduce(spmd::Device& device,
                            spmd::MemView<Scalar> values, std::size_t count,
                            std::size_t stride, std::size_t offset,
                            std::size_t block_dim) {
  Scalar total{};
  device.launch_cooperative(
      "strided_score_reduce", spmd::LaunchConfig{1, block_dim},
      block_dim * sizeof(Scalar), [&](spmd::BlockCtx& ctx) {
        auto shared = ctx.template shared_as<Scalar>(block_dim);
        ctx.for_each_thread([&](std::size_t tid) {
          Scalar acc{};
          for (std::size_t j = tid; j < count; j += block_dim) {
            acc += values[j * stride + offset];
          }
          shared[tid] = acc;
        });
        for (std::size_t s = block_dim / 2; s > 0; s /= 2) {
          ctx.for_each_thread([&](std::size_t tid) {
            if (tid < s) {
              shared[tid] += shared[tid + s];
            }
          });
        }
        total = shared[0];
      });
  return total;
}

/// First row index r in [0, nb) whose carried lane is `lane`, given the
/// block's first row maps to lane `origin % D`: solves
/// (origin + r) ≡ lane (mod D).
inline std::size_t first_lane_row(std::size_t origin, std::size_t lane,
                                  std::size_t block_dim) noexcept {
  return (lane + block_dim - origin % block_dim) % block_dim;
}

/// Phase 1 of the resident reduction continued across n-blocks: one
/// `score_lane_accum` launch in which thread `lane` folds a block's values
/// for rows ≡ lane (mod block_dim) — ascending, element by element, the
/// block's first row being row `origin` of the sweep — straight into the
/// carried accumulators of bandwidths [b0, b0 + kb). `values` holds the
/// block's rows×kb values bandwidth-major (b * rows + r) or
/// observation-major (r * kb + b).
template <class Scalar>
void lane_accumulate(spmd::Device& device, spmd::MemView<Scalar> lanes,
                     spmd::MemView<Scalar> values, std::size_t rows,
                     std::size_t kb, bool bandwidth_major, std::size_t origin,
                     std::size_t b0, std::size_t block_dim) {
  device.launch("score_lane_accum", spmd::LaunchConfig{1, block_dim},
                [&](const spmd::ThreadCtx& t) {
    const std::size_t lane = t.global_idx();
    const std::size_t start = first_lane_row(origin, lane, block_dim);
    for (std::size_t b = 0; b < kb; ++b) {
      for (std::size_t r = start; r < rows; r += block_dim) {
        lanes[(b0 + b) * block_dim + lane] +=
            values[bandwidth_major ? b * rows + r : r * kb + b];
      }
    }
  });
}

}  // namespace kreg::detail
