// Tests for the batched (SELL-C-style) window-sweep execution layer:
// admission-window lengths, lane-width resolution, bitwise parity of the
// batched host profile with the scalar resident/tiled sweeps across lane
// widths, ragged tails, precisions, and streaming tilings — and the batched
// device kernels against the scalar device baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/batched_sweep.hpp"
#include "core/grid.hpp"
#include "core/multi_device_selector.hpp"
#include "core/spmd_selector.hpp"
#include "core/window_sweep.hpp"
#include "data/dgp.hpp"
#include "rng/stream.hpp"
#include "spmd/device.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::BatchedSweep;
using kreg::HostTiling;
using kreg::KernelType;
using kreg::MultiDeviceGridSelector;
using kreg::Precision;
using kreg::ResidualLayout;
using kreg::BatchRunStats;
using kreg::SelectionResult;
using kreg::SpmdGridSelector;
using kreg::SpmdSelectorConfig;
using kreg::data::Dataset;
using kreg::rng::Stream;
using kreg::spmd::Device;

Dataset paper_data(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  return kreg::data::paper_dgp(n, s);
}

std::vector<double> test_grid(std::size_t k = 24) {
  return BandwidthGrid(0.05, 1.2, k).values();
}

// Bit-pattern equality: EXPECT_DOUBLE_EQ would forgive 4 ulp.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise_profiles(const std::vector<double>& got,
                             const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t b = 0; b < want.size(); ++b) {
    EXPECT_EQ(bits(got[b]), bits(want[b]))
        << "b=" << b << ": " << got[b] << " vs " << want[b];
  }
}

// --- resolve_lane_width ----------------------------------------------------

TEST(ResolveLaneWidth, ZeroSelectsDefaultAndValidWidthsPass) {
  for (const Precision precision : {Precision::kFloat, Precision::kDouble}) {
    EXPECT_EQ(kreg::resolve_lane_width(0, precision),
              precision == Precision::kFloat ? 16u : 8u);
    EXPECT_EQ(kreg::resolve_lane_width(1, precision), 1u);
    EXPECT_EQ(kreg::resolve_lane_width(8, precision), 8u);
    EXPECT_EQ(kreg::resolve_lane_width(16, precision), 16u);
  }
}

// Auto is one 64-byte zmm register of lanes.
TEST(ResolveLaneWidth, AutoIsSixteenFloatLanes) {
  EXPECT_EQ(kreg::resolve_lane_width(0, Precision::kFloat), 16u);
}

TEST(ResolveLaneWidth, AutoIsEightDoubleLanes) {
  EXPECT_EQ(kreg::resolve_lane_width(0, Precision::kDouble), 8u);
}

TEST(ResolveLaneWidth, RejectsUnsupportedWidths) {
  for (const Precision precision : {Precision::kFloat, Precision::kDouble}) {
    for (const std::size_t width : {2u, 3u, 4u, 5u, 32u}) {
      EXPECT_THROW(kreg::resolve_lane_width(width, precision),
                   std::invalid_argument)
          << "C=" << width;
    }
  }
}

// --- admission_windows -----------------------------------------------------

TEST(AdmissionWindowLengths, MatchesBruteForceCount) {
  const Dataset data = paper_data(257, 11);
  const auto sorted = kreg::sort_dataset<double>(data.x, data.y);
  const double h_max = 0.9;
  const std::vector<std::size_t> lengths =
      kreg::admission_windows<double>(sorted.x, h_max).length;
  ASSERT_EQ(lengths.size(), sorted.x.size());
  for (std::size_t i = 0; i < sorted.x.size(); ++i) {
    std::size_t count = 0;
    for (double xl : sorted.x) {
      const double d = xl < sorted.x[i] ? sorted.x[i] - xl : xl - sorted.x[i];
      if (d <= h_max) {
        ++count;
      }
    }
    EXPECT_EQ(lengths[i], count) << "i=" << i;
  }
}

TEST(AdmissionWindowLengths, FloatUsesFloatPredicate) {
  const Dataset data = paper_data(129, 7);
  const auto sorted = kreg::sort_dataset<float>(data.x, data.y);
  const float h_max = 0.5f;
  const std::vector<std::size_t> lengths =
      kreg::admission_windows<float>(sorted.x, h_max).length;
  ASSERT_EQ(lengths.size(), sorted.x.size());
  for (std::size_t i = 0; i < sorted.x.size(); ++i) {
    std::size_t count = 0;
    for (float xl : sorted.x) {
      const float d = xl < sorted.x[i] ? sorted.x[i] - xl : xl - sorted.x[i];
      if (d <= h_max) {
        ++count;
      }
    }
    EXPECT_EQ(lengths[i], count) << "i=" << i;
  }
}

// --- host batched profile: bitwise parity ----------------------------------

// One tile covering the dataset ⇒ the batched profile must equal the
// sequential scalar profile bit for bit, for every lane width, including
// ragged tails (n mod C ≠ 0).
TEST(BatchedHostProfile, BitwiseEqualsScalarSingleTile) {
  const std::vector<double> grid = test_grid();
  for (const std::size_t n : {64u, 203u, 517u}) {
    const Dataset data = paper_data(n, 42 + n);
    const std::vector<double> want = kreg::window_cv_profile(
        data, grid, KernelType::kEpanechnikov, Precision::kDouble);
    HostTiling one_tile;
    one_tile.n_block = n;  // single tile: matches profile_sequential order
    for (const std::size_t width : {1u, 8u, 16u}) {
      BatchedSweep batched;
      batched.lane_width = width;
      const std::vector<double> got = kreg::window_cv_profile_batched(
          data, grid, KernelType::kEpanechnikov, Precision::kDouble, batched,
          one_tile);
      SCOPED_TRACE("n=" + std::to_string(n) + " C=" + std::to_string(width));
      expect_bitwise_profiles(got, want);
    }
  }
}

TEST(BatchedHostProfile, BitwiseEqualsScalarFloat) {
  const std::vector<double> grid = test_grid();
  const Dataset data = paper_data(301, 5);
  const std::vector<double> want = kreg::window_cv_profile(
      data, grid, KernelType::kEpanechnikov, Precision::kFloat);
  HostTiling one_tile;
  one_tile.n_block = 301;
  for (const std::size_t width : {8u, 16u}) {
    BatchedSweep batched;
    batched.lane_width = width;
    const std::vector<double> got = kreg::window_cv_profile_batched(
        data, grid, KernelType::kEpanechnikov, Precision::kFloat, batched,
        one_tile);
    SCOPED_TRACE("C=" + std::to_string(width));
    expect_bitwise_profiles(got, want);
  }
}

// Same tiling ⇒ the batched profile must equal the scalar *tiled* profile
// bit for bit: batching is a pure scheduling change inside each tile.
TEST(BatchedHostProfile, BitwiseEqualsTiledUnderStreamingTilings) {
  const std::vector<double> grid = test_grid(37);
  const Dataset data = paper_data(411, 9);
  for (const std::size_t n_block : {64u, 128u}) {
    for (const std::size_t k_block : {8u, 16u, 37u}) {
      HostTiling tiling;
      tiling.n_block = n_block;
      tiling.k_block = k_block;
      const std::vector<double> want = kreg::window_cv_profile_tiled(
          data, grid, KernelType::kEpanechnikov, Precision::kDouble, tiling);
      for (const std::size_t width : {8u, 16u}) {
        BatchedSweep batched;
        batched.lane_width = width;
        const std::vector<double> got = kreg::window_cv_profile_batched(
            data, grid, KernelType::kEpanechnikov, Precision::kDouble,
            batched, tiling);
        SCOPED_TRACE("n_block=" + std::to_string(n_block) +
                     " k_block=" + std::to_string(k_block) +
                     " C=" + std::to_string(width));
        expect_bitwise_profiles(got, want);
      }
    }
  }
}

// The quartic kernel exercises the higher moment terms (m up to 4).
TEST(BatchedHostProfile, BitwiseParityTriweightKernel) {
  const std::vector<double> grid = test_grid();
  const Dataset data = paper_data(222, 13);
  const std::vector<double> want = kreg::window_cv_profile(
      data, grid, KernelType::kTriweight, Precision::kDouble);
  HostTiling one_tile;
  one_tile.n_block = 222;
  BatchedSweep batched;
  batched.lane_width = 8;
  const std::vector<double> got = kreg::window_cv_profile_batched(
      data, grid, KernelType::kTriweight, Precision::kDouble, batched,
      one_tile);
  expect_bitwise_profiles(got, want);
}

// Tiny samples stress the batch machinery's edges: n < C (one all-padding
// batch beyond lane 0), n = C (exactly one full batch), and n = C + 1 (a
// one-lane ragged tail) — for both precisions, where the contiguous-run
// detector sees windows pinned against both array edges.
TEST(BatchedHostProfile, TinyNBitwiseParity) {
  const std::vector<double> grid = test_grid(16);
  for (const std::size_t n : {5u, 8u, 9u, 16u, 17u}) {
    const Dataset data = paper_data(n, 100 + n);
    HostTiling one_tile;
    one_tile.n_block = n;
    for (const Precision precision : {Precision::kFloat, Precision::kDouble}) {
      const std::vector<double> want =
          kreg::window_cv_profile(data, grid, KernelType::kEpanechnikov,
                                  precision);
      for (const std::size_t width : {8u, 16u}) {
        BatchedSweep batched;
        batched.lane_width = width;
        BatchRunStats stats;
        const std::vector<double> got = kreg::window_cv_profile_batched(
            data, grid, KernelType::kEpanechnikov, precision, batched,
            one_tile, nullptr, &stats);
        SCOPED_TRACE("n=" + std::to_string(n) + " C=" + std::to_string(width) +
                     " float=" +
                     std::to_string(precision == Precision::kFloat));
        expect_bitwise_profiles(got, want);
        EXPECT_GE(stats.contig_rate(), 0.0);
        EXPECT_LE(stats.contig_rate(), 1.0);
      }
    }
  }
}

// A batch's lanes are consecutive sorted rows and admit from overlapping
// index ranges, so the contiguous-run transpose path must fire on most
// steps — and firing must not perturb a single bit of the profile.
TEST(BatchedHostProfile, ContigFastPathFiresAndStaysBitwise) {
  const std::vector<double> grid = test_grid();
  const Dataset data = paper_data(1024, 77);
  const std::vector<double> want = kreg::window_cv_profile(
      data, grid, KernelType::kEpanechnikov, Precision::kDouble);
  HostTiling one_tile;
  one_tile.n_block = 1024;
  for (const std::size_t width : {8u, 16u}) {
    BatchedSweep batched;
    batched.lane_width = width;
    BatchRunStats stats;
    const std::vector<double> got = kreg::window_cv_profile_batched(
        data, grid, KernelType::kEpanechnikov, Precision::kDouble, batched,
        one_tile, nullptr, &stats);
    SCOPED_TRACE("C=" + std::to_string(width));
    expect_bitwise_profiles(got, want);
    EXPECT_GT(stats.contig_steps, stats.gather_steps);
    EXPECT_LE(stats.contig_rate(), 1.0);
  }
}

TEST(BatchedHostProfile, DefaultsMatchTiledDefaults) {
  // Default BatchedSweep (auto width) with default tiling must equal
  // the default scalar tiled profile — batched is the default host backend.
  const std::vector<double> grid = test_grid();
  const Dataset data = paper_data(3000, 21);
  const std::vector<double> want = kreg::window_cv_profile_tiled(
      data, grid, KernelType::kEpanechnikov, Precision::kDouble);
  const std::vector<double> got = kreg::window_cv_profile_batched(
      data, grid, KernelType::kEpanechnikov);
  expect_bitwise_profiles(got, want);
}

TEST(BatchedHostProfile, RejectsBadLaneWidthAndBadGrid) {
  const Dataset data = paper_data(32, 3);
  const std::vector<double> grid = test_grid(4);
  for (const std::size_t width : {3u, 4u}) {
    BatchedSweep batched;
    batched.lane_width = width;
    EXPECT_THROW(kreg::window_cv_profile_batched(
                     data, grid, KernelType::kEpanechnikov,
                     Precision::kDouble, batched),
                 std::invalid_argument)
        << "C=" << width;
  }
  const std::vector<double> bad_grid = {0.5, 0.5, 0.6};
  EXPECT_THROW(kreg::window_cv_profile_batched(data, bad_grid,
                                               KernelType::kEpanechnikov),
               std::invalid_argument);
}

// --- device batched kernels: bitwise parity --------------------------------

SpmdSelectorConfig device_cfg(std::size_t lane_width,
                              Precision precision = Precision::kDouble) {
  SpmdSelectorConfig cfg;
  cfg.precision = precision;
  cfg.lane_width = lane_width;
  cfg.stream.auto_tune = false;  // pin the resident path unless overridden
  return cfg;
}

void expect_same_selection(const SelectionResult& got,
                           const SelectionResult& want) {
  EXPECT_EQ(bits(got.bandwidth), bits(want.bandwidth));
  EXPECT_EQ(bits(got.cv_score), bits(want.cv_score));
  expect_bitwise_profiles(got.scores, want.scores);
}

// n = 700 with tpb = 512 gives a full block plus a ragged 188-row block, so
// every lane width exercises tail dispatches.
TEST(SpmdBatchedParity, ResidentBitwiseAcrossLaneWidths) {
  const Dataset data = paper_data(700, 31);
  const BandwidthGrid grid(0.05, 1.2, 32);
  Device dev;
  const SelectionResult want =
      SpmdGridSelector(dev, device_cfg(1)).select(data, grid);
  for (const std::size_t width : {8u, 16u}) {
    const SelectionResult got =
        SpmdGridSelector(dev, device_cfg(width)).select(data, grid);
    SCOPED_TRACE("C=" + std::to_string(width));
    expect_same_selection(got, want);
  }
}

TEST(SpmdBatchedParity, ResidentBitwiseObservationMajorAndFloat) {
  const Dataset data = paper_data(451, 17);
  const BandwidthGrid grid(0.05, 1.2, 24);
  Device dev;
  for (const Precision precision : {Precision::kFloat, Precision::kDouble}) {
    SpmdSelectorConfig scalar = device_cfg(1, precision);
    scalar.layout = ResidualLayout::kObservationMajor;
    const SelectionResult want =
        SpmdGridSelector(dev, scalar).select(data, grid);
    SpmdSelectorConfig batched = device_cfg(8, precision);
    batched.layout = ResidualLayout::kObservationMajor;
    const SelectionResult got =
        SpmdGridSelector(dev, batched).select(data, grid);
    expect_same_selection(got, want);
  }
}

TEST(SpmdBatchedParity, StreamedKblockBitwise) {
  const Dataset data = paper_data(600, 23);
  const BandwidthGrid grid(0.05, 1.2, 40);
  Device dev;
  const SelectionResult resident =
      SpmdGridSelector(dev, device_cfg(1)).select(data, grid);
  for (const std::size_t width : {8u, 16u}) {
    SpmdSelectorConfig cfg = device_cfg(width);
    cfg.stream.k_block = 8;
    const SelectionResult got =
        SpmdGridSelector(dev, cfg).select(data, grid);
    SCOPED_TRACE("C=" + std::to_string(width));
    expect_same_selection(got, resident);
  }
}

TEST(SpmdBatchedParity, Streamed2DTileBitwise) {
  const Dataset data = paper_data(531, 29);
  const BandwidthGrid grid(0.05, 1.2, 32);
  Device dev;
  const SelectionResult resident =
      SpmdGridSelector(dev, device_cfg(1)).select(data, grid);
  for (const std::size_t width : {8u, 16u}) {
    SpmdSelectorConfig cfg = device_cfg(width);
    cfg.stream.k_block = 8;
    cfg.stream.n_block = 96;
    const SelectionResult got =
        SpmdGridSelector(dev, cfg).select(data, grid);
    SCOPED_TRACE("C=" + std::to_string(width));
    expect_same_selection(got, resident);
  }
}

TEST(SpmdBatchedParity, NameReportsLanes) {
  Device dev;
  for (const std::size_t width : {8u, 16u}) {
    const std::string batched = SpmdGridSelector(dev, device_cfg(width)).name();
    EXPECT_NE(batched.find("lanes=" + std::to_string(width)),
              std::string::npos)
        << batched;
  }
  const std::string scalar = SpmdGridSelector(dev, device_cfg(1)).name();
  EXPECT_EQ(scalar.find("lanes"), std::string::npos) << scalar;
}

// Auto (lane_width = 0) resolves per precision, and the name reports the
// width that runs: one zmm register of lanes, 16 floats or 8 doubles.
TEST(SpmdBatchedParity, NameReportsAutoWidthPerPrecision) {
  Device dev;
  const std::string float_auto =
      SpmdGridSelector(dev, device_cfg(0, Precision::kFloat)).name();
  EXPECT_NE(float_auto.find("lanes=16"), std::string::npos) << float_auto;
  const std::string double_auto =
      SpmdGridSelector(dev, device_cfg(0, Precision::kDouble)).name();
  EXPECT_NE(double_auto.find("lanes=8"), std::string::npos) << double_auto;
  const std::string multi_float =
      MultiDeviceGridSelector({&dev}, device_cfg(0, Precision::kFloat))
          .name();
  EXPECT_NE(multi_float.find("lanes=16"), std::string::npos) << multi_float;
}

TEST(SpmdBatchedParity, CtorRejectsBadLaneWidth) {
  Device dev;
  for (const std::size_t width : {3u, 4u, 5u}) {
    EXPECT_THROW(SpmdGridSelector(dev, device_cfg(width)),
                 std::invalid_argument)
        << "C=" << width;
    EXPECT_THROW(MultiDeviceGridSelector({&dev}, device_cfg(width)),
                 std::invalid_argument)
        << "C=" << width;
  }
}

TEST(MultiDeviceBatchedParity, ResidentAndStreamedBitwise) {
  const Dataset data = paper_data(640, 37);
  const BandwidthGrid grid(0.05, 1.2, 24);
  Device dev1;
  Device dev2;
  const std::vector<Device*> devices = {&dev1, &dev2};
  const SelectionResult want =
      MultiDeviceGridSelector(devices, device_cfg(1)).select(data, grid);
  for (const std::size_t width : {8u, 16u}) {
    const SelectionResult got =
        MultiDeviceGridSelector(devices, device_cfg(width))
            .select(data, grid);
    SCOPED_TRACE("C=" + std::to_string(width));
    expect_same_selection(got, want);
  }
  // Force both streaming dimensions on each device slice.
  SpmdSelectorConfig streamed = device_cfg(8);
  streamed.stream.k_block = 8;
  streamed.stream.n_block = 64;
  const SelectionResult got =
      MultiDeviceGridSelector(devices, streamed).select(data, grid);
  expect_same_selection(got, want);
}

// --- float lanes at C = 16: one zmm register per batch -------------------
//
// On AVX-512 builds with -ffp-contract=off, float batches of 16 run the
// hand-vectorized kernel (batched_lanes_avx512.hpp); elsewhere they run the
// generic path. Either way every profile must equal the C = 1 profile bit
// for bit, so these checks compare bit patterns, not values.

std::vector<double> float_host_profile(const Dataset& data,
                                       const std::vector<double>& grid,
                                       KernelType kernel,
                                       std::size_t lane_width,
                                       BatchRunStats* stats = nullptr) {
  BatchedSweep batched;
  batched.lane_width = lane_width;
  return kreg::window_cv_profile_batched(data, grid, kernel,
                                         Precision::kFloat, batched, {},
                                         nullptr, stats);
}

// Every sweepable kernel, so the kernel runs at each term count the
// polynomials use (1, 2, 3, 5 and 7 terms).
TEST(FloatZmmParity, EverySweepableKernelBitwise) {
  const Dataset data = paper_data(1500, 61);
  const std::vector<double> grid = test_grid(30);
  std::vector<std::size_t> term_counts;
  for (const KernelType kernel : kreg::kAllKernels) {
    if (!kreg::is_sweepable(kernel)) {
      continue;
    }
    term_counts.push_back(kreg::sweep_polynomial(kernel).max_power + 1);
    SCOPED_TRACE(std::string(kreg::to_string(kernel)));
    expect_bitwise_profiles(float_host_profile(data, grid, kernel, 16),
                         float_host_profile(data, grid, kernel, 1));
  }
  std::sort(term_counts.begin(), term_counts.end());
  EXPECT_EQ(term_counts, (std::vector<std::size_t>{1, 2, 3, 5, 7}));
}

// n = 1…40: a single ragged batch below 16, windows narrower than the
// 32-float block (every step on the gather path), and runs clipped
// against both array edges once n passes 32.
TEST(FloatZmmParity, TinyNEveryLengthBitwise) {
  const std::vector<double> grid = test_grid(12);
  for (std::size_t n = 1; n <= 40; ++n) {
    const Dataset data = paper_data(n, 500 + n);
    SCOPED_TRACE("n=" + std::to_string(n));
    expect_bitwise_profiles(
        float_host_profile(data, grid, KernelType::kEpanechnikov, 16),
        float_host_profile(data, grid, KernelType::kEpanechnikov, 1));
    expect_bitwise_profiles(
        float_host_profile(data, grid, KernelType::kTriweight, 16),
        float_host_profile(data, grid, KernelType::kTriweight, 1));
  }
}

// Bandwidths up to several times the X range drive every window into
// both array edges, where block reads are clipped and the masked gather
// serves the remaining steps.
TEST(FloatZmmParity, WideGridGatherFallbackBitwise) {
  const Dataset data = paper_data(3001, 71);
  const std::vector<double> grid = BandwidthGrid(0.001, 5.0, 40).values();
  BatchRunStats stats;
  const std::vector<double> got = float_host_profile(
      data, grid, KernelType::kBiweight, 16, &stats);
  expect_bitwise_profiles(
      got, float_host_profile(data, grid, KernelType::kBiweight, 1));
  EXPECT_GT(stats.gather_steps, 0u);
  EXPECT_GT(stats.contig_steps, 0u);
}

// The paper's Fig. 1 shape: n = 20,000, k = 50 on [0.001, 0.05]. Batches
// of consecutive sorted rows keep their window bases within one block, so
// the contiguous-run path serves most steps.
TEST(FloatZmmParity, PaperShapeMostlyContiguous) {
  const Dataset data = paper_data(20000, 1);
  const std::vector<double> grid = BandwidthGrid(0.001, 0.05, 50).values();
  BatchRunStats stats;
  const std::vector<double> got = float_host_profile(
      data, grid, KernelType::kEpanechnikov, 0, &stats);
  expect_bitwise_profiles(
      got, float_host_profile(data, grid, KernelType::kEpanechnikov, 1));
  EXPECT_GT(stats.contig_steps, stats.gather_steps);
}

TEST(FloatZmmParity, DevicePlansBitwise) {
  const Dataset data = paper_data(700, 83);
  const BandwidthGrid grid(0.05, 1.2, 32);
  Device dev;
  for (const KernelType kernel :
       {KernelType::kEpanechnikov, KernelType::kTriweight}) {
    SpmdSelectorConfig scalar = device_cfg(1, Precision::kFloat);
    scalar.kernel = kernel;
    const SelectionResult want =
        SpmdGridSelector(dev, scalar).select(data, grid);
    SpmdSelectorConfig resident = device_cfg(16, Precision::kFloat);
    resident.kernel = kernel;
    SpmdSelectorConfig kblock = resident;
    kblock.stream.k_block = 8;
    SpmdSelectorConfig tiled = kblock;
    tiled.stream.n_block = 96;
    for (const SpmdSelectorConfig& cfg : {resident, kblock, tiled}) {
      const SelectionResult got =
          SpmdGridSelector(dev, cfg).select(data, grid);
      SCOPED_TRACE(SpmdGridSelector(dev, cfg).name());
      expect_bitwise_profiles(got.scores, want.scores);
    }
  }
}

// --- launch_lanes ----------------------------------------------------------

TEST(LaunchLanes, CoversEveryThreadOnceWithRaggedTail) {
  Device dev;
  const std::size_t blocks = 3;
  const std::size_t tpb = 10;
  const std::size_t lane_width = 4;
  const std::size_t per_block = 3;  // ceil(10 / 4): lanes 4, 4, 2
  std::vector<std::size_t> seen(blocks * tpb, 0);
  std::vector<std::size_t> lane_counts(blocks * per_block, 0);
  dev.launch_lanes("probe", kreg::spmd::LaunchConfig{blocks, tpb}, lane_width,
                   [&](const kreg::spmd::LaneCtx& t) {
    lane_counts[t.block_idx * per_block + t.base / lane_width] = t.lanes;
    for (std::size_t l = 0; l < t.lanes; ++l) {
      seen[t.global_base() + l] += 1;
    }
  });
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1u) << "thread " << i;
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    EXPECT_EQ(lane_counts[b * per_block + 0], 4u);
    EXPECT_EQ(lane_counts[b * per_block + 1], 4u);
    EXPECT_EQ(lane_counts[b * per_block + 2], 2u);
  }
  EXPECT_EQ(dev.stats().kernel_launches, 1u);
  EXPECT_EQ(dev.stats().blocks_executed, blocks);
  EXPECT_EQ(dev.stats().threads_executed, blocks * tpb);
  EXPECT_EQ(dev.stats().lane_dispatches, blocks * per_block);
}

TEST(LaunchLanes, ZeroLaneWidthThrows) {
  Device dev;
  EXPECT_THROW(
      dev.launch_lanes("bad", kreg::spmd::LaunchConfig{1, 8}, 0,
                       [](const kreg::spmd::LaneCtx&) {}),
      kreg::spmd::LaunchConfigError);
}

}  // namespace
