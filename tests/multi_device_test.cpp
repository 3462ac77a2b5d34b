// Tests for the multi-device selector: agreement with the single-device
// program, capacity scaling across devices, odd partitions, and composition
// with streaming mode.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/grid.hpp"
#include "core/multi_device_selector.hpp"
#include "core/selectors.hpp"
#include "core/spmd_selector.hpp"
#include "data/dgp.hpp"
#include "rng/stream.hpp"
#include "spmd/errors.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::MultiDeviceGridSelector;
using kreg::Precision;
using kreg::SpmdSelectorConfig;
using kreg::data::Dataset;
using kreg::rng::Stream;
using kreg::spmd::Device;
using kreg::spmd::DeviceProperties;

Dataset paper_data(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  return kreg::data::paper_dgp(n, s);
}

SpmdSelectorConfig double_cfg() {
  SpmdSelectorConfig cfg;
  cfg.precision = Precision::kDouble;
  return cfg;
}

TEST(MultiDevice, MatchesSingleDeviceSelection) {
  Device a;
  Device b;
  Device single;
  const Dataset d = paper_data(301, 1);  // odd: uneven slices
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 40);

  const auto one =
      kreg::SpmdGridSelector(single, double_cfg()).select(d, grid);
  const auto two =
      MultiDeviceGridSelector({&a, &b}, double_cfg()).select(d, grid);

  EXPECT_DOUBLE_EQ(two.bandwidth, one.bandwidth);
  ASSERT_EQ(two.scores.size(), one.scores.size());
  for (std::size_t i = 0; i < one.scores.size(); ++i) {
    EXPECT_NEAR(two.scores[i], one.scores[i],
                1e-10 * std::max(1.0, one.scores[i]));
  }
}

TEST(MultiDevice, MatchesHostReferenceWithThreeDevices) {
  Device a;
  Device b;
  Device c;
  const Dataset d = paper_data(200, 2);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 25);
  const auto host = kreg::SortedGridSelector().select(d, grid);
  const auto multi =
      MultiDeviceGridSelector({&a, &b, &c}, double_cfg()).select(d, grid);
  EXPECT_DOUBLE_EQ(multi.bandwidth, host.bandwidth);
  for (std::size_t i = 0; i < host.scores.size(); ++i) {
    EXPECT_NEAR(multi.scores[i], host.scores[i],
                1e-9 * std::max(1.0, host.scores[i]));
  }
}

// A one-device list is the single-device selector: the same sweep over the
// same rows, so the bandwidth and every score agree bit for bit on every
// window plan shape, precision and lane width, and on every per-row-sort
// configuration (row storage, precision, residual layout).
TEST(MultiDevice, SingleDeviceListBehavesLikeSpmdSelector) {
  const Dataset d = paper_data(701, 3);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 23);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto expect_same = [&](const Dataset& data, const BandwidthGrid& g,
                               const SpmdSelectorConfig& cfg) {
    Device dev;
    Device reference_dev;
    const auto multi = MultiDeviceGridSelector({&dev}, cfg).select(data, g);
    const auto single =
        kreg::SpmdGridSelector(reference_dev, cfg).select(data, g);
    EXPECT_EQ(bits(multi.bandwidth), bits(single.bandwidth));
    ASSERT_EQ(multi.scores.size(), single.scores.size());
    for (std::size_t b = 0; b < single.scores.size(); ++b) {
      EXPECT_EQ(bits(multi.scores[b]), bits(single.scores[b]))
          << "b=" << b << ": " << multi.scores[b] << " vs "
          << single.scores[b];
    }
  };
  struct Blocks {
    std::size_t n_block;
    std::size_t k_block;
  };
  for (const Blocks blocks : {Blocks{0, 0}, Blocks{0, 5}, Blocks{96, 5},
                              Blocks{128, 0}}) {
    for (const Precision precision : {Precision::kFloat, Precision::kDouble}) {
      for (const std::size_t lane_width : {0u, 1u}) {
        SpmdSelectorConfig cfg;
        cfg.precision = precision;
        cfg.lane_width = lane_width;
        cfg.stream.n_block = blocks.n_block;
        cfg.stream.k_block = blocks.k_block;
        SCOPED_TRACE("n_block=" + std::to_string(blocks.n_block) +
                     " k_block=" + std::to_string(blocks.k_block) +
                     " precision=" + std::string(kreg::to_string(precision)) +
                     " lane_width=" + std::to_string(lane_width));
        expect_same(d, grid, cfg);
      }
    }
  }

  const Dataset per_row_data = paper_data(301, 3);
  const BandwidthGrid per_row_grid = BandwidthGrid::default_for(per_row_data,
                                                                17);
  for (const bool streaming : {false, true}) {
    for (const Precision precision : {Precision::kFloat, Precision::kDouble}) {
      for (const kreg::ResidualLayout layout :
           {kreg::ResidualLayout::kBandwidthMajor,
            kreg::ResidualLayout::kObservationMajor}) {
        SpmdSelectorConfig cfg;
        cfg.algorithm = kreg::SweepAlgorithm::kPerRowSort;
        cfg.streaming = streaming;
        cfg.precision = precision;
        cfg.layout = layout;
        SCOPED_TRACE("per-row streaming=" + std::to_string(streaming) +
                     " precision=" + std::string(kreg::to_string(precision)) +
                     " layout=" + std::string(kreg::to_string(layout)));
        expect_same(per_row_data, per_row_grid, cfg);
      }
    }
  }
}

TEST(MultiDevice, TwoDevicesRoughlyHalveTheFootprint) {
  const std::size_t one = kreg::SpmdGridSelector::estimated_bytes(
      20000, 50, Precision::kFloat, false);
  const std::size_t per_dev =
      MultiDeviceGridSelector::estimated_bytes_per_device(
          20000, 50, 2, Precision::kFloat, false);
  EXPECT_LT(per_dev, one * 6 / 10);  // slightly over half (x/y replicated)
}

TEST(MultiDevice, CapacityDoublesAcrossTwoSmallDevices) {
  // A dataset whose n×n matrices overflow one 1 MB device but fit when the
  // rows are split across two (n = 448: single needs ~1.6 MB, each half
  // ~0.94 MB).
  const Dataset d = paper_data(448, 4);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 8);
  SpmdSelectorConfig cfg;  // float
  // The per-row plan is the one with the n×n matrices; the window default
  // would fit on the lone device and defeat the capacity demonstration.
  cfg.algorithm = kreg::SweepAlgorithm::kPerRowSort;

  Device lone(DeviceProperties::tiny(1 << 20));
  EXPECT_THROW(kreg::SpmdGridSelector(lone, cfg).select(d, grid),
               kreg::spmd::DeviceAllocError);

  Device a(DeviceProperties::tiny(1 << 20));
  Device b(DeviceProperties::tiny(1 << 20));
  EXPECT_NO_THROW(MultiDeviceGridSelector({&a, &b}, cfg).select(d, grid));
}

TEST(MultiDevice, ComposesWithStreaming) {
  Device a(DeviceProperties::tiny(1 << 20));
  Device b(DeviceProperties::tiny(1 << 20));
  const Dataset d = paper_data(1500, 5);  // too big even split, unless streaming
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 8);
  SpmdSelectorConfig cfg;
  cfg.streaming = true;
  EXPECT_NO_THROW(MultiDeviceGridSelector({&a, &b}, cfg).select(d, grid));
}

TEST(MultiDevice, MemoryReleasedOnAllDevices) {
  Device a;
  Device b;
  const Dataset d = paper_data(100, 6);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 10);
  (void)MultiDeviceGridSelector({&a, &b}, double_cfg()).select(d, grid);
  EXPECT_EQ(a.global_allocated(), 0u);
  EXPECT_EQ(b.global_allocated(), 0u);
  EXPECT_GT(a.global_peak(), 0u);
  EXPECT_GT(b.global_peak(), 0u);
}

TEST(MultiDevice, ValidatesConstruction) {
  EXPECT_THROW(MultiDeviceGridSelector({}, SpmdSelectorConfig{}),
               std::invalid_argument);
  Device dev;
  EXPECT_THROW(
      MultiDeviceGridSelector({&dev, nullptr}, SpmdSelectorConfig{}),
      std::invalid_argument);
}

TEST(MultiDevice, FloatPathAgreesOnSelection) {
  Device a;
  Device b;
  Device single;
  const Dataset d = paper_data(400, 7);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 50);
  SpmdSelectorConfig cfg;  // float
  const auto one = kreg::SpmdGridSelector(single, cfg).select(d, grid);
  const auto two = MultiDeviceGridSelector({&a, &b}, cfg).select(d, grid);
  EXPECT_DOUBLE_EQ(two.bandwidth, one.bandwidth);
}

TEST(MultiDevice, MoreDevicesThanObservations) {
  Device a;
  Device b;
  Device c;
  Device d4;
  Dataset d{{0.1, 0.5, 0.9}, {1.0, 2.0, 3.0}};
  const BandwidthGrid grid(0.2, 1.0, 5);
  const auto r = MultiDeviceGridSelector({&a, &b, &c, &d4}, double_cfg())
                     .select(d, grid);
  Device ref;
  const auto single = kreg::SpmdGridSelector(ref, double_cfg()).select(d, grid);
  EXPECT_DOUBLE_EQ(r.bandwidth, single.bandwidth);
}

}  // namespace
