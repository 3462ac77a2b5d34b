// Roofline-style bench for the batched (SELL-C) window-sweep execution
// layer: elements/s of the scalar host sweep vs the lane-batched kernels
// at lane widths C ∈ {8, 16}, in double and in float (the paper's
// precision), with an estimated memory-bandwidth figure per
// cell so the vector speedup can be read against the streaming roofline. One
// "element" is one unit of sweep work: an admitted observation (one pass
// of the moment-sum m-loop) or one per-(observation, bandwidth)
// recombination — both counted exactly from the admission-window lengths,
// not sampled. Batched cells also report the contiguous-run rate (the
// fraction of phase-2 steps served by the block-load/transpose fast path
// instead of a gather). Cells land in BENCH_vector.json in the working
// directory.
//
//   KREG_BENCH_FULL=1     adds the n = 10⁶ row (default stops at 10⁵)
//   KREG_BENCH_REPS=N     timing repetitions per cell (median)
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "common/bench_util.hpp"
#include "core/kreg.hpp"

namespace {

struct Cell {
  std::size_t n;
  std::size_t k;
  const char* kernel;
  const char* precision;
  std::size_t lane_width;  // 0 = the scalar reference sweep
  double contig_rate;  // fraction of phase-2 steps on the transpose path
  double seconds;
  double elements_per_s;
  double est_gbps;
  double speedup;  // vs the scalar reference at the same (n, k, kernel,
                   // precision)
};

void write_json(const std::vector<Cell>& cells, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"vector_sweep\",\n  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"n\": %zu, \"k\": %zu, \"kernel\": \"%s\", "
                 "\"precision\": \"%s\", \"lane_width\": %zu, "
                 "\"contig_rate\": %.4f, \"seconds\": %.6e, "
                 "\"elements_per_s\": %.6e, \"est_gbps\": %.3f, "
                 "\"speedup_vs_scalar\": %.3f}%s\n",
                 c.n, c.k, c.kernel, c.precision, c.lane_width, c.contig_rate,
                 c.seconds, c.elements_per_s, c.est_gbps, c.speedup,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu cells)\n", path, cells.size());
}

/// Admission-window lengths at h_max on the data sorted in `Scalar`.
template <class Scalar>
std::vector<std::size_t> window_lengths(const kreg::data::Dataset& data,
                                        double h_max) {
  const auto sorted = kreg::sort_dataset<Scalar>(data.x, data.y);
  return kreg::admission_windows<Scalar>(std::span<const Scalar>(sorted.x),
                                         static_cast<Scalar>(h_max))
      .length;
}

}  // namespace

int main() {
  using kreg::bench::Table;
  const std::size_t reps = kreg::bench::repetitions();
  const std::size_t k = 50;
  kreg::rng::Stream stream(2024);
  std::vector<Cell> cells;

  std::vector<std::size_t> sizes = {100000};
  if (kreg::bench::full_mode()) {
    sizes.push_back(1000000);
  }

  for (const std::size_t n : sizes) {
    const kreg::data::Dataset data = kreg::data::paper_dgp(n, stream);
    // A narrow grid keeps the mean admission window at ~2% of the sample
    // (≈ 2 h_max n for the paper DGP's unit-range X), so the total sweep
    // work stays O(n · window), not O(n²), at every n on this axis.
    const double h_max = 0.01;
    const kreg::BandwidthGrid grid(h_max / static_cast<double>(k), h_max, k);

    // Three kernels span the arithmetic-intensity axis of the roofline:
    // uniform (1-term recombination, purely gather-bound), Epanechnikov
    // (3-term, gather-bound) and triweight (7-term,
    // vector-arithmetic-bound — where lane batching pays most).
    const struct {
      kreg::KernelType type;
      const char* name;
    } kernels[] = {{kreg::KernelType::kUniform, "uniform"},
                   {kreg::KernelType::kEpanechnikov, "epanechnikov"},
                   {kreg::KernelType::kTriweight, "triweight"}};

    for (const kreg::Precision precision :
         {kreg::Precision::kDouble, kreg::Precision::kFloat}) {
      const bool is_float = precision == kreg::Precision::kFloat;
      const char* prec = is_float ? "float" : "double";
      const double elem_bytes = is_float ? sizeof(float) : sizeof(double);
      // Exact element count: every observation admits exactly its window
      // length at h_max across the whole ascending grid (the two-pointer
      // sweep admits each element once), plus one recombination per
      // (observation, bandwidth). The lengths use the sweep's own
      // precision, whose admission predicate they reproduce.
      const std::vector<std::size_t> lengths =
          is_float ? window_lengths<float>(data, h_max)
                   : window_lengths<double>(data, h_max);
      const double admissions = static_cast<double>(
          std::accumulate(lengths.begin(), lengths.end(), std::size_t{0}));
      const double elements = admissions + static_cast<double>(n * k);
      // Streaming-traffic estimate: each admission reads x and y once; each
      // recombination writes one residual. Carried SoA state lives in
      // cache, so this is the compulsory-traffic floor the roofline
      // compares against.
      const double bytes = admissions * 2.0 * elem_bytes +
                           static_cast<double>(n * k) * elem_bytes;

      for (const auto& kernel : kernels) {
        kreg::bench::banner(
            "VECTOR SWEEP — n = " + std::to_string(n) + ", k = " +
            std::to_string(k) + ", " + kernel.name + ", " +
            std::string(kreg::to_string(precision)) + ", " +
            std::to_string(static_cast<std::size_t>(admissions)) +
            " admissions");
        Table table(
            {"config", "time (s)", "Melem/s", "est GB/s", "contig", "speedup"},
            12);

        const double t_scalar = kreg::bench::time_median(
            [&] {
              (void)kreg::window_cv_profile_tiled(data, grid.values(),
                                                  kernel.type, precision);
            },
            reps);
        table.add_row({"scalar", Table::fmt_seconds(t_scalar),
                       Table::fmt_double(elements / t_scalar / 1e6, 1),
                       Table::fmt_double(bytes / t_scalar / 1e9, 2), "-",
                       "1.0x"});
        cells.push_back({n, k, kernel.name, prec, 0, 0.0, t_scalar,
                         elements / t_scalar, bytes / t_scalar / 1e9, 1.0});

        for (const std::size_t width : {8u, 16u}) {
          kreg::BatchedSweep batched;
          batched.lane_width = width;
          kreg::BatchRunStats stats;
          const double t = kreg::bench::time_median(
              [&] {
                stats = {};
                (void)kreg::window_cv_profile_batched(
                    data, grid.values(), kernel.type, precision, batched, {},
                    nullptr, &stats);
              },
              reps);
          table.add_row(
              {"C=" + std::to_string(width), Table::fmt_seconds(t),
               Table::fmt_double(elements / t / 1e6, 1),
               Table::fmt_double(bytes / t / 1e9, 2),
               Table::fmt_double(100.0 * stats.contig_rate(), 1) + "%",
               Table::fmt_double(t_scalar / t, 2) + "x"});
          cells.push_back({n, k, kernel.name, prec, width,
                           stats.contig_rate(), t, elements / t,
                           bytes / t / 1e9, t_scalar / t});
        }
        table.print();
      }
    }
  }

  std::printf(
      "\nelements/s counts admissions + recombinations exactly; est GB/s is "
      "the compulsory streaming traffic (x/y reads + residual writes) over "
      "the same wall time. The batched kernels' margin over scalar at equal "
      "traffic is vector (SIMD) throughput, not bandwidth; the contig "
      "column is the share of lane-resume steps served by the "
      "contiguous-run transpose fast path instead of gathers.\n");
  write_json(cells, "BENCH_vector.json");
  return 0;
}
