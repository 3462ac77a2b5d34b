// kbench — the measuring program of the repository benchmark.
//
//   kbench --workload fig1_device|serve_open --seed N
//          --seconds S --trace 0|1
//
// Prints one JSON document on stdout: the raw latency samples, set-up
// times, per-sample status codes, counters, layer timings (--trace 1) and
// build provenance of one run. run.py turns it into the benchmark's
// metrics; the statistics (percentiles, failure share, open-loop latency
// from due times) live there, next to their tests, not here.
//
// Every layer is timed from outside, around calls into the library's
// public entry points; nothing inside the library is instrumented.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batched_sweep.hpp"
#include "core/grid.hpp"
#include "core/job.hpp"
#include "core/window_sweep.hpp"
#include "data/dgp.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/splitmix64.hpp"
#include "rng/stream.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "spmd/device.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using DatasetHandle = std::shared_ptr<const kreg::data::Dataset>;
using kreg::JobBackend;
using kreg::Precision;
using kreg::SelectionJob;
using kreg::SelectionProfile;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Taken during static initialization: the program's start, as near as the
// program itself can see it.
const Clock::time_point kProgramStart = Clock::now();

// Per-sample status codes; run.py counts every nonzero one as failed.
constexpr int kOk = 0;
constexpr int kRefused = 1;      // the library returned or threw an error
constexpr int kCheckFailed = 2;  // an output check rejected the result

// Set-up repetition tags: run.py compares traced with untraced repetitions
// and leaves the cold first one out of that comparison.
constexpr int kSetupUntraced = 0;
constexpr int kSetupTraced = 1;
constexpr int kSetupCold = 2;

int setup_tag(bool trace, std::size_t rep) {
  if (rep == 0) {
    return kSetupCold;
  }
  return trace && rep % 2 == 1 ? kSetupTraced : kSetupUntraced;
}

// ---- Workload definitions ------------------------------------------------

// The batch workload: one closed-loop caller timing run_job on the device
// backend, dataset already in memory. The device runs its blocks on a
// single worker, so every launch executes in order on the calling thread:
// with one worker per core, the pool's static split waits on its slowest
// core, and on a shared host that made the latency of whole runs swing by
// a third (README.md). The parallel layer is measured beside it, per layer.
constexpr std::size_t kDeviceWorkers = 1;
struct BatchShape {
  std::size_t n = 0;
  std::size_t k = 0;
  double h_lo = 0.0;
  double h_hi = 0.0;
  Precision precision = Precision::kDouble;
  std::size_t setup_reps = 0;
  std::size_t probe_reps = 0;
  // The loop runs past --seconds until it has this many samples, so p90
  // keeps ten samples beyond it even when a select gets slower.
  std::size_t min_samples = 0;
};

// Paper DGP at the Fig. 1 / Table I anchor with Program 4's configuration.
// The grid is explicit: on this DGP at n >= 5,000 the default_for grid puts
// the CV argmin at index 0, which would make the interior-argmin check vacuous.
constexpr BatchShape kFig1Device{20000, 50, 0.001, 0.05, Precision::kFloat,
                                 9, 5, 100};

// serve_open: offered rate (requests/s), frozen. The saturation phase
// completes the same population at 1,200-2,300/s, but only because it
// hands the scheduler a few huge waves; open-loop, the 1 MiB device
// serializes the misses, and queueing multiplies the host's own swings:
// at 120/s and 300/s the median swung by a quarter to a half between runs
// as the host's load changed. At 60/s the median wait stays well below the
// median service; the service itself still follows the host (README.md).
constexpr double kServeRate = 60.0;
constexpr std::size_t kServeRows = 768;
constexpr std::size_t kServeDeviceBytes = std::size_t{1} << 20;
// Small enough that inserts evict while the Zipf head keeps hitting: about
// 30% of requests hit, so the median lies near the 30th percentile of the
// misses. With ~40% hits it sat in the sparse lower tail of the misses,
// just above the sub-ms hits, and moved by a third with the seed's hit
// rate. The key universe scales with the request count, so the budget is
// sized for the ~2,400 requests of a 40 s run at kServeRate.
constexpr std::size_t kServeCacheBytes = std::size_t{128} << 10;
// A set-up takes ~10 ms, so many repetitions cost little and steady the
// median.
constexpr std::size_t kServeSetupReps = 31;
// Saturation repetitions, each on a fresh context: the median of their
// completion rates is serve_open's throughput.
constexpr std::size_t kSaturationReps = 5;
// How long the collector waits on its oldest open request before it
// looks at the others again: the resolution of a completion stamp for a
// request that finishes out of send order.
constexpr auto kCollectorPoll = std::chrono::microseconds(50);
// Zipf exponent over the key universe; with a universe as large as the
// expected request count this makes about half of all requests repeat an
// earlier request line.
constexpr double kZipfExponent = 0.7;

// The held-out seed: claims are re-checked on it, never tuned on it.
constexpr std::uint64_t kHeldOutSeed = 7919;

// ---- Output --------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// A flat JSON object built field by field, in insertion order.
class Report {
 public:
  void number(const std::string& key, double v) { add(key, json_number(v)); }
  void text(const std::string& key, const std::string& v) {
    add(key, json_string(v));
  }
  void numbers(const std::string& key, const std::vector<double>& vs) {
    std::string out = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      out += i == 0 ? "" : ",";
      out += json_number(vs[i]);
    }
    add(key, out + "]");
  }
  void ints(const std::string& key, const std::vector<int>& vs) {
    std::string out = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      out += i == 0 ? "" : ",";
      out += std::to_string(vs[i]);
    }
    add(key, out + "]");
  }
  void texts(const std::string& key, const std::vector<std::string>& vs) {
    std::string out = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      out += i == 0 ? "" : ",";
      out += json_string(vs[i]);
    }
    add(key, out + "]");
  }
  void object(const std::string& key, const std::map<std::string, double>& m) {
    std::string out = "{";
    for (const auto& [name, v] : m) {
      out += out.size() == 1 ? "" : ",";
      out += json_string(name) + ":" + json_number(v);
    }
    add(key, out + "}");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    body_ += body_.empty() ? "" : ",";
    body_ += json_string(key) + ":" + value;
  }
  std::string body_;
};

// Peak resident set size of this process so far (VmHWM), in KiB.
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double time_ms(const std::function<void()>& f) {
  const auto t0 = Clock::now();
  f();
  return ms_between(t0, Clock::now());
}

double median_ms(std::size_t reps, const std::function<void()>& f) {
  std::vector<double> times;
  for (std::size_t r = 0; r < reps; ++r) {
    times.push_back(time_ms(f));
  }
  return median(times);
}

void add_provenance(Report& report) {
  report.text("compiler", "g++ " __VERSION__);
#ifdef KREG_FP_CONTRACT_OFF
  report.text("build_flags", "KREG_NATIVE=ON -march=native -ffp-contract=off");
#else
  report.text("build_flags", "KREG_NATIVE=OFF (default fp-contract)");
#endif
#ifdef NDEBUG
  report.text("build_type", "optimized, NDEBUG");
#else
  report.text("build_type", "assertions on");
#endif
  report.number("pool_threads",
                static_cast<double>(kreg::parallel::ThreadPool::global().size()));
  report.number("held_out_seed", static_cast<double>(kHeldOutSeed));
}

// True when two profiles carry the same bits in every field.
bool same_bits(const SelectionProfile& a, const SelectionProfile& b) {
  const auto same = [](const std::vector<double>& u,
                       const std::vector<double>& v) {
    return u.size() == v.size() &&
           (u.empty() ||
            std::memcmp(u.data(), v.data(), u.size() * sizeof(double)) == 0);
  };
  return same(a.grid, b.grid) && same(a.scores, b.scores) &&
         a.argmin == b.argmin &&
         std::memcmp(&a.selected, &b.selected, sizeof(double)) == 0 &&
         std::memcmp(&a.cv_score, &b.cv_score, sizeof(double)) == 0 &&
         a.method == b.method;
}

kreg::spmd::DeviceProperties device_props(std::size_t bytes) {
  kreg::spmd::DeviceProperties props = kreg::spmd::DeviceProperties::tesla_s10();
  if (bytes != 0) {
    props.global_memory_bytes = bytes;
  }
  return props;
}

// ---- Batch workload (fig1_device) -----------------------------------------

template <class Scalar>
void probe_host_layers(const BatchShape& shape, const SelectionJob& job,
                       std::map<std::string, double>& layers) {
  const kreg::data::Dataset& data = *job.data;
  layers["sort.global_sort_ms"] = median_ms(shape.probe_reps, [&] {
    (void)kreg::sort_dataset<Scalar>(data.x, data.y);
  });
  const kreg::SortedDataset<Scalar> sorted =
      kreg::sort_dataset<Scalar>(data.x, data.y);
  const auto h_max = static_cast<Scalar>(job.bandwidth_grid.back());
  kreg::AdmissionWindows windows;
  layers["core.admission_ms"] = median_ms(shape.probe_reps, [&] {
    windows = kreg::admission_windows<Scalar>(sorted.x, h_max);
  });
  layers["core.admitted_elems"] = static_cast<double>(std::accumulate(
      windows.length.begin(), windows.length.end(), std::uint64_t{0}));
  kreg::BatchRunStats batch_stats;
  (void)kreg::window_cv_profile_batched(data, job.bandwidth_grid, job.kernel,
                                        job.precision, {}, {}, nullptr,
                                        &batch_stats);
  layers["core.contig_rate"] = batch_stats.contig_rate();
}

int run_batch(const BatchShape& shape, std::uint64_t seed, double seconds,
              bool trace, Report& report) {
  kreg::parallel::ThreadPool device_pool(kDeviceWorkers);
  std::vector<double> setup_s;
  std::vector<double> dgp_ms;
  std::unique_ptr<kreg::spmd::Device> device;
  SelectionJob job;
  SelectionProfile reference;
  std::vector<int> setup_traced;
  std::vector<std::string> check_failures;
  // Set-up: data generation, device construction and one warm-up select,
  // repeated so run.py can report a median. With --trace 1 the odd
  // repetitions also time the data layer.
  for (std::size_t rep = 0; rep < shape.setup_reps; ++rep) {
    device.reset();
    job = SelectionJob{};
    const int tag = setup_tag(trace, rep);
    const auto t0 = Clock::now();
    kreg::rng::Stream stream(seed);
    auto data = std::make_shared<const kreg::data::Dataset>(
        kreg::data::paper_dgp(shape.n, stream));
    if (tag == kSetupTraced) {
      dgp_ms.push_back(ms_between(t0, Clock::now()));
    }
    setup_traced.push_back(tag);
    device = std::make_unique<kreg::spmd::Device>(
        kreg::spmd::DeviceProperties::tesla_s10(), &device_pool);
    job.data = std::move(data);
    job.precision = shape.precision;
    job.bandwidth_grid =
        kreg::BandwidthGrid(shape.h_lo, shape.h_hi, shape.k).values();
    job.backend = JobBackend::kDevice;
    SelectionProfile warm =
        kreg::run_job(job, kreg::JobContext{device.get(), nullptr});
    setup_s.push_back(s_between(t0, Clock::now()));
    if (rep > 0 && !same_bits(warm, reference)) {
      check_failures.push_back("warm-up profile differs on a fresh device");
    }
    reference = std::move(warm);
  }
  const kreg::JobContext ctx{device.get(), nullptr};

  // Timed closed loop. With --trace 1 every other select also reads the
  // device's launch counters around the call, so traced and untraced
  // samples interleave under the same conditions.
  std::vector<double> latency_ms;
  std::vector<int> status;
  std::vector<int> traced;
  std::vector<kreg::spmd::LaunchStats> deltas;
  const auto start = Clock::now();
  const double program_to_first_s = s_between(kProgramStart, start);
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (latency_ms.size() < shape.min_samples || Clock::now() < deadline) {
    const bool span = trace && latency_ms.size() % 2 == 0;
    kreg::spmd::LaunchStats before;
    if (span) {
      before = device->stats();
    }
    const auto t0 = Clock::now();
    const SelectionProfile profile = kreg::run_job(job, ctx);
    const auto t1 = Clock::now();
    if (span) {
      const kreg::spmd::LaunchStats& after = device->stats();
      deltas.push_back({after.kernel_launches - before.kernel_launches,
                        after.cooperative_launches - before.cooperative_launches,
                        after.blocks_executed - before.blocks_executed,
                        after.threads_executed - before.threads_executed,
                        after.lane_dispatches - before.lane_dispatches});
    }
    latency_ms.push_back(ms_between(t0, t1));
    traced.push_back(span ? 1 : 0);
    status.push_back(same_bits(profile, reference) ? kOk : kCheckFailed);
  }
  const double elapsed_s = s_between(start, Clock::now());
  const double rss_after_loop = peak_rss_kib();
  const std::size_t device_peak = device->global_peak();

  // Whole-run checks on the reference profile. Every timed profile was
  // checked bitwise equal to it, so if it is wrong, every sample is.
  std::map<std::string, double> layers;
  const auto with_backend = [&](JobBackend backend) {
    SelectionJob copy = job;
    copy.backend = backend;
    return copy;
  };
  if (reference.argmin == 0 || reference.argmin + 1 >= shape.k) {
    check_failures.push_back("argmin " + std::to_string(reference.argmin) +
                             " is on the grid's edge");
  }
  const SelectionJob host_job = with_backend(JobBackend::kHostSweep);
  SelectionProfile host;
  const double host_ms = time_ms([&] { host = kreg::run_job(host_job, {}); });
  // The device keeps the first of exactly equal scores. When its float
  // profile ties the host sweep's argmin with its own (seed 9: indices 9
  // and 10 read the same float, the host's differ by 2e-8), the two agree.
  const bool tied = host.argmin < reference.scores.size() &&
                    reference.scores[host.argmin] ==
                        reference.scores[reference.argmin];
  if (host.argmin != reference.argmin && !tied) {
    check_failures.push_back("device argmin " +
                             std::to_string(reference.argmin) +
                             " != host-sweep argmin " +
                             std::to_string(host.argmin));
  }
  layers["core.host_seq_ms"] = host_ms;
  if (!check_failures.empty()) {
    std::fill(status.begin(), status.end(), kCheckFailed);
  }
  const double rss_after_checks = peak_rss_kib();

  if (trace) {
    layers["data.dgp_ms"] = median(dgp_ms);
    if (shape.precision == Precision::kFloat) {
      probe_host_layers<float>(shape, job, layers);
    } else {
      probe_host_layers<double>(shape, job, layers);
    }
    const SelectionJob tiled_job = with_backend(JobBackend::kHostTiled);
    layers["core.host_tiled_ms"] = median_ms(
        shape.probe_reps, [&] { (void)kreg::run_job(tiled_job, {}); });
    layers["spmd.launches"] = static_cast<double>(deltas.front().kernel_launches);
    layers["spmd.coop_launches"] =
        static_cast<double>(deltas.front().cooperative_launches);
    layers["spmd.lane_dispatches"] =
        static_cast<double>(deltas.front().lane_dispatches);
    layers["spmd.global_peak_bytes"] = static_cast<double>(device_peak);
  }

  report.text("kind", "closed");
  report.number("device_workers", static_cast<double>(device_pool.size()));
  report.numbers("setup_s", setup_s);
  report.ints("setup_traced", setup_traced);
  report.number("program_to_first_s", program_to_first_s);
  report.numbers("latency_ms", latency_ms);
  report.ints("status", status);
  report.ints("traced", traced);
  report.number("elapsed_s", elapsed_s);
  report.number("peak_rss_kib", rss_after_loop);
  report.number("peak_rss_kib_checked", rss_after_checks);
  report.number("peak_rss_kib_end", peak_rss_kib());
  report.number("argmin", static_cast<double>(reference.argmin));
  report.number("selected", reference.selected);
  report.texts("check_failures", check_failures);
  report.object("layers", layers);
  return 0;
}

// ---- serve_open ---------------------------------------------------------

// One request of the open-loop schedule: its protocol line and the time it
// is due, in ms after the schedule starts.
struct Arrival {
  std::string line;
  double due_ms = 0.0;
};

// The seeded request population. Keys come in sibling pairs (2j, 2j+1)
// that share estimator, DGP, dataset and grid but differ in backend, and
// adjacent ranks have similar Zipf weight, so cross-backend repeats are
// common: kNN/OSCV siblings share a cache entry, NW device/host siblings do
// not (they differ in numeric family). A pair's class (estimator,
// backends, DGP, grid) depends on its rank alone, so every seed sends the
// same mix and the heavy Zipf head costs the same; the seed picks the
// datasets, which ranks are drawn and when they arrive.
std::string key_line(std::uint64_t seed, std::size_t key) {
  static const char* const kEstimators[] = {"nw", "knn", "oscv"};
  static const char* const kBackends[] = {"device", "host", "tiled"};
  static const char* const kDgps[] = {"paper", "kink"};
  const std::uint64_t a = kreg::rng::SplitMix64(0x636c617373ULL + key / 2)();
  const std::uint64_t b =
      kreg::rng::SplitMix64(seed * 0x9e3779b97f4a7c15ULL + key / 2)();
  const std::size_t estimator = a % 3;
  const std::size_t home = (a / 3) % 3;
  const std::size_t backend = key % 2 == 0 ? home : (home + 1 + (a / 9) % 2) % 3;
  const bool explicit_grid = (a / 27) % 2 == 0;
  std::string line = "select estimator=" + std::string(kEstimators[estimator]) +
                     " dgp=" + kDgps[(a / 54) % 2] +
                     " n=" + std::to_string(kServeRows) +
                     " seed=" + std::to_string(1 + b % 1000000000) +
                     " backend=" + kBackends[backend];
  if (explicit_grid) {
    line += estimator == 1 ? " grid=4:96:16" : " grid=0.05:1.0:32";
  }
  return line;
}

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate,
                                   double seconds) {
  kreg::rng::Stream stream(seed ^ 0x5e7e5e7eULL);
  const auto universe = static_cast<std::size_t>(
      std::max(2.0, std::ceil(rate * seconds)));
  std::vector<double> cdf(universe);
  double total = 0.0;
  for (std::size_t r = 0; r < universe; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf[r] = total;
  }
  std::vector<Arrival> arrivals;
  double t_ms = 0.0;
  for (;;) {
    t_ms += -std::log1p(-stream.uniform()) * 1000.0 / rate;
    if (t_ms >= seconds * 1000.0) {
      break;
    }
    const double u = stream.uniform() * total;
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    arrivals.push_back({key_line(seed, std::min(rank, universe - 1)), t_ms});
  }
  return arrivals;
}

kreg::serve::SchedulerConfig serve_config() {
  kreg::serve::SchedulerConfig config;
  config.device_budget_bytes = kServeDeviceBytes;
  config.cache_budget_bytes = kServeCacheBytes;
  config.record_events = false;
  return config;
}

// Builds a ServeContext and warms it with one request per estimator ×
// backend on a dataset outside the population (seed 0). The dataset
// handles the warm-up jobs were given go into `handles`.
std::unique_ptr<kreg::serve::ServeContext> make_context(
    std::set<DatasetHandle>& handles) {
  auto context = std::make_unique<kreg::serve::ServeContext>(serve_config());
  context->scheduler().start_pump();
  std::vector<std::future<kreg::serve::JobOutcome>> warm;
  for (const char* estimator : {"nw", "knn", "oscv"}) {
    for (const char* backend : {"device", "host", "tiled"}) {
      const std::string line = std::string("select estimator=") + estimator +
                               " dgp=paper n=" + std::to_string(kServeRows) +
                               " seed=0 backend=" + backend;
      SelectionJob job =
          context->job_from_request(kreg::serve::parse_request(line));
      handles.insert(job.data);
      warm.push_back(context->scheduler().submit(std::move(job)));
    }
  }
  for (auto& f : warm) {
    const kreg::serve::JobOutcome outcome = f.get();
    if (!outcome.ok) {
      throw std::runtime_error("warm-up request failed: " + outcome.error);
    }
  }
  return context;
}

// What the generator hands the collector for one request.
struct Slot {
  std::future<kreg::serve::JobOutcome> future;
  SelectionJob job;
  std::string error;
  double sent_ms = 0.0;
};

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// One saturation repetition over the serve_open population: a fresh
// context, the whole schedule submitted at once, every outcome awaited.
// Returns the seconds from the first submit to the last outcome; the jobs
// and outcomes land in `jobs` and `outcomes`. A traced repetition takes
// the clock reads a traced open-loop request takes.
double saturate(const std::vector<Arrival>& arrivals, bool traced,
                std::vector<SelectionJob>& jobs,
                std::vector<kreg::serve::JobOutcome>& outcomes) {
  std::set<DatasetHandle> handles;
  const std::unique_ptr<kreg::serve::ServeContext> context =
      make_context(handles);
  kreg::serve::Scheduler& scheduler = context->scheduler();
  const std::size_t count = arrivals.size();
  std::vector<std::future<kreg::serve::JobOutcome>> futures(count);
  jobs.assign(count, SelectionJob{});
  outcomes.assign(count, kreg::serve::JobOutcome{});
  std::vector<double> spans_us;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    try {
      const auto t0 = Clock::now();
      const kreg::serve::Request request =
          kreg::serve::parse_request(arrivals[i].line);
      const auto t1 = Clock::now();
      jobs[i] = context->job_from_request(request);
      const auto t2 = Clock::now();
      futures[i] = scheduler.submit(jobs[i]);
      if (traced && i % 2 == 0) {
        const auto t3 = Clock::now();
        spans_us.push_back(us_between(t0, t1) + us_between(t1, t2) +
                           us_between(t2, t3));
      }
    } catch (const std::exception& e) {
      outcomes[i].error = e.what();
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (futures[i].valid()) {
      outcomes[i] = futures[i].get();
    }
  }
  const double elapsed_s = s_between(start, Clock::now());
  scheduler.stop_pump();
  return elapsed_s;
}

// Times each request from its due time to its formatted response. One
// generator thread sends on the schedule (late sends go out at once, never
// skipped); one collector thread answers each request once its outcome is
// ready. Then the same population runs saturated, for throughput.
int run_serve(std::uint64_t seed, double seconds, bool trace, Report& report) {
  const std::vector<Arrival> arrivals = make_schedule(seed, kServeRate, seconds);
  const std::size_t count = arrivals.size();

  // Set-up repetitions; serve set-up has no layer spans, so the traced
  // repetitions differ from the others only by their position.
  std::vector<double> setup_s;
  std::vector<int> setup_traced;
  std::unique_ptr<kreg::serve::ServeContext> context;
  std::set<DatasetHandle> handles;  // every dataset the context handed out
  for (std::size_t rep = 0; rep < kServeSetupReps; ++rep) {
    context.reset();
    handles.clear();
    setup_traced.push_back(setup_tag(trace, rep));
    const auto t0 = Clock::now();
    context = make_context(handles);
    setup_s.push_back(s_between(t0, Clock::now()));
  }
  kreg::serve::Scheduler& scheduler = context->scheduler();
  const kreg::serve::SchedulerStats stats0 = scheduler.stats();
  const kreg::serve::CacheStats cache0 = scheduler.cache_stats();

  std::vector<Slot> slots(count);
  std::vector<double> parse_us(count, -1.0), build_us(count, -1.0),
      submit_us(count, -1.0), format_us(count, -1.0), done_ms(count, 0.0);
  std::vector<kreg::serve::JobOutcome> outcomes(count);
  std::vector<std::string> responses(count);
  std::mutex mutex;
  std::condition_variable published_cv;
  std::size_t published = 0;  // slots [0, published) are filled

  const auto start = Clock::now();
  const double program_to_first_s = s_between(kProgramStart, start);
  std::thread generator([&] {
    for (std::size_t i = 0; i < count; ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          arrivals[i].due_ms)));
      Slot& slot = slots[i];
      const auto t0 = Clock::now();
      slot.sent_ms = ms_between(start, t0);
      try {
        const kreg::serve::Request request =
            kreg::serve::parse_request(arrivals[i].line);
        const auto t1 = Clock::now();
        slot.job = context->job_from_request(request);
        const auto t2 = Clock::now();
        slot.future = scheduler.submit(slot.job);
        if (trace && i % 2 == 0) {
          const auto t3 = Clock::now();
          parse_us[i] = us_between(t0, t1);
          build_us[i] = us_between(t1, t2);
          submit_us[i] = us_between(t2, t3);
        }
      } catch (const std::exception& e) {
        slot.error = e.what();
      }
      const std::lock_guard<std::mutex> lock(mutex);
      published = i + 1;
      published_cv.notify_one();
    }
  });
  // The scheduler defers jobs into later waves, so requests complete out
  // of send order. The collector waits on its oldest open request for at
  // most kCollectorPoll, then answers every open request whose outcome is
  // ready: a request is stamped when it completes, not when the requests
  // sent before it have been answered.
  std::thread collector([&] {
    const auto answer = [&](std::size_t i) {
      Slot& slot = slots[i];
      if (slot.future.valid()) {
        outcomes[i] = slot.future.get();
      } else {
        outcomes[i].error = slot.error;
      }
      const auto t0 = Clock::now();
      responses[i] = outcomes[i].ok ? kreg::serve::format_outcome(outcomes[i])
                                    : kreg::serve::format_error(outcomes[i].error);
      const auto t1 = Clock::now();
      done_ms[i] = ms_between(start, t1);
      if (trace && i % 2 == 0) {
        format_us[i] = us_between(t0, t1);
      }
    };
    const auto ready = [&](std::size_t i) {
      return !slots[i].future.valid() ||
             slots[i].future.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready;
    };
    std::vector<std::size_t> open;  // published, not yet answered
    std::size_t taken = 0;
    while (taken < count || !open.empty()) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (open.empty()) {
          published_cv.wait(lock, [&] { return published > taken; });
        }
        for (; taken < published; ++taken) {
          open.push_back(taken);
        }
      }
      const Slot& oldest = slots[open.front()];
      if (oldest.future.valid()) {
        oldest.future.wait_for(kCollectorPoll);
      }
      std::erase_if(open, [&](std::size_t i) {
        if (!ready(i)) {
          return false;
        }
        answer(i);
        return true;
      });
    }
  });
  generator.join();
  collector.join();
  const double rss_after_loop = peak_rss_kib();
  const kreg::serve::SchedulerStats stats1 = scheduler.stats();
  const kreg::serve::CacheStats cache1 = scheduler.cache_stats();
  scheduler.stop_pump();
  for (const Slot& slot : slots) {
    if (slot.error.empty() && slot.job.data) {
      handles.insert(slot.job.data);
    }
  }

  // Output check: every response must carry the bits of a direct run_job of
  // its job on a private device with the same ledger. The replay of each
  // distinct line is timed once: that is the line's service time.
  kreg::spmd::Device replay_device(device_props(kServeDeviceBytes));
  std::map<std::string, std::pair<SelectionProfile, double>> replays;
  const auto replay_of = [&](const std::string& line, const SelectionJob& job)
      -> const std::pair<SelectionProfile, double>& {
    auto it = replays.find(line);
    if (it == replays.end()) {
      SelectionProfile profile;
      const double ms = time_ms([&] {
        profile = kreg::run_job(job, kreg::JobContext{&replay_device, nullptr});
      });
      it = replays.emplace(line, std::make_pair(std::move(profile), ms)).first;
    }
    return it->second;
  };
  std::vector<std::string> check_failures;
  // The status of one outcome: refused, or checked against its replay.
  const auto check = [&](const std::string& line, const SelectionJob& job,
                         const kreg::serve::JobOutcome& outcome,
                         const std::string& response) {
    if (!outcome.ok) {
      if (check_failures.size() < 8) {
        check_failures.push_back(line + ": " + outcome.error);
      }
      return kRefused;
    }
    if (!same_bits(outcome.profile, replay_of(line, job).first) ||
        (!response.empty() && response.rfind("ok ", 0) != 0)) {
      if (check_failures.size() < 8) {
        check_failures.push_back(line + ": response bits differ from a "
                                 "direct run_job");
      }
      return kCheckFailed;
    }
    return kOk;
  };
  std::vector<int> status(count, kOk);
  std::vector<int> hit(count, 0);
  std::vector<int> traced(count, 0);
  std::vector<double> due_ms(count), sent_ms(count), service_ms(count, -1.0);
  for (std::size_t i = 0; i < count; ++i) {
    due_ms[i] = arrivals[i].due_ms;
    sent_ms[i] = slots[i].sent_ms;
    traced[i] = trace && i % 2 == 0 ? 1 : 0;
    status[i] = check(arrivals[i].line, slots[i].job, outcomes[i], responses[i]);
    if (status[i] == kRefused) {
      continue;
    }
    hit[i] = outcomes[i].cache_hit ? 1 : 0;
    if (!outcomes[i].cache_hit) {
      service_ms[i] = replay_of(arrivals[i].line, slots[i].job).second;
    }
  }

  // Saturation: the same population submitted at once to fresh contexts.
  // Every outcome is checked like an open-loop response.
  std::vector<double> saturation_s;
  std::vector<double> saturation_ok;
  std::vector<int> saturation_traced;
  std::vector<int> saturation_status;
  for (std::size_t rep = 0; rep < kSaturationReps; ++rep) {
    const bool span = trace && rep % 2 == 1;
    std::vector<SelectionJob> jobs;
    std::vector<kreg::serve::JobOutcome> burst;
    saturation_s.push_back(saturate(arrivals, span, jobs, burst));
    std::size_t ok = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const int s = check(arrivals[i].line, jobs[i], burst[i], "");
      saturation_status.push_back(s);
      ok += s == kOk ? 1 : 0;
    }
    saturation_ok.push_back(static_cast<double>(ok));
    saturation_traced.push_back(span ? 1 : 0);
  }

  const double rss_after_checks = peak_rss_kib();
  std::map<std::string, double> layers;
  if (trace) {
    layers["data.dgp_ms"] = median_ms(16, [] {
      kreg::rng::Stream stream(1);
      (void)kreg::data::paper_dgp(kServeRows, stream);
    });
    // Distinct dataset handles the open-loop context handed out: the
    // warm-up one plus those of every request it built a job for.
    layers["serve.registry_datasets"] = static_cast<double>(handles.size());
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a);
    };
    const double submitted = delta(stats0.submitted, stats1.submitted);
    layers["serve.hit_rate"] =
        submitted > 0 ? delta(stats0.cache_hits, stats1.cache_hits) / submitted
                      : 0.0;
    layers["serve.coalesced"] = delta(stats0.coalesced, stats1.coalesced);
    layers["serve.co_scheduled"] = delta(stats0.co_scheduled, stats1.co_scheduled);
    layers["serve.deferrals"] = delta(stats0.deferrals, stats1.deferrals);
    layers["serve.solo_overrides"] =
        delta(stats0.solo_overrides, stats1.solo_overrides);
    const double waves = delta(stats0.waves, stats1.waves);
    layers["serve.jobs_per_wave"] = waves > 0 ? submitted / waves : 0.0;
    layers["serve.evictions"] = delta(cache0.evictions, cache1.evictions);
  }

  report.text("kind", "open");
  report.number("offered_rate_per_s", kServeRate);
  report.numbers("setup_s", setup_s);
  report.ints("setup_traced", setup_traced);
  report.number("program_to_first_s", program_to_first_s);
  report.numbers("due_ms", due_ms);
  report.numbers("sent_ms", sent_ms);
  report.numbers("done_ms", done_ms);
  report.numbers("service_ms", service_ms);
  report.ints("status", status);
  report.ints("hit", hit);
  report.ints("traced", traced);
  report.numbers("saturation_s", saturation_s);
  report.numbers("saturation_ok", saturation_ok);
  report.ints("saturation_traced", saturation_traced);
  report.ints("saturation_status", saturation_status);
  if (trace) {
    report.numbers("parse_us", parse_us);
    report.numbers("job_build_us", build_us);
    report.numbers("submit_us", submit_us);
    report.numbers("format_us", format_us);
  }
  report.number("distinct_lines", static_cast<double>(replays.size()));
  report.number("peak_rss_kib", rss_after_loop);
  report.number("peak_rss_kib_checked", rss_after_checks);
  report.number("peak_rss_kib_end", peak_rss_kib());
  report.texts("check_failures", check_failures);
  report.object("layers", layers);
  return 0;
}

std::uint64_t parse_u64(const std::string& text, const char* flag) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(text, &used);
  if (used != text.size()) {
    throw std::invalid_argument(std::string(flag) + ": not a whole number");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw std::invalid_argument(arg + " requires a value");
        }
        return argv[++i];
      };
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        seed = parse_u64(value(), "--seed");
      } else if (arg == "--seconds") {
        seconds = std::stod(value());
      } else if (arg == "--trace") {
        trace = parse_u64(value(), "--trace") != 0;
      } else {
        throw std::invalid_argument("unknown argument '" + arg + "'");
      }
    }
    if (!(seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be positive");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kbench: %s\n", e.what());
    return 2;
  }

  try {
    Report report;
    report.text("workload", workload);
    report.number("seed", static_cast<double>(seed));
    report.number("seconds", seconds);
    add_provenance(report);
    int rc = 0;
    if (workload == "fig1_device") {
      rc = run_batch(kFig1Device, seed, seconds, trace, report);
    } else if (workload == "serve_open") {
      rc = run_serve(seed, seconds, trace, report);
    } else {
      std::fprintf(stderr, "kbench: unknown workload '%s'\n", workload.c_str());
      return 2;
    }
    std::printf("%s\n", report.str().c_str());
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kbench: %s\n", e.what());
    return 1;
  }
}
