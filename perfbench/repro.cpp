// repro-s1 / repro-s16: the Table I workflow for one scenario.
//
// Setup is what an operator does once per deployment: build the object
// catalog and the ring placement, and calibrate offline (disk and parse
// benchmarks, Sec. IV-A).  One measured sweep then runs the scenario's
// rate ladder (Fig. 6 / Fig. 7): per rate point it simulates the cluster,
// reads the online metrics (Sec. IV-B), builds the four model variants
// from the calibrated inputs (ours, noWTA, ODOPR, exact M/G/1/K) and
// scores them against the simulated percentiles.  A run cycles through
// kReplicas replicas for as long as it lasts; every later sweep of a
// replica must reproduce its first sweep bit for bit.
//
// The scenario dimensions mirror bench/common/experiment.cpp (4 devices,
// 3 frontend processes, 40 s warmup + 300 s measured dwell per rate,
// 250 ms client timeout, miss ratios 0.3/0.3/0.7), so the error metrics
// are the Table I statistic for the chosen seed.
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "calibration/disk_benchmark.hpp"
#include "calibration/online_metrics.hpp"
#include "calibration/parse_benchmark.hpp"
#include "common/thread_pool.hpp"
#include "core/errors.hpp"
#include "core/system_model.hpp"
#include "sim/cluster.hpp"
#include "sim/source.hpp"
#include "stats/summary.hpp"
#include "tracer.hpp"
#include "workload/catalog.hpp"
#include "workload/placement.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kDevices = 4;
constexpr std::uint32_t kFrontendProcesses = 3;
constexpr double kRateStart = 20.0;
constexpr double kRateStep = 20.0;
constexpr double kWarmupSeconds = 40.0;
constexpr double kMeasureSeconds = 300.0;
constexpr double kRequestTimeout = 0.25;
const std::vector<double> kSlas = {0.010, 0.050, 0.100};

struct Scenario {
  std::uint32_t processes_per_device = 1;
  double rate_end = 240.0;
  std::uint64_t seed = 0;
};

// Each replica is a deployment calibrated from its own seed and measured
// with its own simulation seeds.  The error and memory metrics pool the
// replicas: one ladder's Table I statistic moves by about a quarter from
// seed to seed (which points see a timeout decides which cells count),
// and S16's memory peak by as much with the calibration.
constexpr int kReplicas = 20;

struct Setup {
  std::unique_ptr<cosm::workload::ObjectCatalog> catalog;
  std::unique_ptr<cosm::workload::Placement> placement;
  cosm::calibration::DiskCalibration disk;
  cosm::calibration::ParseCalibration parse;
};

// One scored rate point.  `variants` holds ours, noWTA, ODOPR and exact
// M/G/1/K, each one value per SLA.
struct Point {
  double rate = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t events = 0;
  bool overloaded = false;  // the model declared overload: not scored
  std::string failure;      // non-empty: the point failed
  std::vector<double> observed;
  std::vector<std::vector<double>> variants;
  double wall_ms = 0.0;  // on the worker, task start to scored

  bool same_outputs(const Point& other) const {
    return samples == other.samples && timeouts == other.timeouts &&
           events == other.events && overloaded == other.overloaded &&
           failure == other.failure && observed == other.observed &&
           variants == other.variants;
  }
};

constexpr std::size_t kOurs = 0;
constexpr std::size_t kMG1K = 3;

cosm::sim::ClusterConfig cluster_config(const Scenario& scenario,
                                        std::uint64_t seed) {
  cosm::sim::ClusterConfig cluster;
  cluster.frontend_processes = kFrontendProcesses;
  cluster.device_count = kDevices;
  cluster.processes_per_device = scenario.processes_per_device;
  cluster.cache.index_miss_ratio = 0.3;
  cluster.cache.meta_miss_ratio = 0.3;
  cluster.cache.data_miss_ratio = 0.7;
  cluster.request_timeout = kRequestTimeout;
  cluster.seed = seed;
  return cluster;
}

Setup make_setup(const Scenario& scenario, std::uint64_t seed) {
  Setup setup;
  {
    Span span("workload.setup");
    cosm::workload::CatalogConfig catalog;
    catalog.object_count = 20000;
    catalog.size_distribution = cosm::workload::default_size_distribution();
    catalog.seed = seed + 1;
    setup.catalog = std::make_unique<cosm::workload::ObjectCatalog>(catalog);
    setup.placement = std::make_unique<cosm::workload::Placement>(
        cosm::workload::PlacementConfig{.partition_count = 1024,
                                        .replica_count = 3,
                                        .device_count = kDevices,
                                        .seed = seed + 2});
  }
  {
    Span span("calibration.offline");
    cosm::sim::ClusterConfig base = cluster_config(scenario, seed);
    base.finalize();
    setup.disk = cosm::calibration::benchmark_disk(
        base.disk, {.objects = 8000, .seed = seed + 11});
    setup.parse = cosm::calibration::benchmark_parse(
        base, {.requests = 1000, .seed = seed + 13});
  }
  return setup;
}

// Model inputs from the simulated run's online metrics plus the offline
// calibration, as an operator would assemble them.
cosm::core::SystemParams calibrated_params(const Scenario& scenario,
                                           const Setup& setup,
                                           cosm::sim::Cluster& cluster,
                                           double window) {
  Span span("calibration.observe");
  cosm::core::SystemParams params;
  params.frontend.processes = kFrontendProcesses;
  params.frontend.frontend_parse = setup.parse.frontend_fit.best().dist;
  double total_rate = 0.0;
  for (std::uint32_t d = 0; d < kDevices; ++d) {
    const auto observation =
        cosm::calibration::observe_device(cluster.metrics(), d, window);
    // The aggregate disk service time an operator reads from iostat.
    const auto& counters = cluster.metrics().device(d);
    double busy = 0.0;
    std::uint64_t ops = 0;
    for (int kind = 0; kind < 3; ++kind) {
      busy += counters.disk_service_sum[kind];
      ops += counters.disk_ops[kind];
    }
    const double aggregate =
        ops > 0 ? busy / static_cast<double>(ops) : setup.disk.data.mean;
    params.devices.push_back(cosm::calibration::build_device_params(
        observation, setup.disk, setup.parse.backend_fit.best().dist,
        scenario.processes_per_device, aggregate));
    total_rate += observation.request_rate;
  }
  params.frontend.arrival_rate = total_rate;
  return params;
}

void predict(const cosm::core::SystemParams& params, Point& point) {
  using cosm::core::ModelOptions;
  const ModelOptions variants[] = {
      {}, {.include_wta = false}, {.odopr = true},
      {.disk_queue = ModelOptions::DiskQueue::kMG1K}};
  for (const ModelOptions& options : variants) {
    std::optional<cosm::core::SystemModel> model;
    {
      Span span(options.disk_queue == ModelOptions::DiskQueue::kMG1K
                    ? "core.build_mg1k"
                    : "core.build_mm1k");
      model.emplace(params, options);
    }
    Span span("core.predict");
    point.variants.push_back(model->predict_sla_percentiles(kSlas));
  }
}

void run_point(const Scenario& scenario, const Setup& setup,
               std::uint64_t seed, Point& point) {
  const auto start = Clock::now();
  std::unique_ptr<cosm::sim::Cluster> cluster;
  double window = 0.0;
  {
    Span span("sim.run");
    cluster = std::make_unique<cosm::sim::Cluster>(
        cluster_config(scenario, seed));
    cosm::workload::PhasePlan plan;
    plan.warmup_rate = point.rate;
    plan.warmup_duration = kWarmupSeconds;
    plan.transition_duration = 0.0;
    plan.benchmark_start_rate = point.rate;
    plan.benchmark_end_rate = point.rate;
    plan.benchmark_step_duration = kMeasureSeconds;
    cosm::sim::OpenLoopSource source(*cluster, *setup.catalog,
                                     *setup.placement, plan,
                                     cosm::Rng(seed + 3));
    cluster->metrics().sample_start_time = source.benchmark_start_time();
    source.start();
    cluster->engine().run_until(source.horizon());
    cluster->engine().run_all();
    window = source.horizon();
  }
  const cosm::sim::SimMetrics& metrics = cluster->metrics();
  point.events = cluster->engine().events_processed();
  point.timeouts = metrics.timeouts();
  {
    Span span("score");
    cosm::stats::SampleSet latencies;
    latencies.reserve(metrics.requests().size());
    for (const auto& sample : metrics.requests()) {
      if (!sample.timed_out) latencies.add(sample.response_latency);
    }
    point.samples = latencies.count();
    for (const double sla : kSlas) {
      point.observed.push_back(
          latencies.empty() ? 0.0 : latencies.fraction_below(sla));
    }
  }
  try {
    predict(calibrated_params(scenario, setup, *cluster, window), point);
  } catch (const cosm::core::OverloadError&) {
    point.overloaded = true;
    point.variants.clear();
  }
  point.wall_ms = seconds_since(start) * 1e3;
}

std::vector<double> ladder(const Scenario& scenario) {
  std::vector<double> rates;
  for (double rate = kRateStart; rate <= scenario.rate_end + 1e-9;
       rate += kRateStep) {
    rates.push_back(rate);
  }
  return rates;
}

// Seeds of replica `replica` start here; its setup adds 1..13 and its
// rate points 1000 * (point + 1).
std::uint64_t replica_seed(const Scenario& scenario, int replica) {
  return scenario.seed + 1000003 * static_cast<std::uint64_t>(replica);
}

// One sweep of replica `replica`: every rate point as a pool task.
std::vector<Point> run_sweep(const Scenario& scenario, const Setup& setup,
                             cosm::ThreadPool& pool, int replica) {
  const std::vector<double> rates = ladder(scenario);
  std::vector<Point> points(rates.size());
  std::vector<std::future<void>> done;
  // Highest rates, the longest points, first: the two workers then finish
  // together, and the two largest simulations always overlap, so the
  // sweep's wall time and peak memory do not hinge on scheduling luck.
  for (std::size_t i = rates.size(); i-- > 0;) {
    points[i].rate = rates[i];
    const auto submitted = Clock::now();
    done.push_back(pool.submit([&, i, submitted] {
      record("pool.wait", seconds_since(submitted) * 1e3);
      Span task("point");
      try {
        run_point(scenario, setup,
                  replica_seed(scenario, replica) + 1000 * (i + 1), points[i]);
      } catch (const std::exception& e) {
        points[i].failure = e.what();
      }
    }));
  }
  for (auto& task : done) task.get();
  return points;
}

bool in_unit_interval(const std::vector<double>& values) {
  for (const double v : values) {
    if (!std::isfinite(v) || v < 0.0 || v > 1.0) return false;
  }
  return true;
}

// Checks a point that ran to the end; returns what is wrong with its
// outputs, or "" when they are sound.
std::string check_outputs(const Point& point) {
  if (point.observed.size() != kSlas.size() ||
      !in_unit_interval(point.observed)) {
    return "observed percentile outside [0,1]";
  }
  if (point.overloaded) return "";
  if (point.variants.size() != 4) return "missing model variant";
  for (const auto& values : point.variants) {
    if (values.size() != kSlas.size() || !in_unit_interval(values)) {
      return "predicted percentile outside [0,1]";
    }
  }
  return "";
}

struct Errors {
  double mean_pct = 0.0;
  double worst_pct = 0.0;
  double mg1k_mean_pct = 0.0;
  std::size_t cells = 0;
};

// The Table I statistic: |model - simulated| over the (rate, SLA) cells
// with no timeout and no declared overload (Sec. V-B's analysis rule).
Errors score(const std::vector<Point>& points) {
  Errors errors;
  double sum = 0.0;
  double sum_mg1k = 0.0;
  for (const Point& point : points) {
    if (!point.failure.empty() || point.overloaded || point.timeouts > 0 ||
        !check_outputs(point).empty()) {
      continue;
    }
    for (std::size_t s = 0; s < kSlas.size(); ++s) {
      const double err =
          std::abs(point.variants[kOurs][s] - point.observed[s]) * 100.0;
      sum += err;
      errors.worst_pct = std::max(errors.worst_pct, err);
      sum_mg1k +=
          std::abs(point.variants[kMG1K][s] - point.observed[s]) * 100.0;
      ++errors.cells;
    }
  }
  if (errors.cells > 0) {
    errors.mean_pct = sum / static_cast<double>(errors.cells);
    errors.mg1k_mean_pct = sum_mg1k / static_cast<double>(errors.cells);
  }
  return errors;
}

}  // namespace

Outcome run_repro(const Options& options, const Threads& threads,
                  unsigned processes_per_device) {
  Scenario scenario;
  scenario.processes_per_device = processes_per_device;
  scenario.rate_end = processes_per_device == 1 ? 240.0 : 260.0;
  scenario.seed = 20170813 + 7919 * options.seed;
  Outcome outcome;
  // Setup phases are traced apart, so per-unit counters cover only the
  // measured units of work.
  ProgramProfile setup_profile;
  if (options.trace) prepare_program_tracing();

  // Each replica's setup is made before its first sweep, so the setups
  // spread over the first part of the run; setup_s is their median.
  std::vector<double> setup_s;
  std::vector<Setup> setups;
  setups.reserve(kReplicas);

  cosm::ThreadPool pool(threads.repro_pool);
  // Per untraced sweep: process CPU seconds, wall seconds, the median and
  // p99 of its points' wall ms, and the peak resident set.
  std::vector<double> cpus, traced_cpus, walls, p50, p99, rss;
  std::vector<std::vector<Point>> firsts;  // per replica
  const auto measure_start = Clock::now();
  for (int rep = 0;
       rep < kReplicas || seconds_since(measure_start) < options.seconds;
       ++rep) {
    const int replica = rep % kReplicas;
    // Traced runs alternate untraced and traced sweeps, so the overhead
    // is measured within one run.
    const bool traced = options.trace && rep % 2 == 1;
    if (rep < kReplicas) {
      std::optional<TracedPhase> phase;
      if (options.trace) phase.emplace(setup_profile);
      const double start = process_cpu_s();
      setups.push_back(make_setup(scenario, replica_seed(scenario, replica)));
      setup_s.push_back(process_cpu_s() - start);
    }
    std::optional<TracedPhase> phase;
    if (traced) phase.emplace(outcome.program);
    reset_peak_rss();
    const auto start = Clock::now();
    const double start_cpu = process_cpu_s();
    std::vector<Point> points =
        run_sweep(scenario, setups[replica], pool, replica);
    const double cpu = process_cpu_s() - start_cpu;
    const double wall = seconds_since(start);
    if (phase) phase->finish();
    (traced ? traced_cpus : cpus).push_back(cpu);
    if (!traced) {
      walls.push_back(wall);
      rss.push_back(peak_rss_mb());
    }

    std::vector<double> point_ms;
    for (const Point& point : points) {
      ++outcome.attempted;
      point_ms.push_back(point.wall_ms);
      const std::string wrong =
          point.failure.empty() ? check_outputs(point) : "";
      if (!point.failure.empty() || !wrong.empty()) {
        ++outcome.failed;
        outcome.problem("rate " + json_number(point.rate) + ": " +
                        point.failure + wrong);
      }
      if (!wrong.empty()) outcome.correct = false;
    }
    if (!traced) {
      p50.push_back(quantile(point_ms, 0.50));
      p99.push_back(quantile(point_ms, 0.99));
    }
    if (rep < kReplicas) {
      firsts.push_back(std::move(points));
      continue;
    }
    const std::vector<Point>& first = firsts[replica];
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!points[i].same_outputs(first[i])) {
        outcome.correct = false;
        outcome.problem("sweep " + std::to_string(rep) + " rate " +
                        json_number(points[i].rate) +
                        " differs from the first sweep of its replica");
      }
    }
  }
  std::vector<Point> pooled;
  for (const auto& points : firsts) {
    pooled.insert(pooled.end(), points.begin(), points.end());
  }
  const Errors errors = score(pooled);
  if (errors.cells == 0) {
    outcome.correct = false;
    outcome.problem("no scorable (rate, SLA) cell");
  }

  const double points_per_sweep = static_cast<double>(firsts[0].size());
  const double sweeps = static_cast<double>(cpus.size() + traced_cpus.size());
  outcome.details["scenario"] =
      "{\"processes_per_device\": " + std::to_string(processes_per_device) +
      ", \"rate_points\": " + json_number(points_per_sweep) +
      ", \"replicas\": " + std::to_string(kReplicas) +
      ", \"scored_cells\": " + std::to_string(errors.cells) +
      ", \"sweeps\": " + json_number(sweeps) +
      ", \"untraced_wall_s\": " + json_number(median(walls)) + "}";

  if (!options.trace) {
    outcome.metric("setup_s", median(setup_s), "s");
    outcome.metric("cpu_s", median(cpus), "s");
    outcome.metric("query_p50_ms", median(p50), "ms");
    outcome.metric("query_p99_ms", median(p99), "ms");
    outcome.metric("mean_err_pct", errors.mean_pct, "%");
    outcome.metric("worst_err_pct", errors.worst_pct, "%");
    outcome.metric("mg1k_mean_err_pct", errors.mg1k_mean_pct, "%");
    outcome.metric("peak_rss_mb", median(rss), "MiB");
    return outcome;
  }

  // Per-layer numbers: per setup for the setup layers, per traced sweep
  // for the rest; the overhead compares traced with untraced sweeps.
  outcome.metrics = layer_metrics(
      outcome.program, static_cast<double>(traced_cpus.size()), kReplicas,
      (median(traced_cpus) / median(cpus) - 1.0) * 100.0);
  outcome.details["trace"] = "{\"untraced_cpu_s\": " +
                             json_number(median(cpus)) +
                             ", \"traced_cpu_s\": " +
                             json_number(median(traced_cpus)) + "}";
  return outcome;
}

}  // namespace perfbench
