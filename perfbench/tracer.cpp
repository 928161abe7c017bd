#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "obs/obs.hpp"

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};
std::mutex g_mutex;
std::map<std::string, SpanStat> g_stats;  // guarded by g_mutex

// Per-thread stack of the time (ms) covered by the children of each open
// span, innermost last.
thread_local std::vector<double> t_child_ms;

// Aggregates ring records per name.  A record's parent is the nearest
// earlier record of the same thread one level shallower, which is what
// the obs depth counter encodes.
void add_program_spans(std::vector<cosm::obs::SpanRecord> records,
                       std::map<std::string, SpanStat>& out) {
  std::sort(records.begin(), records.end(),
            [](const cosm::obs::SpanRecord& a, const cosm::obs::SpanRecord& b) {
              if (a.thread != b.thread) return a.thread < b.thread;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.depth < b.depth;
            });
  std::vector<double> child_us(records.size(), 0.0);
  std::vector<std::size_t> open;  // indices of enclosing records
  for (std::size_t i = 0; i < records.size(); ++i) {
    const cosm::obs::SpanRecord& r = records[i];
    while (!open.empty() && (records[open.back()].thread != r.thread ||
                             records[open.back()].depth >= r.depth)) {
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += r.dur_us;
    open.push_back(i);
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    SpanStat& stat = out[records[i].name];
    ++stat.count;
    stat.total_ms += records[i].dur_us * 1e-3;
    stat.self_ms += (records[i].dur_us - child_us[i]) * 1e-3;
  }
}

void add_stat(const char* name, double ms, double self_ms) {
  std::lock_guard<std::mutex> lock(g_mutex);
  SpanStat& stat = g_stats[name];
  ++stat.count;
  stat.total_ms += ms;
  stat.self_ms += self_ms;
  stat.durations_ms.push_back(ms);
}

}  // namespace

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::map<std::string, SpanStat> span_stats() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_stats;
}

Span::Span(const char* name) : name_(tracing() ? name : nullptr) {
  if (name_ == nullptr) return;
  t_child_ms.push_back(0.0);
  start_cpu_s_ = thread_cpu_s();
}

Span::~Span() {
  if (name_ == nullptr) return;
  const double ms = (thread_cpu_s() - start_cpu_s_) * 1e3;
  const double self = ms - t_child_ms.back();
  t_child_ms.pop_back();
  if (!t_child_ms.empty()) t_child_ms.back() += ms;
  add_stat(name_, ms, self);
}

void record(const char* name, double ms) {
  if (tracing()) add_stat(name, ms, ms);
}

std::uint64_t ProgramProfile::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

void prepare_program_tracing() {
  cosm::obs::set_enabled(true);
  cosm::obs::set_enabled(false);
  cosm::obs::reset();
}

TracedPhase::TracedPhase(ProgramProfile& profile) : profile_(&profile) {
  cosm::obs::reset();
  cosm::obs::set_enabled(true);
  g_tracing.store(true);
}

TracedPhase::~TracedPhase() { finish(); }

void TracedPhase::finish() {
  if (profile_ == nullptr) return;
  g_tracing.store(false);
  cosm::obs::set_enabled(false);
  ProgramProfile& profile = *profile_;
  profile_ = nullptr;
  ++profile.phases;
  for (const auto& [name, value] : cosm::obs::snapshot_counters()) {
    profile.counters[std::string(name)] += value;
  }
  const cosm::obs::TraceStats stats = cosm::obs::trace_stats();
  profile.spans_dropped += stats.dropped;
  if (stats.dropped > 0) {
    profile.truncated = true;
  } else if (!profile.truncated) {
    add_program_spans(cosm::obs::snapshot_spans(), profile.spans);
  }
  cosm::obs::reset();
}

std::vector<Metric> layer_metrics(const ProgramProfile& profile,
                                  double units, double setups,
                                  double overhead_pct) {
  const std::map<std::string, SpanStat> stats = span_stats();
  const auto total_ms = [&](const std::string& name) {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.total_ms;
  };
  const auto count = [&](const std::string& name) -> double {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto durations = [&](const std::string& name) {
    const auto it = stats.find(name);
    return it == stats.end() ? std::vector<double>{}
                             : it->second.durations_ms;
  };
  const auto counter = [&](const char* name) {
    return static_cast<double>(profile.counter(name));
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  std::vector<Metric> m;
  const auto per_unit = [&](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), ratio(value, units), unit});
  };
  m.push_back({"workload.setup_ms", ratio(total_ms("workload.setup"), setups),
               "ms"});
  m.push_back({"calibration.offline_ms",
               ratio(total_ms("calibration.offline"), setups), "ms"});
  per_unit("calibration.observe_ms", total_ms("calibration.observe"), "ms");
  per_unit("calibration.drift_windows", counter("calib.drift.windows"),
           "count");
  per_unit("calibration.refits", counter("calib.refit.models"), "count");
  per_unit("calibration.cache_evictions",
           counter("calib.refit.cache_evictions"), "count");
  per_unit("sim.run_ms", total_ms("sim.run"), "ms");
  per_unit("sim.events", counter("sim.events"), "count");
  per_unit("sim.requests", counter("sim.requests"), "count");
  per_unit("sim.timeouts", counter("sim.timeouts"), "count");
  m.push_back({"sim.events_per_s",
               ratio(counter("sim.events"), total_ms("sim.run") * 1e-3),
               "1/s"});
  per_unit("core.build_mm1k_ms", total_ms("core.build_mm1k"), "ms");
  per_unit("core.build_mg1k_ms", total_ms("core.build_mg1k"), "ms");
  per_unit("core.predict_ms", total_ms("core.predict"), "ms");
  m.push_back({"core.cdf_cache_hit_ratio",
               ratio(counter("cache.cdf.hit"),
                     counter("cache.cdf.hit") + counter("cache.cdf.miss")),
               "ratio"});
  m.push_back(
      {"core.backend_cache_hit_ratio",
       ratio(counter("cache.backend.hit"),
             counter("cache.backend.hit") + counter("cache.backend.miss")),
       "ratio"});
  const double inversions = counter("inversion.calls");
  per_unit("numerics.inversions", inversions, "count");
  per_unit("numerics.inversion_terms", counter("inversion.terms"), "count");
  m.push_back({"numerics.inversion_bad_ratio",
               ratio(counter("inversion.truncated") +
                         counter("inversion.clamped") +
                         counter("inversion.nonfinite"),
                     inversions),
               "ratio"});
  per_unit("numerics.tape_compiles", counter("tape.compiles"), "count");
  per_unit("numerics.tape_eval_points", counter("tape.eval_points"), "count");
  for (const char* op : {"sla", "quantile", "devices", "capacity",
                         "calibrate"}) {
    const std::string span = std::string("service.") + op;
    per_unit(span + ".count", count(span), "count");
    m.push_back({span + ".p50_ms", quantile(durations(span), 0.50), "ms"});
    m.push_back({span + ".p99_ms", quantile(durations(span), 0.99), "ms"});
  }
  per_unit("service.errors", counter("service.errors"), "count");
  m.push_back({"common.pool_wait_ms",
               ratio(total_ms("pool.wait"), count("pool.wait")), "ms"});
  per_unit("common.pool_submits", counter("pool.submits"), "count");
  m.push_back({"obs.spans_dropped",
               static_cast<double>(profile.spans_dropped), "count"});
  m.push_back({"trace.overhead_pct", overhead_pct, "%"});
  return m;
}

}  // namespace perfbench
