// whatif-online: a live what-if session against one WhatIfService.
//
// Closed loop: kClients client threads share the service and send their
// next request as soon as the last one is answered (zero think time), the
// way planners, autoscalers and the stdio pipe wait on each answer.  The
// run is a sequence of sessions of 1000 requests per client; a session is
// the workload's unit of result.  Each request is timed by wall clock on
// its client thread, so time it waits on the service's registry lock or a
// cache shard's mutex counts in the latency quantiles; the report line
// gives the waiting part alone (wall minus thread CPU, per request).
//
// The seeded mix has three parts:
//  * hot reads — `sla` ladders and `quantile` at a tenant's registered
//    rate, answered from the shared PredictionCache once warm;
//  * cold reads — `sla` at fresh what-if rates, `devices` and `capacity`
//    searches, which build models the cache has not seen;
//  * writes — `calibrate` windows.  Each client owns three tenants and
//    alternates each between its registered rate and kStep times it, so
//    the service's drift detector confirms a regime change, re-fits the
//    tenant and evicts its cache entry.
// `tier_size` is left out: one call costs as much as thousands of probes.
// The shares (kMix), the tenant set (kTenants), kStep and kDwellWindows
// are assumptions: there is no recorded service traffic to take them
// from.  The one rule they keep is that every class has a share well
// above 1%, so the p99 falls inside one class instead of flipping between
// classes from run to run.
//
// Correctness: every response must be {"ok": true, ...} with answers in
// range; hot reads of the two read-only tenants, and a fixed probe set
// after the run, must match direct core::SystemModel answers built from
// ClusterSpec::build within 1e-9.  Accuracy: a client's hot `sla` reads of
// its own tenants are scored against a model of the regime the client is
// really in, so the error is the lag of the calibration loop as the user
// sees it.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/system_model.hpp"
#include "service/service.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

using cosm::common::JsonValue;

constexpr int kSetupRepeats = 11;
// A session is kRoundsPerSession rounds; in a round each client sends
// kRequestsPerRound requests.  Traced sessions drain the program's span
// ring after every round, and one round records well under its 65,536
// slots.
constexpr int kRoundsPerSession = 4;
constexpr int kRequestsPerRound = 250;
// Sessions always run, and over which accuracy is scored, so the error
// metrics are a function of the seed alone.
constexpr int kScoredSessions = 36;
constexpr double kStep = 1.25;
// Calibration windows a client holds a tenant in one regime.
constexpr int kDwellWindows = 12;
constexpr double kProbeTolerance = 1e-9;
constexpr const char* kNotOk = "ok:false";
const std::vector<double> kSlas = {0.010, 0.050, 0.100};
const std::vector<double> kPercentiles = {0.5, 0.9, 0.99};

struct Tenant {
  const char* name;
  double rate;  // registered total rate, req/s
  unsigned devices;
  unsigned processes;
};

// Fixed, so the per-op cost does not change with the seed; the seed picks
// the request stream.  Per-device load stays well below saturation even
// at kStep times the rate.  The first 2 * 3 tenants are written by their
// owning client; the last two are read-only and carry the probes.
constexpr Tenant kTenants[] = {
    {"alpha", 240.0, 8, 1},   {"bravo", 180.0, 6, 2},
    {"charlie", 300.0, 12, 4}, {"delta", 120.0, 4, 1},
    {"echo", 400.0, 16, 2},   {"foxtrot", 200.0, 8, 4},
    {"golf", 150.0, 6, 1},    {"hotel", 360.0, 12, 2},
};
constexpr std::size_t kTenantCount = std::size(kTenants);
constexpr std::size_t kOwnedPerClient = 3;
constexpr std::size_t kReadOnlyFirst = 6;

enum class Op { kHotSla, kHotQuantile, kColdSla, kDevices, kCapacity,
                kCalibrate };

// Cumulative shares of the mix, in Op order.
constexpr double kMix[] = {0.50, 0.70, 0.82, 0.87, 0.92, 1.00};

const char* span_name(Op op) {
  switch (op) {
    case Op::kHotSla:
    case Op::kColdSla: return "service.sla";
    case Op::kHotQuantile: return "service.quantile";
    case Op::kDevices: return "service.devices";
    case Op::kCapacity: return "service.capacity";
    case Op::kCalibrate: return "service.calibrate";
  }
  return "service.unknown";
}

cosm::service::ClusterSpec spec_of(const Tenant& tenant, double rate) {
  cosm::service::ClusterSpec spec;
  spec.rate = rate;
  spec.devices = tenant.devices;
  spec.processes = tenant.processes;
  return spec;
}

// The aggregate disk service time (ms) an operator would report for a
// tenant: per-kind means weighted by how often each kind reaches disk.
double aggregate_service_ms(const cosm::service::ClusterSpec& spec) {
  const double w_i = spec.index_miss;
  const double w_m = spec.meta_miss;
  const double w_d = spec.data_read_factor * spec.data_miss;
  const double b_i = spec.index_disk_shape / spec.index_disk_rate;
  const double b_m = spec.meta_disk_shape / spec.meta_disk_rate;
  const double b_d = spec.data_disk_shape / spec.data_disk_rate;
  return (w_i * b_i + w_m * b_m + w_d * b_d) / (w_i + w_m + w_d) * 1e3;
}

std::vector<double> direct_sla(const cosm::service::ClusterSpec& spec,
                               cosm::core::ModelOptions options = {}) {
  const cosm::core::SystemModel model(spec.build(spec.rate, spec.devices),
                                      options);
  return model.predict_sla_percentiles(kSlas);
}

std::vector<double> direct_quantile(const cosm::service::ClusterSpec& spec) {
  const cosm::core::SystemModel model(spec.build(spec.rate, spec.devices));
  return model.latency_quantiles(kPercentiles);
}

JsonValue number_array(const std::vector<double>& values) {
  JsonValue array = JsonValue::array();
  for (const double v : values) array.push_back(v);
  return array;
}

JsonValue request(const char* op, const Tenant& tenant) {
  JsonValue r = JsonValue::object();
  r.set("op", op);
  r.set("cluster", tenant.name);
  return r;
}

// Answers computed without the service, before anything is timed.
struct Reference {
  // Read-only tenants at their registered rate.
  std::vector<std::vector<double>> hot_sla, hot_quantile;
  // Writable tenants, per regime (0: registered rate, 1: kStep times it):
  // the M/M/1/K model the service uses and the exact M/G/1/K one.
  std::vector<std::array<std::vector<double>, 2>> truth, truth_mg1k;
};

Reference make_reference() {
  Reference ref;
  ref.hot_sla.resize(kTenantCount);
  ref.hot_quantile.resize(kTenantCount);
  ref.truth.resize(kTenantCount);
  ref.truth_mg1k.resize(kTenantCount);
  for (std::size_t t = 0; t < kTenantCount; ++t) {
    const Tenant& tenant = kTenants[t];
    if (t >= kReadOnlyFirst) {
      ref.hot_sla[t] = direct_sla(spec_of(tenant, tenant.rate));
      ref.hot_quantile[t] = direct_quantile(spec_of(tenant, tenant.rate));
      continue;
    }
    for (int regime = 0; regime < 2; ++regime) {
      const auto spec =
          spec_of(tenant, tenant.rate * (regime == 0 ? 1.0 : kStep));
      ref.truth[t][regime] = direct_sla(spec);
      ref.truth_mg1k[t][regime] = direct_sla(
          spec, {.disk_queue = cosm::core::ModelOptions::DiskQueue::kMG1K});
    }
  }
  return ref;
}

bool close_to(const JsonValue* values, const std::vector<double>& expected) {
  if (values == nullptr || !values->is_array() ||
      values->items().size() != expected.size()) {
    return false;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const JsonValue& v = values->items()[i];
    if (!v.is_number() ||
        !(std::abs(v.as_number() - expected[i]) <= kProbeTolerance)) {
      return false;
    }
  }
  return true;
}

// Each value a number in [lo, hi]; nondecreasing when `sorted`.
bool numbers_within(const JsonValue* values, std::size_t n, double lo,
                    double hi, bool sorted) {
  if (values == nullptr || !values->is_array() ||
      values->items().size() != n) {
    return false;
  }
  double last = lo;
  for (const JsonValue& v : values->items()) {
    if (!v.is_number() || !std::isfinite(v.as_number())) return false;
    const double x = v.as_number();
    if (x < lo || x > hi || (sorted && x < last)) return false;
    last = x;
  }
  return true;
}

std::unique_ptr<cosm::service::WhatIfService> make_service(
    const Threads& threads) {
  Span span("workload.setup");
  cosm::service::ServiceConfig config;
  config.num_threads = threads.model;
  auto service = std::make_unique<cosm::service::WhatIfService>(config);
  std::vector<std::string> lines;
  for (const Tenant& tenant : kTenants) {
    JsonValue r = request("register", tenant);
    r.set("rate", tenant.rate);
    r.set("devices", static_cast<double>(tenant.devices));
    r.set("processes", static_cast<double>(tenant.processes));
    lines.push_back(r.dump());
  }
  // The warm-up pass: every hot read once.
  for (const Tenant& tenant : kTenants) {
    JsonValue sla = request("sla", tenant);
    sla.set("slas", number_array(kSlas));
    lines.push_back(sla.dump());
    JsonValue quantile = request("quantile", tenant);
    quantile.set("ps", number_array(kPercentiles));
    lines.push_back(quantile.dump());
  }
  for (const std::string& line : lines) {
    const std::string response = service->handle_line(line);
    if (response.rfind("{\"ok\":true", 0) != 0) {
      throw std::runtime_error("setup request failed: " + response);
    }
  }
  return service;
}

class Client {
 public:
  Client(unsigned index, std::uint64_t seed, const Reference& ref)
      : rng_(seed), ref_(&ref) {
    for (std::size_t k = 0; k < kOwnedPerClient; ++k) {
      owned_.push_back({index * kOwnedPerClient + k, 0, 0});
    }
  }

  // Sends `count` requests back to back.  Never throws.
  void run(cosm::service::WhatIfService& service, int count, bool score) {
    for (int i = 0; i < count; ++i) {
      Pending pending = next_request();
      const auto start = Clock::now();
      const double start_cpu = thread_cpu_s();
      std::string response;
      {
        Span span(span_name(pending.op));
        response = service.handle_line(pending.line);
      }
      const double ms = seconds_since(start) * 1e3;
      wall_ms.push_back(ms);
      blocked_ms += ms - (thread_cpu_s() - start_cpu) * 1e3;
      ++attempted;
      std::string problem;
      try {
        problem = check(pending, response, score);
      } catch (const std::exception& e) {
        problem = e.what();
      }
      if (!problem.empty()) {
        ++failed;
        if (problem != kNotOk) ++wrong;
        if (problems.size() < 4) {
          problems.push_back(problem + " <- " + pending.line);
        }
      }
    }
  }

  // Per request of the current session: wall time on this thread, so a
  // request that waits on a lock or queue counts its wait.
  std::vector<double> wall_ms;
  double blocked_ms = 0.0;  // wall minus this thread's CPU, summed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // error responses and wrong answers
  std::uint64_t wrong = 0;   // wrong answers alone
  std::uint64_t refits = 0;
  std::vector<std::string> problems;
  // Accuracy of scored hot reads of owned tenants, percentage points.
  double err_sum = 0.0, err_mg1k_sum = 0.0, err_worst = 0.0;
  std::uint64_t err_cells = 0;

 private:
  struct Owned {
    std::size_t tenant;
    int regime;   // the regime the client's windows report
    int windows;  // windows sent in that regime
  };
  struct Pending {
    Op op;
    std::size_t tenant;
    std::string line;
  };

  const Tenant& pick(std::size_t& t) {
    t = rng_.uniform_index(kTenantCount);
    return kTenants[t];
  }

  Pending next_request() {
    const double u = rng_.uniform();
    Op op = Op::kCalibrate;
    for (int k = 0; k < 6; ++k) {
      if (u < kMix[k]) {
        op = static_cast<Op>(k);
        break;
      }
    }
    Pending p{op, 0, {}};
    JsonValue r;
    switch (op) {
      case Op::kHotSla:
      case Op::kColdSla: {
        const Tenant& tenant = pick(p.tenant);
        r = request("sla", tenant);
        if (op == Op::kColdSla) {
          r.set("rate", tenant.rate * rng_.uniform(0.5, 1.1));
        }
        r.set("slas", number_array(kSlas));
        break;
      }
      case Op::kHotQuantile:
        r = request("quantile", pick(p.tenant));
        r.set("ps", number_array(kPercentiles));
        break;
      case Op::kDevices: {
        const Tenant& tenant = pick(p.tenant);
        r = request("devices", tenant);
        r.set("sla", 0.1);
        r.set("percentile", rng_.uniform(0.85, 0.95));
        r.set("rate", tenant.rate * rng_.uniform(0.8, 1.2));
        break;
      }
      case Op::kCapacity:
        r = request("capacity", pick(p.tenant));
        r.set("sla", 0.1);
        r.set("percentile", rng_.uniform(0.8, 0.95));
        break;
      case Op::kCalibrate: {
        Owned& owned = owned_[next_owned_++ % owned_.size()];
        if (owned.windows == kDwellWindows) {
          owned.regime = 1 - owned.regime;
          owned.windows = 0;
        }
        ++owned.windows;
        p.tenant = owned.tenant;
        const Tenant& tenant = kTenants[owned.tenant];
        const double rate = tenant.rate * (owned.regime == 0 ? 1.0 : kStep);
        r = request("calibrate", tenant);
        r.set("rate", rate);
        r.set("mean_service_ms",
              aggregate_service_ms(spec_of(tenant, rate)));
        break;
      }
    }
    p.line = r.dump();
    return p;
  }

  const Owned* owned(std::size_t tenant) const {
    for (const Owned& o : owned_) {
      if (o.tenant == tenant) return &o;
    }
    return nullptr;
  }

  // Returns what is wrong with `line`'s answer, or "".
  std::string check(const Pending& p, const std::string& line, bool score) {
    const cosm::common::JsonParseResult parsed =
        cosm::common::json_parse(line);
    if (!parsed.ok) return "unparsable response";
    const JsonValue& r = parsed.value;
    if (!r.bool_or("ok", false)) return kNotOk;
    switch (p.op) {
      case Op::kHotSla:
      case Op::kColdSla: {
        const JsonValue* values = r.find("percentiles");
        if (!numbers_within(values, kSlas.size(), 0.0, 1.0, true)) {
          return "percentiles out of range";
        }
        if (p.op == Op::kColdSla) return "";
        if (p.tenant >= kReadOnlyFirst) {
          return close_to(values, ref_->hot_sla[p.tenant])
                     ? ""
                     : "differs from the direct model";
        }
        const Owned* mine = owned(p.tenant);
        if (score && mine != nullptr) {
          const auto& truth = ref_->truth[p.tenant][mine->regime];
          const auto& truth_mg1k = ref_->truth_mg1k[p.tenant][mine->regime];
          for (std::size_t s = 0; s < kSlas.size(); ++s) {
            const double v = values->items()[s].as_number();
            const double err = std::abs(v - truth[s]) * 100.0;
            err_sum += err;
            err_worst = std::max(err_worst, err);
            err_mg1k_sum += std::abs(v - truth_mg1k[s]) * 100.0;
            ++err_cells;
          }
        }
        return "";
      }
      case Op::kHotQuantile: {
        const JsonValue* values = r.find("latencies");
        if (!numbers_within(values, kPercentiles.size(), 0.0, 1e3, true)) {
          return "latencies out of range";
        }
        if (p.tenant >= kReadOnlyFirst &&
            !close_to(values, ref_->hot_quantile[p.tenant])) {
          return "differs from the direct model";
        }
        return "";
      }
      case Op::kDevices:
        if (!r.bool_or("found", false) || !(r.number_or("devices", 0) >= 1)) {
          return "no device count found";
        }
        return "";
      case Op::kCapacity: {
        const double rate = r.number_or("max_rate", 0.0);
        return std::isfinite(rate) && rate > 0.0 ? "" : "no admissible rate";
      }
      case Op::kCalibrate:
        if (r.find("refit_error") != nullptr) return "re-fit failed";
        if (r.find("verdict") == nullptr) return "no verdict";
        if (r.bool_or("refit", false)) ++refits;
        return "";
    }
    return "";
  }

  cosm::Rng rng_;
  const Reference* ref_;
  std::vector<Owned> owned_;
  std::size_t next_owned_ = 0;
};

// The fixed probe set: both read-only tenants at what-if rates around
// their registered one, against the direct model.
void probe(cosm::service::WhatIfService& service, Outcome& outcome) {
  for (std::size_t t = kReadOnlyFirst; t < kTenantCount; ++t) {
    const Tenant& tenant = kTenants[t];
    for (const double scale : {0.6, 0.8, 1.0, 1.2}) {
      const auto spec = spec_of(tenant, tenant.rate * scale);
      JsonValue sla = request("sla", tenant);
      sla.set("rate", spec.rate);
      sla.set("slas", number_array(kSlas));
      JsonValue quantile = request("quantile", tenant);
      quantile.set("rate", spec.rate);
      quantile.set("ps", number_array(kPercentiles));
      const std::pair<JsonValue, std::vector<double>> probes[] = {
          {sla, direct_sla(spec)}, {quantile, direct_quantile(spec)}};
      for (const auto& [req, expected] : probes) {
        ++outcome.attempted;
        const auto parsed =
            cosm::common::json_parse(service.handle_line(req.dump()));
        const JsonValue* values =
            parsed.ok ? (parsed.value.find("percentiles") != nullptr
                             ? parsed.value.find("percentiles")
                             : parsed.value.find("latencies"))
                      : nullptr;
        if (!close_to(values, expected)) {
          ++outcome.failed;
          outcome.correct = false;
          outcome.problem("probe differs from the direct model: " +
                          req.dump());
        }
      }
    }
  }
}

// Repeats `setup` (which appends its time to `times`) until `times` holds
// the share `progress` (0..1, of the run so far) of `repeats`.  A virtual
// host's speed holds for seconds and then shifts, so setup repetitions
// spread over the run give a steadier median than back-to-back ones.
template <typename Setup>
void spread_setups(std::vector<double>& times, double progress, int repeats,
                   Setup&& setup) {
  const double due = 1.0 + std::min(progress, 1.0) * (repeats - 1);
  while (static_cast<double>(times.size()) < due) setup();
}

}  // namespace

Outcome run_whatif(const Options& options, const Threads& threads) {
  Outcome outcome;
  // Setup phases are traced apart, so per-unit counters cover only the
  // measured units of work.
  ProgramProfile setup_profile;
  if (options.trace) prepare_program_tracing();
  const Reference ref = make_reference();

  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    std::optional<TracedPhase> phase;
    if (options.trace) phase.emplace(setup_profile);
    const double start = process_cpu_s();
    auto service = make_service(threads);
    setup_s.push_back(process_cpu_s() - start);
    return service;
  };
  const std::unique_ptr<cosm::service::WhatIfService> service = timed_setup();

  std::vector<Client> clients;
  for (unsigned c = 0; c < threads.whatif_clients; ++c) {
    clients.emplace_back(c, options.seed * 1000003 + c, ref);
  }
  // Per-session statistics; their medians are the run's figures, so a
  // burst of host noise that hits a few sessions does not move them.
  std::vector<double> cpus, traced_cpus, walls, p50, p99, blocked, rss;
  const auto measure_start = Clock::now();
  for (int session = 0; session < kScoredSessions ||
                        seconds_since(measure_start) < options.seconds;
       ++session) {
    const bool traced = options.trace && session % 2 == 1;
    const bool score = session < kScoredSessions;
    for (Client& client : clients) {
      client.wall_ms.clear();
      client.blocked_ms = 0.0;
    }
    double cpu = 0.0;
    double wall = 0.0;
    reset_peak_rss();
    for (int round = 0; round < kRoundsPerSession; ++round) {
      std::optional<TracedPhase> phase;
      if (traced) phase.emplace(outcome.program);
      const auto start = Clock::now();
      const double start_cpu = process_cpu_s();
      {
        std::vector<std::jthread> workers;
        for (Client& client : clients) {
          workers.emplace_back([&client, &service, score] {
            client.run(*service, kRequestsPerRound, score);
          });
        }
      }
      cpu += process_cpu_s() - start_cpu;
      wall += seconds_since(start);
    }
    (traced ? traced_cpus : cpus).push_back(cpu);
    if (!traced) rss.push_back(peak_rss_mb());
    spread_setups(setup_s, seconds_since(measure_start) / options.seconds,
                  kSetupRepeats, timed_setup);
    if (traced) continue;
    walls.push_back(wall);
    std::vector<double> ms;
    double blocked_ms = 0.0;
    for (const Client& client : clients) {
      ms.insert(ms.end(), client.wall_ms.begin(), client.wall_ms.end());
      blocked_ms += client.blocked_ms;
    }
    p50.push_back(quantile(ms, 0.50));
    p99.push_back(quantile(ms, 0.99));
    blocked.push_back(blocked_ms / static_cast<double>(ms.size()));
  }
  spread_setups(setup_s, 1.0, kSetupRepeats, timed_setup);
  probe(*service, outcome);

  double err_sum = 0.0, err_mg1k_sum = 0.0, err_worst = 0.0;
  std::uint64_t err_cells = 0, refits = 0;
  for (const Client& client : clients) {
    outcome.attempted += client.attempted;
    outcome.failed += client.failed;
    if (client.wrong > 0) outcome.correct = false;
    for (const std::string& p : client.problems) outcome.problem(p);
    err_sum += client.err_sum;
    err_mg1k_sum += client.err_mg1k_sum;
    err_worst = std::max(err_worst, client.err_worst);
    err_cells += client.err_cells;
    refits += client.refits;
  }
  if (err_cells == 0 || refits == 0) {
    outcome.correct = false;
    outcome.problem("the session scored no read or confirmed no drift");
  }
  outcome.details["session"] =
      "{\"sessions\": " + std::to_string(cpus.size() + traced_cpus.size()) +
      ", \"requests_per_session\": " +
      std::to_string(kRoundsPerSession * kRequestsPerRound * clients.size()) +
      ", \"scored_cells\": " + std::to_string(err_cells) +
      ", \"refits\": " + std::to_string(refits) +
      ", \"untraced_wall_s\": " + json_number(median(walls)) +
      ", \"blocked_ms_per_request\": " + json_number(median(blocked)) + "}";

  if (!options.trace) {
    const double cells = static_cast<double>(err_cells);
    outcome.metric("setup_s", median(setup_s), "s");
    outcome.metric("cpu_s", median(cpus), "s");
    outcome.metric("query_p50_ms", median(p50), "ms");
    outcome.metric("query_p99_ms", median(p99), "ms");
    outcome.metric("mean_err_pct", err_sum / cells, "%");
    outcome.metric("worst_err_pct", err_worst, "%");
    outcome.metric("mg1k_mean_err_pct", err_mg1k_sum / cells, "%");
    outcome.metric("peak_rss_mb", median(rss), "MiB");
    return outcome;
  }
  outcome.metrics = layer_metrics(
      outcome.program, static_cast<double>(traced_cpus.size()), kSetupRepeats,
      (median(traced_cpus) / median(cpus) - 1.0) * 100.0);
  outcome.details["trace"] = "{\"untraced_cpu_s\": " +
                             json_number(median(cpus)) +
                             ", \"traced_cpu_s\": " +
                             json_number(median(traced_cpus)) + "}";
  return outcome;
}

}  // namespace perfbench
