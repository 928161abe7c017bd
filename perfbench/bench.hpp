// The repo benchmark: shared types of its main program and workloads.
//
// One process runs one named workload for a fixed number of seconds and
// reports it as a single JSON line (see main.cpp).  Workloads drive the
// program only through its public functions and time those calls from
// here; nothing in src/ is specialised for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// A unit of work (a sweep, a session) is timed in process CPU seconds:
// on a shared virtual machine the hypervisor runs other guests on the
// same cores, and CPU time does not count the time they take.  A query
// (a rate point, a request) is timed by wall clock on the thread that
// runs it, so time it spends waiting on a lock or a queue counts.
double process_cpu_s();
double thread_cpu_s();

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

// Thread counts are fixed here, never derived from the host: a number
// measured with 2 workers means the same thing on every machine that has
// at least 2 CPUs.  main.cpp clamps each to the CPUs the process may use.
struct Threads {
  unsigned repro_pool = 2;      // rate-point workers of a repro sweep
  unsigned whatif_clients = 2;  // closed-loop clients of whatif-online
  unsigned model = 1;           // PredictOptions/ServiceConfig num_threads
};

struct SpanStat {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;
};

// The program's own obs counters and spans over a run's traced phases
// (see tracer.hpp).
struct ProgramProfile {
  std::map<std::string, std::uint64_t> counters;  // summed over phases
  std::map<std::string, SpanStat> spans;          // without durations_ms
  std::uint64_t spans_dropped = 0;
  bool truncated = false;
  int phases = 0;

  std::uint64_t counter(const std::string& name) const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Why `correct` is false, or why an operation failed (first few only).
  std::vector<std::string> problems;
  // Workload-specific facts for the report line (already JSON-encoded).
  std::map<std::string, std::string> details;
  // Traced runs: what the program recorded during the measured phases.
  ProgramProfile program;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void problem(std::string what) {
    if (problems.size() < 8) problems.push_back(std::move(what));
  }
};

// Linear-interpolated p-quantile; 0 for an empty sample.
double quantile(std::vector<double> values, double p);
double median(std::vector<double> values);
// Peak resident set of this process, MiB: since the last reset_peak_rss
// where the kernel supports resetting it, else since the process began.
double peak_rss_mb();
void reset_peak_rss();
// Shortest round-trip decimal form of `v` (JSON number; null if not
// finite).
std::string json_number(double v);
// `s` as a JSON string literal (control characters dropped).
std::string json_string(const std::string& s);

// repro-s1 (processes_per_device 1) and repro-s16 (16).
Outcome run_repro(const Options& options, const Threads& threads,
                  unsigned processes_per_device);
Outcome run_whatif(const Options& options, const Threads& threads);

}  // namespace perfbench
