// Tracing for the traced run (--trace 1).
//
// Benchmark spans: perfbench::Span wraps each call the benchmark makes
// into a program layer and measures the calling thread's CPU time.  Spans
// are aggregated per name in memory (count, total, self time, every
// duration for quantiles), so none is ever dropped.  Self time is a
// span's duration minus that of the spans it encloses on the same thread.
//
// Program spans and counters: the program's own obs layer (src/obs)
// records into a fixed 65,536-slot ring that overwrites when full.
// TracedPhase turns obs on for one phase of a run and drains it at the
// phase's end: counters are summed across phases, and the ring's spans are
// aggregated only when the phase dropped none; otherwise the program span
// profile is marked truncated instead of being reported short.  Program
// spans are wall-clock durations, as the obs layer records them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

// Benchmark spans record only while tracing is on (TracedPhase sets it).
bool tracing();
std::map<std::string, SpanStat> span_stats();
// Files a duration measured outside a Span (e.g. a pool task's queue
// wait, a wall time) under `name`, as a span with no children.  No-op
// when not tracing.
void record(const char* name, double ms);

class Span {
 public:
  // `name` must outlive the span (a literal).
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;  // nullptr when tracing was off at construction
  double start_cpu_s_ = 0.0;
};

// One traced phase: obs and benchmark spans on from construction to
// finish(); nothing else may run program code concurrently with either
// end of the phase (the ring is drained and reset there).
class TracedPhase {
 public:
  explicit TracedPhase(ProgramProfile& profile);
  ~TracedPhase();
  TracedPhase(const TracedPhase&) = delete;
  TracedPhase& operator=(const TracedPhase&) = delete;

  void finish();

 private:
  ProgramProfile* profile_;  // nullptr once finished
};

// The per_layer metrics of BENCHMARK.json, from the benchmark spans and
// the program profile.  `units` is the number of traced units of work
// (sweeps or sessions) that counts and times are divided by; `setups` the
// number of traced setups; `overhead_pct` the traced run's slowdown.
std::vector<Metric> layer_metrics(const ProgramProfile& profile,
                                  double units, double setups,
                                  double overhead_pct);

// Allocates the obs ring up front so the first traced phase does not pay
// for it.
void prepare_program_tracing();

}  // namespace perfbench
