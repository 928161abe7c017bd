// perfbench: the repo benchmark's main program.
//
//   perfbench --workload <repro-s1|repro-s16|whatif-online> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Runs one workload for about <s> seconds after its setup.  With
// --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 the per-layer ones, from a run that alternates untraced and
// traced units of work.  The last line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it is a report: seed, host block, workload facts, the
// benchmark's own spans, and (traced) the program's spans.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ctime>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "host.hpp"
#include "tracer.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

namespace {
double cpu_clock(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

namespace {

std::string spans_json(const std::map<std::string, SpanStat>& stats) {
  std::string out = "[";
  for (const auto& [name, stat] : stats) {
    if (out.size() > 1) out += ", ";
    out += "{\"name\": " + json_string(name) +
           ", \"count\": " + std::to_string(stat.count) +
           ", \"total_ms\": " + json_number(stat.total_ms) +
           ", \"self_ms\": " + json_number(stat.self_ms);
    if (!stat.durations_ms.empty()) {
      out += ", \"p50_ms\": " + json_number(quantile(stat.durations_ms, 0.5)) +
             ", \"p99_ms\": " + json_number(quantile(stat.durations_ms, 0.99));
    }
    out += "}";
  }
  return out + "]";
}

void print_spans(const char* title,
                 const std::map<std::string, SpanStat>& stats) {
  std::printf("%s\n  %-28s %10s %12s %12s\n", title, "span", "count",
              "total_ms", "self_ms");
  for (const auto& [name, stat] : stats) {
    std::printf("  %-28s %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(stat.count), stat.total_ms,
                stat.self_ms);
  }
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <repro-s1|repro-s16|"
               "whatif-online> --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
      have[1] = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 3600.0) {
        usage("bad --seconds " + value);
      }
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      options.trace = value == "1";
      have[3] = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) usage("missing flag");
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  Threads threads;
  const unsigned cpus = usable_cpus();
  threads.repro_pool = std::min(threads.repro_pool, cpus);
  threads.whatif_clients = std::min(threads.whatif_clients, cpus);

  Outcome outcome;
  try {
    if (options.workload == "repro-s1") {
      outcome = run_repro(options, threads, 1);
    } else if (options.workload == "repro-s16") {
      outcome = run_repro(options, threads, 16);
    } else if (options.workload == "whatif-online") {
      outcome = run_whatif(options, threads);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  const auto spans = span_stats();
  const ProgramProfile& program = outcome.program;
  if (options.trace) {
    print_spans("benchmark spans, all traced phases", spans);
    if (program.truncated) {
      std::printf("program spans: truncated (%llu dropped by the obs ring)\n",
                  static_cast<unsigned long long>(program.spans_dropped));
    } else {
      print_spans("program spans, measured traced phases", program.spans);
    }
  }

  std::ostringstream report;
  report << "{\"report\": {\"workload\": " << json_string(options.workload)
         << ", \"seed\": " << options.seed
         << ", \"seconds\": " << json_number(options.seconds)
         << ", \"trace\": " << (options.trace ? 1 : 0)
         << ", \"host\": " << host_json(threads);
  for (const auto& [key, value] : outcome.details) {
    report << ", " << json_string(key) << ": " << value;
  }
  report << ", \"problems\": [";
  for (std::size_t i = 0; i < outcome.problems.size(); ++i) {
    report << (i ? ", " : "") << json_string(outcome.problems[i]);
  }
  report << "]";
  if (options.trace) {
    report << ", \"benchmark_spans\": " << spans_json(spans)
           << ", \"program_spans\": {\"truncated\": "
           << (program.truncated ? "true" : "false")
           << ", \"dropped\": " << program.spans_dropped
           << ", \"phases\": " << program.phases
           << ", \"spans\": " << spans_json(program.spans) << "}";
  }
  report << "}}";
  std::cout << report.str() << "\n";

  std::ostringstream result;
  result << "{\"correct\": " << (outcome.correct ? "true" : "false")
         << ", \"attempted\": " << outcome.attempted
         << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    result << (i ? ", " : "") << json_string(m.name)
           << ": {\"value\": " << json_number(m.value)
           << ", \"unit\": " << json_string(m.unit) << "}";
  }
  result << "}}";
  std::cout << result.str() << std::endl;
  return 0;
}
