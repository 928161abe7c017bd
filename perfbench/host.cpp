#include "host.hpp"

#include <sched.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// A fixed amount of dependent floating-point work.
double spin(std::uint64_t iterations) {
  double x = 1.0;
  for (std::uint64_t i = 0; i < iterations; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

volatile double g_sink = 0.0;

// Effective cores: the same spin on `cpus` threads at once versus alone.
// A host whose vCPUs are shared reads below `cpus`.
double parallelism_probe(unsigned cpus) {
  constexpr std::uint64_t kIterations = 4'000'000;
  double alone = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    g_sink = spin(kIterations);
    alone = std::min(alone, seconds_since(start));
  }
  double together = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::thread> workers;
    const auto start = Clock::now();
    for (unsigned t = 0; t < cpus; ++t) {
      workers.emplace_back([] { g_sink = spin(kIterations); });
    }
    for (std::thread& worker : workers) worker.join();
    together = std::min(together, seconds_since(start));
  }
  return static_cast<double>(cpus) * alone / together;
}

}  // namespace

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string host_json(const Threads& threads) {
  const unsigned cpus = usable_cpus();
  std::ostringstream out;
  out << "{\"cpu_model\": " << json_string(cpu_model())
      << ", \"nproc\": " << cpus
      << ", \"probed_parallelism\": " << json_number(parallelism_probe(cpus))
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"threads\": {\"repro_pool\": " << threads.repro_pool
      << ", \"whatif_clients\": " << threads.whatif_clients
      << ", \"model\": " << threads.model << "}}";
  return out.str();
}

}  // namespace perfbench
