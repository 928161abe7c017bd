// The host block every result carries: what the numbers were measured on.
#pragma once

#include <string>

#include "bench.hpp"

namespace perfbench {

// CPUs this process may run on (what `nproc` prints).
unsigned usable_cpus();

// JSON object: CPU model, nproc, a short measured-parallelism probe, build
// type, and the thread counts this run used.
std::string host_json(const Threads& threads);

}  // namespace perfbench
