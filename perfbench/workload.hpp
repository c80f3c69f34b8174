// The benchmark's workloads and the closed-loop driver that runs one of
// them over a 5-server net::NetCluster on localhost TCP.
#pragma once

#include "dap/config.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  ares::dap::Protocol protocol = ares::dap::Protocol::kAbd;
  std::size_t k = 1;
  std::size_t value_size = 0;
  std::size_t objects = 0;
  double write_frac = 0;     // share of calls that are scalar writes
  double zipf_s = 0;         // 0 = uniform keys
  std::size_t read_batch = 1;  // keys per read call (1 = scalar read)
};

/// Every workload; nullptr from find_workload for an unknown name.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // spans file (JSON lines); empty = don't write
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  /// Context printed beside the metrics: sample counts, checks, build.
  std::vector<std::pair<std::string, std::string>> detail;
};

Report run_workload(const RunConfig& cfg);

}  // namespace perfbench
