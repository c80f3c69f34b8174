// ares_perfbench: runs one benchmark workload and prints its result.
//
//   ares_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <spans.jsonl>]
//
// Standard output ends with two JSON lines: the run's context (sample
// counts, output checks, nproc, whether asserts were compiled in), then the
// result {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
#include "workload.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

namespace {

#ifdef NDEBUG
constexpr bool kAsserts = false;
#else
constexpr bool kAsserts = true;
#endif

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ares_perfbench: %s\nusage: ares_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        workload = val;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(val);
        have_seed = true;
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(val);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        cfg.trace = val == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        cfg.trace_out = val;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  cfg.spec = perfbench::find_workload(workload);
  if (cfg.spec == nullptr) usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");

  perfbench::Report rep;
  try {
    rep = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ares_perfbench: run failed: %s\n", e.what());
    return 1;
  }

  for (const auto& m : rep.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "ares_perfbench: %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }

  std::string ctx = "{\"workload\":" + json_string(workload);
  ctx += ",\"seed\":" + std::to_string(cfg.seed);
  ctx += std::string(",\"trace\":") + (cfg.trace ? "1" : "0");
  ctx += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  ctx += std::string(",\"asserts\":") + (kAsserts ? "true" : "false");
  for (const auto& [k, v] : rep.detail) {
    ctx += ',';
    ctx += json_string(k);
    ctx += ':';
    ctx += json_string(v);
  }
  std::printf("%s}\n", ctx.c_str());

  std::string res = std::string("{\"correct\": ") +
                    (rep.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(rep.attempted) +
                    ", \"failed\": " + std::to_string(rep.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    if (i != 0) res += ", ";
    res += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("%s}}\n", res.c_str());
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}
