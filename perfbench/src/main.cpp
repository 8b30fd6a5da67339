// genas_perfbench — the repository benchmark.
//
//   genas_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--spans-out <path>]
//
// Workloads: static_eq10k, drift_churn_eq2k (see workloads.hpp). An
// untraced run prints the end-to-end metrics; a traced run prints the
// per-layer metrics and writes its spans to --spans-out.
// Standard output ends with a host fingerprint line, an info line and the
// result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_host() {
  std::cout << "{\"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency() << ", \"cpu_model\": \""
            << json_escape(cpu_model()) << "\", \"compiler\": \""
            << json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
            << json_escape(PERFBENCH_BUILD_TYPE) << "\"}}\n";
}

void print_result(const Options& options, const Result& result) {
  std::cout << "{\"info\": {\"workload\": \"" << json_escape(options.workload)
            << "\", \"seed\": " << options.seed;
  for (const auto& [key, value] : result.info) {
    std::cout << ", \"" << json_escape(key) << "\": " << json_number(value);
  }
  std::cout << "}}\n";

  bool finite = true;
  for (const auto& metric : result.metrics) {
    finite = finite && std::isfinite(metric.value);
  }
  const bool correct = result.failed == 0 && finite && result.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const char* separator = "";
  for (const auto& metric : result.metrics) {
    std::cout << separator << "\"" << json_escape(metric.name)
              << "\": {\"value\": " << json_number(metric.value)
              << ", \"unit\": \"" << json_escape(metric.unit) << "\"}";
    separator = ", ";
  }
  std::cout << "}}" << std::endl;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    if (!parse(argc, argv, options)) {
      std::cerr << "usage: genas_perfbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> [--spans-out <path>]\n";
      return 2;
    }
    Result result;
    if (options.workload == "static_eq10k") {
      result = perfbench::run_static_eq10k(options);
    } else if (options.workload == "drift_churn_eq2k") {
      result = perfbench::run_drift_churn_eq2k(options);
    } else {
      std::cerr << "unknown workload: " << options.workload << "\n";
      return 2;
    }
    if (options.trace && !options.spans_out.empty()) {
      result.info["spans_written"] = static_cast<double>(
          perfbench::Tracing::write_spans(options.spans_out));
    }
    print_host();
    print_result(options, result);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "genas_perfbench: " << error.what() << "\n";
    return 1;
  }
}
