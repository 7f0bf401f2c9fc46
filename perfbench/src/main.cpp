// perfbench — the repository's benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//   perfbench --selftest [--seed <n>] [--work-dir <dir>]
//   perfbench --list-metrics
//
// Workloads: sweep-compute, load-large, sweep-durable, serve-burst (see
// perfbench/README.md).  With --trace 0 the run prints the end-to-end
// metrics; with --trace 1 the per-layer ledger.  Either way the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}, and the
// exit code is non-zero when an output check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n"
               "       perfbench --selftest | --list-metrics\n");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Result& r) {
  for (const Metric& m : r.metrics) {
    std::printf("%-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double failed_frac =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("%-44s %16.6f %s\n", "failed_frac", failed_frac, "ratio");
  std::string json = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(int argc, char** argv) {
  Args args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
      return argv[++i];
    };
    if (key == "--serve-daemon") {
      const std::string root = value();
      return serve_daemon_main(root,
                               static_cast<std::uint32_t>(std::stoul(value())));
    } else if (key == "--list-metrics") {
      for (const LayerMetric& m : layer_metrics()) {
        std::printf("%s %s\n", m.name, m.unit);
      }
      return 0;
    } else if (key == "--selftest") {
      selftest = true;
    } else if (key == "--workload") {
      args.workload = value();
    } else if (key == "--seed") {
      args.seed = std::stoull(value());
    } else if (key == "--seconds") {
      args.seconds = std::stod(value());
    } else if (key == "--trace") {
      args.trace = value() != "0";
    } else if (key == "--work-dir") {
      args.work_dir = value();
    } else {
      usage();
      return 2;
    }
  }
  accu::util::set_log_level(accu::util::LogLevel::kError);
  if (selftest) return run_selftest(args);

  Result result;
  if (args.workload == "sweep-compute") {
    result = run_sweep_compute(args);
  } else if (args.workload == "load-large") {
    result = run_load_large(args);
  } else if (args.workload == "sweep-durable") {
    result = run_sweep_durable(args);
  } else if (args.workload == "serve-burst") {
    result = run_serve_burst(args);
  } else {
    usage();
    return 2;
  }
  print_result(result);
  return result.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
