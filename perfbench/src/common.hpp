// Shared plumbing of the perfbench program: arguments, the result record
// printed as the last line of stdout, small statistics, process memory
// probes, and the input cache.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space for generated inputs, checkpoints and serve roots.  It
  /// must sit on the checkout's own (disk-backed) filesystem.
  std::string work_dir = ".bench_build/perfbench-work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports.  `failed` counts failed units of work and
/// output mismatches; any failure clears `correct`.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit);
  /// Records an output check; a mismatch is printed and counted.
  void check(bool ok, const std::string& what);
};

/// Median of a non-empty sample (mean of the middle pair when even).
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Resident-set figures from /proc/self/status, in kB (0 when absent).
[[nodiscard]] double vm_rss_kb();
[[nodiscard]] double vm_hwm_kb();
/// Heap bytes in use over every malloc arena (mallinfo2), in kB.
[[nodiscard]] double heap_in_use_kb();
/// Resets VmHWM to the current RSS (a no-op where the kernel lacks it).
void reset_peak_rss();

[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& bytes);
/// True when `dir` lives on tmpfs/ramfs (a RAM-backed filesystem).
[[nodiscard]] bool on_ram_filesystem(const std::string& dir);

/// Generated input `<dir>/<stem>-<seed><ext>`, made by `generate(path)`
/// on first use and reused by later runs with the same seed.  Returns the
/// path; `gen_seconds` receives the generation time recorded when it was
/// made.  At most `keep` files of one stem are kept (oldest removed).
std::string cached_input(const std::string& dir, const std::string& stem,
                         std::uint64_t seed, const std::string& ext,
                         std::size_t keep,
                         const std::function<void(const std::string&)>& generate,
                         double& gen_seconds);

/// Hardware threads (at least 1).
[[nodiscard]] std::uint32_t hardware_threads();

}  // namespace perfbench
