// The benchmark's workloads and the sweep ledger they share.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "trace.hpp"

namespace perfbench {

/// Name and unit of every per-layer metric a traced run prints, in print
/// order.  A layer a workload does not exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();
/// Appends every per-layer metric to `out`, 0 where `values` has none.
void emit_layers(Result& out, const std::map<std::string, double>& values);

/// One run_experiment call plus its markdown report.
struct SweepSpec {
  const accu::AccuInstance* instance = nullptr;
  std::vector<accu::StrategyFactory> roster;
  accu::ExperimentConfig config;
  std::string title;
};

struct Batch {
  std::string report;
  double wall_s = 0.0;  ///< run_experiment + report
  std::size_t cells = 0;
  std::size_t failed_cells = 0;
  /// Peak RSS of the process over the batch (VmHWM reset at its start), kB.
  double peak_rss_kb = 0.0;
  accu::ExperimentResult result;
  /// The spec's config (without the tracing hooks), for re-rendering.
  accu::ExperimentConfig config_used;
  /// Spans and per-layer figures of a traced batch (empty when untraced).
  std::vector<Span> spans;
  std::map<std::string, double> layers;
};

/// Runs one batch; with `traced`, under a fresh TraceSession whose spans
/// are folded into Batch::layers.  `resample_us` is the separately
/// measured per-cell realization cost subtracted from the engine residual.
[[nodiscard]] Batch run_batch(const SweepSpec& spec, bool traced,
                              double resample_us = 0.0);

[[nodiscard]] std::string render_report(const accu::ExperimentResult& result,
                                        const accu::ExperimentConfig& config,
                                        const std::string& title);

/// Writes the traced batches' spans, one per line, to
/// `<work_dir>/trace/<workload>-<seed>.tsv`; returns the path.
std::string write_spans(const Args& args, const std::vector<Batch>& batches);

/// Median of each key over the batches' layer maps.
[[nodiscard]] std::map<std::string, double> median_layers(
    const std::vector<Batch>& batches);

/// Per-cell SimWorkspace::sample_truth time over `cells` draws (µs).
[[nodiscard]] double time_resample_us(const accu::AccuInstance& instance,
                                      std::uint64_t seed, std::size_t cells);

Result run_sweep_compute(const Args& args);
Result run_load_large(const Args& args);
Result run_sweep_durable(const Args& args);
Result run_serve_burst(const Args& args);

/// The serve layer measured from outside for another workload's traced run:
/// a short series of serve-burst bursts, the one-worker baseline and one
/// job's shards in-process.  Adds serve.* keys to `layers`.
void probe_serve(const Args& args, Result& r,
                 std::map<std::string, double>& layers);

/// Child-process entry of serve-burst: runs the daemon on `root`.
int serve_daemon_main(const std::string& root, std::uint32_t workers);

/// Self-tests of the tracing seams; returns 0 when every one passes.
int run_selftest(const Args& args);

}  // namespace perfbench
