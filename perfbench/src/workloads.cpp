// The three sweep workloads (sweep-compute, load-large, sweep-durable) and
// the per-layer ledger they fold out of a traced batch.

#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/instance_format.hpp"
#include "core/instance_io.hpp"
#include "core/report.hpp"
#include "core/strategies/abm.hpp"
#include "datasets/datasets.hpp"
#include "datasets/stream_gen.hpp"
#include "graph/pagerank.hpp"
#include "serve/job.hpp"
#include "util/crc32.hpp"
#include "util/io_env.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace accu;

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> m = {
        {"core.instance.load_ms", "ms"},
        {"core.instance.bytes", "bytes"},
        {"util.crc32_ms", "ms"},
        {"util.crc32_share", "ratio"},
        {"core.score.pack_build_ms", "ms"},
        {"graph.pagerank_ms", "ms"},
        {"core.realization.resample_us", "us"},
    };
    static const char* const kStrategies[] = {"ABM", "Greedy", "MaxDegree",
                                              "PageRank", "Random"};
    static const char* const kPhaseMetrics[] = {"reset_us", "select_us",
                                                "observe_us", "revelation_us"};
    static std::vector<std::string> names;  // storage for the c_str()s
    names.reserve(std::size(kStrategies) * std::size(kPhaseMetrics));
    for (const char* s : kStrategies) {
      for (const char* p : kPhaseMetrics) {
        names.push_back(std::string("core.strategies.") + s + "." + p);
        m.push_back({names.back().c_str(), "us"});
      }
    }
    const std::vector<LayerMetric> rest = {
        {"core.strategies.reset_share", "ratio"},
        {"core.strategies.rounds_share", "ratio"},
        {"core.engine.rounds", "count"},
        {"core.engine.self_us", "us"},
        {"core.experiment.cell_ms.p50", "ms"},
        {"core.experiment.cell_ms.p99", "ms"},
        {"core.experiment.merge_tail_ms", "ms"},
        {"core.experiment.rss_kb_per_cell", "kB"},
        {"core.experiment.heap_kb_per_cell", "kB"},
        {"core.experiment.restore_ms", "ms"},
        {"core.experiment.useful_frac", "ratio"},
        {"core.faults.faulted_frac", "ratio"},
        {"core.faults.retry_frac", "ratio"},
        {"util.io.fsync_count", "count"},
        {"util.io.fsyncs_per_cell", "count"},
        {"util.io.fsync_ms.p50", "ms"},
        {"util.io.fsync_ms.p99", "ms"},
        {"util.io.rename_ms.p99", "ms"},
        {"util.io.write_bytes", "bytes"},
        {"util.io.rename_count", "count"},
        {"core.report.write_ms", "ms"},
        {"serve.setup_ms", "ms"},
        {"serve.cells_per_s", "cells/s"},
        {"serve.job_s.p50", "s"},
        {"serve.peak_rss_mb", "MB"},
        {"serve.coverage", "ratio"},
        {"serve.submit_ms.p50", "ms"},
        {"serve.queue_s", "s"},
        {"serve.shard_run_s", "s"},
        {"serve.shard_cells_per_s", "cells/s"},
        {"serve.merge_ms", "ms"},
        {"serve.progress_writes_per_cell", "count"},
        {"serve.fsyncs_per_cell", "count"},
        {"serve.rename_ms_per_cell", "ms"},
        {"serve.cells_per_s_w1", "cells/s"},
        {"serve.scaling_eff", "ratio"},
        {"serve.cpu_s_per_kcell", "s"},
        {"serve.sys_frac", "ratio"},
        {"serve.worker_busy_frac", "ratio"},
        {"datasets.synth_s", "s"},
        {"datasets.make_dataset_ms", "ms"},
        {"trace.coverage", "ratio"},
        {"trace.overhead_frac", "ratio"},
        {"trace.spans", "count"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

void emit_layers(Result& out, const std::map<std::string, double>& values) {
  const auto coverage = values.find("trace.coverage");
  if (coverage == values.end() || coverage->second < 0.9) {
    std::printf("FLAG: trace.coverage %.3f is below 0.9; the layers do not "
                "account for the traced wall time\n",
                coverage == values.end() ? 0.0 : coverage->second);
  }
  for (const LayerMetric& m : layer_metrics()) {
    const auto it = values.find(m.name);
    out.add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

namespace {

std::size_t grid_cells(const ExperimentConfig& config) {
  const std::size_t tasks =
      static_cast<std::size_t>(config.samples) * config.runs;
  std::size_t owned = 0;
  for (std::size_t t = 0; t < tasks; ++t) {
    owned += t % config.shard_count == config.shard_index ? 1 : 0;
  }
  return owned;
}

std::size_t failed_cells(const ExperimentResult& result,
                         const ExperimentConfig& config) {
  std::size_t n = 0;
  for (const CellFailure& f : result.failures) {
    n += f.run == CellFailure::kAllRuns ? config.runs : 1;
  }
  return n;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Folds a traced batch's spans into per-layer figures.  Times in µs.
std::map<std::string, double> fold_ledger(
    const TraceSession& session, const std::vector<Span>& spans,
    const std::vector<std::string>& names, const ExperimentResult& result,
    const ExperimentConfig& config, std::size_t cells, double resample_us,
    double t_start, double t_return, double t_end) {
  std::map<std::string, double> out;
  double cell_sum = 0.0;
  std::vector<double> cell_ms;
  std::map<std::string, double> busy;
  std::map<std::string, double> count;
  for (const Span& span : spans) {
    if (span.name == "core.experiment.cell") {
      cell_sum += span.end_us - span.start_us;
      cell_ms.push_back((span.end_us - span.start_us) / 1000.0);
    } else if (span.parent >= 0) {
      busy[span.name] += span.busy_us;
      count[span.name] += static_cast<double>(span.count);
    }
  }
  const double n = cells == 0 ? 1.0 : static_cast<double>(cells);
  double strategy_busy = 0.0, io_busy = 0.0, reset_busy = 0.0,
         round_busy = 0.0, rounds = 0.0;
  for (const auto& [name, us] : busy) {
    if (starts_with(name, "core.strategies.")) {
      strategy_busy += us;
      if (ends_with(name, ".reset")) {
        reset_busy += us;
      } else {
        round_busy += us;
      }
      if (ends_with(name, ".select")) rounds += count[name];
    } else if (starts_with(name, "util.io.")) {
      io_busy += us;
    }
  }
  for (const std::string& s : names) {
    for (int p = 0; p < kPhases; ++p) {
      const std::string phase = phase_name(static_cast<Phase>(p));
      out["core.strategies." + s + "." + phase + "_us"] =
          busy["core.strategies." + s + "." + phase] / n;
    }
  }
  if (cell_sum > 0.0) {
    out["core.strategies.reset_share"] = reset_busy / cell_sum;
    out["core.strategies.rounds_share"] = round_busy / cell_sum;
  }
  out["core.engine.rounds"] = rounds / n;
  out["core.engine.self_us"] = std::max(
      0.0, (cell_sum - strategy_busy - io_busy) / n - resample_us);
  out["core.experiment.cell_ms.p50"] = quantile(cell_ms, 0.5);
  out["core.experiment.cell_ms.p99"] = quantile(cell_ms, 0.99);

  const double first = session.first_worker_event_us();
  const double last = session.last_cell_end_us();
  const double workers = session.worker_threads();
  const double parallel = std::max(0.0, last - first);
  const double serial =
      std::max(0.0, first - t_start) + std::max(0.0, t_return - last) +
      (t_end - t_return);
  out["core.experiment.merge_tail_ms"] = (t_return - last) / 1000.0;
  if (parallel > 0.0) {
    out["core.experiment.useful_frac"] = cell_sum / (workers * parallel);
  }
  const double capacity = workers * parallel + serial;
  if (capacity > 0.0) out["trace.coverage"] = (cell_sum + serial) / capacity;
  out["core.report.write_ms"] = (t_end - t_return) / 1000.0;
  out["core.experiment.rss_kb_per_cell"] = session.rss_kb_per_cell();
  out["core.experiment.heap_kb_per_cell"] = session.heap_kb_per_cell();
  out["trace.spans"] = static_cast<double>(spans.size());

  const IoStats io = session.io_stats();
  out["util.io.fsync_count"] = static_cast<double>(io.fsync_count);
  out["util.io.fsyncs_per_cell"] = static_cast<double>(io.fsync_count) / n;
  out["util.io.fsync_ms.p50"] = quantile(io.fsync_ms, 0.5);
  out["util.io.fsync_ms.p99"] = quantile(io.fsync_ms, 0.99);
  out["util.io.rename_ms.p99"] = quantile(io.rename_ms, 0.99);
  out["util.io.write_bytes"] = static_cast<double>(io.write_bytes);
  out["util.io.rename_count"] = static_cast<double>(io.rename_count);

  // Platform faults are part of the model: they are rates, not failures.
  double sims = 0.0, faulted = 0.0, retries = 0.0, suspended = 0.0;
  for (const TraceAggregator& agg : result.aggregates) {
    sims += static_cast<double>(agg.total_benefit().count());
    faulted += agg.faulted_requests().sum();
    retries += agg.retries().sum();
    suspended += agg.suspended_rounds().sum();
  }
  const double total_rounds = sims * config.budget;
  if (total_rounds > 0.0) {
    out["core.faults.faulted_frac"] = faulted / total_rounds;
    if (total_rounds > suspended) {
      out["core.faults.retry_frac"] = retries / (total_rounds - suspended);
    }
  }
  return out;
}

}  // namespace

std::string render_report(const ExperimentResult& result,
                          const ExperimentConfig& config,
                          const std::string& title) {
  std::ostringstream os;
  ReportOptions options;
  options.title = title;
  write_markdown_report(result, config, os, options);
  return os.str();
}

Batch run_batch(const SweepSpec& spec, bool traced, double resample_us) {
  Batch batch;
  batch.config_used = spec.config;
  ExperimentConfig config = spec.config;
  std::vector<StrategyFactory> roster = spec.roster;
  std::vector<std::string> names;
  for (const StrategyFactory& f : roster) names.push_back(f.name);
  if (!config.checkpoint_path.empty()) {
    // A batch always starts a fresh checkpoint; an old one would resume.
    std::error_code ec;
    fs::remove(config.checkpoint_path, ec);
  }
  const AccuInstance* instance = spec.instance;
  const InstanceFactory factory = [instance](std::uint32_t, std::uint64_t) {
    return *instance;
  };

  std::optional<TraceSession> session;
  std::optional<util::ScopedIoEnv> scoped_io;
  if (traced) {
    session.emplace(names);
    roster = session->wrap(roster);
    session->instrument(config);
    scoped_io.emplace(session->io());
  }
  // Hand freed heap back first, so RSS growth during the sweep shows.
  ::malloc_trim(0);
  reset_peak_rss();
  const double t_start = now_us();
  batch.result = run_experiment(factory, roster, config);
  const double t_return = now_us();
  batch.report = render_report(batch.result, spec.config, spec.title);
  const double t_end = now_us();
  scoped_io.reset();
  batch.wall_s = (t_end - t_start) / 1e6;
  batch.peak_rss_kb = vm_hwm_kb();
  batch.failed_cells = failed_cells(batch.result, config);
  batch.cells = grid_cells(config) - std::min(grid_cells(config),
                                              batch.failed_cells);
  if (traced) {
    batch.spans = session->spans();
    batch.layers = fold_ledger(*session, batch.spans, names, batch.result,
                               spec.config, batch.cells, resample_us, t_start,
                               t_return, t_end);
  }
  return batch;
}

std::string write_spans(const Args& args, const std::vector<Batch>& batches) {
  const std::string dir = args.work_dir + "/trace";
  fs::create_directories(dir);
  const std::string path =
      dir + "/" + args.workload + "-" + std::to_string(args.seed) + ".tsv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "batch\tname\tstart_us\tend_us\tbusy_us\tcount\tparent"
                  "\trequest\tthread\n");
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (const Span& s : batches[b].spans) {
      std::fprintf(f, "%zu\t%s\t%.3f\t%.3f\t%.3f\t%llu\t%lld\t%llu\t%u\n",
                   b, s.name.c_str(), s.start_us, s.end_us, s.busy_us,
                   static_cast<unsigned long long>(s.count),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.thread);
    }
  }
  const bool ok = std::fclose(f) == 0;
  if (!ok) throw std::runtime_error("cannot write " + path);
  return path;
}

std::map<std::string, double> median_layers(
    const std::vector<Batch>& batches) {
  std::map<std::string, std::vector<double>> values;
  for (const Batch& b : batches) {
    for (const auto& [k, v] : b.layers) values[k].push_back(v);
  }
  std::map<std::string, double> out;
  for (auto& [k, v] : values) out[k] = median(std::move(v));
  return out;
}

double time_resample_us(const AccuInstance& instance, std::uint64_t seed,
                        std::size_t cells) {
  SimWorkspace ws;
  std::vector<double> us;
  for (std::size_t c = 0; c < cells; ++c) {
    util::Rng rng(seed * 1000003ULL + c);
    const double t0 = now_us();
    (void)ws.sample_truth(instance, rng);
    us.push_back(now_us() - t0);
  }
  return median(us);
}

namespace {

/// One sweep workload: its input, the batch it repeats, and the probes of
/// the layers below the sweep.
struct SweepPlan {
  std::string path;  ///< instance file
  double gen_s = 0.0;
  SweepSpec spec;
  /// Extra output checks on the reference batch (sweep-durable).
  std::function<void(Result&, const Batch&, std::map<std::string, double>&)>
      extra_checks;
  /// Extra layer probes of a traced run (sweep-durable: the serve layer).
  std::function<void(Result&, std::map<std::string, double>&)> traced_probe;
};

template <typename F>
double time_ms(F&& f) {
  const double t0 = now_us();
  f();
  return (now_us() - t0) / 1000.0;
}

/// Loads the instance `loads` times; returns the median load time (s) and
/// keeps the last load in `out`.
double load_median_s(const std::string& path, int loads,
                     std::optional<AccuInstance>& out) {
  std::vector<double> s;
  for (int i = 0; i < loads; ++i) {
    out.reset();
    const double t0 = now_us();
    out.emplace(load_instance_auto(path));
    s.push_back((now_us() - t0) / 1e6);
  }
  return median(s);
}

/// Layer probes run only in traced invocations: load, CRC, pack and
/// PageRank, each timed in isolation on the workload's own input.
void probe_layers(const SweepPlan& plan, double setup_s,
                  std::map<std::string, double>& out) {
  const AccuInstance& inst = *plan.spec.instance;
  out["core.instance.load_ms"] = setup_s * 1000.0;
  out["core.instance.bytes"] = static_cast<double>(fs::file_size(plan.path));
  const std::string bytes = read_file(plan.path);  // read before timing
  std::vector<double> crc, pack, pr;
  for (int i = 0; i < 3; ++i) {
    volatile std::uint32_t sink = 0;
    crc.push_back(time_ms([&] { sink = util::crc32(bytes); }));
    (void)sink;
    SimWorkspace ws;
    pack.push_back(time_ms([&] { (void)ws.score_pack(inst); }));
    pr.push_back(time_ms([&] { (void)graph::pagerank(inst.graph()); }));
  }
  out["util.crc32_ms"] = median(crc);
  out["util.crc32_share"] = median(crc) / (setup_s * 1000.0);
  out["core.score.pack_build_ms"] = median(pack);
  out["graph.pagerank_ms"] = median(pr);
}

Result run_sweep(const Args& args, SweepPlan& plan, double setup_s,
                 std::map<std::string, double> layers) {
  Result r;
  auto account = [&](const Batch& b, const Batch& ref, const char* what) {
    r.attempted += b.cells + b.failed_cells;
    r.failed += b.failed_cells;
    if (b.failed_cells > 0) r.correct = false;
    r.check(b.report == ref.report,
            std::string(what) + " report differs from the reference report");
  };
  // The reference batch also warms caches and lazy set-up before timing.
  Batch ref = run_batch(plan.spec, false);
  account(ref, ref, "reference");
  if (plan.extra_checks) plan.extra_checks(r, ref, layers);

  const double resample_us =
      args.trace ? time_resample_us(*plan.spec.instance, args.seed,
                                    std::min<std::size_t>(ref.cells, 64))
                 : 0.0;
  std::vector<Batch> plain, traced;
  const double t0 = now_us();
  while (plain.size() < 3 || (now_us() - t0) / 1e6 < args.seconds) {
    plain.push_back(run_batch(plan.spec, false));
    account(plain.back(), ref, "untraced");
    if (args.trace) {
      traced.push_back(run_batch(plan.spec, true, resample_us));
      account(traced.back(), ref, "traced");
    }
  }
  if (!args.trace) {
    // Every invocation checks that tracing changes no report byte.
    traced.push_back(run_batch(plan.spec, true));
    account(traced.back(), ref, "traced");
    traced.clear();
  }

  std::vector<double> rate, job, peak_mb;
  for (const Batch& b : plain) {
    rate.push_back(static_cast<double>(b.cells) / b.wall_s);
    job.push_back(b.wall_s);
    peak_mb.push_back(b.peak_rss_kb / 1024.0);
  }
  std::printf("batches: %zu untraced x %zu cells\n", plain.size(),
              ref.cells);
  if (!args.trace) {
    r.add("setup_s", setup_s, "s");
    r.add("cells_per_s", median(rate), "cells/s");
    r.add("peak_rss_mb", median(peak_mb), "MB");
    r.add("job_s.p50", median(job), "s");
    return r;
  }
  std::vector<double> traced_rate;
  for (const Batch& b : traced) {
    traced_rate.push_back(static_cast<double>(b.cells) / b.wall_s);
  }
  for (const auto& [k, v] : median_layers(traced)) layers[k] = v;
  std::printf("spans: %s\n", write_spans(args, traced).c_str());
  layers["trace.overhead_frac"] = 1.0 - median(traced_rate) / median(rate);
  layers["core.realization.resample_us"] = resample_us;
  probe_layers(plan, setup_s, layers);
  if (plan.traced_probe) plan.traced_probe(r, layers);
  layers["datasets.synth_s"] = plan.gen_s;
  emit_layers(r, layers);
  return r;
}

std::string inputs_dir(const Args& args) { return args.work_dir + "/inputs"; }

/// The twitter-like text instance shared by sweep-compute and
/// sweep-durable: scale 0.1, 50 cautious users.
std::string twitter_input(const Args& args, double& gen_s) {
  return cached_input(
      inputs_dir(args), "twitter", args.seed, ".accu", 3,
      [&](const std::string& path) {
        datasets::DatasetConfig config;
        config.scale = 0.1;
        config.num_cautious = 50;
        util::Rng rng(args.seed);
        write_instance_file(datasets::make_dataset("twitter", config, rng),
                            path);
      },
      gen_s);
}

double make_dataset_ms(const Args& args) {
  datasets::DatasetConfig config;
  config.scale = 0.1;
  config.num_cautious = 50;
  util::Rng rng(args.seed);
  return time_ms([&] { (void)datasets::make_dataset("twitter", config, rng); });
}

ExperimentConfig compute_config(const Args& args, std::uint32_t runs) {
  ExperimentConfig config;
  config.budget = 50;
  config.samples = 1;
  config.runs = runs;
  config.seed = args.seed;
  config.threads = hardware_threads();
  return config;
}

}  // namespace

Result run_sweep_compute(const Args& args) {
  SweepPlan plan;
  plan.path = twitter_input(args, plan.gen_s);
  std::optional<AccuInstance> inst;
  const double setup_s = load_median_s(plan.path, 9, inst);
  plan.spec = {&*inst, serve::compare_roster(), compute_config(args, 256),
               "perfbench sweep-compute"};
  std::map<std::string, double> layers;
  if (args.trace) layers["datasets.make_dataset_ms"] = make_dataset_ms(args);
  return run_sweep(args, plan, setup_s, std::move(layers));
}

Result run_load_large(const Args& args) {
  SweepPlan plan;
  plan.path = cached_input(
      inputs_dir(args), "large", args.seed, ".accui", 2,
      [&](const std::string& path) {
        datasets::StreamGenConfig config;
        config.num_nodes = 300000;
        config.num_cautious = 100;
        config.seed = args.seed;
        config.pack_tables = true;
        (void)datasets::generate_instance_stream(config, path);
      },
      plan.gen_s);
  std::optional<AccuInstance> inst;
  const double setup_s = load_median_s(plan.path, 5, inst);
  ExperimentConfig config;
  config.budget = 10;
  config.samples = 1;
  config.runs = 64;
  config.seed = args.seed;
  config.threads = 1;
  plan.spec = {&*inst,
               {{"ABM", [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }}},
               config,
               "perfbench load-large"};
  return run_sweep(args, plan, setup_s, {});
}

Result run_sweep_durable(const Args& args) {
  SweepPlan plan;
  plan.path = twitter_input(args, plan.gen_s);
  std::optional<AccuInstance> inst;
  const double setup_s = load_median_s(plan.path, 9, inst);
  ExperimentConfig config = compute_config(args, 512);
  config.feedback = FeedbackModel::parse("delayed:4");
  config.faults = FaultConfig::uniform(0.1, 3);
  config.retry = util::RetryPolicy::parse("exp");
  fs::create_directories(args.work_dir);
  config.checkpoint_path = args.work_dir + "/sweep-durable.ckpt";
  plan.spec = {&*inst, serve::compare_roster(), config,
               "perfbench sweep-durable"};
  plan.extra_checks = [&](Result& r, const Batch& ref,
                          std::map<std::string, double>& layers) {
    // The checkpoint alone must rebuild the live report, by merge and by
    // resume (every cell restored, none re-run).
    const ShardMergeOutcome merged =
        merge_shard_checkpoints({plan.spec.config.checkpoint_path});
    r.check(merged.cells_missing == 0 && merged.cells_merged == ref.cells,
            "merge found missing cells in the sweep-durable checkpoint");
    r.check(render_report(merged.result, merged.config,
                          plan.spec.title) == ref.report,
            "report rebuilt by merge_shard_checkpoints differs");
    const AccuInstance* instance = plan.spec.instance;
    ExperimentResult resumed;
    layers["core.experiment.restore_ms"] = time_ms([&] {
      resumed = run_experiment(
          [instance](std::uint32_t, std::uint64_t) { return *instance; },
          plan.spec.roster, plan.spec.config);
    });
    r.check(render_report(resumed, plan.spec.config, plan.spec.title) ==
                ref.report,
            "report from a resume over the finished checkpoint differs");
  };
  plan.traced_probe = [&args](Result& r, std::map<std::string, double>& l) {
    probe_serve(args, r, l);
  };
  std::map<std::string, double> layers;
  if (args.trace) layers["datasets.make_dataset_ms"] = make_dataset_ms(args);
  return run_sweep(args, plan, setup_s, std::move(layers));
}

}  // namespace perfbench
