// Self-tests of the benchmark's tracing seams: tracing must not change a
// report or checkpoint byte.  Run with `python3 perfbench/run.py --selftest`.

#include <cstdio>
#include <filesystem>

#include "datasets/datasets.hpp"
#include "serve/job.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace accu;

int run_selftest(const Args& args) {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what);
    failures += ok ? 0 : 1;
  };

  datasets::DatasetConfig dataset;
  dataset.scale = 0.05;
  dataset.num_cautious = 10;
  util::Rng rng(args.seed);
  const AccuInstance instance =
      datasets::make_dataset("facebook", dataset, rng);

  // The decorator forwards every virtual, including the resource hooks.
  {
    TraceSession session({"ABM", "Greedy", "MaxDegree", "PageRank", "Random"});
    const std::vector<StrategyFactory> plain = serve::compare_roster();
    const std::vector<StrategyFactory> traced = session.wrap(plain);
    bool same = true;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const auto a = plain[i].make();
      const auto b = traced[i].make();
      same = same && a->name() == b->name() &&
             a->wants_score_pack() == b->wants_score_pack() &&
             (a->as_fault_observer() == nullptr) ==
                 (b->as_fault_observer() == nullptr);
    }
    expect(same, "decorated roster forwards name, wants_score_pack and "
                 "as_fault_observer");
  }

  ExperimentConfig full;
  full.budget = 20;
  full.samples = 1;
  full.runs = 12;
  full.seed = args.seed;
  full.threads = 2;
  SweepSpec spec{&instance, serve::compare_roster(), full, "selftest"};
  {
    const Batch plain = run_batch(spec, false);
    const Batch traced = run_batch(spec, true);
    expect(plain.failed_cells == 0 && plain.report == traced.report,
           "full feedback: decorated roster gives a byte-identical report");
  }

  ExperimentConfig delayed = full;
  delayed.feedback = FeedbackModel::parse("delayed:4");
  delayed.faults = FaultConfig::uniform(0.1, 3);
  delayed.retry = util::RetryPolicy::parse("exp");
  spec.config = delayed;
  {
    const Batch plain = run_batch(spec, false);
    const Batch traced = run_batch(spec, true);
    expect(plain.failed_cells == 0 && plain.report == traced.report,
           "delayed:4 + faults: decorated roster gives a byte-identical "
           "report");
    double revelations = 0.0;
    for (const auto& [k, v] : traced.layers) {
      if (k.find(".revelation_us") != std::string::npos) revelations += v;
    }
    expect(revelations > 0.0, "delayed:4: revelation spans are recorded");
  }

  // One worker, so cells reach the checkpoint in a fixed order.
  fs::create_directories(args.work_dir);
  spec.config.threads = 1;
  spec.config.checkpoint_path = args.work_dir + "/selftest.ckpt";
  {
    const Batch plain = run_batch(spec, false);
    const std::string real_bytes = read_file(spec.config.checkpoint_path);
    const Batch traced = run_batch(spec, true);
    const std::string timed_bytes = read_file(spec.config.checkpoint_path);
    expect(!real_bytes.empty() && real_bytes == timed_bytes &&
               plain.report == traced.report,
           "timing IoEnv writes the same checkpoint bytes as the real one");
    expect(traced.layers.at("util.io.fsync_count") > 0.0,
           "timing IoEnv counts the checkpoint fsyncs");
    fs::remove(spec.config.checkpoint_path);
  }
  std::printf("selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
