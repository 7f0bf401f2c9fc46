// Tests for sharded sweep execution and the shard-merge path: N shard
// checkpoints (including empty shards, torn tails, and a shard SIGKILLed
// mid-run) must merge into aggregates bit-identical to the unsharded
// sequential sweep, mismatched shard files must be rejected, and
// TraceAggregator::merge must be exact for unequal series lengths and
// zero-count inputs.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "datasets/datasets.hpp"
#include "test_dirs.hpp"

namespace accu {
namespace {

InstanceFactory tiny_factory() {
  return [](std::uint32_t sample, std::uint64_t seed) {
    util::Rng rng(seed + sample);
    datasets::DatasetConfig config;
    config.scale = 0.05;
    config.num_cautious = 8;
    return datasets::make_dataset("facebook", config, rng);
  };
}

std::vector<StrategyFactory> two_strategies() {
  return {
      {"ABM", [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }},
      {"Random", [] { return std::make_unique<RandomStrategy>(); }},
  };
}

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.budget = 20;
  config.samples = 2;
  config.runs = 3;
  config.seed = 31;
  config.faults = FaultConfig::uniform(0.2);
  config.retry = util::RetryPolicy::exponential_jitter(2);
  return config;
}

std::string temp_path(const std::string& name) {
  return testdirs::test_path(name);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

/// Exact equality of two aggregators — the merge guarantee is bit-identity
/// with the sequential accumulation, not closeness.
void expect_identical_aggregates(const TraceAggregator& x,
                                 const TraceAggregator& y) {
  EXPECT_EQ(x.total_benefit().count(), y.total_benefit().count());
  EXPECT_EQ(x.total_benefit().mean(), y.total_benefit().mean());
  EXPECT_EQ(x.total_benefit().variance(), y.total_benefit().variance());
  EXPECT_EQ(x.cautious_friends().mean(), y.cautious_friends().mean());
  EXPECT_EQ(x.accepted_requests().mean(), y.accepted_requests().mean());
  EXPECT_EQ(x.faulted_requests().mean(), y.faulted_requests().mean());
  EXPECT_EQ(x.retries().mean(), y.retries().mean());
  EXPECT_EQ(x.suspended_rounds().mean(), y.suspended_rounds().mean());
  EXPECT_EQ(x.abandoned_targets().mean(), y.abandoned_targets().mean());
  ASSERT_EQ(x.cumulative_benefit().length(), y.cumulative_benefit().length());
  for (std::size_t i = 0; i < x.cumulative_benefit().length(); ++i) {
    EXPECT_EQ(x.cumulative_benefit().at(i).count(),
              y.cumulative_benefit().at(i).count())
        << "index " << i;
    EXPECT_EQ(x.cumulative_benefit().at(i).mean(),
              y.cumulative_benefit().at(i).mean())
        << "index " << i;
    EXPECT_EQ(x.marginal().at(i).mean(), y.marginal().at(i).mean());
    EXPECT_EQ(x.marginal_cautious().at(i).mean(),
              y.marginal_cautious().at(i).mean());
    EXPECT_EQ(x.marginal_reckless().at(i).mean(),
              y.marginal_reckless().at(i).mean());
    EXPECT_EQ(x.cautious_fraction().at(i).mean(),
              y.cautious_fraction().at(i).mean());
  }
}

void expect_identical_results(const ExperimentResult& a,
                              const ExperimentResult& b) {
  ASSERT_EQ(a.strategy_names, b.strategy_names);
  for (std::size_t s = 0; s < a.aggregates.size(); ++s) {
    SCOPED_TRACE(a.strategy_names[s]);
    expect_identical_aggregates(a.aggregates[s], b.aggregates[s]);
  }
}

/// Runs the sweep split into `shard_count` shards (each with its own
/// checkpoint file) and returns the per-shard checkpoint paths.
std::vector<std::string> run_shards(const ExperimentConfig& plain,
                                    std::uint32_t shard_count,
                                    const std::string& tag) {
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    ExperimentConfig shard = plain;
    shard.shard_index = i;
    shard.shard_count = shard_count;
    shard.checkpoint_path =
        temp_path(tag + "_s" + std::to_string(i) + ".txt");
    (void)run_experiment(tiny_factory(), two_strategies(), shard);
    paths.push_back(shard.checkpoint_path);
  }
  return paths;
}

// The tentpole property: for shard counts {1, 2, 3, 7}, running every shard
// separately and merging the checkpoints reproduces the unsharded
// sequential sweep exactly.  With a 2×3 grid, 7 shards means shard 6 owns
// no cells — an empty shard file must merge cleanly.
TEST(ShardTest, ShardedSweepsMergeBitIdenticallyToSequential) {
  const ExperimentConfig plain = base_config();
  const ExperimentResult sequential =
      run_experiment(tiny_factory(), two_strategies(), plain);
  for (const std::uint32_t shard_count : {1u, 2u, 3u, 7u}) {
    SCOPED_TRACE("shard_count=" + std::to_string(shard_count));
    const std::vector<std::string> paths = run_shards(
        plain, shard_count, "accu_shard_n" + std::to_string(shard_count));
    const ShardMergeOutcome merged = merge_shard_checkpoints(paths);
    EXPECT_EQ(merged.cells_merged,
              static_cast<std::size_t>(plain.samples) * plain.runs);
    EXPECT_EQ(merged.cells_missing, 0u);
    EXPECT_EQ(merged.duplicate_cells, 0u);
    expect_identical_results(sequential, merged.result);
    EXPECT_EQ(merged.config.seed, plain.seed);
    EXPECT_EQ(merged.config.budget, plain.budget);
  }
}

TEST(ShardTest, EveryShardOwnsADisjointCoveringSliceOfTheGrid) {
  const ExperimentConfig plain = base_config();
  const std::vector<std::string> paths = run_shards(plain, 3, "accu_cover");
  // Count `begin` blocks per file; together they tile the 6-cell grid.
  std::vector<bool> seen(static_cast<std::size_t>(plain.samples) * plain.runs,
                         false);
  for (const std::string& path : paths) {
    std::istringstream lines(read_file(path));
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("begin ", 0) != 0) continue;
      const std::size_t task = std::stoul(line.substr(6));
      ASSERT_LT(task, seen.size());
      EXPECT_FALSE(seen[task]) << "task " << task << " owned twice";
      seen[task] = true;
    }
  }
  for (std::size_t task = 0; task < seen.size(); ++task) {
    EXPECT_TRUE(seen[task]) << "task " << task << " owned by no shard";
  }
}

TEST(ShardTest, ShardIdentityIsRecordedAndMismatchedResumeIsRejected) {
  ExperimentConfig config = base_config();
  config.shard_index = 1;
  config.shard_count = 3;
  config.checkpoint_path = temp_path("accu_shard_identity.txt");
  (void)run_experiment(tiny_factory(), two_strategies(), config);
  EXPECT_NE(read_file(config.checkpoint_path).find("\nshard 1 3\n"),
            std::string::npos);

  // Resuming the same file as a different shard — or unsharded — must be
  // rejected: the file's cells would silently stand in for cells the new
  // shard never owned.
  config.shard_index = 2;
  EXPECT_THROW(run_experiment(tiny_factory(), two_strategies(), config),
               IoError);
  config.shard_index = 0;
  config.shard_count = 1;
  EXPECT_THROW(run_experiment(tiny_factory(), two_strategies(), config),
               IoError);
}

TEST(ShardTest, InvalidShardConfigIsRejected) {
  ExperimentConfig config = base_config();
  config.shard_count = 0;
  EXPECT_THROW(run_experiment(tiny_factory(), two_strategies(), config),
               InvalidArgument);
  config.shard_count = 2;
  config.shard_index = 2;
  EXPECT_THROW(run_experiment(tiny_factory(), two_strategies(), config),
               InvalidArgument);
}

TEST(ShardTest, ParseShardSpecAcceptsValidAndRejectsMalformed) {
  EXPECT_EQ(parse_shard_spec("0/4"), (std::pair<std::uint32_t,
                                                std::uint32_t>{0, 4}));
  EXPECT_EQ(parse_shard_spec("2/3"), (std::pair<std::uint32_t,
                                                std::uint32_t>{2, 3}));
  for (const char* bad :
       {"", "3/3", "4/3", "a/b", "1/0", "1/2/3", "1/", "/2", "-1/2",
        "1/2x"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(parse_shard_spec(bad), InvalidArgument);
  }
}

// A shard file with a torn tail (killed mid-append) loses only its last
// block: resuming that shard re-runs the lost cell and the merged result
// is still bit-identical.
TEST(ShardTest, TornTailShardResumesAndMergesExactly) {
  const ExperimentConfig plain = base_config();
  const ExperimentResult sequential =
      run_experiment(tiny_factory(), two_strategies(), plain);
  std::vector<std::string> paths = run_shards(plain, 3, "accu_torn");

  // Tear shard 1: keep its first block plus half a trace line of the next.
  const std::string full = read_file(paths[1]);
  const std::size_t first_end = full.find("\nend ");
  ASSERT_NE(first_end, std::string::npos);
  const std::size_t second_begin = full.find("begin ", first_end);
  ASSERT_NE(second_begin, std::string::npos);
  const std::size_t tear = full.find("\nt ", second_begin);
  ASSERT_NE(tear, std::string::npos);
  {
    std::ofstream os(paths[1], std::ios::trunc);
    os << full.substr(0, tear + 5);
  }

  // Merging the torn set is incomplete — and says so.
  const ShardMergeOutcome partial = merge_shard_checkpoints(paths);
  EXPECT_GT(partial.cells_missing, 0u);

  // Resume shard 1, then merge again: complete and bit-identical.
  ExperimentConfig shard = plain;
  shard.shard_index = 1;
  shard.shard_count = 3;
  shard.checkpoint_path = paths[1];
  (void)run_experiment(tiny_factory(), two_strategies(), shard);
  const ShardMergeOutcome merged = merge_shard_checkpoints(paths);
  EXPECT_EQ(merged.cells_missing, 0u);
  expect_identical_results(sequential, merged.result);
}

// The acceptance headline: split the sweep across 3 shards, SIGKILL one
// mid-run (no chance to flush), resume it, and merge — byte-for-byte the
// unsharded aggregates.
TEST(ShardTest, SigkilledShardResumesAndMergesBitIdentically) {
  const ExperimentConfig plain = base_config();
  const InstanceFactory factory = tiny_factory();
  const std::vector<StrategyFactory> roster = two_strategies();
  const ExperimentResult sequential =
      run_experiment(factory, roster, plain);

  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < 3; ++i) {
    paths.push_back(temp_path("accu_kill_s" + std::to_string(i) + ".txt"));
  }
  for (const std::uint32_t i : {0u, 2u}) {
    ExperimentConfig shard = plain;
    shard.shard_index = i;
    shard.shard_count = 3;
    shard.checkpoint_path = paths[i];
    (void)run_experiment(factory, roster, shard);
  }

  // Shard 1 runs in a forked child that the parent kills without warning —
  // possibly mid-checkpoint-append.
  ExperimentConfig victim = plain;
  victim.shard_index = 1;
  victim.shard_count = 3;
  victim.checkpoint_path = paths[1];
  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << "fork failed";
  if (pid == 0) {
    // _exit (not exit): a SIGKILL leaves no cleanup anyway, and the
    // early-finish path must not flush the parent's stdio buffers.
    (void)run_experiment(factory, roster, victim);
    _exit(0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);

  // Resume the killed shard from whatever bytes survived, then merge.
  (void)run_experiment(factory, roster, victim);
  const ShardMergeOutcome merged = merge_shard_checkpoints(paths);
  EXPECT_EQ(merged.cells_missing, 0u);
  expect_identical_results(sequential, merged.result);
}

TEST(MergeTest, MergedCheckpointIsResumableUnsharded) {
  const ExperimentConfig plain = base_config();
  const ExperimentResult sequential =
      run_experiment(tiny_factory(), two_strategies(), plain);
  const std::vector<std::string> paths = run_shards(plain, 3, "accu_resume");
  const std::string merged_path = temp_path("accu_resume_merged.txt");
  const ShardMergeOutcome merged =
      merge_shard_checkpoints(paths, merged_path);
  expect_identical_results(sequential, merged.result);

  // The merged file is a complete unsharded checkpoint: running against it
  // replays every cell from disk, still bit-identically.
  ExperimentConfig resume = plain;
  resume.checkpoint_path = merged_path;
  const ExperimentResult replayed =
      run_experiment(tiny_factory(), two_strategies(), resume);
  expect_identical_results(sequential, replayed);
}

TEST(MergeTest, MergeIsOrderIndependentAndDeduplicatesOverlap) {
  const ExperimentConfig plain = base_config();
  const std::vector<std::string> paths = run_shards(plain, 3, "accu_order");
  const std::string out_a = temp_path("accu_order_a.txt");
  const std::string out_b = temp_path("accu_order_b.txt");
  const ShardMergeOutcome a = merge_shard_checkpoints(paths, out_a);
  // Reversed order, plus shard 0 listed twice: same merged bytes, with the
  // overlap counted as duplicates rather than double-aggregated.
  const ShardMergeOutcome b = merge_shard_checkpoints(
      {paths[2], paths[1], paths[0], paths[0]}, out_b);
  EXPECT_GT(b.duplicate_cells, 0u);
  expect_identical_results(a.result, b.result);
  EXPECT_EQ(read_file(out_a), read_file(out_b));
}

TEST(MergeTest, MismatchedShardFilesAreRejected) {
  const ExperimentConfig plain = base_config();
  const std::vector<std::string> paths = run_shards(plain, 2, "accu_mm");
  ExperimentConfig other = plain;
  other.seed += 1;
  other.shard_count = 2;
  other.shard_index = 1;
  other.checkpoint_path = temp_path("accu_mm_alien.txt");
  (void)run_experiment(tiny_factory(), two_strategies(), other);
  EXPECT_THROW(merge_shard_checkpoints({paths[0], other.checkpoint_path}),
               IoError);
}

TEST(MergeTest, MissingShardsAreCountedNotInvented) {
  const ExperimentConfig plain = base_config();
  const std::vector<std::string> paths = run_shards(plain, 3, "accu_miss");
  const ShardMergeOutcome merged =
      merge_shard_checkpoints({paths[0], paths[2]});
  const std::size_t grid =
      static_cast<std::size_t>(plain.samples) * plain.runs;
  EXPECT_EQ(merged.cells_merged + merged.cells_missing, grid);
  EXPECT_GT(merged.cells_missing, 0u);
  // Only the merged cells contribute samples.
  for (const TraceAggregator& agg : merged.result.aggregates) {
    EXPECT_EQ(agg.total_benefit().count(), merged.cells_merged);
  }
}

SimulationResult synthetic_result(std::size_t steps, double step_benefit) {
  SimulationResult r;
  double benefit = 0.0;
  for (std::size_t i = 0; i < steps; ++i) {
    RequestRecord rec;
    rec.target = static_cast<NodeId>(i);
    rec.accepted = true;
    rec.cautious_target = i % 2 == 0;
    rec.benefit_before = benefit;
    benefit += step_benefit;
    rec.benefit_after = benefit;
    r.trace.push_back(rec);
  }
  r.total_benefit = benefit;
  r.num_accepted = static_cast<std::uint32_t>(steps);
  return r;
}

// merge() with unequal series lengths (shards aggregated under different
// budgets) must equal the sequential accumulation into one aggregator.
TEST(MergeTest, UnequalSeriesLengthsMatchSequentialAccumulation) {
  const SimulationResult short_run = synthetic_result(5, 2.0);
  const SimulationResult long_run = synthetic_result(9, 3.0);

  TraceAggregator sequential;
  sequential.add(short_run, 5);
  sequential.add(long_run, 9);

  TraceAggregator a, b;
  a.add(short_run, 5);
  b.add(long_run, 9);
  TraceAggregator merged_ab = a;
  merged_ab.merge(b);
  expect_identical_aggregates(sequential, merged_ab);

  // And in the other direction: the longer series absorbing the shorter.
  TraceAggregator merged_ba = b;
  merged_ba.merge(a);
  EXPECT_EQ(merged_ba.cumulative_benefit().length(), 9u);
  EXPECT_EQ(merged_ba.total_benefit().count(), 2u);
  EXPECT_EQ(merged_ba.total_benefit().mean(),
            sequential.total_benefit().mean());
  EXPECT_EQ(merged_ba.cumulative_benefit().at(7).count(),
            sequential.cumulative_benefit().at(7).count());
}

TEST(MergeTest, ZeroCountAggregatorsMergeAsIdentity) {
  TraceAggregator filled;
  filled.add(synthetic_result(4, 1.5), 4);
  const TraceAggregator reference = filled;

  TraceAggregator empty;
  filled.merge(empty);  // no-op
  expect_identical_aggregates(reference, filled);

  TraceAggregator absorber;
  absorber.merge(reference);  // empty absorbing non-empty
  expect_identical_aggregates(reference, absorber);

  TraceAggregator both;
  both.merge(empty);  // empty ∪ empty stays empty
  EXPECT_EQ(both.total_benefit().count(), 0u);
  EXPECT_EQ(both.cumulative_benefit().length(), 0u);
}

}  // namespace
}  // namespace accu
