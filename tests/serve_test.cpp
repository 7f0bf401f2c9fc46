// Tests for the serve daemon stack: journal corruption handling (bit rot,
// torn tails, duplicated records), CRC-guarded job descriptors, admission
// control, the experiment progress hook, and the daemon itself — including
// the headline crash drill: SIGKILL the daemon mid-sweep, restart it, and
// demand a merged report bit-identical to a direct uninterrupted run.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/instance_io.hpp"
#include "core/report.hpp"
#include "datasets/datasets.hpp"
#include "serve/admission.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/exit_codes.hpp"
#include "util/lockfile.hpp"
#include "test_dirs.hpp"

namespace accu::serve {
namespace {

// The forked child daemon in the lock test needs a SIGTERM-driven drain;
// sig_atomic_t written from a handler is the only portable option.
volatile std::sig_atomic_t g_test_stop = 0;
void test_stop_handler(int) { g_test_stop = 1; }

namespace fs = std::filesystem;
namespace exit_code = util::exit_code;

std::string temp_path(const std::string& name) {
  return testdirs::test_path(name);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary);
  os << content;
  ASSERT_TRUE(os.good());
}

// ---------------------------------------------------------------------------
// Journal

TEST(ServeJournalTest, RoundTripPreservesRecordsAndVerifies) {
  const std::string path = temp_path("serve_journal_rt");
  JobJournal journal;
  const JournalLoad fresh = journal.open(path);
  EXPECT_TRUE(fresh.records.empty());
  journal.append("submit", {"job0001", "2"});
  journal.append("start", {"job0001", "0", "4242"});
  journal.append("shard-done", {"job0001", "0", "0"});
  journal.append("drain");

  const JournalLoad load = read_journal(path);
  ASSERT_EQ(load.records.size(), 4u);
  EXPECT_EQ(load.records[0].verb, "submit");
  EXPECT_EQ(load.records[0].args,
            (std::vector<std::string>{"job0001", "2"}));
  EXPECT_EQ(load.records[1].verb, "start");
  EXPECT_EQ(load.records[3].verb, "drain");
  EXPECT_EQ(load.valid_end, load.file_size) << "clean file verifies fully";
}

TEST(ServeJournalTest, MissingFileLoadsEmpty) {
  const JournalLoad load = read_journal(temp_path("serve_journal_missing"));
  EXPECT_FALSE(load.existed);
  EXPECT_TRUE(load.records.empty());
  EXPECT_EQ(load.valid_end, 0u);
}

TEST(ServeJournalTest, TornTailIsTruncatedOnOpen) {
  const std::string path = temp_path("serve_journal_torn");
  {
    JobJournal journal;
    journal.open(path);
    journal.append("submit", {"job0001", "1"});
    journal.append("start", {"job0001", "0", "77"});
  }
  const std::uint64_t intact = read_journal(path).valid_end;
  {
    // A crash mid-append: half a record, no newline.
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << "shard-done job0001 0";
  }
  const JournalLoad damaged = read_journal(path);
  EXPECT_EQ(damaged.records.size(), 2u);
  EXPECT_EQ(damaged.valid_end, intact);
  EXPECT_LT(damaged.valid_end, damaged.file_size);

  // Re-opening repairs the file in place and appending works again.
  JobJournal journal;
  const JournalLoad reopened = journal.open(path);
  EXPECT_EQ(reopened.records.size(), 2u);
  EXPECT_EQ(fs::file_size(path), intact);
  journal.append("shard-done", {"job0001", "0", "0"});
  EXPECT_EQ(read_journal(path).records.size(), 3u);
}

TEST(ServeJournalTest, BitRotTruncatesAtFirstBadRecord) {
  const std::string path = temp_path("serve_journal_bitrot");
  {
    JobJournal journal;
    journal.open(path);
    journal.append("submit", {"job0001", "1"});
    journal.append("start", {"job0001", "0", "77"});
    journal.append("shard-done", {"job0001", "0", "0"});
  }
  std::string content = read_file(path);
  // Flip one payload byte of the middle record.
  const std::size_t pos = content.find("start job0001");
  ASSERT_NE(pos, std::string::npos);
  content[pos] = 'x';
  write_file(path, content);

  // Everything from the damaged record on is dropped — even the final
  // record, whose own CRC still verifies: append order is the truth.
  const JournalLoad load = read_journal(path);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].verb, "submit");
  EXPECT_LT(load.valid_end, load.file_size);

  JobJournal journal;
  journal.open(path);
  EXPECT_EQ(fs::file_size(path), load.valid_end);
}

TEST(ServeJournalTest, DamagedHeaderDiscardsTheFile) {
  const std::string path = temp_path("serve_journal_header");
  {
    JobJournal journal;
    journal.open(path);
    journal.append("submit", {"job0001", "1"});
  }
  std::string content = read_file(path);
  content[0] = '!';
  write_file(path, content);
  const JournalLoad load = read_journal(path);
  EXPECT_TRUE(load.records.empty());
  EXPECT_EQ(load.valid_end, 0u);

  // Open starts a fresh journal rather than appending after garbage.
  JobJournal journal;
  const JournalLoad reopened = journal.open(path);
  EXPECT_TRUE(reopened.records.empty());
  journal.append("submit", {"job0002", "1"});
  EXPECT_EQ(read_journal(path).records.size(), 1u);
}

TEST(ServeJournalTest, ReplayIsIdempotentUnderDuplicatedRecords) {
  std::vector<JournalRecord> records = {
      {"submit", {"job0001", "2"}},
      {"submit", {"job0001", "2"}},  // duplicated submit
      {"start", {"job0001", "0", "100"}},
      {"shard-done", {"job0001", "0", "0"}},
      {"shard-done", {"job0001", "0", "0"}},  // duplicated completion
      {"start", {"job0001", "1", "101"}},
      {"shard-done", {"job0001", "1", "0"}},
      {"done", {"job0001", "0"}},
      {"done", {"job0001", "0"}},  // duplicated terminal record
  };
  const ReplayState state = replay_journal(records);
  ASSERT_EQ(state.jobs.size(), 1u);
  const ReplayedJob& job = state.jobs.at("job0001");
  EXPECT_EQ(job.state, ReplayedJob::State::kDone);
  EXPECT_EQ(job.shards, 2u);
  EXPECT_TRUE(job.shard_done[0]);
  EXPECT_TRUE(job.shard_done[1]);
  EXPECT_EQ(job.crashes, 0u);
}

TEST(ServeJournalTest, ReplayTracksCrashesQuarantineAndOrphanPids) {
  const ReplayState state = replay_journal({
      {"submit", {"job0001", "1"}},
      {"start", {"job0001", "0", "500"}},
      {"crash", {"job0001", "0", "1"}},
      {"start", {"job0001", "0", "501"}},
      {"submit", {"job0002", "1"}},
      {"start", {"job0002", "0", "600"}},
      {"crash", {"job0002", "0", "1"}},
      {"crash", {"job0002", "0", "1"}},
      {"quarantine", {"job0002"}},
      {"bogus-verb", {"ignored"}},  // unknown verbs skip cleanly
  });
  ASSERT_EQ(state.jobs.size(), 2u);
  const ReplayedJob& running = state.jobs.at("job0001");
  EXPECT_EQ(running.state, ReplayedJob::State::kRunning);
  EXPECT_EQ(running.crashes, 1u);
  EXPECT_EQ(running.shard_pid[0], 501) << "last journaled pid survives "
                                          "for orphan recovery";
  const ReplayedJob& poisoned = state.jobs.at("job0002");
  EXPECT_EQ(poisoned.state, ReplayedJob::State::kQuarantined);
  EXPECT_EQ(poisoned.crashes, 2u);
}

TEST(ServeJournalTest, RecordArgumentsMayNotContainWhitespace) {
  EXPECT_THROW((void)format_journal_record("fail", {"job0001", "two words"}),
               InvalidArgument);
  EXPECT_THROW((void)format_journal_record("bad verb", {}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Job descriptors

JobSpec sample_spec() {
  JobSpec spec;
  spec.kind = "sweep";
  spec.dataset = "facebook";
  spec.scale = 0.031;
  spec.cautious = 7;
  spec.budget = 9;
  spec.samples = 2;
  spec.runs = 13;
  spec.seed = 987654321;
  spec.fault_rate = 0.125;
  spec.suspension_rounds = 4;
  spec.retry = "exp";
  spec.feedback = "batched";
  spec.feedback_delay = 6;
  spec.cell_deadline_ms = 1500;
  spec.max_cell_retries = 2;
  spec.deadline_ms = 60000;
  spec.threads = 2;
  spec.cell_threads = 3;
  spec.simd = "scalar";
  spec.durability = "grouped";
  spec.group_cells = 9;
  spec.group_ms = 250;
  return spec;
}

/// Rewrites a descriptor body and re-stamps a valid CRC, for tests that
/// need *semantic* damage to survive the integrity check.
std::string restamp(std::string body, const std::string& from,
                    const std::string& to) {
  const std::size_t crc_pos = body.rfind("crc=");
  EXPECT_NE(crc_pos, std::string::npos);
  std::string payload = body.substr(0, crc_pos);
  const std::size_t hit = payload.find(from);
  EXPECT_NE(hit, std::string::npos);
  payload.replace(hit, from.size(), to);
  char trailer[24];
  std::snprintf(trailer, sizeof trailer, "crc=%08x\n", util::crc32(payload));
  return payload + trailer;
}

TEST(ServeJobTest, DescriptorRoundTripsEveryField) {
  const JobSpec spec = sample_spec();
  const JobSpec parsed = parse_job(serialize_job(spec));
  EXPECT_EQ(parsed.kind, spec.kind);
  EXPECT_EQ(parsed.dataset, spec.dataset);
  EXPECT_DOUBLE_EQ(parsed.scale, spec.scale);
  EXPECT_EQ(parsed.cautious, spec.cautious);
  EXPECT_EQ(parsed.budget, spec.budget);
  EXPECT_EQ(parsed.samples, spec.samples);
  EXPECT_EQ(parsed.runs, spec.runs);
  EXPECT_EQ(parsed.seed, spec.seed);
  EXPECT_DOUBLE_EQ(parsed.fault_rate, spec.fault_rate);
  EXPECT_EQ(parsed.suspension_rounds, spec.suspension_rounds);
  EXPECT_EQ(parsed.retry, spec.retry);
  EXPECT_EQ(parsed.feedback, spec.feedback);
  EXPECT_EQ(parsed.feedback_delay, spec.feedback_delay);
  EXPECT_EQ(parsed.cell_deadline_ms, spec.cell_deadline_ms);
  EXPECT_EQ(parsed.max_cell_retries, spec.max_cell_retries);
  EXPECT_EQ(parsed.deadline_ms, spec.deadline_ms);
  EXPECT_EQ(parsed.threads, spec.threads);
  EXPECT_EQ(parsed.cell_threads, spec.cell_threads);
  EXPECT_EQ(parsed.simd, spec.simd);
  EXPECT_EQ(parsed.durability, spec.durability);
  EXPECT_EQ(parsed.group_cells, spec.group_cells);
  EXPECT_EQ(parsed.group_ms, spec.group_ms);
}

TEST(ServeJobTest, UnknownSimdSpellingIsRejectedAtAdmission) {
  // Spelling is validated eagerly; foreign-but-known ISA names must pass
  // (descriptors travel between architectures; support is checked by the
  // executing host at sweep start).
  const std::string body = serialize_job(sample_spec());
  EXPECT_THROW((void)parse_job(restamp(body, "simd=scalar", "simd=sse9")),
               InvalidArgument);
  const JobSpec neon = parse_job(restamp(body, "simd=scalar", "simd=neon"));
  EXPECT_EQ(neon.simd, "neon");
}

TEST(ServeJobTest, BitFlippedDescriptorIsRejected) {
  std::string body = serialize_job(sample_spec());
  const std::size_t pos = body.find("runs=13");
  ASSERT_NE(pos, std::string::npos);
  body[pos + 5] = '9';  // runs=93, CRC not re-stamped
  EXPECT_THROW((void)parse_job(body), IoError);
}

TEST(ServeJobTest, MissingOrMalformedCrcTrailerIsRejected) {
  std::string body = serialize_job(sample_spec());
  const std::size_t crc_pos = body.rfind("crc=");
  EXPECT_THROW((void)parse_job(body.substr(0, crc_pos)), IoError);
  std::string bad_hex = body;
  bad_hex.replace(crc_pos, std::string::npos, "crc=zzzz\n");
  EXPECT_THROW((void)parse_job(bad_hex), IoError);
}

TEST(ServeJobTest, UnknownKeysFailEvenWithAValidCrc) {
  const std::string body =
      restamp(serialize_job(sample_spec()), "dataset=", "datasset=");
  EXPECT_THROW((void)parse_job(body), InvalidArgument);
}

TEST(ServeJobTest, InvalidKindAndMissingInstanceAreRejected) {
  EXPECT_THROW(
      (void)parse_job(restamp(serialize_job(sample_spec()), "kind=sweep",
                              "kind=bogus")),
      InvalidArgument);
  JobSpec compare = sample_spec();
  compare.kind = "compare";
  compare.instance = "";
  EXPECT_THROW((void)parse_job(serialize_job(compare)), InvalidArgument);
}

TEST(ServeJobTest, MisspelledDurabilityKeyGetsADidYouMeanHint) {
  const std::string body =
      restamp(serialize_job(sample_spec()), "durability=", "durabilty=");
  try {
    (void)parse_job(body);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean --durability"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServeJobTest, UnknownDurabilityModeIsRejected) {
  EXPECT_THROW((void)parse_job(restamp(serialize_job(sample_spec()),
                                       "durability=grouped",
                                       "durability=eventual")),
               InvalidArgument);
}

TEST(ServeJobTest, OutOfRangeGroupKnobsAreRejected) {
  EXPECT_THROW((void)parse_job(restamp(serialize_job(sample_spec()),
                                       "group-cells=9", "group-cells=0")),
               InvalidArgument);
  EXPECT_THROW((void)parse_job(restamp(serialize_job(sample_spec()),
                                       "group-ms=250", "group-ms=9999999")),
               InvalidArgument);
  // A value that overflows 64-bit parsing is an *out-of-range* error, not
  // a silent wrap.
  EXPECT_THROW(
      (void)parse_job(restamp(serialize_job(sample_spec()), "group-cells=9",
                              "group-cells=99999999999999999999999")),
      InvalidArgument);
}

TEST(ServeJobTest, FeedbackModelIsValidatedAtAdmission) {
  // A misspelled model name fails at parse time with a did-you-mean hint —
  // before the job reaches the daemon's queue.
  try {
    (void)parse_job(restamp(serialize_job(sample_spec()), "feedback=batched",
                            "feedback=bathced"));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'batched'"),
              std::string::npos)
        << e.what();
  }
  // Out-of-range parameters are equally eager errors: a non-full model
  // with a zero delay, and a delay on a model that takes none.
  EXPECT_THROW((void)parse_job(restamp(serialize_job(sample_spec()),
                                       "feedback-delay=6",
                                       "feedback-delay=0")),
               InvalidArgument);
  JobSpec full_with_delay = sample_spec();
  full_with_delay.feedback = "full";
  EXPECT_THROW((void)parse_job(serialize_job(full_with_delay)),
               InvalidArgument);
  // shard_config forwards the model into the experiment config.
  const ExperimentConfig config =
      shard_config(sample_spec(), 0, 1, "unused.ckpt");
  EXPECT_TRUE(config.feedback ==
              (FeedbackModel{FeedbackKind::kBatched, 6}));
}

TEST(ServeJobTest, SubmitWritesAParseableSpoolFile) {
  const std::string spool = temp_path("serve_spool");
  fs::create_directories(spool);
  const std::string path = submit_job(spool, sample_spec(), "mine");
  EXPECT_EQ(path, spool + "/mine.job");
  const JobSpec parsed = load_job_file(path);
  EXPECT_EQ(parsed.runs, sample_spec().runs);
}

// ---------------------------------------------------------------------------
// Admission

TEST(ServeAdmissionTest, QueueBoundRejectsAtTheLimit) {
  AdmissionConfig config;
  config.max_queued = 3;
  EXPECT_EQ(admit(0, config), Admission::kAdmit);
  EXPECT_EQ(admit(2, config), Admission::kAdmit);
  EXPECT_EQ(admit(3, config), Admission::kQueueFull);
  EXPECT_EQ(admit(100, config), Admission::kQueueFull);
}

TEST(ServeAdmissionTest, TokenBucketEnforcesRateAndBurst) {
  TokenBucket bucket(2.0, 2.0);  // 2 starts/s, burst of 2
  EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_FALSE(bucket.try_take(0.0)) << "burst exhausted";
  EXPECT_FALSE(bucket.try_take(0.25)) << "only half a token refilled";
  EXPECT_TRUE(bucket.try_take(0.5));
  EXPECT_FALSE(bucket.try_take(0.5));
  EXPECT_TRUE(bucket.try_take(60.0));
  EXPECT_TRUE(bucket.try_take(60.0)) << "refill caps at the burst";
  EXPECT_FALSE(bucket.try_take(60.0));
}

TEST(ServeAdmissionTest, NonPositiveRateDisablesTheLimiter) {
  TokenBucket bucket(0.0, 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take(0.0));
}

// ---------------------------------------------------------------------------
// Experiment progress hook

InstanceFactory tiny_factory() {
  return [](std::uint32_t sample, std::uint64_t seed) {
    util::Rng rng(seed + sample);
    datasets::DatasetConfig config;
    config.scale = 0.05;
    config.num_cautious = 8;
    return datasets::make_dataset("facebook", config, rng);
  };
}

TEST(ServeProgressTest, EveryCompletedCellIsReportedMonotonically) {
  ExperimentConfig config;
  config.budget = 8;
  config.samples = 2;
  config.runs = 3;
  config.seed = 5;
  config.threads = 2;
  std::vector<std::size_t> done_seq;
  config.progress = [&](const ExperimentProgress& p) {
    EXPECT_EQ(p.cells_total, 6u);
    EXPECT_FALSE(p.restored);
    EXPECT_GT(p.cell_ms, 0.0);
    done_seq.push_back(p.cells_done);
  };
  (void)run_experiment(tiny_factory(), compare_roster(), config);
  ASSERT_EQ(done_seq.size(), 6u);
  for (std::size_t i = 0; i < done_seq.size(); ++i) {
    EXPECT_EQ(done_seq[i], i + 1) << "serialized and monotonic";
  }
}

TEST(ServeProgressTest, RestoredCellsArriveAsOneBatchNotification) {
  ExperimentConfig config;
  config.budget = 8;
  config.samples = 1;
  config.runs = 4;
  config.seed = 6;
  config.checkpoint_path = temp_path("serve_progress_ckpt");
  (void)run_experiment(tiny_factory(), compare_roster(), config);

  std::size_t restored_batches = 0, fresh_cells = 0;
  config.progress = [&](const ExperimentProgress& p) {
    if (p.restored) {
      ++restored_batches;
      EXPECT_EQ(p.cells_done, 4u);
      EXPECT_EQ(p.cells_total, 4u);
    } else {
      ++fresh_cells;
    }
  };
  (void)run_experiment(tiny_factory(), compare_roster(), config);
  EXPECT_EQ(restored_batches, 1u);
  EXPECT_EQ(fresh_cells, 0u) << "a fully checkpointed sweep re-runs nothing";
}

// ---------------------------------------------------------------------------
// Daemon

JobSpec daemon_job(const std::string& instance_path, std::uint32_t runs) {
  JobSpec spec;
  spec.kind = "compare";
  spec.instance = instance_path;
  spec.budget = 5;
  spec.runs = runs;
  spec.seed = 11;
  spec.threads = 1;
  return spec;
}

std::string make_instance_file(const std::string& name) {
  const std::string path = temp_path(name);
  util::Rng rng(21);
  datasets::DatasetConfig config;
  config.scale = 0.02;
  config.num_cautious = 6;
  write_instance_file(datasets::make_dataset("facebook", config, rng), path);
  return path;
}

/// The reference a daemon job must reproduce byte-for-byte: a direct
/// unsharded run through the identical config, reported with the same
/// checkpoint count (only the title line may differ).
std::string reference_report(const JobSpec& spec) {
  const ExperimentResult result = run_experiment(
      job_instance_factory(spec), compare_roster(), shard_config(spec, 0, 1, ""));
  std::ostringstream os;
  ReportOptions options;
  options.title = "reference";
  write_markdown_report(result, shard_config(spec, 0, 1, ""), os, options);
  return os.str();
}

std::string strip_title(const std::string& report) {
  const std::size_t nl = report.find('\n');
  return nl == std::string::npos ? std::string() : report.substr(nl + 1);
}

ServeConfig daemon_config(const std::string& root) {
  ServeConfig config;
  config.root = root;
  config.workers = 2;
  config.poll_ms = 10;
  config.exit_when_idle = true;
  return config;
}

TEST(ServeDaemonTest, RunsASubmittedJobToABitIdenticalReport) {
  const std::string root = temp_path("serve_daemon_e2e");
  const std::string instance = make_instance_file("serve_daemon_e2e_net");
  const JobSpec spec = daemon_job(instance, 6);
  fs::create_directories(root + "/spool");
  submit_job(root + "/spool", spec, "e2e");

  ASSERT_EQ(run_daemon(daemon_config(root)), exit_code::kOk);

  const std::vector<JobStatus> status = read_status(root);
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].id, "job0001");
  EXPECT_EQ(status[0].state, "done");
  EXPECT_EQ(status[0].cells_done, 6u);
  EXPECT_EQ(status[0].cells_total, 6u);

  const std::string report = read_file(root + "/jobs/job0001/report.md");
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(strip_title(report), strip_title(reference_report(spec)))
      << "sharded daemon run must merge to the direct run's bytes";
}

TEST(ServeDaemonTest, CompletedJobsAreNotReAdoptedOnRestart) {
  const std::string root = temp_path("serve_daemon_readopt");
  const std::string instance = make_instance_file("serve_daemon_readopt_net");
  const JobSpec spec = daemon_job(instance, 4);
  fs::create_directories(root + "/spool");
  submit_job(root + "/spool", spec, "once");
  ASSERT_EQ(run_daemon(daemon_config(root)), exit_code::kOk);

  // A restart over a journal whose only job is terminal must stay idle:
  // the job directory is journaled, not an orphan of the submit race.
  ASSERT_EQ(run_daemon(daemon_config(root)), exit_code::kOk);

  const std::string journal_text = read_file(root + "/journal");
  std::size_t submits = 0;
  for (std::size_t at = journal_text.find("submit ");
       at != std::string::npos; at = journal_text.find("submit ", at + 1)) {
    ++submits;
  }
  EXPECT_EQ(submits, 1u)
      << "a done job must not be re-adopted (and re-run) on restart";
  const std::vector<JobStatus> jobs = read_status(root);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].state, "done");
}

TEST(ServeDaemonTest, SurvivesSigkillMidSweepAndResumesBitIdentically) {
  const std::string root = temp_path("serve_daemon_kill9");
  const std::string instance = make_instance_file("serve_daemon_kill9_net");
  const JobSpec spec = daemon_job(instance, 120);
  fs::create_directories(root + "/spool");
  submit_job(root + "/spool", spec, "kill9");

  // First daemon: SIGKILLed mid-sweep — no destructors, no flushes beyond
  // the per-record fsyncs the journal/checkpoints already did.
  pid_t daemon = fork();
  ASSERT_NE(daemon, -1);
  if (daemon == 0) {
    (void)run_daemon(daemon_config(root));
    _exit(0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  kill(daemon, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(daemon, &status, 0), daemon);

  // Second daemon: must adopt the journal, reclaim any state, and finish.
  daemon = fork();
  ASSERT_NE(daemon, -1);
  if (daemon == 0) {
    _exit(run_daemon(daemon_config(root)));
  }
  ASSERT_EQ(waitpid(daemon, &status, 0), daemon);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), exit_code::kOk);

  const std::vector<JobStatus> jobs = read_status(root);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].state, "done");
  const std::string report = read_file(root + "/jobs/job0001/report.md");
  EXPECT_EQ(strip_title(report), strip_title(reference_report(spec)))
      << "kill -9 must not lose or duplicate a single cell";
}

TEST(ServeDaemonTest, PoisonedJobIsQuarantinedWithinItsCrashBudget) {
  const std::string root = temp_path("serve_daemon_poison");
  JobSpec spec;
  spec.kind = "compare";
  spec.instance = temp_path("serve_daemon_poison_net_missing");
  spec.runs = 2;
  fs::create_directories(root + "/spool");
  submit_job(root + "/spool", spec, "poison");

  ServeConfig config = daemon_config(root);
  config.workers = 1;
  config.admission.crash_budget = 1;
  ASSERT_EQ(run_daemon(config), exit_code::kQuarantined);

  const std::vector<JobStatus> jobs = read_status(root);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].state, "quarantined");
  EXPECT_GT(jobs[0].crashes, config.admission.crash_budget);
}

TEST(ServeDaemonTest, QueueFullRejectsAtTheSpool) {
  const std::string root = temp_path("serve_daemon_full");
  const std::string instance = make_instance_file("serve_daemon_full_net");
  fs::create_directories(root + "/spool");
  submit_job(root + "/spool", daemon_job(instance, 2), "overflow");

  ServeConfig config = daemon_config(root);
  config.admission.max_queued = 0;  // degenerate bound: admit nothing
  ASSERT_EQ(run_daemon(config), exit_code::kOk);

  EXPECT_TRUE(read_status(root).empty());
  EXPECT_TRUE(fs::exists(root + "/spool/overflow.job.rejected"));
}

TEST(ServeDaemonTest, PresetStopFlagDrainsWithoutConsumingTheSpool) {
  const std::string root = temp_path("serve_daemon_drain");
  const std::string instance = make_instance_file("serve_daemon_drain_net");
  const JobSpec spec = daemon_job(instance, 4);
  fs::create_directories(root + "/spool");
  submit_job(root + "/spool", spec, "later");

  volatile std::sig_atomic_t stop = 1;
  ServeConfig config = daemon_config(root);
  config.stop_flag = &stop;
  ASSERT_EQ(run_daemon(config), exit_code::kOk) << "a drain exits 0";
  EXPECT_TRUE(fs::exists(root + "/spool/later.job"))
      << "draining admits nothing; the submission waits for the next run";

  // The next daemon picks the job up and completes it.
  ASSERT_EQ(run_daemon(daemon_config(root)), exit_code::kOk);
  const std::vector<JobStatus> jobs = read_status(root);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].state, "done");
}

TEST(ServeDaemonTest, SecondDaemonOnTheSameRootIsRefused) {
  const std::string root = temp_path("serve_daemon_lock");
  fs::create_directories(root + "/spool");
  // Child holds the daemon (idles forever); parent must be refused.
  pid_t daemon = fork();
  ASSERT_NE(daemon, -1);
  if (daemon == 0) {
    g_test_stop = 0;
    std::signal(SIGTERM, test_stop_handler);
    ServeConfig config = daemon_config(root);
    config.exit_when_idle = false;
    config.stop_flag = &g_test_stop;
    _exit(run_daemon(config));
  }
  // Wait for the child to take the flock (pidfile appears + lock held).
  int second = exit_code::kOk;
  for (int i = 0; i < 300; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (util::PidFile::read_pid(root + "/serve.pid") == 0) continue;
    second = run_daemon(daemon_config(root));
    break;
  }
  EXPECT_EQ(second, exit_code::kAlreadyRunning);
  kill(daemon, SIGTERM);
  int status = 0;
  ASSERT_EQ(waitpid(daemon, &status, 0), daemon);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "SIGTERM drain exits 0";
}

}  // namespace
}  // namespace accu::serve
