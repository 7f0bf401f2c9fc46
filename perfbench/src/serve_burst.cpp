// serve-burst: a closed batch of compare jobs served by a freshly started
// daemon running as a child process, on a root on the checkout's own disk.

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include "core/instance_format.hpp"
#include "core/instance_io.hpp"
#include "datasets/datasets.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "util/exit_codes.hpp"
#include "util/lockfile.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace accu;

namespace {

// As many jobs as the daemon's default admission burst (4 job starts), so
// the start-rate token bucket never holds a job back.
constexpr std::uint32_t kJobs = 4;
constexpr std::uint32_t kRunsPerJob = 192;
/// Extra idle daemon launches per run for the set-up median.
constexpr int kLaunchProbes = 25;
/// Where the daemon child leaves its peak RSS (kB) for the parent.
constexpr const char* kPeakRssFile = "perfbench.peak_rss_kb";
/// A daemon that takes longer than this to start or to finish a burst is
/// killed and the burst fails (a healthy burst takes about a second).
constexpr double kDaemonTimeoutUs = 60e6;

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of `spans`, clipped to [lo, hi].
double union_length(std::vector<Interval> spans, double lo, double hi) {
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0, cursor = lo;
  for (const Interval& s : spans) {
    const double start = std::max(s.start, cursor);
    const double end = std::min(s.end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

double cpu_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

/// The daemon as a child process: the benchmark binary re-executed in
/// daemon mode, so its CPU time and its workers' land in
/// getrusage(RUSAGE_CHILDREN).  The constructor returns once the daemon
/// holds its pidfile.
class Daemon {
 public:
  Daemon(const std::string& root, std::uint32_t workers) {
    const std::string workers_arg = std::to_string(workers);
    const char* argv[] = {"perfbench", "--serve-daemon", root.c_str(),
                          workers_arg.c_str(), nullptr};
    launch_us = now_us();
    // posix_spawn, not fork: a forked child's peak RSS would include the
    // pages it shares with this process until it execs.
    const int rc = ::posix_spawn(&pid_, "/proc/self/exe", nullptr, nullptr,
                                 const_cast<char* const*>(argv), environ);
    if (rc != 0) throw std::runtime_error("posix_spawn failed");
    while (util::PidFile::read_pid(root + "/serve.pid") != pid_ &&
           !poll_exit()) {
      if (now_us() - launch_us > kDaemonTimeoutUs) {
        (void)reap_by(0.0);
        throw std::runtime_error("serve daemon never took its pidfile");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    held_us = now_us();
  }
  ~Daemon() { (void)reap_by(0.0); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// True once the daemon has exited (reaped without blocking).
  bool poll_exit() {
    if (!exited_ && ::waitpid(pid_, &status_, WNOHANG) == pid_) exited_ = true;
    return exited_;
  }
  /// Waits for the daemon until `deadline_us` (now_us() clock), then kills
  /// it; returns its exit code (-1 when killed).
  int reap_by(double deadline_us) {
    while (!poll_exit() && now_us() < deadline_us) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!exited_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status_, 0);
      exited_ = true;
    }
    return WIFEXITED(status_) ? WEXITSTATUS(status_) : -1;
  }

  double launch_us = 0.0;
  double held_us = 0.0;

 private:
  pid_t pid_ = -1;
  int status_ = 0;
  bool exited_ = false;
};

struct Burst {
  double setup_s = 0.0;
  double makespan_s = 0.0;
  std::size_t cells = 0;
  std::vector<double> job_s;
  std::vector<double> submit_ms;
  std::vector<double> queue_s;
  double cpu_user_s = 0.0;
  double cpu_sys_s = 0.0;
  double coverage = 0.0;
  double peak_rss_mb = 0.0;  ///< largest daemon or worker process
  std::uint32_t workers = 0;
};

/// A new, empty directory under `parent`.  Serve state is never deleted
/// inside a run: on a filesystem that discards freed blocks synchronously,
/// unlinking an fsync'd file can take tens of milliseconds, so clearing a
/// burst's root would cost more than the burst.
std::string fresh_dir(const std::string& parent, const char* stem) {
  static int counter = 0;
  const std::string dir = parent + "/" + stem + "-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter++);
  fs::create_directories(dir);
  return dir;
}

/// One burst on a fresh root: submit every job, launch the daemon, poll
/// read_status until every job is terminal, reap the daemon, and check each
/// job's report.
Burst run_burst(const std::string& serve_dir,
                const std::vector<serve::JobSpec>& specs,
                const std::vector<Batch>& refs, std::uint32_t workers,
                Result& r) {
  const std::string root = fresh_dir(serve_dir, "root");
  fs::create_directories(root + "/spool");
  Burst b;
  b.workers = workers;
  std::vector<Interval> spans;
  std::vector<double> submitted(specs.size());
  const double t_first = now_us();
  for (std::size_t j = 0; j < specs.size(); ++j) {
    char name[32];
    std::snprintf(name, sizeof name, "b%02zu", j);
    submitted[j] = now_us();
    serve::submit_job(root + "/spool", specs[j], name);
    const double t1 = now_us();
    b.submit_ms.push_back((t1 - submitted[j]) / 1000.0);
    spans.push_back({submitted[j], t1});
  }

  rusage before{};
  ::getrusage(RUSAGE_CHILDREN, &before);
  Daemon daemon(root, workers);
  b.setup_s = (daemon.held_us - daemon.launch_us) / 1e6;
  spans.push_back({daemon.launch_us, daemon.held_us});

  // Job ids are assigned at admission; map them back by seed.
  std::map<std::string, std::size_t> index_of;
  std::vector<double> running_at(specs.size(), -1.0), done_at(specs.size(), -1.0);
  std::vector<std::string> ids(specs.size()), states(specs.size());
  std::size_t terminal = 0;
  const double deadline = daemon.launch_us + kDaemonTimeoutUs;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // Checked before the scan, so the scan after an exit still sees the
    // journal's final records.
    const bool exited = daemon.poll_exit();
    const double t = now_us();
    for (const serve::JobStatus& s : serve::read_status(root)) {
      auto it = index_of.find(s.id);
      if (it == index_of.end()) {
        const serve::JobSpec spec =
            serve::load_job_file(root + "/jobs/" + s.id + "/job.desc");
        std::size_t j = 0;
        while (j < specs.size() && specs[j].seed != spec.seed) ++j;
        if (j == specs.size()) continue;
        it = index_of.emplace(s.id, j).first;
        ids[j] = s.id;
      }
      const std::size_t j = it->second;
      if (s.state == "running" && running_at[j] < 0.0) running_at[j] = t;
      if ((s.state == "done" || s.state == "failed" ||
           s.state == "quarantined") && done_at[j] < 0.0) {
        done_at[j] = t;
        if (running_at[j] < 0.0) running_at[j] = t;
        states[j] = s.state;
        ++terminal;
      }
    }
    if (terminal == specs.size() || exited || t > deadline) break;
  }
  const int code = daemon.reap_by(deadline);
  rusage after{};
  ::getrusage(RUSAGE_CHILDREN, &after);
  b.cpu_user_s = cpu_seconds(after.ru_utime) - cpu_seconds(before.ru_utime);
  b.cpu_sys_s = cpu_seconds(after.ru_stime) - cpu_seconds(before.ru_stime);
  r.check(code == util::exit_code::kOk,
          "serve daemon exited with " + std::to_string(code));
  if (code == util::exit_code::kOk) {
    b.peak_rss_mb =
        std::strtod(read_file(root + "/" + kPeakRssFile).c_str(), nullptr) /
        1024.0;
  }

  double t_last = t_first;
  for (std::size_t j = 0; j < specs.size(); ++j) {
    r.attempted += 1;
    if (states[j] != "done") {
      r.check(false, "job " + std::to_string(j) + " ended as '" + states[j] + "'");
      continue;
    }
    t_last = std::max(t_last, done_at[j]);
    b.cells += kRunsPerJob;
    b.job_s.push_back((done_at[j] - submitted[j]) / 1e6);
    b.queue_s.push_back((running_at[j] - submitted[j]) / 1e6);
    spans.push_back({running_at[j], done_at[j]});
    const std::string report =
        read_file(root + "/jobs/" + ids[j] + "/report.md");
    r.check(report == render_report(refs[j].result, refs[j].config_used,
                                    "accu serve — " + ids[j]),
            "job " + ids[j] + " report differs from the direct sweep");
  }
  b.makespan_s = (t_last - t_first) / 1e6;
  if (t_last > t_first) {
    b.coverage = union_length(spans, t_first, t_last) / (t_last - t_first);
  }
  return b;
}

double burst_rate(const Burst& b) {
  return b.makespan_s > 0.0 ? static_cast<double>(b.cells) / b.makespan_s
                            : 0.0;
}

}  // namespace

int serve_daemon_main(const std::string& root, std::uint32_t workers) {
  util::set_log_level(util::LogLevel::kError);
  serve::ServeConfig config;
  config.root = root;
  config.workers = workers;
  config.poll_ms = 5;
  config.exit_when_idle = true;
  const int code = serve::run_daemon(config);
  // Peak RSS of the daemon and of its largest reaped worker, for the
  // parent.  The parent cannot use its own RUSAGE_CHILDREN: a spawned
  // child's maxrss starts from the spawning process's high-water mark.
  rusage workers_usage{};
  ::getrusage(RUSAGE_CHILDREN, &workers_usage);
  const double peak_kb = std::max(
      vm_hwm_kb(), static_cast<double>(workers_usage.ru_maxrss));
  write_file(root + "/" + kPeakRssFile, std::to_string(peak_kb) + "\n");
  return code;
}

namespace {

/// The burst's input and jobs: the study_serve setup (k = 8, grouped
/// durability with the default group knobs, one thread per shard), one seed
/// per job, plus the direct run_experiment reference of each job.
struct ServeSetup {
  std::string net;  ///< instance file
  double gen_s = 0.0;
  std::string serve_dir;
  std::vector<serve::JobSpec> specs;
  std::vector<Batch> refs;
  std::vector<Batch> plain_refs;  ///< untraced twins of traced refs
};

ServeSetup prepare_serve(const Args& args, bool traced_refs) {
  ServeSetup s;
  s.net = cached_input(
      args.work_dir + "/inputs", "facebook", args.seed, ".accu", 3,
      [&](const std::string& path) {
        datasets::DatasetConfig config;
        config.scale = 0.03;
        config.num_cautious = 10;
        util::Rng rng(args.seed);
        write_instance_file(datasets::make_dataset("facebook", config, rng),
                            path);
      },
      s.gen_s);
  s.serve_dir = args.work_dir + "/serve";
  fs::create_directories(s.serve_dir);
  if (on_ram_filesystem(s.serve_dir)) {
    std::printf("WARNING: %s is RAM-backed; serve fsyncs cost nothing here\n",
                s.serve_dir.c_str());
  }
  s.specs.resize(kJobs);
  for (std::uint32_t j = 0; j < kJobs; ++j) {
    serve::JobSpec& spec = s.specs[j];
    spec.kind = "compare";
    spec.instance = fs::absolute(s.net).string();
    spec.budget = 8;
    spec.runs = kRunsPerJob;
    spec.seed = args.seed * 1000 + j;
    spec.threads = 1;
    spec.durability = "grouped";
  }
  const AccuInstance instance = load_instance_auto(s.net);
  for (const serve::JobSpec& spec : s.specs) {
    const SweepSpec sweep{&instance, serve::compare_roster(),
                          serve::shard_config(spec, 0, 1, ""), "direct"};
    s.refs.push_back(run_batch(sweep, traced_refs));
    if (traced_refs) s.plain_refs.push_back(run_batch(sweep, false));
  }
  return s;
}

/// Daemon launches and bursts at `workers`, for `seconds` (at least three
/// bursts).
struct Series {
  std::vector<double> setup_s;
  std::vector<Burst> bursts;
};

Series run_series(const ServeSetup& s, std::uint32_t workers, double seconds,
                  Result& r) {
  Series out;
  // Set-up: launch until the pidfile is held, on empty roots (the daemon
  // then exits idle) and once per burst below.
  for (int i = 0; i < kLaunchProbes; ++i) {
    Daemon daemon(fresh_dir(s.serve_dir, "launch"), workers);
    out.setup_s.push_back((daemon.held_us - daemon.launch_us) / 1e6);
    const int code = daemon.reap_by(daemon.launch_us + kDaemonTimeoutUs);
    r.check(code == util::exit_code::kOk,
            "idle serve daemon exited with " + std::to_string(code));
  }
  const double t0 = now_us();
  while (out.bursts.size() < 3 || (now_us() - t0) / 1e6 < seconds) {
    out.bursts.push_back(run_burst(s.serve_dir, s.specs, s.refs, workers, r));
    out.setup_s.push_back(out.bursts.back().setup_s);
  }
  std::printf("bursts: %zu x %u jobs x %u cells at %u workers\n",
              out.bursts.size(), kJobs, kRunsPerJob, workers);
  return out;
}

double series_rate(const Series& series) {
  std::vector<double> rate;
  for (const Burst& b : series.bursts) rate.push_back(burst_rate(b));
  return median(rate);
}

std::vector<double> series_job_s(const Series& series) {
  std::vector<double> job;
  for (const Burst& b : series.bursts) {
    job.insert(job.end(), b.job_s.begin(), b.job_s.end());
  }
  return job;
}

/// Peak RSS of the largest daemon or worker process over the series (MB).
double series_peak_rss_mb(const Series& series) {
  double peak = 0.0;
  for (const Burst& b : series.bursts) peak = std::max(peak, b.peak_rss_mb);
  return peak;
}

/// The serve layer's figures (serve.*) from a series at nproc, plus two
/// bursts at one worker and one job's shards run in-process under the
/// timing I/O env (spans inside forked workers are lost, these are not).
/// The in-process shards' I/O counters go to `io`.
void serve_layers(const ServeSetup& s, const Series& series, Result& r,
                  std::map<std::string, double>& layers, IoStats& io) {
  const std::uint32_t workers = hardware_threads();
  std::vector<double> submit, queue, cpu, sys, busy, cov;
  for (const Burst& b : series.bursts) {
    submit.insert(submit.end(), b.submit_ms.begin(), b.submit_ms.end());
    queue.insert(queue.end(), b.queue_s.begin(), b.queue_s.end());
    const double cpu_s = b.cpu_user_s + b.cpu_sys_s;
    cpu.push_back(cpu_s * 1000.0 /
                  static_cast<double>(std::max<std::size_t>(b.cells, 1)));
    sys.push_back(cpu_s > 0.0 ? b.cpu_sys_s / cpu_s : 0.0);
    busy.push_back(cpu_s / (b.workers * b.makespan_s));
    cov.push_back(b.coverage);
  }
  const double rate = series_rate(series);
  layers["serve.setup_ms"] = median(series.setup_s) * 1000.0;
  layers["serve.cells_per_s"] = rate;
  layers["serve.job_s.p50"] = median(series_job_s(series));
  layers["serve.peak_rss_mb"] = series_peak_rss_mb(series);
  layers["serve.coverage"] = median(cov);
  layers["serve.submit_ms.p50"] = quantile(submit, 0.5);
  layers["serve.queue_s"] = median(queue);
  layers["serve.cpu_s_per_kcell"] = median(cpu);
  layers["serve.sys_frac"] = median(sys);
  layers["serve.worker_busy_frac"] = median(busy);

  // The same burst on one worker: the scaling baseline.
  std::vector<double> w1;
  for (int i = 0; i < 2; ++i) {
    w1.push_back(burst_rate(run_burst(s.serve_dir, s.specs, s.refs, 1, r)));
  }
  layers["serve.cells_per_s_w1"] = median(w1);
  layers["serve.scaling_eff"] = rate / (workers * median(w1));

  const std::string job_dir = fresh_dir(s.serve_dir, "inproc");
  TraceSession session({});
  std::vector<double> shard_s;
  std::vector<std::string> ckpts;
  double merge_ms = 0.0;
  std::string merged_report;
  {
    util::ScopedIoEnv scoped(session.io());
    for (std::uint32_t shard = 0; shard < workers; ++shard) {
      const double t = now_us();
      const int code =
          serve::run_job_shard(s.specs[0], job_dir, shard, workers, nullptr);
      shard_s.push_back((now_us() - t) / 1e6);
      r.check(code == util::exit_code::kOk, "in-process shard failed");
      ckpts.push_back(job_dir + "/shard" + std::to_string(shard) + ".ckpt");
    }
    const double t = now_us();
    const ShardMergeOutcome merged =
        merge_shard_checkpoints(ckpts, job_dir + "/merged.ckpt");
    merged_report = render_report(merged.result, merged.config, "in-process");
    merge_ms = (now_us() - t) / 1000.0;
  }
  r.check(merged_report == render_report(s.refs[0].result,
                                         s.refs[0].config_used, "in-process"),
          "in-process shard merge differs from the direct sweep");
  double total_s = 0.0;
  for (double t : shard_s) total_s += t;
  io = session.io_stats();
  layers["serve.shard_run_s"] = median(shard_s);
  layers["serve.shard_cells_per_s"] = kRunsPerJob / total_s;
  layers["serve.merge_ms"] = merge_ms;
  layers["serve.progress_writes_per_cell"] =
      static_cast<double>(io.progress_writes) / kRunsPerJob;
  layers["serve.fsyncs_per_cell"] =
      static_cast<double>(io.fsync_count) / kRunsPerJob;
  double rename_ms = 0.0;
  for (double ms : io.rename_ms) rename_ms += ms;
  layers["serve.rename_ms_per_cell"] = rename_ms / kRunsPerJob;
}

}  // namespace

void probe_serve(const Args& args, Result& r,
                 std::map<std::string, double>& layers) {
  const ServeSetup setup = prepare_serve(args, false);
  const Series series = run_series(setup, hardware_threads(), 0.0, r);
  IoStats io;
  serve_layers(setup, series, r, layers, io);
}

Result run_serve_burst(const Args& args) {
  Result r;
  const ServeSetup setup = prepare_serve(args, args.trace);
  const Series series = run_series(setup, hardware_threads(), args.seconds, r);
  if (!args.trace) {
    r.add("setup_s", median(series.setup_s), "s");
    r.add("cells_per_s", series_rate(series), "cells/s");
    r.add("peak_rss_mb", series_peak_rss_mb(series), "MB");
    r.add("job_s.p50", median(series_job_s(series)), "s");
    return r;
  }

  std::map<std::string, double> layers = median_layers(setup.refs);
  std::printf("spans: %s\n", write_spans(args, setup.refs).c_str());
  std::vector<double> plain_rate, traced_rate;
  for (std::size_t j = 0; j < setup.refs.size(); ++j) {
    traced_rate.push_back(static_cast<double>(setup.refs[j].cells) /
                          setup.refs[j].wall_s);
    plain_rate.push_back(static_cast<double>(setup.plain_refs[j].cells) /
                         setup.plain_refs[j].wall_s);
  }
  layers["trace.overhead_frac"] =
      1.0 - median(traced_rate) / median(plain_rate);
  IoStats io;
  serve_layers(setup, series, r, layers, io);
  layers["trace.coverage"] = layers["serve.coverage"];
  layers["util.io.fsync_count"] = static_cast<double>(io.fsync_count);
  layers["util.io.fsyncs_per_cell"] = layers["serve.fsyncs_per_cell"];
  layers["util.io.fsync_ms.p50"] = quantile(io.fsync_ms, 0.5);
  layers["util.io.fsync_ms.p99"] = quantile(io.fsync_ms, 0.99);
  layers["util.io.rename_ms.p99"] = quantile(io.rename_ms, 0.99);
  layers["util.io.write_bytes"] = static_cast<double>(io.write_bytes);
  layers["util.io.rename_count"] = static_cast<double>(io.rename_count);

  const double t_load = now_us();
  const AccuInstance loaded = load_instance_auto(setup.net);
  layers["core.instance.load_ms"] = (now_us() - t_load) / 1000.0;
  layers["core.instance.bytes"] =
      static_cast<double>(fs::file_size(setup.net));
  layers["core.realization.resample_us"] =
      time_resample_us(loaded, args.seed, 64);
  layers["datasets.synth_s"] = setup.gen_s;
  emit_layers(r, layers);
  return r;
}

}  // namespace perfbench
