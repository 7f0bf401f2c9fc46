// Span recording for the benchmark's traced runs.
//
// Every span is recorded from outside the program, around calls into a
// layer's public functions and seams:
//
//   * TracedStrategy   — a forwarding Strategy decorator; times reset,
//                        select, observe and observe_revelation per call;
//   * TimingIoEnv      — a forwarding util::IoEnv installed with
//                        util::ScopedIoEnv; times every durable-I/O call;
//   * cell boundaries  — ExperimentConfig::progress runs on the worker that
//                        finished the cell, so a cell span runs from the
//                        previous callback on that thread (or the worker's
//                        first StrategyFactory call) to this one.
//
// Calls inside one cell are folded into one child span per (layer, phase):
// start of the first call, end of the last, busy time and call count.  That
// keeps a sweep of thousands of cells at a few dozen spans per cell.  Spans
// live in per-thread buffers and are merged when the session ends.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "util/io_env.hpp"

namespace perfbench {

/// Microseconds on the steady clock since the first call in the process.
[[nodiscard]] double now_us() noexcept;

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  /// Time the span's own calls were running; equals end − start for a
  /// single call, and is the summed call time for a folded span.
  double busy_us = 0.0;
  std::uint64_t count = 1;
  /// Index of the parent span in the session's span list; -1 for a root.
  std::int64_t parent = -1;
  /// (sample, run) cell of a sweep — numbered in completion order, the only
  /// order visible from outside run_experiment — or a served job's index.
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
};

/// Phases of a strategy timed by TracedStrategy.
enum class Phase : std::uint8_t { kReset, kSelect, kObserve, kRevelation };
inline constexpr int kPhases = 4;
[[nodiscard]] const char* phase_name(Phase phase) noexcept;

/// Durable-I/O counters gathered by TimingIoEnv.
struct IoStats {
  std::uint64_t fsync_count = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t rename_count = 0;
  std::uint64_t progress_writes = 0;  ///< renames onto `progress.<shard>`
  std::vector<double> fsync_ms;
  std::vector<double> rename_ms;
};

/// One traced run of the program.  Install it as the ambient I/O env with
/// util::ScopedIoEnv(session.io()), wrap the roster with wrap(), and the
/// sweep config with instrument(); then read spans() once the run ends.
class TraceSession {
 public:
  explicit TraceSession(std::vector<std::string> strategy_names);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The roster with every product wrapped in a TracedStrategy.
  [[nodiscard]] std::vector<accu::StrategyFactory> wrap(
      const std::vector<accu::StrategyFactory>& roster);
  /// Chains a cell-boundary recorder in front of config.progress.
  void instrument(accu::ExperimentConfig& config);
  /// The timing I/O env; it forwards to util::real_io_env().
  [[nodiscard]] accu::util::IoEnv& io();

  /// Merged spans of every thread, in thread then time order.  Call only
  /// after every traced call has returned.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] IoStats io_stats() const;
  /// Threads that ran at least one cell, and the earliest worker event and
  /// the last cell end over them (the sweep's parallel phase).
  [[nodiscard]] std::uint32_t worker_threads() const;
  [[nodiscard]] double first_worker_event_us() const;
  [[nodiscard]] double last_cell_end_us() const;
  /// Growth per cell over the second half of the sweep's cells (sampled at
  /// the half-way and the last cell boundary), in kB: of the resident set,
  /// and of the heap bytes in use (mallinfo2).  Freed scratch is reused
  /// before the process asks the OS for pages, so the RSS figure can stay
  /// below the live-heap one.
  [[nodiscard]] double rss_kb_per_cell() const;
  [[nodiscard]] double heap_kb_per_cell() const;

  /// Folds one timed call of strategy `strategy` into the calling
  /// thread's open cell.
  void record_call(std::size_t strategy, Phase phase, double start_us,
                   double end_us);

 private:
  struct ThreadBuf;
  class TimingIoEnv;
  /// The calling thread's buffer (created on first use).
  ThreadBuf& local();
  void record_io(const char* op, double start_us, double end_us);
  /// Marks the calling worker's first event (its first StrategyFactory
  /// call), where its first cell span starts.
  void worker_started();
  /// Records one span on the calling thread; returns its index there.
  std::int64_t add_span(const std::string& name, double start_us,
                        double end_us, std::int64_t parent,
                        std::uint64_t request);
  void end_cell(const accu::ExperimentProgress& progress);

  std::vector<std::string> strategy_names_;
  std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> threads_;  // guarded by mu_
  std::unique_ptr<TimingIoEnv> io_;
  // RSS samples at the half-way and the final cell; written under the
  // sweep's progress mutex, read after the sweep.
  double rss_mid_kb_ = 0.0;
  double rss_end_kb_ = 0.0;
  double heap_mid_kb_ = 0.0;
  double heap_end_kb_ = 0.0;
  std::size_t cells_mid_ = 0;
  std::size_t cells_end_ = 0;
};

/// Forwards every Strategy virtual to `inner`, timing the four phases.
class TracedStrategy final : public accu::Strategy {
 public:
  TracedStrategy(std::unique_ptr<accu::Strategy> inner, TraceSession& session,
                 std::size_t index);

  void reset(const accu::AccuInstance& instance,
             accu::util::Rng& rng) override;
  accu::NodeId select(const accu::AttackerView& view,
                      accu::util::Rng& rng) override;
  void observe(accu::NodeId target, bool accepted,
               const accu::AttackerView& view,
               const accu::AttackerView::AcceptanceEffects* effects) override;
  void observe_revelation(
      accu::NodeId source, const accu::AttackerView& view,
      const accu::AttackerView::AcceptanceEffects& effects) override;
  [[nodiscard]] accu::FaultObserver* as_fault_observer() override;
  [[nodiscard]] bool wants_score_pack() const override;
  void adopt_score_pack(const accu::ScorePack& pack) override;
  void adopt_task_pool(accu::TaskPool* pool) override;
  [[nodiscard]] std::string name() const override;

 private:
  std::unique_ptr<accu::Strategy> inner_;
  TraceSession& session_;
  std::size_t index_;
};

}  // namespace perfbench
