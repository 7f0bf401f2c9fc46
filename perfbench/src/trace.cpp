#include "trace.hpp"

#include "common.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace perfbench {

using accu::util::DirSyncResult;
using accu::util::IoEnv;
using accu::util::OpenMode;

double now_us() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double, std::micro>(clock::now() - origin)
      .count();
}

const char* phase_name(Phase phase) noexcept {
  switch (phase) {
    case Phase::kReset: return "reset";
    case Phase::kSelect: return "select";
    case Phase::kObserve: return "observe";
    case Phase::kRevelation: return "revelation";
  }
  return "?";
}

namespace {

constexpr std::array<const char*, 9> kIoOps = {
    "open", "write", "fsync", "close", "rename",
    "truncate", "unlink", "fsync_dir", "size"};

std::size_t io_op_index(const char* op) {
  for (std::size_t i = 0; i < kIoOps.size(); ++i) {
    if (std::strcmp(kIoOps[i], op) == 0) return i;
  }
  return 0;
}

std::atomic<std::uint64_t> next_session_id{1};

/// Calls folded into one span: first start, last end, busy time, count.
struct Fold {
  double first = 0.0;
  double last = 0.0;
  double busy = 0.0;
  std::uint64_t count = 0;

  void add(double start, double end) {
    if (count == 0) first = start;
    last = end;
    busy += end - start;
    ++count;
  }
};

}  // namespace

struct TraceSession::ThreadBuf {
  std::uint32_t index = 0;
  std::vector<Span> spans;
  double cell_start_us = -1.0;  ///< < 0 until the worker's first event
  double first_event_us = -1.0;
  double last_cell_end_us = -1.0;
  std::uint64_t cells = 0;
  std::vector<std::array<Fold, kPhases>> phases;  ///< per strategy
  std::array<Fold, kIoOps.size()> io{};
  IoStats io_stats;

  /// Emits the folded calls as spans under `parent` and clears them.
  void flush(const std::vector<std::string>& names, std::int64_t parent,
             std::uint64_t request) {
    auto emit = [&](const std::string& name, const Fold& fold) {
      Span span;
      span.name = name;
      span.start_us = fold.first;
      span.end_us = fold.last;
      span.busy_us = fold.busy;
      span.count = fold.count;
      span.parent = parent;
      span.request = request;
      span.thread = index;
      spans.push_back(std::move(span));
    };
    for (std::size_t s = 0; s < phases.size(); ++s) {
      for (int p = 0; p < kPhases; ++p) {
        Fold& fold = phases[s][static_cast<std::size_t>(p)];
        if (fold.count == 0) continue;
        emit("core.strategies." + names[s] + "." +
                 phase_name(static_cast<Phase>(p)),
             fold);
        fold = Fold{};
      }
    }
    for (std::size_t i = 0; i < io.size(); ++i) {
      if (io[i].count == 0) continue;
      emit(std::string("util.io.") + kIoOps[i], io[i]);
      io[i] = Fold{};
    }
  }
};

/// Forwards every call to the real POSIX env and times it on the calling
/// thread's buffer.
class TraceSession::TimingIoEnv final : public IoEnv {
 public:
  explicit TimingIoEnv(TraceSession& session)
      : session_(session), real_(accu::util::real_io_env()) {}

  int open_write(const std::string& path, OpenMode mode) override {
    const double t0 = now_us();
    const int fd = real_.open_write(path, mode);
    session_.record_io("open", t0, now_us());
    return fd;
  }
  long write(int fd, const char* data, std::size_t len) override {
    const double t0 = now_us();
    const long n = real_.write(fd, data, len);
    session_.record_io("write", t0, now_us());
    if (n > 0) session_.local().io_stats.write_bytes += static_cast<std::uint64_t>(n);
    return n;
  }
  int fsync(int fd) override {
    const double t0 = now_us();
    const int rc = real_.fsync(fd);
    const double t1 = now_us();
    session_.record_io("fsync", t0, t1);
    IoStats& stats = session_.local().io_stats;
    ++stats.fsync_count;
    stats.fsync_ms.push_back((t1 - t0) / 1000.0);
    return rc;
  }
  int close(int fd) override {
    const double t0 = now_us();
    const int rc = real_.close(fd);
    session_.record_io("close", t0, now_us());
    return rc;
  }
  int rename(const std::string& from, const std::string& to) override {
    const double t0 = now_us();
    const int rc = real_.rename(from, to);
    const double t1 = now_us();
    session_.record_io("rename", t0, t1);
    IoStats& stats = session_.local().io_stats;
    ++stats.rename_count;
    stats.rename_ms.push_back((t1 - t0) / 1000.0);
    if (to.find("/progress.") != std::string::npos) ++stats.progress_writes;
    return rc;
  }
  int truncate(const std::string& path, std::uint64_t length) override {
    const double t0 = now_us();
    const int rc = real_.truncate(path, length);
    session_.record_io("truncate", t0, now_us());
    return rc;
  }
  int unlink(const std::string& path) override {
    const double t0 = now_us();
    const int rc = real_.unlink(path);
    session_.record_io("unlink", t0, now_us());
    return rc;
  }
  DirSyncResult fsync_dir(const std::string& dir) override {
    const double t0 = now_us();
    const DirSyncResult rc = real_.fsync_dir(dir);
    const double t1 = now_us();
    session_.record_io("fsync_dir", t0, t1);
    IoStats& stats = session_.local().io_stats;
    ++stats.fsync_count;
    stats.fsync_ms.push_back((t1 - t0) / 1000.0);
    return rc;
  }
  long long size(int fd) override {
    const double t0 = now_us();
    const long long n = real_.size(fd);
    session_.record_io("size", t0, now_us());
    return n;
  }

 private:
  TraceSession& session_;
  IoEnv& real_;
};

TraceSession::TraceSession(std::vector<std::string> strategy_names)
    : strategy_names_(std::move(strategy_names)),
      id_(next_session_id.fetch_add(1)),
      io_(std::make_unique<TimingIoEnv>(*this)) {}

TraceSession::~TraceSession() = default;

TraceSession::ThreadBuf& TraceSession::local() {
  struct Cache {
    std::uint64_t session = 0;
    ThreadBuf* buf = nullptr;
  };
  thread_local Cache cache;
  if (cache.session != id_) {
    const std::lock_guard<std::mutex> lock(mu_);
    auto buf = std::make_unique<ThreadBuf>();
    buf->index = static_cast<std::uint32_t>(threads_.size());
    buf->phases.resize(strategy_names_.size());
    cache = {id_, buf.get()};
    threads_.push_back(std::move(buf));
  }
  return *cache.buf;
}

accu::util::IoEnv& TraceSession::io() { return *io_; }

void TraceSession::record_call(std::size_t strategy, Phase phase,
                               double start_us, double end_us) {
  local().phases[strategy][static_cast<std::size_t>(phase)].add(start_us,
                                                                end_us);
}

void TraceSession::record_io(const char* op, double start_us, double end_us) {
  local().io[io_op_index(op)].add(start_us, end_us);
}

void TraceSession::worker_started() {
  ThreadBuf& buf = local();
  const double t = now_us();
  if (buf.first_event_us < 0.0) buf.first_event_us = t;
  if (buf.cell_start_us < 0.0) buf.cell_start_us = t;
}

std::int64_t TraceSession::add_span(const std::string& name, double start_us,
                                    double end_us, std::int64_t parent,
                                    std::uint64_t request) {
  ThreadBuf& buf = local();
  Span span;
  span.name = name;
  span.start_us = start_us;
  span.end_us = end_us;
  span.busy_us = end_us - start_us;
  span.parent = parent;
  span.request = request;
  span.thread = buf.index;
  buf.spans.push_back(std::move(span));
  return static_cast<std::int64_t>(buf.spans.size() - 1);
}

void TraceSession::end_cell(const accu::ExperimentProgress& progress) {
  const double t = now_us();
  ThreadBuf& buf = local();
  const double start = buf.cell_start_us < 0.0 ? t : buf.cell_start_us;
  const std::uint64_t request = progress.cells_done;
  const std::int64_t cell =
      add_span("core.experiment.cell", start, t, -1, request);
  buf.flush(strategy_names_, cell, request);
  ++buf.cells;
  buf.last_cell_end_us = t;
  if (progress.cells_done == progress.cells_total / 2) {
    rss_mid_kb_ = vm_rss_kb();
    heap_mid_kb_ = heap_in_use_kb();
    cells_mid_ = progress.cells_done;
  } else if (progress.cells_done == progress.cells_total) {
    rss_end_kb_ = vm_rss_kb();
    heap_end_kb_ = heap_in_use_kb();
    cells_end_ = progress.cells_done;
  }
  buf.cell_start_us = now_us();
}

std::vector<accu::StrategyFactory> TraceSession::wrap(
    const std::vector<accu::StrategyFactory>& roster) {
  std::vector<accu::StrategyFactory> out;
  out.reserve(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i) {
    auto make = roster[i].make;
    out.push_back({roster[i].name, [this, i, make] {
                     worker_started();
                     return std::unique_ptr<accu::Strategy>(
                         std::make_unique<TracedStrategy>(make(), *this, i));
                   }});
  }
  return out;
}

void TraceSession::instrument(accu::ExperimentConfig& config) {
  auto previous = std::move(config.progress);
  config.progress = [this, previous](const accu::ExperimentProgress& p) {
    if (!p.restored) end_cell(p);
    if (previous) previous(p);
  };
}

std::vector<Span> TraceSession::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& buf : threads_) {
    // Calls outside any cell (the main thread's checkpoint header, a
    // merge) stay folded as root spans.
    ThreadBuf copy = *buf;
    copy.flush(strategy_names_, -1, 0);
    const std::int64_t base = static_cast<std::int64_t>(out.size());
    for (Span span : copy.spans) {
      if (span.parent >= 0) span.parent += base;
      out.push_back(std::move(span));
    }
  }
  return out;
}

IoStats TraceSession::io_stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  IoStats total;
  for (const auto& buf : threads_) {
    const IoStats& s = buf->io_stats;
    total.fsync_count += s.fsync_count;
    total.write_bytes += s.write_bytes;
    total.rename_count += s.rename_count;
    total.progress_writes += s.progress_writes;
    total.fsync_ms.insert(total.fsync_ms.end(), s.fsync_ms.begin(),
                          s.fsync_ms.end());
    total.rename_ms.insert(total.rename_ms.end(), s.rename_ms.begin(),
                           s.rename_ms.end());
  }
  return total;
}

std::uint32_t TraceSession::worker_threads() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint32_t n = 0;
  for (const auto& buf : threads_) n += buf->cells > 0 ? 1 : 0;
  return n;
}

double TraceSession::first_worker_event_us() const {
  const std::lock_guard<std::mutex> lock(mu_);
  double first = -1.0;
  for (const auto& buf : threads_) {
    if (buf->cells == 0) continue;
    if (first < 0.0 || buf->first_event_us < first) first = buf->first_event_us;
  }
  return first;
}

double TraceSession::last_cell_end_us() const {
  const std::lock_guard<std::mutex> lock(mu_);
  double last = -1.0;
  for (const auto& buf : threads_) last = std::max(last, buf->last_cell_end_us);
  return last;
}

double TraceSession::rss_kb_per_cell() const {
  if (cells_end_ <= cells_mid_ || cells_mid_ == 0) return 0.0;
  return (rss_end_kb_ - rss_mid_kb_) /
         static_cast<double>(cells_end_ - cells_mid_);
}

double TraceSession::heap_kb_per_cell() const {
  if (cells_end_ <= cells_mid_ || cells_mid_ == 0) return 0.0;
  return (heap_end_kb_ - heap_mid_kb_) /
         static_cast<double>(cells_end_ - cells_mid_);
}

// --- TracedStrategy ---------------------------------------------------------

TracedStrategy::TracedStrategy(std::unique_ptr<accu::Strategy> inner,
                               TraceSession& session, std::size_t index)
    : inner_(std::move(inner)), session_(session), index_(index) {}

void TracedStrategy::reset(const accu::AccuInstance& instance,
                           accu::util::Rng& rng) {
  const double t0 = now_us();
  inner_->reset(instance, rng);
  session_.record_call(index_, Phase::kReset, t0, now_us());
}

accu::NodeId TracedStrategy::select(const accu::AttackerView& view,
                                    accu::util::Rng& rng) {
  const double t0 = now_us();
  const accu::NodeId target = inner_->select(view, rng);
  session_.record_call(index_, Phase::kSelect, t0, now_us());
  return target;
}

void TracedStrategy::observe(
    accu::NodeId target, bool accepted, const accu::AttackerView& view,
    const accu::AttackerView::AcceptanceEffects* effects) {
  const double t0 = now_us();
  inner_->observe(target, accepted, view, effects);
  session_.record_call(index_, Phase::kObserve, t0, now_us());
}

void TracedStrategy::observe_revelation(
    accu::NodeId source, const accu::AttackerView& view,
    const accu::AttackerView::AcceptanceEffects& effects) {
  const double t0 = now_us();
  inner_->observe_revelation(source, view, effects);
  session_.record_call(index_, Phase::kRevelation, t0, now_us());
}

accu::FaultObserver* TracedStrategy::as_fault_observer() {
  return inner_->as_fault_observer();
}

bool TracedStrategy::wants_score_pack() const {
  return inner_->wants_score_pack();
}

void TracedStrategy::adopt_score_pack(const accu::ScorePack& pack) {
  inner_->adopt_score_pack(pack);
}

void TracedStrategy::adopt_task_pool(accu::TaskPool* pool) {
  inner_->adopt_task_pool(pool);
}

std::string TracedStrategy::name() const { return inner_->name(); }

}  // namespace perfbench
