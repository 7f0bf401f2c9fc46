#include "common.hpp"

#include <malloc.h>
#include <sys/vfs.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace fs = std::filesystem;

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  ++failed;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double vm_rss_kb() { return status_kb("VmRSS"); }
double vm_hwm_kb() { return status_kb("VmHWM"); }

double heap_in_use_kb() {
  return static_cast<double>(::mallinfo2().uordblks) / 1024.0;
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  if (!out) throw std::runtime_error("cannot write " + path);
}

bool on_ram_filesystem(const std::string& dir) {
  struct statfs info {};
  if (::statfs(dir.c_str(), &info) != 0) return false;
  constexpr long kTmpfsMagic = 0x01021994;
  constexpr long kRamfsMagic = 0x858458f6;
  return info.f_type == kTmpfsMagic || info.f_type == kRamfsMagic;
}

std::string cached_input(const std::string& dir, const std::string& stem,
                         std::uint64_t seed, const std::string& ext,
                         std::size_t keep,
                         const std::function<void(const std::string&)>& generate,
                         double& gen_seconds) {
  fs::create_directories(dir);
  const std::string path =
      dir + "/" + stem + "-" + std::to_string(seed) + ext;
  const std::string stamp = path + ".gen_s";
  if (!fs::exists(path) || !fs::exists(stamp)) {
    // Evict the oldest inputs of this stem first, so the disk holds at
    // most `keep` of them at any time.
    std::vector<fs::path> old;
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(stem + "-", 0) == 0 && entry.path().extension() == ext) {
        old.push_back(entry.path());
      }
    }
    std::sort(old.begin(), old.end(), [](const fs::path& a, const fs::path& b) {
      return fs::last_write_time(a) < fs::last_write_time(b);
    });
    while (!old.empty() && old.size() + 1 > keep) {
      fs::remove(old.front());
      fs::remove(old.front().string() + ".gen_s");
      old.erase(old.begin());
    }
    const std::string tmp = path + ".tmp";
    const auto t0 = std::chrono::steady_clock::now();
    generate(tmp);
    gen_seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    fs::rename(tmp, path);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g\n", gen_seconds);
    write_file(stamp, buf);
  } else {
    gen_seconds = std::strtod(read_file(stamp).c_str(), nullptr);
  }
  return path;
}

std::uint32_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

}  // namespace perfbench
