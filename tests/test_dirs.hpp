// Private scratch directories for tests.
//
// ctest runs every gtest case as its own process (gtest_discover_tests), so
// under `ctest -j` cases of one binary run side by side.  A fixed name under
// testing::TempDir() is then shared: one case's remove_all deletes the files
// another case is still writing.  Every test therefore takes its paths from
// test_path(), which lives in a directory of its own:
//
//     <TempDir>/accu-<suite>.<test>-<pid>/
//
// The directory is made on first use in a test and removed when that test
// ends, unless it failed (the files are kept for inspection).  A child forked
// by the test inherits the parent's directory, not a new one.

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace accu::testdirs {

namespace detail {

struct State {
  std::string test;  // suite.name the directory belongs to
  std::string dir;   // with trailing '/'
  pid_t owner = 0;   // the process that made it
};

inline State& state() {
  static State s;
  return s;
}

/// Removes a passed test's directory when the test ends.
class Cleanup : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& info) override {
    State& s = state();
    if (s.dir.empty() || s.owner != ::getpid()) return;
    if (info.result() != nullptr && !info.result()->Failed()) {
      std::error_code ec;
      std::filesystem::remove_all(s.dir, ec);
    }
    s = State{};
  }
};

inline const bool kCleanupRegistered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new Cleanup);
  return true;
}();

}  // namespace detail

/// The running test's private directory, with a trailing '/'; created on
/// the first call in each test.
inline std::string test_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr
                         ? std::string("no-test")
                         : std::string(info->test_suite_name()) + "." +
                               info->name();
  std::replace(test.begin(), test.end(), '/', '_');  // parameterized names
  detail::State& s = detail::state();
  if (s.test != test || s.dir.empty()) {
    s.test = test;
    s.owner = ::getpid();
    s.dir = ::testing::TempDir() + "accu-" + test + "-" +
            std::to_string(s.owner) + "/";
  }
  std::filesystem::create_directories(s.dir);
  return s.dir;
}

/// `name` inside test_dir(), with nothing there yet: a file or directory
/// left by an earlier use of the name in this test is removed.
inline std::string test_path(const std::string& name) {
  const std::string path = test_dir() + name;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return path;
}

}  // namespace accu::testdirs
