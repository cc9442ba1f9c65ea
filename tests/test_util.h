#ifndef LOSSYTS_TESTS_TEST_UTIL_H_
#define LOSSYTS_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>

#include <gtest/gtest.h>

namespace lossyts::test {

namespace internal {

// Directories UniqueTestDir() made for the running test. A passing test's
// are removed when it ends, so per-pid names do not pile up over runs; a
// failing test's stay for inspection.
struct TestDirs : public ::testing::EmptyTestEventListener {
  std::mutex mu;
  std::set<std::string> live;

  void OnTestEnd(const ::testing::TestInfo& info) override {
    std::lock_guard<std::mutex> lock(mu);
    if (info.result()->Passed()) {
      std::error_code ignored;
      for (const std::string& dir : live) {
        std::filesystem::remove_all(dir, ignored);
      }
    }
    live.clear();
  }
};

inline TestDirs& Dirs() {
  // Owned by gtest's listener list once appended.
  static TestDirs* dirs = [] {
    auto* d = new TestDirs();
    ::testing::UnitTest::GetInstance()->listeners().Append(d);
    return d;
  }();
  return *dirs;
}

}  // namespace internal

/// A temp directory of the running test's own: `<gtest TempDir>/lossyts_`
/// + suite + `.` + test name (hashed past 40 characters) + `.` + pid. ctest
/// runs every gtest case as its own process, in parallel under `ctest -j`,
/// so a fixed path shared by two cases lets one clobber the other's files;
/// this name cannot be shared.
/// The first call in a test starts it empty (wiping what an earlier process
/// with a reused pid left); later calls in the same test return it as is.
/// It is removed when the test ends, unless the test failed.
inline std::string UniqueTestDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string key = info == nullptr ? std::string("none.none")
                                    : std::string(info->test_suite_name()) +
                                          "." + info->name();
  // Parameterized suites and cases carry '/' in their names.
  for (char& c : key) {
    if (c == '/') c = '_';
  }
  // Serve tests put a Unix socket in here, and sun_path holds 107 bytes: a
  // long key keeps its head plus an FNV-1a hash of the whole.
  constexpr size_t kMaxKey = 40;
  if (key.size() > kMaxKey) {
    uint32_t hash = 2166136261u;
    for (unsigned char c : key) hash = (hash ^ c) * 16777619u;
    char hex[9];
    std::snprintf(hex, sizeof(hex), "%08x", hash);
    key = key.substr(0, kMaxKey - 9) + "-" + hex;
  }
  const std::string dir = ::testing::TempDir() + "lossyts_" + key + "." +
                          std::to_string(::getpid());
  internal::TestDirs& dirs = internal::Dirs();
  std::lock_guard<std::mutex> lock(dirs.mu);
  if (dirs.live.insert(dir).second) {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    std::filesystem::create_directories(dir, ignored);
  }
  return dir;
}

}  // namespace lossyts::test

#endif  // LOSSYTS_TESTS_TEST_UTIL_H_
