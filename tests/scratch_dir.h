#ifndef CATAPULT_TESTS_SCRATCH_DIR_H_
#define CATAPULT_TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace catapult {

// A fresh, empty scratch directory unique to (process, test, name):
// TempDir()/catapult-<pid>/<test>_<name>. The process id keeps concurrent
// copies of one test binary apart: without it both copies of a test build
// the same socket path, and the second supervisor's listener unlinks the
// first one's socket. The per-process root is removed when the process that
// made it exits (a forked member leaves through _exit and never does).
// Socket files placed here stay well within sun_path's 108 bytes under a
// short TempDir().
inline std::string ScratchDir(const std::string& name) {
  struct Root {
    pid_t owner = ::getpid();
    std::string path =
        ::testing::TempDir() + "catapult-" + std::to_string(owner);
    ~Root() {
      std::error_code ec;
      if (::getpid() == owner) std::filesystem::remove_all(path, ec);
    }
  };
  static const Root root;
  const std::string dir =
      root.path + "/" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace catapult

#endif  // CATAPULT_TESTS_SCRATCH_DIR_H_
