#include "src/util/atomic_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/util/failpoint.h"

#include <fcntl.h>
#include <unistd.h>

namespace catapult {

namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

// Flushes `file` to stable storage. Returns false (with errno set) on
// failure or when the "persist.fsync" failpoint is armed.
bool SyncFile(std::FILE* file) {
  if (CATAPULT_FAILPOINT("persist.fsync")) {
    errno = EIO;
    return false;
  }
  obs::Count(obs::Counter::kCheckpointFsyncs);
  return ::fsync(fileno(file)) == 0;
}

// Best-effort fsync of the directory containing `path`, so the rename that
// published a file in it is itself durable. Failure is not reported: the
// file content is already safe, only the directory entry may be replayed.
void SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    obs::Count(obs::Counter::kCheckpointFsyncs);
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

std::string AtomicWriteFile(const std::string& path,
                            const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return ErrnoMessage("cannot open", tmp);

  // A torn write models a crash that persisted only a prefix of the bytes;
  // the rename below still happens, so the *reader* must catch it via the
  // record checksum / size checks.
  size_t to_write = bytes.size();
  if (CATAPULT_FAILPOINT("persist.torn_write")) to_write /= 2;

  bool ok = to_write == 0 ||
            std::fwrite(bytes.data(), 1, to_write, file) == to_write;
  ok = ok && std::fflush(file) == 0;
  ok = ok && SyncFile(file);
  std::string error;
  if (!ok) error = ErrnoMessage("cannot write", tmp);
  if (std::fclose(file) != 0 && error.empty()) {
    error = ErrnoMessage("cannot close", tmp);
  }
  if (error.empty() && CATAPULT_FAILPOINT("persist.rename")) {
    errno = EIO;
    error = ErrnoMessage("cannot rename", tmp);
  }
  if (error.empty() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    error = ErrnoMessage("cannot rename", tmp);
  }
  if (!error.empty()) {
    std::remove(tmp.c_str());
    return error;
  }
  SyncParentDirectory(path);
  return std::string();
}

std::string ReadWholeFile(const std::string& path, std::string* out) {
  out->clear();
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return ErrnoMessage("cannot open", path);
  char buffer[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, n);
    if (CATAPULT_FAILPOINT("persist.short_read")) {
      out->resize(out->size() / 2);
      break;
    }
  }
  bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return ErrnoMessage("cannot read", path);
  if (!out->empty() && CATAPULT_FAILPOINT("persist.bit_flip")) {
    (*out)[out->size() / 2] ^= 0x10;
  }
  return std::string();
}

}  // namespace catapult
