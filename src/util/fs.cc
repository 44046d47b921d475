#include "util/fs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/failpoint.h"
#include "util/strings.h"

namespace storypivot {
namespace {

Status IoError(const std::string& what, const std::string& path) {
  // strerror_r, not strerror: IO errors can surface concurrently from
  // pool workers, and strerror's shared buffer is a data race
  // (clang-tidy concurrency-mt-unsafe).
  char buf[256];
  const char* msg = "unknown error";
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  msg = strerror_r(errno, buf, sizeof(buf));  // GNU: returns the string.
#else
  if (strerror_r(errno, buf, sizeof(buf)) == 0) msg = buf;  // POSIX.
#endif
  return Status::IoError(what + " " + path + ": " + msg);
}

/// Directory component of `path` ("." when there is none), for syncing
/// the parent after a rename.
std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// `fail_site` injects a clean failure before any byte is written;
/// `partial_site` injects a SHORT write — half the remaining bytes land
/// on disk and the error reports how many, the shape of a real ENOSPC.
Status WriteAllTo(int fd, std::string_view data, const std::string& path,
                  const char* fail_site, const char* partial_site) {
  SP_FAILPOINT(fail_site);
  size_t done = 0;
  while (done < data.size()) {
    Status injected;
    if (SP_FAILPOINT_FIRED(partial_site, &injected)) {
      const size_t chunk = (data.size() - done) / 2;
      const ssize_t wrote =
          chunk == 0 ? 0 : ::write(fd, data.data() + done, chunk);
      if (wrote > 0) done += static_cast<size_t>(wrote);
      return Status(injected.code(),
                    injected.message() +
                        StrFormat(" (short write: %zu of %zu bytes to ",
                                  done, data.size()) +
                        path + ")");
    }
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (done > 0) {
        return IoError(StrFormat("short write (%zu of %zu bytes), cannot "
                                 "write rest to",
                                 done, data.size()),
                       path);
      }
      return IoError("cannot write", path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  SP_FAILPOINT("fs.read.open");
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return IoError("cannot open for reading", path);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return IoError("read error", path);
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Status WriteStringToFile(const std::string& path, std::string_view contents) {
  SP_FAILPOINT("fs.write.open");
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return IoError("cannot open for writing", tmp);
  Status written =
      WriteAllTo(fd, contents, tmp, "fs.write.write", "fs.write.partial");
  if (written.ok() && !SP_FAILPOINT_FIRED("fs.write.fsync", &written) &&
      ::fsync(fd) != 0) {
    written = IoError("fsync", tmp);
  }
  if (::close(fd) != 0 && written.ok()) written = IoError("close", tmp);
  if (written.ok() && !SP_FAILPOINT_FIRED("fs.write.rename", &written) &&
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    written = IoError("rename", path);
  }
  if (!written.ok()) {
    ::unlink(tmp.c_str());  // Best effort; the error is already recorded.
    return written;
  }
  return SyncDirectory(DirName(path));
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Result<uint64_t> FileSize(const std::string& path) {
  SP_FAILPOINT("fs.stat");
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return IoError("cannot stat", path);
  return static_cast<uint64_t>(st.st_size);
}

Status RemoveFile(const std::string& path) {
  SP_FAILPOINT("fs.remove");
  if (::unlink(path.c_str()) != 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return IoError("cannot unlink", path);
  }
  return Status::OK();
}

Status RemoveDirectory(const std::string& path) {
  if (::rmdir(path.c_str()) != 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such directory: " + path);
    }
    return IoError("cannot rmdir", path);
  }
  return Status::OK();
}

Status RenameFile(const std::string& from, const std::string& to) {
  SP_FAILPOINT("fs.rename");
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return IoError("cannot rename to " + to + " from", from);
  }
  return Status::OK();
}

Status TruncateFile(const std::string& path, uint64_t size) {
  SP_FAILPOINT("fs.truncate");
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return IoError("cannot truncate", path);
  }
  return Status::OK();
}

Status CreateDirectories(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty directory path");
  SP_FAILPOINT("fs.mkdir");
  std::string prefix;
  size_t pos = 0;
  while (pos <= path.size()) {
    size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    prefix.assign(path, 0, slash);
    pos = slash + 1;
    if (prefix.empty()) continue;  // Leading '/'.
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return IoError("cannot mkdir", prefix);
    }
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDirectory(const std::string& path) {
  SP_FAILPOINT("fs.list");
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return IoError("cannot open directory", path);
  std::vector<std::string> names;
  errno = 0;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(std::move(name));
    errno = 0;
  }
  bool had_error = errno != 0;
  ::closedir(dir);
  if (had_error) return IoError("cannot read directory", path);
  std::sort(names.begin(), names.end());
  return names;
}

Status SyncDirectory(const std::string& path) {
  SP_FAILPOINT("fs.dir.sync");
  int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return IoError("cannot open directory", path);
  Status status;
  if (::fsync(fd) != 0) status = IoError("fsync directory", path);
  ::close(fd);
  return status;
}

AppendFile::~AppendFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status AppendFile::Open(const std::string& path) {
  if (fd_ >= 0) {
    return Status::FailedPrecondition("AppendFile already open: " + path_);
  }
  SP_FAILPOINT("fs.append.open");
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                  0644);
  if (fd < 0) return IoError("cannot open for append", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return IoError("cannot stat", path);
  }
  fd_ = fd;
  size_ = static_cast<uint64_t>(st.st_size);
  path_ = path;
  return Status::OK();
}

Status AppendFile::Append(std::string_view data) {
  if (fd_ < 0) return Status::FailedPrecondition("AppendFile not open");
  RETURN_IF_ERROR(
      WriteAllTo(fd_, data, path_, "fs.append.write", "fs.append.partial"));
  size_ += data.size();
  return Status::OK();
}

Status AppendFile::TruncateTo(uint64_t new_size) {
  if (fd_ < 0) return Status::FailedPrecondition("AppendFile not open");
  if (new_size > size_) {
    return Status::InvalidArgument(
        StrFormat("TruncateTo %llu past size %llu of ",
                  static_cast<unsigned long long>(new_size),
                  static_cast<unsigned long long>(size_)) +
        path_);
  }
  SP_FAILPOINT("fs.append.rewind");
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
    return IoError("cannot truncate append file", path_);
  }
  size_ = new_size;
  return Status::OK();
}

Status AppendFile::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("AppendFile not open");
  SP_FAILPOINT("fs.append.sync");
  if (::fdatasync(fd_) != 0) return IoError("fdatasync", path_);
  return Status::OK();
}

Status AppendFile::Close() {
  if (fd_ < 0) return Status::OK();
  Status status = Sync();
  if (::close(fd_) != 0 && status.ok()) status = IoError("close", path_);
  fd_ = -1;
  size_ = 0;
  path_.clear();
  return status;
}

}  // namespace storypivot
