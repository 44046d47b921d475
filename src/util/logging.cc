#include "util/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace storypivot {
namespace {

/// Concurrency model (DESIGN.md §13): logging is lock-free. The level
/// gate is a relaxed atomic — SP_GUARDED_BY would be wrong here, as any
/// thread may log without holding anything — and each message is emitted
/// as ONE fwrite call, which POSIX serialises per stream, so concurrent
/// log lines never interleave mid-line. No Mutex, so SP_LOG is safe
/// inside any locked region without extending the lock hierarchy.
std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Strip directories from the file path for compact output.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelTag(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) <
      g_min_level.load(std::memory_order_relaxed)) {
    return;
  }
  std::string line = stream_.str();
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), stderr);
}

void AbortAfterCheckFailure() {
  // A bench or report that fails a check keeps the stdout it buffered.
  std::fflush(nullptr);
  std::abort();
}

}  // namespace internal_logging
}  // namespace storypivot
