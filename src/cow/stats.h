#ifndef STORYPIVOT_COW_STATS_H_
#define STORYPIVOT_COW_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace storypivot::cow {

/// Cumulative copy-on-write cost counters for the whole process
/// (DESIGN.md §15). Every node or payload the cow layer physically
/// duplicates — a HAMT node clone, a CowBox payload clone — bumps these;
/// structural shares bump nothing. The serving tier reads the counters
/// around a snapshot capture to report "bytes copied" per publish; the
/// difference between a structure's approximate resident size and the
/// copied bytes is the shared (zero-cost) part of the epoch.
///
/// Relaxed atomics: the counters are monotonic telemetry, not a
/// synchronization mechanism. All cow mutations happen on the single
/// writer thread anyway; the atomics just make cross-thread reads of the
/// totals well-defined.
struct CopyCounters {
  uint64_t copies = 0;  ///< Physical duplications performed.
  uint64_t bytes = 0;   ///< Approximate bytes those duplications touched.
};

/// Adds one duplication of ~`bytes` bytes to the process-wide counters.
void RecordCopy(uint64_t bytes);

/// Current process-wide totals.
[[nodiscard]] CopyCounters ReadCopyCounters();

/// Approximate resident size of a value, used for the bytes column of
/// the copy counters. ADL customization point: overload
/// `CowApproxBytes(const T&)` next to T for container-aware estimates;
/// the default is the shallow object size.
template <typename T>
size_t CowApproxBytes(const T&) {
  return sizeof(T);
}

}  // namespace storypivot::cow

#endif  // STORYPIVOT_COW_STATS_H_
