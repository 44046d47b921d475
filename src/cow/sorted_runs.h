#ifndef STORYPIVOT_COW_SORTED_RUNS_H_
#define STORYPIVOT_COW_SORTED_RUNS_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "cow/cow_box.h"

namespace storypivot::cow {

/// A sorted sequence of unique elements held as runs of at most kMaxRun
/// elements, each run in its own CowBox, in a CowBox'd vector spine
/// (DESIGN.md §15). `Less` orders the elements; two elements neither of
/// which is less than the other are the same element.
///
/// Copying is one shared_ptr bump. The first write after a copy clones
/// the spine (one pointer per run) and the one run it touches, never the
/// whole sequence:
///
///   * An insert goes into the run that owns the value. A run that grows
///     past kMaxRun splits in halves, except that an insert past the end
///     of a full last run opens a new run, so tail appends never clone a
///     full run.
///   * An erase that empties a run removes it from the spine.
///
/// Run boundaries depend on the insertion history; the flattened
/// sequence does not. Readers walk runs() in order.
///
/// Threading contract as for CowBox: all writes on one thread; frozen
/// copies may be read from any thread.
template <typename T, typename Less, size_t kMaxRun>
class SortedRuns {
 public:
  static_assert(kMaxRun >= 2, "a run must hold two elements to split");

  using Run = CowBox<std::vector<T>>;

  SortedRuns() = default;

  /// Number of elements.
  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// The runs in order: each is non-empty and sorted, and precedes the
  /// next.
  [[nodiscard]] const std::vector<Run>& runs() const { return runs_.read(); }

  /// Inserts `value` in order. Returns false, changing nothing, when an
  /// equal element is already present.
  bool Insert(const T& value) {
    const Less less;
    if (empty()) {
      runs_.Mutate()->emplace_back(std::vector<T>{value});
      size_ = 1;
      return true;
    }
    const size_t index = RunFor(value);
    const std::vector<T>& run = runs()[index].read();
    const auto at = std::lower_bound(run.begin(), run.end(), value, less);
    if (at != run.end() && !less(value, *at)) return false;
    const auto offset = at - run.begin();
    const bool opens_run = at == run.end() && run.size() >= kMaxRun &&
                           index + 1 == runs().size();
    std::vector<Run>* spine = runs_.Mutate();
    ++size_;
    if (opens_run) {
      spine->emplace_back(std::vector<T>{value});
      return true;
    }
    std::vector<T>* writable = (*spine)[index].Mutate();
    writable->insert(writable->begin() + offset, value);
    if (writable->size() > kMaxRun) {
      // Both halves are built fresh; every other run stays shared.
      const auto half =
          writable->begin() + static_cast<ptrdiff_t>(writable->size() / 2);
      Run high(std::vector<T>(half, writable->end()));
      (*spine)[index] = Run(std::vector<T>(writable->begin(), half));
      spine->insert(spine->begin() + static_cast<ptrdiff_t>(index) + 1,
                    std::move(high));
    }
    return true;
  }

  /// Removes the element equal to `probe`. Returns false, changing
  /// nothing, when none is present.
  bool Erase(const T& probe) {
    const Less less;
    if (empty()) return false;
    const size_t index = RunFor(probe);
    const std::vector<T>& run = runs()[index].read();
    const auto at = std::lower_bound(run.begin(), run.end(), probe, less);
    if (at == run.end() || less(probe, *at)) return false;
    const auto offset = at - run.begin();
    const bool empties_run = run.size() == 1;
    std::vector<Run>* spine = runs_.Mutate();
    if (empties_run) {
      spine->erase(spine->begin() + static_cast<ptrdiff_t>(index));
    } else {
      std::vector<T>* writable = (*spine)[index].Mutate();
      writable->erase(writable->begin() + offset);
    }
    --size_;
    return true;
  }

  /// The elements in order, in one vector. O(size).
  [[nodiscard]] std::vector<T> Flatten() const {
    std::vector<T> out;
    out.reserve(size_);
    for (const Run& run : runs()) {
      out.insert(out.end(), run.read().begin(), run.read().end());
    }
    return out;
  }

 private:
  /// Index of the run that owns `value`: the first run whose last element
  /// is not less than it, or the last run when it sorts past everything.
  /// Precondition: not empty.
  size_t RunFor(const T& value) const {
    const Less less;
    const std::vector<Run>& spine = runs();
    size_t lo = 0, hi = spine.size() - 1;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (less(spine[mid].read().back(), value)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  CowBox<std::vector<Run>> runs_;
  size_t size_ = 0;
};

}  // namespace storypivot::cow

#endif  // STORYPIVOT_COW_SORTED_RUNS_H_
