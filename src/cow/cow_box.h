#ifndef STORYPIVOT_COW_COW_BOX_H_
#define STORYPIVOT_COW_COW_BOX_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "cow/stats.h"

namespace storypivot::cow {

/// Container-aware byte estimate for the copy counters (the generic
/// default in stats.h is the shallow sizeof).
template <typename T>
size_t CowApproxBytes(const std::vector<T>& v) {
  return sizeof(v) + v.capacity() * sizeof(T);
}

/// A copy-on-write box around a single value (DESIGN.md §15).
///
/// Copying the box is O(1) — both copies share one heap payload. The
/// payload is cloned lazily, on the first `Mutate()` after the box
/// became shared; while the box is the payload's only owner, `Mutate()`
/// writes in place, so an unshared box costs the same as a plain value.
///
/// This is the freeze primitive for rarely-mutated blobs (posting
/// lists, vocabulary state): a snapshot copies the box, the writer's
/// next mutation clones the payload, and the snapshot keeps the old
/// payload alive for as long as it needs it.
///
/// Sharing/threading contract (same as the rest of the cow layer): all
/// mutations happen on the single writer thread; frozen copies may be
/// read from any thread without synchronization, because a shared
/// payload is never written (use_count() > 1 forces the clone).
template <typename T>
class CowBox {
 public:
  /// A default box holds a default-constructed payload.
  CowBox() : value_(std::make_shared<T>()) {}
  explicit CowBox(T value) : value_(std::make_shared<T>(std::move(value))) {}

  // O(1) structural share. The whole point of the type.
  CowBox(const CowBox&) = default;
  CowBox& operator=(const CowBox&) = default;
  CowBox(CowBox&&) noexcept = default;
  CowBox& operator=(CowBox&&) noexcept = default;

  /// Read access to the (possibly shared) payload.
  [[nodiscard]] const T& read() const { return *value_; }
  [[nodiscard]] const T* operator->() const { return value_.get(); }

  /// Write access. Clones the payload first iff it is shared (and
  /// records the clone in the process copy counters).
  [[nodiscard]] T* Mutate() {
    if (value_.use_count() != 1) {
      RecordCopy(CowApproxBytes(*value_));
      value_ = std::make_shared<T>(*value_);
    }
    return value_.get();
  }

  /// True when this box is the payload's only owner (no frozen copy is
  /// still holding it).
  [[nodiscard]] bool unique() const { return value_.use_count() == 1; }

 private:
  std::shared_ptr<T> value_;
};

}  // namespace storypivot::cow

#endif  // STORYPIVOT_COW_COW_BOX_H_
