#ifndef STORYPIVOT_COW_PERSISTENT_VECTOR_H_
#define STORYPIVOT_COW_PERSISTENT_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cow/stats.h"
#include "util/logging.h"

namespace storypivot::cow {

/// A persistent vector — a 32-way bit-partitioned trie over the element
/// index, with copy-on-write path copying (DESIGN.md §15).
///
/// Elements live in fixed-size (32) leaf chunks; internal nodes fan out
/// on successive 5-bit chunks of the index. Nodes are shared_ptr'd:
///
///   * COPY = FREEZE. Copying the vector copies one pointer; both
///     vectors share every chunk. O(1).
///   * PATH COPY ON WRITE. Set/PushBack/PopBack clone only the O(log32 n)
///     nodes on the path to the touched leaf that are still shared with
///     a frozen copy; unique nodes are written in place, so an unshared
///     vector mutates at ordinary-vector cost.
///
/// Threading contract matches the rest of the cow layer: single-writer
/// mutations; frozen copies readable from any thread (shared nodes are
/// never written).
///
/// References returned by Get()/At() are invalidated by any subsequent
/// mutation of the same vector.
template <typename T>
class PersistentVector {
 public:
  PersistentVector() = default;

  // O(1) structural share — this IS Freeze().
  PersistentVector(const PersistentVector&) = default;
  PersistentVector& operator=(const PersistentVector&) = default;
  PersistentVector(PersistentVector&&) noexcept = default;
  PersistentVector& operator=(PersistentVector&&) noexcept = default;

  /// Bulk builder: the cheap way to lift an existing flat vector.
  static PersistentVector FromVector(const std::vector<T>& values) {
    PersistentVector out;
    for (const T& value : values) out.PushBack(value);
    return out;
  }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    root_.reset();
    size_ = 0;
    shift_ = 0;
  }

  [[nodiscard]] const T& At(size_t index) const {
    SP_CHECK(index < size_);
    const Node* node = root_.get();
    for (int shift = shift_; shift > 0; shift -= kBits) {
      node = node->children[(index >> shift) & kMask].get();
    }
    return node->values[index & kMask];
  }

  [[nodiscard]] const T& back() const { return At(size_ - 1); }

  /// Replaces the element at `index`, path-copying shared nodes.
  void Set(size_t index, T value) {
    SP_CHECK(index < size_);
    std::shared_ptr<Node>* slot = &root_;
    for (int shift = shift_; shift > 0; shift -= kBits) {
      Node* node = Writable(slot);
      slot = &node->children[(index >> shift) & kMask];
    }
    Writable(slot)->values[index & kMask] = std::move(value);
  }

  /// Mutable access to the element at `index` (path-copies like Set).
  /// Valid until the next mutation of this vector.
  [[nodiscard]] T* Mutable(size_t index) {
    SP_CHECK(index < size_);
    std::shared_ptr<Node>* slot = &root_;
    for (int shift = shift_; shift > 0; shift -= kBits) {
      Node* node = Writable(slot);
      slot = &node->children[(index >> shift) & kMask];
    }
    return &Writable(slot)->values[index & kMask];
  }

  void PushBack(T value) {
    if (root_ == nullptr) {
      root_ = std::make_shared<Node>();
      root_->values.push_back(std::move(value));
      size_ = 1;
      shift_ = 0;
      return;
    }
    if (size_ == Capacity()) {
      // Root overflow: grow a new root above the old one.
      auto new_root = std::make_shared<Node>();
      new_root->children.resize(kWidth);
      new_root->children[0] = std::move(root_);
      root_ = std::move(new_root);
      shift_ += kBits;
    }
    const size_t index = size_;
    std::shared_ptr<Node>* slot = &root_;
    for (int shift = shift_; shift > 0; shift -= kBits) {
      Node* node = Writable(slot);
      if (node->children.empty()) node->children.resize(kWidth);
      slot = &node->children[(index >> shift) & kMask];
      if (*slot == nullptr) *slot = std::make_shared<Node>();
    }
    Writable(slot)->values.push_back(std::move(value));
    ++size_;
  }

  void PopBack() {
    SP_CHECK(size_ > 0);
    const size_t index = size_ - 1;
    std::shared_ptr<Node>* slot = &root_;
    std::vector<std::shared_ptr<Node>*> path;
    for (int shift = shift_; shift > 0; shift -= kBits) {
      Node* node = Writable(slot);
      path.push_back(slot);
      slot = &node->children[(index >> shift) & kMask];
    }
    Node* leaf = Writable(slot);
    leaf->values.pop_back();
    // Drop now-empty nodes bottom-up (the root itself is kept; we never
    // shrink shift_, which keeps element paths stable).
    if (leaf->values.empty() && !path.empty()) {
      slot->reset();
      for (size_t level = path.size(); level-- > 1;) {
        Node* node = path[level]->get();
        bool any = false;
        for (const auto& child : node->children) {
          if (child != nullptr) {
            any = true;
            break;
          }
        }
        if (any) break;
        path[level]->reset();
      }
    }
    --size_;
    if (size_ == 0) clear();
  }

  /// Calls `fn(element)` for every element, in index order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (root_ != nullptr) ForEachNode(*root_, shift_, fn);
  }

 private:
  static constexpr int kBits = 5;
  static constexpr size_t kWidth = 32;
  static constexpr size_t kMask = kWidth - 1;

  struct Node {
    std::vector<std::shared_ptr<Node>> children;  ///< Internal nodes.
    std::vector<T> values;                        ///< Leaf chunks.
  };

  [[nodiscard]] size_t Capacity() const {
    return kWidth << static_cast<size_t>(shift_);
  }

  static size_t NodeBytes(const Node& node) {
    size_t bytes = sizeof(Node) +
                   node.children.capacity() * sizeof(std::shared_ptr<Node>);
    for (const T& value : node.values) bytes += CowApproxBytes(value);
    return bytes;
  }

  /// Clones `*slot` iff shared; see PersistentMap::Writable for the
  /// precondition (owning node already writable).
  static Node* Writable(std::shared_ptr<Node>* slot) {
    if (slot->use_count() != 1) {
      RecordCopy(NodeBytes(**slot));
      *slot = std::make_shared<Node>(**slot);
    }
    return slot->get();
  }

  template <typename Fn>
  static void ForEachNode(const Node& node, int shift, Fn& fn) {
    if (shift == 0) {
      for (const T& value : node.values) fn(value);
      return;
    }
    for (const auto& child : node.children) {
      if (child != nullptr) ForEachNode(*child, shift - kBits, fn);
    }
  }

  std::shared_ptr<Node> root_;
  size_t size_ = 0;
  int shift_ = 0;
};

}  // namespace storypivot::cow

#endif  // STORYPIVOT_COW_PERSISTENT_VECTOR_H_
