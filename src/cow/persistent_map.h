#ifndef STORYPIVOT_COW_PERSISTENT_MAP_H_
#define STORYPIVOT_COW_PERSISTENT_MAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "cow/stats.h"
#include "util/logging.h"

namespace storypivot::cow {

/// A persistent hash map — a hash array mapped trie (HAMT) with
/// copy-on-write path copying (DESIGN.md §15).
///
/// The trie branches 32 ways on successive 5-bit chunks of the key's
/// 64-bit hash; keys whose full hashes collide land in a sorted
/// collision bucket below the last chunk. Nodes are held by shared_ptr:
///
///   * COPY = FREEZE. Copying the map copies one pointer; both maps
///     share every node. O(1), no allocation.
///   * PATH COPY ON WRITE. A mutation clones only the nodes on the path
///     from the root to the touched entry that are still shared with a
///     frozen copy; everything else is shared by pointer. After a
///     freeze, the first mutations re-own their paths (O(log32 n)
///     clones each); absent freezes every node is uniquely owned and
///     mutations write IN PLACE, so the live structure costs like an
///     ordinary hash map.
///
/// DETERMINISM: the trie shape — and therefore iteration order — is a
/// pure function of the key set (slots are hash chunks; collision
/// buckets sort by key). Unlike std::unordered_map, whose order depends
/// on insertion/rehash history, two PersistentMaps holding the same
/// keys always iterate identically, which is exactly the property the
/// engine's snapshot-equals-rebuild invariant wants.
///
/// Threading contract: mutations are single-writer (the engine serial
/// section); frozen copies are safe to read from any thread because a
/// node reachable from more than one root is never written.
///
/// Reference validity: pointers/references into the map (Find,
/// FindMutable, GetOrInsert, iterators) are invalidated by ANY
/// subsequent mutation of the same map — path copies relocate entries.
/// This is weaker than std::unordered_map's per-node stability; don't
/// hold entry pointers across mutations.
template <typename K, typename V, typename Hash = std::hash<K>>
class PersistentMap {
 public:
  using value_type = std::pair<K, V>;

  PersistentMap() = default;

  // O(1) structural share — this IS Freeze().
  PersistentMap(const PersistentMap&) = default;
  PersistentMap& operator=(const PersistentMap&) = default;
  PersistentMap(PersistentMap&&) noexcept = default;
  PersistentMap& operator=(PersistentMap&&) noexcept = default;

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    root_.reset();
    size_ = 0;
  }

  /// Value stored under `key`, or nullptr. `key` may be any type the
  /// hasher and operator== accept (string_view against string keys).
  template <typename LK>
  [[nodiscard]] const V* Find(const LK& key) const {
    const Node* node = root_.get();
    if (node == nullptr) return nullptr;
    const uint64_t hash = HashOf(key);
    for (int shift = 0;; shift += kBits) {
      if (shift > kMaxShift) {
        for (const value_type& entry : node->entries) {
          if (entry.first == key) return &entry.second;
        }
        return nullptr;
      }
      const uint32_t bit = SlotBit(hash, shift);
      if (node->entry_mask & bit) {
        const value_type& entry = node->entries[PackedIndex(node->entry_mask,
                                                            bit)];
        return entry.first == key ? &entry.second : nullptr;
      }
      if (!(node->child_mask & bit)) return nullptr;
      node = node->children[PackedIndex(node->child_mask, bit)].get();
    }
  }

  template <typename LK>
  [[nodiscard]] bool contains(const LK& key) const {
    return Find(key) != nullptr;
  }

  /// Mutable access to an existing entry, path-copying shared nodes.
  /// Returns nullptr when absent. The pointer is valid until the next
  /// mutation of this map.
  template <typename LK>
  [[nodiscard]] V* FindMutable(const LK& key) {
    if (Find(key) == nullptr) return nullptr;  // Never clone for a miss.
    std::shared_ptr<Node>* slot = &root_;
    const uint64_t hash = HashOf(key);
    for (int shift = 0;; shift += kBits) {
      Node* node = Writable(slot);
      if (shift > kMaxShift) {
        for (value_type& entry : node->entries) {
          if (entry.first == key) return &entry.second;
        }
        SP_CHECK(false);  // Find() said it was here.
      }
      const uint32_t bit = SlotBit(hash, shift);
      if (node->entry_mask & bit) {
        return &node->entries[PackedIndex(node->entry_mask, bit)].second;
      }
      slot = &node->children[PackedIndex(node->child_mask, bit)];
    }
  }

  /// Inserts `value` under `key` if absent. Returns the stored value
  /// and whether this call inserted it (false = it already existed and
  /// was left untouched).
  std::pair<V*, bool> Emplace(K key, V value) {
    bool inserted = false;
    V* stored = EmplaceImpl(&root_, 0, HashOf(key), std::move(key),
                            std::move(value), &inserted);
    if (inserted) ++size_;
    return {stored, inserted};
  }

  /// The entry under `key`, default-constructing one if absent.
  [[nodiscard]] V& GetOrInsert(K key) {
    return *Emplace(std::move(key), V{}).first;
  }

  /// Removes `key`; returns false when absent.
  template <typename LK>
  bool Erase(const LK& key) {
    if (Find(key) == nullptr) return false;  // Never clone for a miss.
    EraseKnown(&root_, 0, HashOf(key), key);
    if (root_ != nullptr && root_->entries.empty() &&
        root_->child_mask == 0) {
      root_.reset();
    }
    --size_;
    return true;
  }

  /// Calls `fn(key, value)` for every entry, in the map's deterministic
  /// (hash-chunk) order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (root_ != nullptr) ForEachNode(*root_, fn);
  }

 private:
  static constexpr int kBits = 5;
  /// Last shift that still draws fresh hash bits; below it lives the
  /// sorted full-hash collision bucket.
  static constexpr int kMaxShift = 60;

  struct Node {
    /// Slot i (bit i) holds an inline entry / a child subtrie. The two
    /// masks are disjoint. Collision buckets (below kMaxShift) keep
    /// both masks zero and their entries sorted by key.
    uint32_t entry_mask = 0;
    uint32_t child_mask = 0;
    /// Entries / children packed in slot order (see PackedIndex).
    std::vector<value_type> entries;
    std::vector<std::shared_ptr<Node>> children;
  };

  template <typename LK>
  static uint64_t HashOf(const LK& key) {
    return static_cast<uint64_t>(Hash{}(key));
  }

  static uint32_t SlotBit(uint64_t hash, int shift) {
    return 1u << ((hash >> shift) & 31u);
  }

  /// Index of `bit`'s slot within the packed vector for `mask`.
  static size_t PackedIndex(uint32_t mask, uint32_t bit) {
    return static_cast<size_t>(std::popcount(mask & (bit - 1)));
  }

  static size_t NodeBytes(const Node& node) {
    size_t bytes = sizeof(Node) +
                   node.children.capacity() * sizeof(std::shared_ptr<Node>);
    for (const value_type& entry : node.entries) {
      bytes += sizeof(K) + CowApproxBytes(entry.second);
    }
    return bytes;
  }

  /// Clones `*slot` iff it is shared, and returns the now-writable
  /// node. Precondition: the node OWNING the slot is already writable
  /// (true for root_, and recursively true along any mutation path).
  static Node* Writable(std::shared_ptr<Node>* slot) {
    if (slot->use_count() != 1) {
      RecordCopy(NodeBytes(**slot));
      *slot = std::make_shared<Node>(**slot);
    }
    return slot->get();
  }

  V* EmplaceImpl(std::shared_ptr<Node>* slot, int shift, uint64_t hash,
                 K&& key, V&& value, bool* inserted) {
    if (*slot == nullptr) {
      *slot = std::make_shared<Node>();
      Node* node = slot->get();
      if (shift > kMaxShift) {
        node->entries.emplace_back(std::move(key), std::move(value));
      } else {
        node->entry_mask = SlotBit(hash, shift);
        node->entries.emplace_back(std::move(key), std::move(value));
      }
      *inserted = true;
      return &node->entries.front().second;
    }
    Node* node = Writable(slot);
    if (shift > kMaxShift) {
      // Full-hash collision bucket, sorted by key for content-
      // deterministic iteration.
      auto it = node->entries.begin();
      while (it != node->entries.end() && it->first < key) ++it;
      if (it != node->entries.end() && it->first == key) {
        *inserted = false;
        return &it->second;
      }
      it = node->entries.emplace(it, std::move(key), std::move(value));
      *inserted = true;
      return &it->second;
    }
    const uint32_t bit = SlotBit(hash, shift);
    if (node->entry_mask & bit) {
      const size_t index = PackedIndex(node->entry_mask, bit);
      value_type& existing = node->entries[index];
      if (existing.first == key) {
        *inserted = false;
        return &existing.second;
      }
      // Slot conflict: push the resident entry one level down, then
      // retry this level (the slot is now a child).
      value_type displaced = std::move(existing);
      node->entries.erase(node->entries.begin() +
                          static_cast<ptrdiff_t>(index));
      node->entry_mask &= ~bit;
      const size_t child_index = PackedIndex(node->child_mask, bit);
      node->children.insert(node->children.begin() +
                                static_cast<ptrdiff_t>(child_index),
                            nullptr);
      node->child_mask |= bit;
      bool displaced_inserted = false;
      EmplaceImpl(&node->children[child_index], shift + kBits,
                  HashOf(displaced.first), std::move(displaced.first),
                  std::move(displaced.second), &displaced_inserted);
      return EmplaceImpl(&node->children[child_index], shift + kBits, hash,
                         std::move(key), std::move(value), inserted);
    }
    if (node->child_mask & bit) {
      return EmplaceImpl(&node->children[PackedIndex(node->child_mask, bit)],
                         shift + kBits, hash, std::move(key),
                         std::move(value), inserted);
    }
    const size_t index = PackedIndex(node->entry_mask, bit);
    auto it = node->entries.emplace(
        node->entries.begin() + static_cast<ptrdiff_t>(index),
        std::move(key), std::move(value));
    node->entry_mask |= bit;
    *inserted = true;
    return &it->second;
  }

  /// Removes `key`, which the caller has verified to exist.
  template <typename LK>
  void EraseKnown(std::shared_ptr<Node>* slot, int shift, uint64_t hash,
                  const LK& key) {
    Node* node = Writable(slot);
    if (shift > kMaxShift) {
      for (auto it = node->entries.begin(); it != node->entries.end(); ++it) {
        if (it->first == key) {
          node->entries.erase(it);
          return;
        }
      }
      SP_CHECK(false);  // Caller verified presence.
    }
    const uint32_t bit = SlotBit(hash, shift);
    if (node->entry_mask & bit) {
      const size_t index = PackedIndex(node->entry_mask, bit);
      SP_CHECK(node->entries[index].first == key);
      node->entries.erase(node->entries.begin() +
                          static_cast<ptrdiff_t>(index));
      node->entry_mask &= ~bit;
      return;
    }
    SP_CHECK((node->child_mask & bit) != 0);
    const size_t child_index = PackedIndex(node->child_mask, bit);
    EraseKnown(&node->children[child_index], shift + kBits, hash, key);
    const Node& child = *node->children[child_index];
    if (child.entries.empty() && child.child_mask == 0) {
      node->children.erase(node->children.begin() +
                           static_cast<ptrdiff_t>(child_index));
      node->child_mask &= ~bit;
    }
  }

  template <typename Fn>
  static void ForEachNode(const Node& node, Fn& fn) {
    if (node.entry_mask == 0 && node.child_mask == 0) {
      for (const value_type& entry : node.entries) {
        fn(entry.first, entry.second);
      }
      return;
    }
    uint32_t remaining = node.entry_mask | node.child_mask;
    while (remaining != 0) {
      const uint32_t bit = remaining & (~remaining + 1);  // Lowest set bit.
      remaining &= remaining - 1;
      if (node.entry_mask & bit) {
        const value_type& entry =
            node.entries[PackedIndex(node.entry_mask, bit)];
        fn(entry.first, entry.second);
      } else {
        ForEachNode(*node.children[PackedIndex(node.child_mask, bit)], fn);
      }
    }
  }

 public:
  /// Forward iterator over entries in the map's deterministic order.
  /// Yields `const std::pair<K, V>&`, so range-for destructuring
  /// (`for (const auto& [k, v] : map)`) works as with std containers.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PersistentMap::value_type;
    using difference_type = ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator() = default;

    reference operator*() const { return *current_; }
    pointer operator->() const { return current_; }

    const_iterator& operator++() {
      Advance();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      Advance();
      return before;
    }

    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.current_ == b.current_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.current_ != b.current_;
    }

   private:
    friend class PersistentMap;
    struct Frame {
      const Node* node = nullptr;
      uint32_t next = 0;  ///< Next slot (branch node) / entry (bucket).
    };

    explicit const_iterator(const Node* root) {
      if (root != nullptr) {
        stack_.push_back({root, 0});
        Advance();
      }
    }

    void Advance() {
      while (!stack_.empty()) {
        Frame& frame = stack_.back();
        const Node* node = frame.node;
        if (node->entry_mask == 0 && node->child_mask == 0) {
          if (frame.next < node->entries.size()) {
            current_ = &node->entries[frame.next++];
            return;
          }
          stack_.pop_back();
          continue;
        }
        const uint32_t seen =
            frame.next >= 32 ? ~0u : ((1u << frame.next) - 1);
        const uint32_t remaining =
            (node->entry_mask | node->child_mask) & ~seen;
        if (remaining == 0) {
          stack_.pop_back();
          continue;
        }
        const uint32_t slot =
            static_cast<uint32_t>(std::countr_zero(remaining));
        frame.next = slot + 1;
        const uint32_t bit = 1u << slot;
        if (node->entry_mask & bit) {
          current_ = &node->entries[PackedIndex(node->entry_mask, bit)];
          return;
        }
        stack_.push_back(
            {node->children[PackedIndex(node->child_mask, bit)].get(), 0});
      }
      current_ = nullptr;
    }

    std::vector<Frame> stack_;
    const value_type* current_ = nullptr;
  };

  [[nodiscard]] const_iterator begin() const {
    return const_iterator(root_.get());
  }
  [[nodiscard]] const_iterator end() const { return const_iterator(); }

 private:
  std::shared_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace storypivot::cow

#endif  // STORYPIVOT_COW_PERSISTENT_MAP_H_
