#include "storage/temporal_index.h"

#include <algorithm>

#include "util/logging.h"

namespace storypivot {

namespace {

bool TimestampBefore(const TemporalIndex::Entry& entry, Timestamp ts) {
  return entry.first < ts;
}

}  // namespace

size_t TemporalIndex::ChunkFor(const Entry& entry) const {
  size_t lo = 0, hi = chunks_.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (chunks_.At(mid).read().back() < entry) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t TemporalIndex::FirstChunkNotBefore(Timestamp ts) const {
  size_t lo = 0, hi = chunks_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (chunks_.At(mid).read().back().first < ts) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void TemporalIndex::SplitChunk(size_t index) {
  const std::vector<Entry>& run = chunks_.At(index).read();
  const size_t half = run.size() / 2;
  Chunk low(std::vector<Entry>(run.begin(),
                               run.begin() + static_cast<ptrdiff_t>(half)));
  Chunk high(std::vector<Entry>(run.begin() + static_cast<ptrdiff_t>(half),
                                run.end()));
  cow::PersistentVector<Chunk> rebuilt;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    if (i == index) {
      rebuilt.PushBack(low);
      rebuilt.PushBack(high);
    } else {
      rebuilt.PushBack(chunks_.At(i));  // O(1) chunk share.
    }
  }
  chunks_ = std::move(rebuilt);
}

void TemporalIndex::RemoveChunk(size_t index) {
  cow::PersistentVector<Chunk> rebuilt;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    if (i != index) rebuilt.PushBack(chunks_.At(i));
  }
  chunks_ = std::move(rebuilt);
}

void TemporalIndex::Insert(Timestamp ts, SnippetId id) {
  const Entry entry{ts, id};
  if (chunks_.empty()) {
    chunks_.PushBack(Chunk(std::vector<Entry>{entry}));
    size_ = 1;
    return;
  }
  const size_t index = ChunkFor(entry);
  std::vector<Entry>* run = chunks_.Mutable(index)->Mutate();
  run->insert(std::lower_bound(run->begin(), run->end(), entry), entry);
  ++size_;
  if (run->size() > kMaxChunk) SplitChunk(index);
}

bool TemporalIndex::Erase(Timestamp ts, SnippetId id) {
  if (chunks_.empty()) return false;
  const Entry entry{ts, id};
  const size_t index = ChunkFor(entry);
  const std::vector<Entry>& run = chunks_.At(index).read();
  const auto it = std::lower_bound(run.begin(), run.end(), entry);
  if (it == run.end() || *it != entry) return false;
  if (run.size() == 1) {
    RemoveChunk(index);
  } else {
    const auto offset = it - run.begin();
    std::vector<Entry>* writable = chunks_.Mutable(index)->Mutate();
    writable->erase(writable->begin() + offset);
  }
  --size_;
  return true;
}

void TemporalIndex::ForEachInWindow(
    Timestamp lo, Timestamp hi,
    const std::function<void(Timestamp, SnippetId)>& fn) const {
  for (size_t i = FirstChunkNotBefore(lo); i < chunks_.size(); ++i) {
    const std::vector<Entry>& run = chunks_.At(i).read();
    for (auto it = std::lower_bound(run.begin(), run.end(), lo,
                                    TimestampBefore);
         it != run.end(); ++it) {
      if (it->first > hi) return;
      fn(it->first, it->second);
    }
  }
}

void TemporalIndex::ForEach(
    const std::function<void(Timestamp, SnippetId)>& fn) const {
  chunks_.ForEach([&fn](const Chunk& chunk) {
    for (const Entry& entry : chunk.read()) fn(entry.first, entry.second);
  });
}

std::vector<SnippetId> TemporalIndex::IdsInWindow(Timestamp lo,
                                                  Timestamp hi) const {
  std::vector<SnippetId> out;
  ForEachInWindow(lo, hi, [&out](Timestamp, SnippetId id) {
    out.push_back(id);
  });
  return out;
}

size_t TemporalIndex::CountInWindow(Timestamp lo, Timestamp hi) const {
  // An inverted window (lo > hi) is empty, matching the scan-based
  // semantics of IdsInWindow / ForEachInWindow.
  if (lo > hi) return 0;
  size_t count = 0;
  for (size_t i = FirstChunkNotBefore(lo); i < chunks_.size(); ++i) {
    const std::vector<Entry>& run = chunks_.At(i).read();
    if (run.front().first > hi) break;
    const auto begin = std::lower_bound(run.begin(), run.end(), lo,
                                        TimestampBefore);
    const auto end = std::upper_bound(run.begin(), run.end(), hi,
                                      [](Timestamp t, const Entry& e) {
                                        return t < e.first;
                                      });
    if (end > begin) count += static_cast<size_t>(end - begin);
  }
  return count;
}

std::vector<TemporalIndex::Entry> TemporalIndex::entries() const {
  std::vector<Entry> out;
  out.reserve(size_);
  chunks_.ForEach([&out](const Chunk& chunk) {
    const std::vector<Entry>& run = chunk.read();
    out.insert(out.end(), run.begin(), run.end());
  });
  return out;
}

Timestamp TemporalIndex::min_time() const {
  SP_CHECK(!empty());
  return chunks_.At(0).read().front().first;
}

Timestamp TemporalIndex::max_time() const {
  SP_CHECK(!empty());
  return chunks_.back().read().back().first;
}

}  // namespace storypivot
