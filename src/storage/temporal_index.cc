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
  const std::vector<Chunk>& chunks = chunks_.read();
  size_t lo = 0, hi = chunks.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (chunks[mid].read().back() < entry) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t TemporalIndex::FirstChunkNotBefore(Timestamp ts) const {
  const std::vector<Chunk>& chunks = chunks_.read();
  size_t lo = 0, hi = chunks.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (chunks[mid].read().back().first < ts) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void TemporalIndex::Insert(Timestamp ts, SnippetId id) {
  const Entry entry{ts, id};
  std::vector<Chunk>* chunks = chunks_.Mutate();
  if (chunks->empty()) {
    chunks->emplace_back(std::vector<Entry>{entry});
    size_ = 1;
    return;
  }
  const size_t index = ChunkFor(entry);
  std::vector<Entry>* run = (*chunks)[index].Mutate();
  run->insert(std::lower_bound(run->begin(), run->end(), entry), entry);
  ++size_;
  if (run->size() > kMaxChunk) {
    // Both halves are built fresh; every other chunk stays shared.
    const auto half = run->begin() + static_cast<ptrdiff_t>(run->size() / 2);
    Chunk high(std::vector<Entry>(half, run->end()));
    (*chunks)[index] = Chunk(std::vector<Entry>(run->begin(), half));
    chunks->insert(chunks->begin() + static_cast<ptrdiff_t>(index) + 1,
                   std::move(high));
  }
}

bool TemporalIndex::Erase(Timestamp ts, SnippetId id) {
  if (chunks_->empty()) return false;
  const Entry entry{ts, id};
  const size_t index = ChunkFor(entry);
  const std::vector<Entry>& run = chunks_.read()[index].read();
  const auto it = std::lower_bound(run.begin(), run.end(), entry);
  if (it == run.end() || *it != entry) return false;
  const bool last = run.size() == 1;
  const auto offset = it - run.begin();
  std::vector<Chunk>* chunks = chunks_.Mutate();
  if (last) {
    chunks->erase(chunks->begin() + static_cast<ptrdiff_t>(index));
  } else {
    std::vector<Entry>* writable = (*chunks)[index].Mutate();
    writable->erase(writable->begin() + offset);
  }
  --size_;
  return true;
}

void TemporalIndex::ForEachInWindow(
    Timestamp lo, Timestamp hi,
    const std::function<void(Timestamp, SnippetId)>& fn) const {
  const std::vector<Chunk>& chunks = chunks_.read();
  for (size_t i = FirstChunkNotBefore(lo); i < chunks.size(); ++i) {
    const std::vector<Entry>& run = chunks[i].read();
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
  for (const Chunk& chunk : chunks_.read()) {
    for (const Entry& entry : chunk.read()) fn(entry.first, entry.second);
  }
}

std::vector<SnippetId> TemporalIndex::IdsInWindow(Timestamp lo,
                                                  Timestamp hi) const {
  std::vector<SnippetId> out;
  ForEachInWindow(lo, hi, [&out](Timestamp, SnippetId id) {
    out.push_back(id);
  });
  return out;
}

std::vector<TemporalIndex::Entry> TemporalIndex::entries() const {
  std::vector<Entry> out;
  out.reserve(size_);
  for (const Chunk& chunk : chunks_.read()) {
    const std::vector<Entry>& run = chunk.read();
    out.insert(out.end(), run.begin(), run.end());
  }
  return out;
}

Timestamp TemporalIndex::min_time() const {
  SP_CHECK(!empty());
  return chunks_->front().read().front().first;
}

Timestamp TemporalIndex::max_time() const {
  SP_CHECK(!empty());
  return chunks_->back().read().back().first;
}

}  // namespace storypivot
