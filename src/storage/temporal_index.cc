#include "storage/temporal_index.h"

#include <algorithm>

#include "util/logging.h"

namespace storypivot {

namespace {

bool TimestampBefore(const TemporalIndex::Entry& entry, Timestamp ts) {
  return entry.first < ts;
}

}  // namespace

size_t TemporalIndex::FirstRunNotBefore(Timestamp ts) const {
  const std::vector<Entries::Run>& runs = entries_.runs();
  size_t lo = 0, hi = runs.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (runs[mid].read().back().first < ts) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void TemporalIndex::ForEachInWindow(
    Timestamp lo, Timestamp hi,
    const std::function<void(Timestamp, SnippetId)>& fn) const {
  const std::vector<Entries::Run>& runs = entries_.runs();
  for (size_t i = FirstRunNotBefore(lo); i < runs.size(); ++i) {
    const std::vector<Entry>& run = runs[i].read();
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
  for (const Entries::Run& run : entries_.runs()) {
    for (const Entry& entry : run.read()) fn(entry.first, entry.second);
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

Timestamp TemporalIndex::min_time() const {
  SP_CHECK(!empty());
  return entries_.runs().front().read().front().first;
}

Timestamp TemporalIndex::max_time() const {
  SP_CHECK(!empty());
  return entries_.runs().back().read().back().first;
}

}  // namespace storypivot
