#include "serve/query_cache.h"

#include <algorithm>
#include <tuple>

#include "util/strings.h"

namespace storypivot::serve {

std::string QueryCache::Key(uint64_t epoch,
                            const search::ParsedQuery& query,
                            const search::SearchOptions& options) {
  // Sort a copy of the terms so surface order doesn't split entries.
  // (field, term, event_type) is a total order: vocabulary fields have
  // empty event_type, the event field has kInvalidTermId.
  std::vector<search::QueryTerm> terms = query.terms;
  std::sort(terms.begin(), terms.end(),
            [](const search::QueryTerm& a, const search::QueryTerm& b) {
              return std::tie(a.field, a.term, a.event_type) <
                     std::tie(b.field, b.term, b.event_type);
            });
  std::string key = StrFormat("e%llu|", static_cast<unsigned long long>(epoch));
  for (const search::QueryTerm& term : terms) {
    key += StrFormat("%u:%llu:", static_cast<unsigned>(term.field),
                     static_cast<unsigned long long>(term.term));
    key += term.event_type;
    key += ';';
  }
  // Every option that affects ranking.
  key += StrFormat("|k=%llu m=%u ft=%d f=%lld t=%lld",
                   static_cast<unsigned long long>(options.k),
                   static_cast<unsigned>(options.mode),
                   options.filter_time ? 1 : 0,
                   static_cast<long long>(options.from),
                   static_cast<long long>(options.to));
  return key;
}

bool QueryCache::Lookup(const std::string& key,
                        std::vector<search::StoryHit>* hits) {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // Refresh recency.
  *hits = it->second->hits;
  ++hits_;
  return true;
}

void QueryCache::Insert(const std::string& key, uint64_t epoch,
                        std::vector<search::StoryHit> hits) {
  if (capacity_ == 0) return;
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second->epoch = epoch;
    it->second->hits = std::move(hits);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(Entry{key, epoch, std::move(hits)});
  entries_[key] = lru_.begin();
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back().key);
    lru_.pop_back();
    ++evicted_by_capacity_;
  }
}

size_t QueryCache::EvictBelowEpoch(uint64_t epoch) {
  MutexLock lock(mu_);
  size_t evicted = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->epoch < epoch) {
      entries_.erase(it->key);
      it = lru_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  evicted_by_epoch_ += evicted;
  return evicted;
}

QueryCache::Stats QueryCache::GetStats() const {
  MutexLock lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evicted_by_capacity = evicted_by_capacity_;
  stats.evicted_by_epoch = evicted_by_epoch_;
  stats.evictions = evicted_by_capacity_ + evicted_by_epoch_;
  stats.size = entries_.size();
  stats.capacity = capacity_;
  return stats;
}

}  // namespace storypivot::serve
