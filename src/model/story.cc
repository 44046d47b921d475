#include "model/story.h"

#include <algorithm>

#include "util/logging.h"

namespace storypivot {

void Story::InsertSorted(SnippetId id, Timestamp ts) {
  // Find insert position by (timestamp, id).
  size_t pos = snippets_.size();
  for (size_t i = snippets_.size(); i > 0; --i) {
    if (snippet_times_[i - 1] < ts ||
        (snippet_times_[i - 1] == ts && snippets_[i - 1] < id)) {
      pos = i;
      break;
    }
    pos = i - 1;
  }
  snippets_.insert(snippets_.begin() + pos, id);
  snippet_times_.insert(snippet_times_.begin() + pos, ts);
}

void Story::AddSnippet(const Snippet& snippet) {
  if (snippets_.empty()) {
    start_time_ = snippet.timestamp;
    end_time_ = snippet.timestamp;
  } else {
    start_time_ = std::min(start_time_, snippet.timestamp);
    end_time_ = std::max(end_time_, snippet.timestamp);
  }
  InsertSorted(snippet.id, snippet.timestamp);
  sources_.insert(snippet.source);
  entities_.Merge(snippet.entities);
  keywords_.Merge(snippet.keywords);
}

void Story::RemoveSnippet(const Snippet& snippet,
                          const std::vector<const Snippet*>& survivors) {
  auto it = std::find(snippets_.begin(), snippets_.end(), snippet.id);
  SP_CHECK(it != snippets_.end());
  size_t idx = static_cast<size_t>(it - snippets_.begin());
  snippets_.erase(it);
  snippet_times_.erase(snippet_times_.begin() + idx);
  entities_.Subtract(snippet.entities);
  keywords_.Subtract(snippet.keywords);
  // Recompute source set and span from the survivors.
  sources_.clear();
  if (survivors.empty()) {
    start_time_ = 0;
    end_time_ = 0;
    return;
  }
  start_time_ = survivors.front()->timestamp;
  end_time_ = survivors.front()->timestamp;
  for (const Snippet* s : survivors) {
    sources_.insert(s->source);
    start_time_ = std::min(start_time_, s->timestamp);
    end_time_ = std::max(end_time_, s->timestamp);
  }
}

bool Story::Contains(SnippetId id) const {
  return std::find(snippets_.begin(), snippets_.end(), id) !=
         snippets_.end();
}

void Story::MergeFrom(const Story& other) {
  if (!other.snippets_.empty()) {
    if (snippets_.empty()) {
      start_time_ = other.start_time_;
      end_time_ = other.end_time_;
    } else {
      start_time_ = std::min(start_time_, other.start_time_);
      end_time_ = std::max(end_time_, other.end_time_);
    }
    // Merge the two (timestamp, id)-sorted lists in place, from the back:
    // the larger of the two tails moves to the end of the grown list.
    size_t a = snippets_.size();
    size_t b = other.snippets_.size();
    snippets_.resize(a + b);
    snippet_times_.resize(a + b);
    for (size_t out = a + b; b > 0; --out) {
      const bool take_this =
          a > 0 && (snippet_times_[a - 1] != other.snippet_times_[b - 1]
                        ? snippet_times_[a - 1] > other.snippet_times_[b - 1]
                        : snippets_[a - 1] > other.snippets_[b - 1]);
      if (take_this) {
        --a;
        snippets_[out - 1] = snippets_[a];
        snippet_times_[out - 1] = snippet_times_[a];
      } else {
        --b;
        snippets_[out - 1] = other.snippets_[b];
        snippet_times_[out - 1] = other.snippet_times_[b];
      }
    }
  }
  sources_.insert(other.sources_.begin(), other.sources_.end());
  entities_.Merge(other.entities_);
  keywords_.Merge(other.keywords_);
}

}  // namespace storypivot
