// Casual-reader use case (§3) under live conditions (§2.4): a monitor
// that consumes snippets in publication order (event timestamps out of
// order), periodically re-aligns, and prints a live digest — which
// stories are "hot" right now, which just emerged, and the timeline of a
// story the reader follows.
//
// With `--wal-dir DIR` the stream runs through the durability layer
// (DESIGN.md §10): every ingested snippet is write-ahead logged before it
// is acknowledged, so a crash mid-stream loses at most the unsynced tail.
// Inspect or resume the recorded state with `storypivot_cli recover DIR`.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>

#include "core/engine.h"
#include "core/query.h"
#include "core/trends.h"
#include "datagen/corpus.h"
#include "model/time.h"
#include "persist/durable_engine.h"
#include "viz/ascii.h"

int main(int argc, char** argv) {
  using namespace storypivot;

  std::string wal_dir;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--wal-dir") == 0) wal_dir = argv[i + 1];
  }

  datagen::CorpusConfig corpus_config;
  corpus_config.seed = 123;
  corpus_config.num_sources = 6;
  corpus_config.num_stories = 18;
  corpus_config.target_num_snippets = 3000;
  corpus_config.mean_report_delay_hours = 30;
  datagen::Corpus corpus =
      datagen::CorpusGenerator(corpus_config).Generate();

  std::unique_ptr<persist::DurableEngine> durable;
  std::unique_ptr<StoryPivotEngine> plain;
  if (!wal_dir.empty()) {
    persist::DurabilityOptions options;
    options.checkpoint_every_ops = 1000;
    Result<std::unique_ptr<persist::DurableEngine>> opened =
        persist::DurableEngine::Open(wal_dir, options);
    SP_CHECK_OK(opened.status());
    durable = std::move(opened.value());
    if (durable->next_lsn() != 0) {
      std::fprintf(stderr,
                   "%s already holds a recorded run — inspect it with "
                   "`storypivot_cli recover %s` or pass an empty "
                   "directory\n",
                   wal_dir.c_str(), wal_dir.c_str());
      return 1;
    }
  } else {
    plain = std::make_unique<StoryPivotEngine>();
  }
  // A pointer, not a reference: a successful Reopen() replaces the
  // durable engine's engine object.
  StoryPivotEngine* engine = durable ? &durable->engine() : plain.get();

  // Mutations go through the durability layer when it is on; reads always
  // go straight to the engine.
  auto add_snippet = [&](const Snippet& snippet) -> Status {
    Snippet copy = snippet;
    if (durable) return durable->AddSnippet(std::move(copy)).status();
    return engine->AddSnippet(std::move(copy)).status();
  };
  auto realign = [&] {
    if (durable && !durable->degraded()) {
      SP_CHECK_OK(durable->Align());
    } else {
      // Degraded engines are read-only, so nothing further will be
      // logged and an unlogged align cannot desynchronise replay.
      engine->Align();
    }
  };

  if (durable) {
    SP_CHECK_OK(durable->ImportVocabularies(*corpus.entity_vocabulary,
                                            *corpus.keyword_vocabulary));
    for (const SourceInfo& source : corpus.sources) {
      SP_CHECK_OK(durable->RegisterSource(source.name));
    }
  } else {
    if (!engine
             ->ImportVocabularies(*corpus.entity_vocabulary,
                                  *corpus.keyword_vocabulary)
             .ok()) {
      return 1;
    }
    for (const SourceInfo& source : corpus.sources) {
      engine->RegisterSource(source.name);
    }
  }

  StoryQuery query(engine);
  std::set<StoryId> seen_stories;
  const size_t digest_every = corpus.snippets.size() / 5;

  for (size_t i = 0; i < corpus.snippets.size(); ++i) {
    Snippet copy = corpus.snippets[i];
    copy.id = kInvalidSnippetId;
    const uint64_t lsn = durable ? durable->next_lsn() : 0;
    Status added = add_snippet(copy);
    if (added.code() == StatusCode::kDegraded) {
      // A WAL failure dropped the durable engine into read-only degraded
      // mode (DESIGN.md §12). Surface the cause and try ONE in-place
      // recovery: Reopen() rebuilds from the log-consistent state on
      // disk, in a new engine object. Re-ingest the rejected snippet
      // only if recovery dropped it; a failed withdraw can leave its
      // record in the log, and next_lsn() then moved. If recovery fails
      // too, stop the stream and fall through to the final digest,
      // which only needs reads.
      std::fprintf(
          stderr,
          "monitor: durable engine degraded at snippet %zu (%s); "
          "attempting in-place recovery\n",
          i, std::string(durable->degraded_cause().message()).c_str());
      if (durable->Reopen().ok()) {
        engine = &durable->engine();
        query = StoryQuery(engine);
        added = durable->next_lsn() == lsn ? add_snippet(copy) : Status::OK();
      }
    }
    if (!added.ok()) {
      std::fprintf(stderr,
                   "monitor: ingest stopped after %zu snippets: %s\n", i,
                   added.ToString().c_str());
      break;
    }

    if ((i + 1) % digest_every != 0) continue;

    // ---- Periodic digest.
    Timestamp now = corpus.arrivals[i];
    realign();
    std::printf(
        "================ digest @ %s (%zu snippets ingested) "
        "================\n",
        FormatDateTime(now).c_str(), i + 1);

    // Hot stories: most snippets with event time in the last 14 days.
    struct Hot {
      const IntegratedStory* story;
      int recent;
    };
    std::vector<Hot> hot;
    for (const IntegratedStory& story : engine->alignment().stories) {
      int recent = 0;
      for (SnippetId sid : story.merged.snippets()) {
        const Snippet* snippet = engine->store().Find(sid);
        if (snippet->timestamp >= now - 14 * kSecondsPerDay &&
            snippet->timestamp <= now) {
          ++recent;
        }
      }
      if (recent > 0) hot.push_back({&story, recent});
    }
    std::sort(hot.begin(), hot.end(), [](const Hot& a, const Hot& b) {
      return a.recent > b.recent;
    });

    std::printf("hot stories (last 14 days):\n");
    for (size_t h = 0; h < hot.size() && h < 4; ++h) {
      StoryOverview overview =
          query.Overview(hot[h].story->merged, true, 3);
      std::string entities, keywords;
      for (const auto& [term, count] : overview.top_entities) {
        if (!entities.empty()) entities += ", ";
        entities += term;
      }
      for (const auto& [term, count] : overview.top_keywords) {
        if (!keywords.empty()) keywords += " ";
        keywords += term;
      }
      bool is_new = seen_stories.insert(hot[h].story->id).second &&
                    overview.start_time >= now - 21 * kSecondsPerDay;
      std::printf("  %s [%2d recent, %3zu total, %zu sources] %s — %s\n",
                  is_new ? "NEW" : "   ", hot[h].recent,
                  overview.num_snippets, overview.source_names.size(),
                  entities.c_str(), keywords.c_str());
    }
    std::printf("\n");
  }

  // ---- Follow one story: full cross-source timeline for the biggest.
  realign();
  const IntegratedStory* followed = nullptr;
  for (const IntegratedStory& story : engine->alignment().stories) {
    if (followed == nullptr ||
        story.merged.size() > followed->merged.size()) {
      followed = &story;
    }
  }
  if (followed != nullptr) {
    std::printf("==== Following the biggest story to date ====\n%s\n",
                viz::RenderSnippetsPerStory(*engine, *followed).c_str());
    std::printf("%s\n",
                viz::RenderStoryOverview(
                    query.Overview(followed->merged, true))
                    .c_str());
    // Activity sparkline: the story's temporal footprint at a glance.
    ActivitySeries series =
        BuildActivitySeries(*engine, followed->merged);
    std::printf("activity: %s\n",
                viz::RenderActivitySparkline(series).c_str());
  }

  // ---- Trend detection (§1): which stories are bursting right now?
  Timestamp now = corpus.arrivals.back();
  std::vector<TrendingStory> trending = DetectTrendingStories(*engine, now);
  std::printf("==== Trending at %s ====\n", FormatDate(now).c_str());
  if (trending.empty()) {
    std::printf("  (no bursting stories — the stream has wound down)\n");
  }
  size_t shown = 0;
  for (const TrendingStory& t : trending) {
    if (shown++ >= 5) break;
    for (const IntegratedStory& story : engine->alignment().stories) {
      if (story.id != t.story) continue;
      StoryOverview overview = query.Overview(story.merged, true, 3);
      std::string entities;
      for (const auto& [term, count] : overview.top_entities) {
        if (!entities.empty()) entities += ", ";
        entities += term;
      }
      std::printf("  %s burst x%-6.1f %2d recent  %s\n",
                  t.emerging ? "NEW" : "   ",
                  t.burst_ratio, t.recent_count, entities.c_str());
    }
  }
  std::printf("engine totals: %llu ingested, SI %.1f ms wall (%.1f ms "
              "summed over shards), %llu alignments (%.1f ms)\n",
              static_cast<unsigned long long>(
                  engine->stats().snippets_ingested),
              engine->stats().identify_time_ms,
              engine->stats().identify_cpu_ms,
              static_cast<unsigned long long>(engine->stats().alignments_run),
              engine->stats().align_time_ms);
  if (durable) {
    if (durable->degraded()) {
      // No checkpoint/close on a degraded engine: its WAL is the
      // log-consistent record, and the unlogged tail above was
      // display-only.
      std::fprintf(stderr,
                   "monitor: finished DEGRADED (%s); on-disk state is "
                   "the acknowledged prefix — inspect it with "
                   "`storypivot_cli recover %s`\n",
                   std::string(
                       durable->degraded_cause().message()).c_str(),
                   wal_dir.c_str());
      return 1;
    }
    const uint64_t ops = durable->next_lsn();
    SP_CHECK_OK(durable->Checkpoint());
    SP_CHECK_OK(durable->Close());
    std::printf("durable: %llu ops checkpointed under %s\n",
                static_cast<unsigned long long>(ops), wal_dir.c_str());
  }
  return 0;
}
