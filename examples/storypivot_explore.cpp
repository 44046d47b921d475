// storypivot_explore — an interactive (stdin-driven) version of the
// demonstration's exploration interface (§4.2): load or generate a
// corpus, then browse stories per source, snippets per story, entity
// contexts, and add/remove documents live.
//
// Run it on a generated corpus:
//   ./build/examples/storypivot_cli generate /tmp/news.tsv
//   ./build/examples/storypivot_explore /tmp/news.tsv
// or with no argument to explore the embedded MH17 corpus.
//
// Commands (also printed by `help`):
//   sources                  list registered sources
//   stories [<source-id>]    story table (integrated, or one source)
//   story <id>               overview card + snippets of a story
//   entity <name>            knowledge-base context card for an entity
//   keyword <stem>           stories containing a stemmed keyword
//   search <free text>       BM25-ranked stories for a free-text query
//   diagnose                 fragmentation/contamination report
//   remove <url>             remove a document and re-align
//   stats                    engine counters
//   quit

#include <cstdio>
#include <string>

#include "core/engine.h"
#include "core/query.h"
#include "datagen/gdelt_export.h"
#include "datagen/mh17.h"
#include "eval/diagnostics.h"
#include "search/search_engine.h"
#include "text/knowledge_base.h"
#include "util/csv.h"
#include "util/strings.h"
#include "viz/ascii.h"

namespace {

using namespace storypivot;

void PrintHelp() {
  std::printf(
      "commands: sources | stories [src] | story <id> | entity <name> |\n"
      "          keyword <stem> | search <text> | diagnose | remove <url> |"
      " stats | help | quit\n");
}

void ShowStory(StoryPivotEngine& engine, StoryQuery& query, StoryId id) {
  // Search per-source stories first, then integrated ones.
  // Id lookup across a handful of partitions, not a story scan.
  for (const StorySet* partition : engine.partitions()) {  // splint: allow(full-scan)
    if (const Story* story = partition->FindStory(id)) {
      std::printf("%s", viz::RenderStoryOverview(
                            query.Overview(*story, false))
                            .c_str());
      for (const SnippetView& view : query.Snippets(*story)) {
        std::printf("  %s  %-18s %s\n",
                    FormatDateTime(view.timestamp).c_str(),
                    view.source_name.c_str(), view.description.c_str());
      }
      return;
    }
  }
  if (engine.has_alignment()) {
    for (const IntegratedStory& integrated : engine.alignment().stories) {
      if (integrated.id != id) continue;
      std::printf("%s", viz::RenderSnippetsPerStory(engine, integrated)
                            .c_str());
      std::printf("%s", viz::RenderStoryOverview(
                            query.Overview(integrated.merged, true))
                            .c_str());
      return;
    }
  }
  std::printf("no story with id %llu\n",
              static_cast<unsigned long long>(id));
}

}  // namespace

int main(int argc, char** argv) {
  StoryPivotEngine* engine = nullptr;
  std::unique_ptr<StoryPivotEngine> owned;

  if (argc > 1) {
    // TSV corpus path.
    Result<std::string> contents = ReadFileToString(argv[1]);
    if (!contents.ok()) {
      std::fprintf(stderr, "%s\n", contents.status().ToString().c_str());
      return 1;
    }
    Result<datagen::ImportedCorpus> imported =
        datagen::ImportTsv(contents.value());
    if (!imported.ok()) {
      std::fprintf(stderr, "%s\n", imported.status().ToString().c_str());
      return 1;
    }
    owned = std::make_unique<StoryPivotEngine>();
    SP_CHECK_OK(owned->ImportVocabularies(*imported.value().entity_vocabulary,
                              *imported.value().keyword_vocabulary));
    for (const SourceInfo& s : imported.value().sources) {
      owned->RegisterSource(s.name);
    }
    for (const Snippet& snippet : imported.value().snippets) {
      Snippet copy = snippet;
      copy.id = kInvalidSnippetId;
      SP_CHECK_OK(owned->AddSnippet(std::move(copy)));
    }
  } else {
    // Embedded MH17 corpus through the raw-text pipeline.
    datagen::Mh17Corpus corpus = datagen::MakeMh17Corpus();
    owned = std::make_unique<StoryPivotEngine>(NewsProseEngineConfig());
    for (const SourceInfo& s : corpus.sources) owned->RegisterSource(s.name);
    datagen::PopulateMh17Gazetteer(corpus, owned->gazetteer());
    for (const Document& doc : corpus.documents) {
      SP_CHECK_OK(owned->AddDocument(doc));
    }
  }
  engine = owned.get();
  engine->Align();
  search::SearchEngine searcher(engine);

  text::KnowledgeBase kb = text::KnowledgeBase::WithEmbeddedWorldFacts();
  StoryQuery query(engine);
  query.set_knowledge_base(&kb);

  std::printf("StoryPivot explorer — %zu snippets, %zu sources, %zu "
              "integrated stories. Type 'help'.\n",
              engine->store().size(), engine->sources().size(),
              engine->alignment().stories.size());

  char line[512];
  std::printf("> ");
  std::fflush(stdout);
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    std::string input(Trim(line));
    std::vector<std::string_view> args = Split(input, ' ');
    std::string command = args.empty() ? "" : std::string(args[0]);

    if (command == "quit" || command == "exit") break;
    if (command == "help" || command.empty()) {
      PrintHelp();
    } else if (command == "sources") {
      for (const SourceInfo& source : engine->sources()) {
        const StorySet* partition = engine->partition(source.id);
        std::printf("  %2u  %-24s %zu snippets, %zu stories\n", source.id,
                    source.name.c_str(), partition->num_snippets(),
                    partition->stories().size());
      }
    } else if (command == "stories") {
      if (args.size() > 1) {
        int64_t source = 0;
        if (ParseInt64(args[1], &source)) {
          std::printf("%s", viz::RenderStoriesPerSource(
                                *engine, static_cast<SourceId>(source))
                                .c_str());
        }
      } else {
        std::vector<StoryOverview> integrated = query.IntegratedStories();
        if (integrated.size() > 20) integrated.resize(20);
        std::printf("%s", viz::RenderStoryTable(integrated).c_str());
      }
    } else if (command == "story" && args.size() > 1) {
      int64_t id = 0;
      if (ParseInt64(args[1], &id)) {
        ShowStory(*engine, query, static_cast<StoryId>(id));
      }
    } else if (command == "entity" && args.size() > 1) {
      std::string name(input.substr(command.size() + 1));
      std::printf("%s", viz::RenderEntityContext(query.Context(name))
                            .c_str());
    } else if (command == "keyword" && args.size() > 1) {
      for (const StoryOverview& story :
           query.FindByKeyword(args[1])) {
        std::printf("  c%-5llu %s..%s %zu snippets\n",
                    static_cast<unsigned long long>(story.id),
                    FormatDate(story.start_time).c_str(),
                    FormatDate(story.end_time).c_str(),
                    story.num_snippets);
      }
    } else if (command == "search" && args.size() > 1) {
      std::string text(input.substr(command.size() + 1));
      search::ParsedQuery parsed = searcher.Parse(text);
      for (const std::string& word : parsed.unmatched) {
        std::printf("  ignored: %s\n", word.c_str());
      }
      std::vector<search::StoryHit> hits = searcher.Search(parsed);
      if (hits.empty()) std::printf("  no matching stories\n");
      for (const search::StoryHit& hit : hits) {
        const Story* story =
            engine->partition(hit.source)->FindStory(hit.story);
        std::printf("  c%-5llu score=%.3f %-18s %s..%s %zu snippets\n",
                    static_cast<unsigned long long>(hit.story), hit.score,
                    engine->SourceName(hit.source).c_str(),
                    FormatDate(story->start_time()).c_str(),
                    FormatDate(story->end_time()).c_str(), story->size());
      }
    } else if (command == "diagnose") {
      std::printf("%s", eval::DiagnoseAlignment(*engine).ToString().c_str());
    } else if (command == "remove" && args.size() > 1) {
      Status removed = engine->RemoveDocument(std::string(args[1]));
      std::printf("%s\n", removed.ToString().c_str());
      engine->Align();
    } else if (command == "stats") {
      const EngineStats& stats = engine->stats();
      std::printf("  ingested %llu, removed %llu, SI %.1f ms wall (%.1f ms "
                  "summed over shards), %llu aligns (%.1f ms), %llu "
                  "refines\n",
                  static_cast<unsigned long long>(stats.snippets_ingested),
                  static_cast<unsigned long long>(stats.snippets_removed),
                  stats.identify_time_ms, stats.identify_cpu_ms,
                  static_cast<unsigned long long>(stats.alignments_run),
                  stats.align_time_ms,
                  static_cast<unsigned long long>(stats.refinements_run));
    } else {
      PrintHelp();
    }
    std::printf("> ");
    std::fflush(stdout);
  }
  std::printf("\n");
  return 0;
}
