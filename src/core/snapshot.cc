#include "core/snapshot.h"

#include <algorithm>
#include <tuple>

#include "util/csv.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/strings.h"

namespace storypivot {
namespace {

std::string EncodeTerms(const text::TermVector& terms) {
  std::string out;
  for (const auto& [term, count] : terms.entries()) {
    if (!out.empty()) out += ";";
    out += StrFormat("%u:%g", term, count);
  }
  return out;
}

Result<text::TermVector> DecodeTerms(std::string_view encoded) {
  std::vector<text::TermVector::Entry> entries;
  if (!encoded.empty()) {
    for (std::string_view item : Split(encoded, ';')) {
      size_t colon = item.find(':');
      int64_t term = 0;
      double count = 0;
      // Weights follow the engine's rule: finite and above 0.
      if (colon == std::string_view::npos ||
          !ParseInt64(item.substr(0, colon), &term) ||
          !ParseDouble(item.substr(colon + 1), &count) || count <= 0.0) {
        return Status::InvalidArgument("bad term encoding: " +
                                       std::string(item));
      }
      entries.push_back({static_cast<text::TermId>(term), count});
    }
  }
  return text::TermVector::FromEntries(std::move(entries));
}

}  // namespace

std::string SaveSnapshot(const StoryPivotEngine& engine) {
  DsvWriter writer('\t');
  writer.WriteRow({"#storypivot-snapshot", "v2"});
  // Sources: "S", id (preserved verbatim on load), name.
  for (const SourceInfo& source : engine.sources()) {
    writer.WriteRow({"S", StrFormat("%u", source.id), source.name});
  }
  // Vocabularies in id order: "E"/"K", term.
  const text::Vocabulary& entities = engine.entity_vocabulary();
  for (text::TermId id = 0; id < entities.size(); ++id) {
    writer.WriteRow({"E", entities.TermOf(id)});
  }
  const text::Vocabulary& keywords = engine.keyword_vocabulary();
  for (text::TermId id = 0; id < keywords.size(); ++id) {
    writer.WriteRow({"K", keywords.TermOf(id)});
  }
  // Gazetteer aliases in registration order (v2): "G", entity id,
  // normalised alias. Without these, documents added after a checkpoint
  // restore would extract no entities.
  for (const auto& [entity, alias] : engine.gazetteer().aliases()) {
    writer.WriteRow({"G", StrFormat("%u", entity), alias});
  }
  // Snippets with assignments: walk partitions so the story id is known.
  for (const StorySet* partition : engine.partitions()) {
    partition->snippet_times().ForEach([&](Timestamp, SnippetId sid) {
      const Snippet* snippet = engine.store().Find(sid);
      SP_CHECK(snippet != nullptr);
      writer.WriteRow({
          "N",
          StrFormat("%llu", static_cast<unsigned long long>(snippet->id)),
          StrFormat("%u", snippet->source),
          StrFormat("%llu", static_cast<unsigned long long>(
                                partition->StoryOf(sid))),
          StrFormat("%lld", static_cast<long long>(snippet->timestamp)),
          StrFormat("%lld", static_cast<long long>(snippet->truth_story)),
          snippet->document_url,
          snippet->event_type,
          snippet->description,
          EncodeTerms(snippet->entities),
          EncodeTerms(snippet->keywords),
      });
    });
  }
  // Id counters (v2): "C", next source, next snippet, next story. Max+1
  // inference cannot reconstruct these once removals have left gaps, and
  // exact continuation of the id streams is what deterministic WAL replay
  // after a checkpoint restore depends on.
  const StoryPivotEngine::IdCounters counters = engine.id_counters();
  writer.WriteRow({
      "C",
      StrFormat("%u", counters.next_source),
      StrFormat("%llu", static_cast<unsigned long long>(counters.next_snippet)),
      StrFormat("%llu", static_cast<unsigned long long>(counters.next_story)),
  });
  return writer.contents();
}

Status SaveSnapshotToFile(const StoryPivotEngine& engine,
                          const std::string& path) {
  return WriteStringToFile(path, SaveSnapshot(engine));
}

Result<std::unique_ptr<StoryPivotEngine>> LoadSnapshot(
    const std::string& contents, EngineConfig config) {
  DsvReader reader('\t');
  ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> rows,
                   reader.Parse(contents));
  if (rows.empty() || rows[0].size() != 2 ||
      rows[0][0] != "#storypivot-snapshot" ||
      (rows[0][1] != "v1" && rows[0][1] != "v2")) {
    return Status::InvalidArgument("not a v1/v2 storypivot snapshot");
  }

  auto engine = std::make_unique<StoryPivotEngine>(config);

  for (size_t r = 1; r < rows.size(); ++r) {
    const std::vector<std::string>& row = rows[r];
    if (row.empty()) continue;
    const std::string& kind = row[0];
    auto bad = [&](const char* what) {
      return Status::InvalidArgument(
          StrFormat("snapshot row %zu: %s", r, what));
    };
    if (kind == "S") {
      if (row.size() != 3) return bad("source row needs 3 fields");
      int64_t id = 0;
      if (!ParseInt64(row[1], &id) || id < 0 ||
          id >= static_cast<int64_t>(kInvalidSourceId)) {
        return bad("bad source id");
      }
      RETURN_IF_ERROR(
          engine->AdoptSource(static_cast<SourceId>(id), row[2]));
    } else if (kind == "G") {
      if (row.size() != 3) return bad("gazetteer row needs 3 fields");
      int64_t entity = 0;
      const StoryPivotEngine& built = *engine;
      if (!ParseInt64(row[1], &entity) || entity < 0 ||
          static_cast<size_t>(entity) >= built.entity_vocabulary().size()) {
        return bad("gazetteer entity id out of vocabulary range");
      }
      engine->gazetteer()->AddAlias(static_cast<text::TermId>(entity),
                                    row[2]);
    } else if (kind == "E" || kind == "K") {
      if (row.size() != 2) return bad("vocabulary row needs 2 fields");
      text::Vocabulary* vocab = kind == "E" ? engine->entity_vocabulary()
                                            : engine->keyword_vocabulary();
      vocab->Intern(row[1]);
    } else if (kind == "N") {
      if (row.size() != 11) return bad("snippet row needs 11 fields");
      Snippet snippet;
      int64_t id = 0, story = 0, ts = 0, truth = 0, source = 0;
      if (!ParseInt64(row[1], &id) || !ParseInt64(row[2], &source) ||
          !ParseInt64(row[3], &story) || !ParseInt64(row[4], &ts) ||
          !ParseInt64(row[5], &truth)) {
        return bad("bad numeric field");
      }
      snippet.id = static_cast<SnippetId>(id);
      snippet.source = static_cast<SourceId>(source);
      if (engine->partition(snippet.source) == nullptr) {
        return bad("unknown source");
      }
      snippet.timestamp = ts;
      snippet.truth_story = truth;
      snippet.document_url = row[6];
      snippet.event_type = row[7];
      snippet.description = row[8];
      Result<text::TermVector> entities = DecodeTerms(row[9]);
      Result<text::TermVector> keywords = DecodeTerms(row[10]);
      if (!entities.ok() || !keywords.ok()) {
        return Status::InvalidArgument(StrFormat(
            "snapshot row %zu, snippet %lld: %s", r,
            static_cast<long long>(id),
            (entities.ok() ? keywords : entities).status().message().c_str()));
      }
      snippet.entities = std::move(entities).value();
      snippet.keywords = std::move(keywords).value();
      RETURN_IF_ERROR(engine->AdoptAssignment(
          std::move(snippet), static_cast<StoryId>(story)));
    } else if (kind == "C") {
      if (row.size() != 4) return bad("counter row needs 4 fields");
      int64_t source = 0, snippet = 0, story = 0;
      if (!ParseInt64(row[1], &source) || !ParseInt64(row[2], &snippet) ||
          !ParseInt64(row[3], &story) || source < 0 || snippet < 0 ||
          story < 0) {
        return bad("bad counter field");
      }
      StoryPivotEngine::IdCounters counters;
      counters.next_source = static_cast<SourceId>(source);
      counters.next_snippet = static_cast<SnippetId>(snippet);
      counters.next_story = static_cast<StoryId>(story);
      RETURN_IF_ERROR(engine->AdoptIdCounters(counters));
    } else {
      return bad("unknown record kind");
    }
  }
  return engine;
}

Result<std::unique_ptr<StoryPivotEngine>> LoadSnapshotFromFile(
    const std::string& path, EngineConfig config) {
  ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  return LoadSnapshot(contents, config);
}

uint64_t EngineStateFingerprint(const StoryPivotEngine& engine) {
  std::vector<std::tuple<SourceId, SnippetId, StoryId>> triples;
  for (const SourceInfo& info : engine.sources()) {
    const StorySet* partition = engine.partition(info.id);
    SP_CHECK(partition != nullptr);
    partition->snippet_times().ForEach([&](Timestamp, SnippetId sid) {
      triples.emplace_back(info.id, sid, partition->StoryOf(sid));
    });
  }
  std::sort(triples.begin(), triples.end());
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& [source, snippet, story] : triples) {
    h = HashCombine(h, SplitMix64(source));
    h = HashCombine(h, SplitMix64(snippet));
    h = HashCombine(h, SplitMix64(story));
  }
  return h;
}

}  // namespace storypivot
