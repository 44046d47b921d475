#include "core/snapshot.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string_view>
#include <tuple>
#include <utility>

#include "util/csv.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/strings.h"

namespace storypivot {
namespace {

constexpr char kDelimiter = '\t';

/// Appends `value` in its shortest form (std::to_chars): for integers
/// what %llu / %lld print, for doubles the shortest text that reads back
/// to the same bits. For integer weights below 1e5 that is also what %g
/// prints, so checkpoints of such weights keep the bytes %g-era writers
/// gave them.
template <typename T>
void AppendNumber(T value, std::string* out) {
  char buf[32];
  const std::to_chars_result printed =
      std::to_chars(buf, buf + sizeof(buf), value);
  SP_CHECK(printed.ec == std::errc());
  out->append(buf, printed.ptr);
}

/// Parses all of `text` as a T: no whitespace, no sign other than '-'.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const std::from_chars_result parsed = std::from_chars(text.data(), end, *out);
  return parsed.ec == std::errc() && parsed.ptr == end;
}

/// Appends "term:weight;term:weight…", which never needs quoting.
void AppendTerms(const text::TermVector& terms, std::string* out) {
  bool first = true;
  for (const auto& [term, weight] : terms.entries()) {
    if (!first) out->push_back(';');
    first = false;
    AppendNumber(term, out);
    out->push_back(':');
    AppendNumber(weight, out);
  }
}

Result<text::TermVector> DecodeTerms(std::string_view encoded) {
  std::vector<text::TermVector::Entry> entries;
  // "" is no terms; otherwise every ';'-separated item, empty ones
  // included, must be a term:weight pair.
  for (size_t begin = 0; !encoded.empty();) {
    const size_t semi = encoded.find(';', begin);
    const std::string_view item = encoded.substr(begin, semi - begin);
    const size_t colon = item.find(':');
    text::TermId term = 0;
    double weight = 0;
    // Weights follow the engine's rule: finite and above 0.
    if (colon == std::string_view::npos ||
        !ParseNumber(item.substr(0, colon), &term) ||
        !ParseNumber(item.substr(colon + 1), &weight) ||
        !std::isfinite(weight) || weight <= 0.0) {
      return Status::InvalidArgument("bad term encoding: " +
                                     std::string(item));
    }
    entries.push_back({term, weight});
    if (semi == std::string_view::npos) break;
    begin = semi + 1;
  }
  return text::TermVector::FromEntries(std::move(entries));
}

/// Applies snapshot row `r` (the header is row 0) to `engine`.
Status LoadRow(size_t r, const std::vector<std::string_view>& row,
               StoryPivotEngine* engine) {
  const std::string_view kind = row[0];
  auto bad = [r](const char* what) {
    return Status::InvalidArgument(StrFormat("snapshot row %zu: %s", r, what));
  };
  if (kind == "S") {
    if (row.size() != 3) return bad("source row needs 3 fields");
    int64_t id = 0;
    if (!ParseNumber(row[1], &id) || id < 0 ||
        id >= static_cast<int64_t>(kInvalidSourceId)) {
      return bad("bad source id");
    }
    return engine->AdoptSource(static_cast<SourceId>(id), std::string(row[2]));
  }
  if (kind == "G") {
    if (row.size() != 3) return bad("gazetteer row needs 3 fields");
    int64_t entity = 0;
    const StoryPivotEngine& built = *engine;
    if (!ParseNumber(row[1], &entity) || entity < 0 ||
        static_cast<size_t>(entity) >= built.entity_vocabulary().size()) {
      return bad("gazetteer entity id out of vocabulary range");
    }
    engine->gazetteer()->AddAlias(static_cast<text::TermId>(entity), row[2]);
    return Status::OK();
  }
  if (kind == "E" || kind == "K") {
    if (row.size() != 2) return bad("vocabulary row needs 2 fields");
    text::Vocabulary* vocab = kind == "E" ? engine->entity_vocabulary()
                                          : engine->keyword_vocabulary();
    vocab->Intern(row[1]);
    return Status::OK();
  }
  if (kind == "N") {
    if (row.size() != 11) return bad("snippet row needs 11 fields");
    Snippet snippet;
    int64_t id = 0, story = 0, ts = 0, truth = 0, source = 0;
    if (!ParseNumber(row[1], &id) || !ParseNumber(row[2], &source) ||
        !ParseNumber(row[3], &story) || !ParseNumber(row[4], &ts) ||
        !ParseNumber(row[5], &truth)) {
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
          "snapshot row %zu, snippet %lld: %s", r, static_cast<long long>(id),
          (entities.ok() ? keywords : entities).status().message().c_str()));
    }
    snippet.entities = std::move(entities).value();
    snippet.keywords = std::move(keywords).value();
    return engine
        ->AdoptAssignment(std::move(snippet), static_cast<StoryId>(story))
        .status();
  }
  if (kind == "C") {
    if (row.size() != 4) return bad("counter row needs 4 fields");
    int64_t source = 0, snippet = 0, story = 0;
    if (!ParseNumber(row[1], &source) || !ParseNumber(row[2], &snippet) ||
        !ParseNumber(row[3], &story) || source < 0 || snippet < 0 ||
        story < 0) {
      return bad("bad counter field");
    }
    StoryPivotEngine::IdCounters counters;
    counters.next_source = static_cast<SourceId>(source);
    counters.next_snippet = static_cast<SnippetId>(snippet);
    counters.next_story = static_cast<StoryId>(story);
    return engine->AdoptIdCounters(counters);
  }
  return bad("unknown record kind");
}

}  // namespace

std::string SaveSnapshot(const StoryPivotEngine& engine) {
  std::string out = "#storypivot-snapshot\tv2\n";
  auto field = [&out](std::string_view text) {
    out.push_back(kDelimiter);
    AppendDsvField(text, kDelimiter, &out);
  };
  auto number = [&out](auto value) {
    out.push_back(kDelimiter);
    AppendNumber(value, &out);
  };
  // Sources: "S", id (preserved verbatim on load), name.
  for (const SourceInfo& source : engine.sources()) {
    out.push_back('S');
    number(source.id);
    field(source.name);
    out.push_back('\n');
  }
  // Vocabularies in id order: "E"/"K", term.
  for (const auto& [kind, vocab] :
       {std::pair{'E', &engine.entity_vocabulary()},
        std::pair{'K', &engine.keyword_vocabulary()}}) {
    for (text::TermId id = 0; id < vocab->size(); ++id) {
      out.push_back(kind);
      field(vocab->TermOf(id));
      out.push_back('\n');
    }
  }
  // Gazetteer aliases in registration order (v2): "G", entity id,
  // normalised alias. Without these, documents added after a checkpoint
  // restore would extract no entities.
  for (const auto& [entity, alias] : engine.gazetteer().aliases()) {
    out.push_back('G');
    number(entity);
    field(alias);
    out.push_back('\n');
  }
  // Snippets with assignments: walk partitions so the story id is known.
  for (const StorySet* partition : engine.partitions()) {
    partition->snippet_times().ForEach([&](Timestamp, SnippetId sid) {
      const Snippet* snippet = engine.store().Find(sid);
      SP_CHECK(snippet != nullptr);
      out.push_back('N');
      number(snippet->id);
      number(snippet->source);
      number(partition->StoryOf(sid));
      number(snippet->timestamp);
      number(snippet->truth_story);
      field(snippet->document_url);
      field(snippet->event_type);
      field(snippet->description);
      out.push_back(kDelimiter);
      AppendTerms(snippet->entities, &out);
      out.push_back(kDelimiter);
      AppendTerms(snippet->keywords, &out);
      out.push_back('\n');
    });
  }
  // Id counters (v2): "C", next source, next snippet, next story. Max+1
  // inference cannot reconstruct these once removals have left gaps, and
  // exact continuation of the id streams is what deterministic WAL replay
  // after a checkpoint restore depends on.
  const StoryPivotEngine::IdCounters counters = engine.id_counters();
  out.push_back('C');
  number(counters.next_source);
  number(counters.next_snippet);
  number(counters.next_story);
  out.push_back('\n');
  return out;
}

Status SaveSnapshotToFile(const StoryPivotEngine& engine,
                          const std::string& path) {
  return WriteStringToFile(path, SaveSnapshot(engine));
}

Result<std::unique_ptr<StoryPivotEngine>> LoadSnapshot(
    const std::string& contents, EngineConfig config) {
  auto engine = std::make_unique<StoryPivotEngine>(config);
  // Rows are applied as they are read, as views over `contents`.
  size_t rows = 0;
  RETURN_IF_ERROR(DsvReader(kDelimiter).Visit(
      contents,
      [&](size_t, const std::vector<std::string_view>& row) -> Status {
        const size_t r = rows++;
        if (r > 0) return LoadRow(r, row, engine.get());
        if (row.size() != 2 || row[0] != "#storypivot-snapshot" ||
            (row[1] != "v1" && row[1] != "v2")) {
          return Status::InvalidArgument("not a v1/v2 storypivot snapshot");
        }
        return Status::OK();
      }));
  if (rows == 0) {
    return Status::InvalidArgument("not a v1/v2 storypivot snapshot");
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
