#include "datagen/gdelt_export.h"

#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/time.h"
#include "util/csv.h"
#include "util/strings.h"

namespace storypivot::datagen {
namespace {

std::string JoinTerms(const text::TermVector& terms,
                      const text::Vocabulary& vocab, bool with_counts) {
  std::string out;
  for (const auto& [id, count] : terms.entries()) {
    if (!out.empty()) out += ";";
    out += vocab.TermOf(id);
    if (with_counts) out += StrFormat(":%g", count);
  }
  return out;
}

}  // namespace

std::string ExportTsv(const Corpus& corpus) {
  DsvWriter writer('\t');
  writer.WriteRow({"id", "source", "event_type", "event_date", "entities",
                   "keywords", "description", "url", "truth"});
  for (const Snippet& s : corpus.snippets) {
    writer.WriteRow({
        StrFormat("%llu", static_cast<unsigned long long>(s.id)),
        corpus.sources[s.source].name,
        s.event_type,
        FormatDateTime(s.timestamp),
        JoinTerms(s.entities, *corpus.entity_vocabulary,
                  /*with_counts=*/false),
        JoinTerms(s.keywords, *corpus.keyword_vocabulary,
                  /*with_counts=*/true),
        s.description,
        s.document_url,
        StrFormat("%lld", static_cast<long long>(s.truth_story)),
    });
  }
  return writer.contents();
}

Status ExportTsvToFile(const Corpus& corpus, const std::string& path) {
  return WriteStringToFile(path, ExportTsv(corpus));
}

namespace {

/// Parses one data row into a snippet. Validation (field count, id,
/// date, keyword weights, truth) happens BEFORE any shared state is
/// touched, so a rejected row leaves no trace in the vocabularies or
/// source table — that is what makes permissive-mode quarantine safe. A
/// keyword weight must parse as a finite number above 0; one without a
/// ":weight" counts 1. The truth story is empty (unlabelled, -1) or an
/// integer >= -1.
Status ImportRow(const std::vector<std::string>& row, ImportedCorpus* out,
                 std::unordered_map<std::string, SourceId>* source_ids) {
  if (row.size() != 9) {
    return Status::InvalidArgument(
        StrFormat("expected 9 fields, got %zu", row.size()));
  }
  Snippet s;
  int64_t id = 0;
  if (!ParseInt64(row[0], &id)) {
    return Status::InvalidArgument("bad id \"" + row[0] + "\"");
  }
  s.id = static_cast<SnippetId>(id);

  if (!ParseDateTime(row[3], &s.timestamp)) {
    return Status::InvalidArgument("bad date \"" + row[3] +
                                   "\": want YYYY-MM-DD HH:MM or YYYY-MM-DD");
  }

  std::vector<std::pair<std::string_view, double>> keywords;
  if (!row[5].empty()) {
    for (std::string_view item : Split(row[5], ';')) {
      size_t colon = item.rfind(':');
      double count = 1.0;
      std::string_view term = item;
      if (colon != std::string_view::npos) {
        if (!ParseDouble(item.substr(colon + 1), &count) || count <= 0.0) {
          return Status::InvalidArgument(
              "bad keyword weight \"" + std::string(item) +
              "\": want a finite number above 0");
        }
        term = item.substr(0, colon);
      }
      keywords.push_back({term, count});
    }
  }

  int64_t truth = -1;
  if (!row[8].empty() && (!ParseInt64(row[8], &truth) || truth < -1)) {
    return Status::InvalidArgument("bad truth \"" + row[8] +
                                   "\": want an integer >= -1 or nothing");
  }
  s.truth_story = truth;

  // Row is valid; from here on we may mutate shared state.
  auto [it, inserted] = source_ids->try_emplace(
      row[1], static_cast<SourceId>(source_ids->size()));
  if (inserted) {
    SourceInfo info;
    info.id = it->second;
    info.name = row[1];
    out->sources.push_back(std::move(info));
  }
  s.source = it->second;
  s.event_type = row[2];

  if (!row[4].empty()) {
    std::vector<text::TermVector::Entry> ents;
    for (std::string_view name : Split(row[4], ';')) {
      ents.push_back({out->entity_vocabulary->Intern(name), 1.0});
    }
    s.entities = text::TermVector::FromEntries(std::move(ents));
  }
  if (!keywords.empty()) {
    std::vector<text::TermVector::Entry> kws;
    for (const auto& [term, count] : keywords) {
      kws.push_back({out->keyword_vocabulary->Intern(term), count});
    }
    s.keywords = text::TermVector::FromEntries(std::move(kws));
  }
  s.description = row[6];
  s.document_url = row[7];
  out->snippets.push_back(std::move(s));
  return Status::OK();
}

/// Shared import loop; `report == nullptr` selects strict mode.
Result<ImportedCorpus> ImportTsvImpl(const std::string& contents,
                                     ImportReport* report) {
  const bool permissive = report != nullptr;
  DsvReader reader('\t');
  PermissiveDsv parsed;
  if (permissive) {
    parsed = reader.ParsePermissive(contents);
    for (const DsvSkipped& sk : parsed.skipped) {
      report->skipped.push_back(ImportSkipped{sk.line, sk.reason});
    }
  } else {
    ASSIGN_OR_RETURN(parsed.rows, reader.Parse(contents));
  }
  if (parsed.rows.empty()) return Status::InvalidArgument("empty TSV");

  ImportedCorpus out;
  out.entity_vocabulary = std::make_unique<text::Vocabulary>();
  out.keyword_vocabulary = std::make_unique<text::Vocabulary>();
  std::unordered_map<std::string, SourceId> source_ids;

  if (permissive) {
    report->rows_seen = (parsed.rows.size() - 1) + parsed.skipped.size();
  }
  for (size_t r = 1; r < parsed.rows.size(); ++r) {
    Status row_status = ImportRow(parsed.rows[r], &out, &source_ids);
    if (row_status.ok()) {
      if (permissive) ++report->rows_imported;
      continue;
    }
    if (!permissive) {
      return Status::InvalidArgument(StrFormat("row %zu: ", r) +
                                     std::string(row_status.message()));
    }
    size_t line = r < parsed.row_lines.size() ? parsed.row_lines[r] : 0;
    report->skipped.push_back(
        ImportSkipped{line, std::string(row_status.message())});
  }
  return out;
}

}  // namespace

Result<ImportedCorpus> ImportTsv(const std::string& contents) {
  return ImportTsvImpl(contents, nullptr);
}

Result<ImportedCorpus> ImportTsvPermissive(const std::string& contents,
                                           ImportReport* report) {
  return ImportTsvImpl(contents, report);
}

}  // namespace storypivot::datagen
