#include "util/csv.h"

#include <algorithm>

#include "util/strings.h"

namespace storypivot {

void AppendDsvField(std::string_view field, char delimiter,
                    std::string* out) {
  const char special[] = {delimiter, '"', '\n', '\r'};
  if (field.find_first_of(std::string_view(special, sizeof(special))) ==
      std::string_view::npos) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

void DsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) buffer_.push_back(delimiter_);
    AppendDsvField(fields[i], delimiter_, &buffer_);
  }
  buffer_.push_back('\n');
}

Status DsvWriter::Flush(const std::string& path) const {
  return WriteStringToFile(path, buffer_);
}

namespace {

/// The one parse loop behind Visit, Parse and ParsePermissive. Strict mode
/// (`skipped` null) fails on an unterminated quoted field; permissive mode
/// quarantines that row into `skipped` and stops, since the quote
/// swallowed the rest of the input.
Status ParseDsv(std::string_view contents, char delimiter,
                const DsvReader::RowVisitor& visit,
                std::vector<DsvSkipped>* skipped) {
  // A field is a span of the input, or (decoded) of `scratch`; the views
  // are made once the row is complete, when `scratch` no longer grows.
  struct Field {
    bool decoded;
    size_t begin;
    size_t size;
  };
  std::vector<Field> fields;
  std::vector<std::string_view> views;
  std::string scratch;
  const size_t n = contents.size();
  const char* data = contents.data();
  // Index of the next delimiter or line break at or after `i`.
  auto field_end = [&](size_t i) {
    while (i < n && data[i] != delimiter && data[i] != '\n' &&
           data[i] != '\r') {
      ++i;
    }
    return i;
  };
  // 1-based input line of position i: one more than the '\n's before it
  // (a lone '\r' ends a row but, as in editors, starts no new line).
  size_t line = 1;
  size_t i = 0;
  // Consumes the row break at i: "\n", "\r\n" or a lone "\r".
  auto end_row = [&] {
    if (data[i] == '\r' && i + 1 < n && data[i + 1] == '\n') ++i;
    if (data[i] == '\n') ++line;
    ++i;
  };
  while (i < n) {
    if (data[i] == '\n' || data[i] == '\r') {  // A blank line: no row.
      end_row();
      continue;
    }
    const size_t row_line = line;
    fields.clear();
    scratch.clear();
    for (;;) {
      if (i < n && data[i] == '"') {
        const size_t quote_line = line;
        const size_t begin = scratch.size();
        ++i;
        for (;;) {
          const size_t quote = contents.find('"', i);
          if (quote == std::string_view::npos) {
            if (skipped == nullptr) {
              return Status::InvalidArgument(StrFormat(
                  "line %zu: unterminated quoted field", quote_line));
            }
            skipped->push_back(DsvSkipped{
                quote_line,
                StrFormat("unterminated quoted field (row dropped, quote "
                          "opened on line %zu)",
                          quote_line)});
            return Status::OK();
          }
          line += static_cast<size_t>(
              std::count(data + i, data + quote, '\n'));
          scratch.append(data + i, quote - i);
          i = quote + 1;
          if (i < n && data[i] == '"') {  // A doubled quote is literal.
            scratch.push_back('"');
            ++i;
            continue;
          }
          break;
        }
        // Text after the closing quote joins the field verbatim.
        const size_t end = field_end(i);
        scratch.append(data + i, end - i);
        i = end;
        fields.push_back({true, begin, scratch.size() - begin});
      } else {
        const size_t end = field_end(i);
        fields.push_back({false, i, end - i});
        i = end;
      }
      if (i < n && data[i] == delimiter) {
        ++i;
        continue;
      }
      break;  // A line break or the end of the input ends the row.
    }
    if (i < n) end_row();
    views.clear();
    for (const Field& field : fields) {
      views.emplace_back((field.decoded ? scratch.data() : data) + field.begin,
                         field.size);
    }
    RETURN_IF_ERROR(visit(row_line, views));
  }
  return Status::OK();
}

/// Appends a visited row to `rows` as owned strings.
Status CollectRow(const std::vector<std::string_view>& fields,
                  std::vector<std::vector<std::string>>* rows) {
  rows->emplace_back(fields.begin(), fields.end());
  return Status::OK();
}

}  // namespace

Status DsvReader::Visit(std::string_view contents,
                        const RowVisitor& visit) const {
  return ParseDsv(contents, delimiter_, visit, /*skipped=*/nullptr);
}

Result<std::vector<std::vector<std::string>>> DsvReader::Parse(
    std::string_view contents) const {
  std::vector<std::vector<std::string>> rows;
  RETURN_IF_ERROR(Visit(
      contents, [&rows](size_t, const std::vector<std::string_view>& fields) {
        return CollectRow(fields, &rows);
      }));
  return rows;
}

PermissiveDsv DsvReader::ParsePermissive(std::string_view contents) const {
  PermissiveDsv out;
  // Permissive parsing cannot fail: every malformed construct lands in
  // `skipped` instead.
  SP_CHECK_OK(ParseDsv(
      contents, delimiter_,
      [&out](size_t line, const std::vector<std::string_view>& fields) {
        out.row_lines.push_back(line);
        return CollectRow(fields, &out.rows);
      },
      &out.skipped));
  return out;
}

Result<std::vector<std::vector<std::string>>> DsvReader::ReadFile(
    const std::string& path) const {
  ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  Result<std::vector<std::vector<std::string>>> rows = Parse(contents);
  if (!rows.ok()) {
    // Re-wrap with the path so the error locates both file and line.
    return Status(rows.status().code(),
                  path + ": " + rows.status().message());
  }
  return rows;
}

}  // namespace storypivot
