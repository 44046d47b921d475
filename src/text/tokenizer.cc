#include "text/tokenizer.h"

#include <cctype>

namespace storypivot::text {
namespace {

bool IsWordChar(char c) {
  unsigned char u = static_cast<unsigned char>(c);
  return std::isalnum(u) != 0;
}

}  // namespace

std::vector<Token> Tokenize(std::string_view input) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < input.size()) {
    if (!IsWordChar(input[i])) {
      ++i;
      continue;
    }
    size_t start = i;
    std::string text;
    while (i < input.size()) {
      char c = input[i];
      if (IsWordChar(c)) {
        text.push_back(c);
        ++i;
        continue;
      }
      // Keep internal apostrophes ("don't", "O'Neill") together.
      if (c == '\'' && i + 1 < input.size() && IsWordChar(input[i + 1]) &&
          !text.empty()) {
        text.push_back('\'');
        ++i;
        continue;
      }
      break;
    }
    // Strip possessive suffix.
    if (text.size() >= 2 && (text.ends_with("'s") || text.ends_with("'S"))) {
      text.resize(text.size() - 2);
    }
    // Drop any trailing apostrophe left over (e.g. plural possessive).
    while (!text.empty() && text.back() == '\'') text.pop_back();
    if (text.empty()) continue;

    bool capitalized =
        std::isupper(static_cast<unsigned char>(text[0])) != 0;
    for (char& c : text) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }

    Token token;
    token.text = std::move(text);
    token.offset = start;
    token.capitalized = capitalized;
    tokens.push_back(std::move(token));
  }
  return tokens;
}

}  // namespace storypivot::text
