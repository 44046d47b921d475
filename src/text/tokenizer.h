#ifndef STORYPIVOT_TEXT_TOKENIZER_H_
#define STORYPIVOT_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace storypivot::text {

/// A single token produced by the tokenizer.
struct Token {
  /// Normalised (lower-cased) token text.
  std::string text;
  /// Byte offset of the first character in the original input.
  size_t offset = 0;
  /// True if the original token started with an uppercase letter. Useful
  /// as a weak named-entity signal for the gazetteer.
  bool capitalized = false;
};

/// Splits raw text into lower-cased word tokens, in document order (the
/// original capitalisation is recorded in Token::capitalized). A token is
/// a maximal run of ASCII letters/digits; apostrophes inside a word are
/// kept together and the common English possessive suffix ("'s") is
/// stripped, so "Russia's" tokenizes as "russia".
std::vector<Token> Tokenize(std::string_view input);

}  // namespace storypivot::text

#endif  // STORYPIVOT_TEXT_TOKENIZER_H_
