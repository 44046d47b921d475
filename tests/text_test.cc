#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "text/annotator.h"
#include "text/gazetteer.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/term_vector.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace storypivot::text {
namespace {

// ------------------------------- Tokenizer ---------------------------------

TEST(TokenizerTest, BasicSplitting) {
  auto tokens = Tokenize("The plane crashed near Donetsk.");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].text, "the");
  EXPECT_EQ(tokens[4].text, "donetsk");
}

TEST(TokenizerTest, RecordsCapitalization) {
  auto tokens = Tokenize("Ukraine asked help");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_TRUE(tokens[0].capitalized);
  EXPECT_FALSE(tokens[1].capitalized);
}

TEST(TokenizerTest, StripsPossessive) {
  auto tokens = Tokenize("Russia's border and the investigators' work");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "russia");
  // "investigators'" loses the trailing apostrophe.
  bool found = false;
  for (const auto& t : tokens) found |= t.text == "investigators";
  EXPECT_TRUE(found);
}

TEST(TokenizerTest, KeepsInternalApostrophe) {
  auto tokens = Tokenize("they don't agree");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "don't");
}

TEST(TokenizerTest, OffsetsPointIntoInput) {
  std::string input = "alpha beta";
  auto tokens = Tokenize(input);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].offset, 0u);
  EXPECT_EQ(tokens[1].offset, 6u);
}

TEST(TokenizerTest, KeepsNumbersAndShortWords) {
  auto tokens = Tokenize("298 people aboard flight 17");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].text, "298");
  EXPECT_EQ(tokens[4].text, "17");
  EXPECT_EQ(Tokenize("it is an investigation").size(), 4u);
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("... --- !!!").empty());
}

// ------------------------------- Stopwords ---------------------------------

TEST(StopwordsTest, CommonWordsAreStopwords) {
  for (const char* w : {"the", "a", "and", "of", "is", "was", "they"}) {
    EXPECT_TRUE(IsStopword(w)) << w;
  }
}

TEST(StopwordsTest, ContentWordsAreNot) {
  for (const char* w : {"plane", "crash", "ukraine", "investigation"}) {
    EXPECT_FALSE(IsStopword(w)) << w;
  }
}

TEST(StopwordsTest, ListIsSortedAndBinarySearchable) {
  const auto& list = StopwordList();
  ASSERT_FALSE(list.empty());
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_LT(list[i - 1], list[i]) << "unsorted at " << i;
  }
  for (std::string_view w : list) EXPECT_TRUE(IsStopword(w));
}

// ----------------------------- Porter stemmer ------------------------------

struct StemCase {
  const char* word;
  const char* stem;
};

class PorterStemmerVectors : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterStemmerVectors, MatchesReference) {
  EXPECT_EQ(PorterStem(GetParam().word), GetParam().stem);
}

// Reference outputs from Porter's original paper / implementation.
INSTANTIATE_TEST_SUITE_P(
    Known, PorterStemmerVectors,
    ::testing::Values(
        StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
        StemCase{"ties", "ti"}, StemCase{"caress", "caress"},
        StemCase{"cats", "cat"}, StemCase{"feed", "feed"},
        StemCase{"agreed", "agre"}, StemCase{"plastered", "plaster"},
        StemCase{"bled", "bled"}, StemCase{"motoring", "motor"},
        StemCase{"sing", "sing"}, StemCase{"conflated", "conflat"},
        StemCase{"troubled", "troubl"}, StemCase{"sized", "size"},
        StemCase{"hopping", "hop"}, StemCase{"tanned", "tan"},
        StemCase{"falling", "fall"}, StemCase{"hissing", "hiss"},
        StemCase{"fizzed", "fizz"}, StemCase{"failing", "fail"},
        StemCase{"filing", "file"}, StemCase{"happy", "happi"},
        StemCase{"sky", "sky"}, StemCase{"relational", "relat"},
        StemCase{"conditional", "condit"}, StemCase{"rational", "ration"},
        StemCase{"valenci", "valenc"}, StemCase{"hesitanci", "hesit"},
        StemCase{"digitizer", "digit"}, StemCase{"conformabli", "conform"},
        StemCase{"radicalli", "radic"}, StemCase{"differentli", "differ"},
        StemCase{"vileli", "vile"}, StemCase{"analogousli", "analog"},
        StemCase{"vietnamization", "vietnam"},
        StemCase{"predication", "predic"}, StemCase{"operator", "oper"},
        StemCase{"feudalism", "feudal"}, StemCase{"decisiveness", "decis"},
        StemCase{"hopefulness", "hope"}, StemCase{"callousness", "callous"},
        StemCase{"formaliti", "formal"}, StemCase{"sensitiviti", "sensit"},
        StemCase{"sensibiliti", "sensibl"}, StemCase{"triplicate", "triplic"},
        StemCase{"formative", "form"}, StemCase{"formalize", "formal"},
        StemCase{"electriciti", "electr"}, StemCase{"electrical", "electr"},
        StemCase{"hopeful", "hope"}, StemCase{"goodness", "good"},
        StemCase{"revival", "reviv"}, StemCase{"allowance", "allow"},
        StemCase{"inference", "infer"}, StemCase{"airliner", "airlin"},
        StemCase{"gyroscopic", "gyroscop"}, StemCase{"adjustable", "adjust"},
        StemCase{"defensible", "defens"}, StemCase{"irritant", "irrit"},
        StemCase{"replacement", "replac"}, StemCase{"adjustment", "adjust"},
        StemCase{"dependent", "depend"}, StemCase{"adoption", "adopt"},
        StemCase{"homologou", "homolog"}, StemCase{"communism", "commun"},
        StemCase{"activate", "activ"}, StemCase{"angulariti", "angular"},
        StemCase{"homologous", "homolog"}, StemCase{"effective", "effect"},
        StemCase{"bowdlerize", "bowdler"}, StemCase{"probate", "probat"},
        StemCase{"rate", "rate"}, StemCase{"cease", "ceas"},
        StemCase{"controll", "control"}, StemCase{"roll", "roll"}));

// Second batch: news-domain words and step-rule edge cases.
INSTANTIATE_TEST_SUITE_P(
    NewsDomain, PorterStemmerVectors,
    ::testing::Values(
        StemCase{"investigation", "investig"},
        StemCase{"investigators", "investig"},
        StemCase{"sanctions", "sanction"}, StemCase{"crashed", "crash"},
        StemCase{"crashes", "crash"}, StemCase{"crashing", "crash"},
        StemCase{"negotiations", "negoti"},
        StemCase{"negotiators", "negoti"},
        StemCase{"separatists", "separatist"},
        StemCase{"evacuation", "evacu"}, StemCase{"militias", "militia"},
        StemCase{"elections", "elect"}, StemCase{"elected", "elect"},
        StemCase{"parliamentary", "parliamentari"},
        StemCase{"economic", "econom"}, StemCase{"economies", "economi"},
        StemCase{"reporting", "report"}, StemCase{"reported", "report"},
        StemCase{"reporters", "report"}, StemCase{"alliances", "allianc"},
        StemCase{"regulators", "regul"}, StemCase{"regulation", "regul"},
        StemCase{"championships", "championship"},
        StemCase{"tournaments", "tournament"},
        StemCase{"epidemics", "epidem"}, StemCase{"hospitals", "hospit"},
        StemCase{"generalization", "gener"},
        StemCase{"organization", "organ"},
        StemCase{"international", "intern"},
        StemCase{"authorities", "author"},
        StemCase{"possibly", "possibli"}, StemCase{"quickly", "quickli"},
        StemCase{"flying", "fly"}, StemCase{"dying", "dy"},
        StemCase{"agreements", "agreement"},
        StemCase{"announcement", "announc"},
        StemCase{"development", "develop"},
        StemCase{"governments", "govern"}, StemCase{"missiles", "missil"},
        StemCase{"witnesses", "wit"}, StemCase{"analyses", "analys"},
        StemCase{"crises", "crise"}, StemCase{"stories", "stori"},
        StemCase{"evolving", "evolv"}, StemCase{"evolution", "evolut"}));

TEST(PorterStemmerTest, ShortWordsUnchanged) {
  EXPECT_EQ(PorterStem("is"), "is");
  EXPECT_EQ(PorterStem("a"), "a");
  EXPECT_EQ(PorterStem(""), "");
}

TEST(PorterStemmerTest, StemIsIdempotentOnNewsWords) {
  for (const char* w :
       {"investigation", "sanctions", "crashed", "negotiations",
        "separatists", "evacuation", "championship"}) {
    std::string once = PorterStem(w);
    // Stemming the stem may reduce further in rare cases but must not grow.
    EXPECT_LE(PorterStem(once).size(), once.size()) << w;
  }
}

// ------------------------------- Vocabulary --------------------------------

TEST(VocabularyTest, InternAssignsSequentialIds) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.Intern("alpha"), 0u);
  EXPECT_EQ(vocab.Intern("beta"), 1u);
  EXPECT_EQ(vocab.Intern("alpha"), 0u);  // Idempotent.
  EXPECT_EQ(vocab.size(), 2u);
}

TEST(VocabularyTest, LookupWithoutIntern) {
  Vocabulary vocab;
  vocab.Intern("known");
  EXPECT_EQ(vocab.Lookup("known"), 0u);
  EXPECT_EQ(vocab.Lookup("unknown"), kInvalidTermId);
}

TEST(VocabularyTest, TermOfRoundTrip) {
  Vocabulary vocab;
  TermId id = vocab.Intern("ukraine");
  EXPECT_EQ(vocab.TermOf(id), "ukraine");
}

TEST(VocabularyTest, LookupIgnoringCaseReturnsTheLowestFoldingId) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.Intern("uk"), 0u);
  EXPECT_EQ(vocab.Intern("UK"), 1u);
  EXPECT_EQ(vocab.Intern("Kiev"), 2u);
  EXPECT_EQ(vocab.Intern("KIEV"), 3u);
  EXPECT_EQ(vocab.Intern("US"), 4u);
  EXPECT_EQ(vocab.Intern("us"), 5u);
  EXPECT_EQ(vocab.LookupIgnoringCase("uk"), 0u);    // Lower-case term first.
  EXPECT_EQ(vocab.LookupIgnoringCase("kiev"), 2u);  // First of two folds.
  EXPECT_EQ(vocab.LookupIgnoringCase("us"), 4u);    // Fold beats exact.
  EXPECT_EQ(vocab.LookupIgnoringCase("crash"), kInvalidTermId);
  // A moved vocabulary keeps its fold.
  Vocabulary moved = std::move(vocab);
  EXPECT_EQ(moved.LookupIgnoringCase("kiev"), 2u);
}

// ------------------------------- TermVector --------------------------------

TEST(TermVectorTest, FromEntriesSortsAndDeduplicates) {
  TermVector v = TermVector::FromEntries({{5, 1.0}, {2, 2.0}, {5, 3.0}});
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v.ValueOf(2), 2.0);
  EXPECT_DOUBLE_EQ(v.ValueOf(5), 4.0);
}

TEST(TermVectorTest, AddAndRemove) {
  TermVector v;
  v.Add(3, 1.5);
  v.Add(1, 1.0);
  EXPECT_DOUBLE_EQ(v.ValueOf(3), 1.5);
  v.Add(3, -1.5);  // Cancels out -> entry dropped.
  EXPECT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v.ValueOf(3), 0.0);
}

TEST(TermVectorTest, MergeAndSubtractInverse) {
  TermVector a = TermVector::FromEntries({{1, 2.0}, {3, 1.0}});
  TermVector b = TermVector::FromEntries({{3, 2.0}, {7, 4.0}});
  TermVector merged = a;
  merged.Merge(b);
  EXPECT_DOUBLE_EQ(merged.ValueOf(3), 3.0);
  EXPECT_DOUBLE_EQ(merged.ValueOf(7), 4.0);
  merged.Subtract(b);
  EXPECT_EQ(merged, a);
}

TEST(TermVectorTest, DotAndNorm) {
  TermVector a = TermVector::FromEntries({{1, 3.0}, {2, 4.0}});
  TermVector b = TermVector::FromEntries({{2, 2.0}, {9, 5.0}});
  EXPECT_DOUBLE_EQ(a.Dot(b), 8.0);
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.Sum(), 7.0);
}

TEST(TermVectorTest, CosineBoundsAndIdentity) {
  TermVector a = TermVector::FromEntries({{1, 1.0}, {2, 2.0}});
  EXPECT_NEAR(a.Cosine(a), 1.0, 1e-12);
  TermVector empty;
  EXPECT_DOUBLE_EQ(a.Cosine(empty), 0.0);
  TermVector disjoint = TermVector::FromEntries({{8, 1.0}});
  EXPECT_DOUBLE_EQ(a.Cosine(disjoint), 0.0);
}

TEST(TermVectorTest, WeightedJaccard) {
  TermVector a = TermVector::FromEntries({{1, 2.0}, {2, 1.0}});
  TermVector b = TermVector::FromEntries({{1, 1.0}, {2, 1.0}});
  // min-sum = 1+1 = 2, max-sum = 2+1 = 3.
  EXPECT_NEAR(a.WeightedJaccard(b), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(a.WeightedJaccard(a), 1.0, 1e-12);
  TermVector empty;
  EXPECT_DOUBLE_EQ(empty.WeightedJaccard(empty), 0.0);
}

TEST(TermVectorTest, SetJaccard) {
  TermVector a = TermVector::FromEntries({{1, 5.0}, {2, 1.0}, {3, 1.0}});
  TermVector b = TermVector::FromEntries({{2, 9.0}, {3, 1.0}, {4, 1.0}});
  EXPECT_NEAR(a.SetJaccard(b), 2.0 / 4.0, 1e-12);
}

TEST(TermVectorTest, TopK) {
  TermVector v =
      TermVector::FromEntries({{1, 1.0}, {2, 5.0}, {3, 3.0}, {4, 5.0}});
  auto top = v.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 2u);  // Ties broken by id.
  EXPECT_EQ(top[1].first, 4u);
}

TEST(TermVectorTest, SimilaritySymmetry) {
  TermVector a = TermVector::FromEntries({{1, 2.0}, {5, 1.0}, {9, 4.0}});
  TermVector b = TermVector::FromEntries({{1, 1.0}, {9, 2.0}, {11, 3.0}});
  EXPECT_DOUBLE_EQ(a.Cosine(b), b.Cosine(a));
  EXPECT_DOUBLE_EQ(a.WeightedJaccard(b), b.WeightedJaccard(a));
  EXPECT_DOUBLE_EQ(a.Dot(b), b.Dot(a));
}

// --------------------------------- TF-IDF ----------------------------------

TEST(DocumentFrequencyTest, TracksAddAndRemove) {
  DocumentFrequency df;
  TermVector d1 = TermVector::FromEntries({{0, 2.0}, {1, 1.0}});
  TermVector d2 = TermVector::FromEntries({{1, 3.0}});
  df.AddDocument(d1);
  df.AddDocument(d2);
  EXPECT_EQ(df.num_documents(), 2);
  EXPECT_EQ(df.FrequencyOf(0), 1);
  EXPECT_EQ(df.FrequencyOf(1), 2);
  df.RemoveDocument(d1);
  EXPECT_EQ(df.num_documents(), 1);
  EXPECT_EQ(df.FrequencyOf(0), 0);
  EXPECT_EQ(df.FrequencyOf(1), 1);
}

TEST(DocumentFrequencyTest, RareTermsGetHigherIdf) {
  DocumentFrequency df;
  for (int i = 0; i < 10; ++i) {
    TermVector d = TermVector::FromEntries(
        {{0, 1.0}, {static_cast<TermId>(i + 1), 1.0}});
    df.AddDocument(d);
  }
  EXPECT_GT(df.Idf(1), df.Idf(0));   // Term 0 is in every document.
  EXPECT_GT(df.Idf(999), df.Idf(1)); // Unseen term is rarest of all.
}

// -------------------------------- Gazetteer --------------------------------

TEST(GazetteerTest, SingleWordEntity) {
  Vocabulary vocab;
  Gazetteer gaz(&vocab);
  TermId ukraine = gaz.AddEntity("Ukraine");
  auto mentions = gaz.FindMentions(Tokenize("Fighting in Ukraine."));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].entity, ukraine);
}

TEST(GazetteerTest, MultiWordLongestMatch) {
  Vocabulary vocab;
  Gazetteer gaz(&vocab);
  TermId malaysia = gaz.AddEntity("Malaysia");
  TermId airline = gaz.AddEntity("Malaysia Airlines");
  auto mentions =
      gaz.FindMentions(Tokenize("A Malaysia Airlines jet crashed"));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].entity, airline);
  EXPECT_NE(mentions[0].entity, malaysia);
  EXPECT_EQ(mentions[0].token_end - mentions[0].token_begin, 2u);
}

TEST(GazetteerTest, AliasesResolveToCanonical) {
  Vocabulary vocab;
  Gazetteer gaz(&vocab);
  TermId un = gaz.AddEntity("United Nations");
  gaz.AddAlias(un, "UN");
  auto mentions = gaz.FindMentions(Tokenize("The UN said on Friday"));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].entity, un);
}

TEST(GazetteerTest, NonOverlappingMentions) {
  Vocabulary vocab;
  Gazetteer gaz(&vocab);
  gaz.AddEntity("Russia");
  gaz.AddEntity("Ukraine");
  auto mentions =
      gaz.FindMentions(Tokenize("Russia and Ukraine and Russia"));
  EXPECT_EQ(mentions.size(), 3u);
}

TEST(GazetteerTest, NoFalseMatches) {
  Vocabulary vocab;
  Gazetteer gaz(&vocab);
  gaz.AddEntity("Malaysia Airlines");
  // "Malaysia" alone (without "Airlines") must not match the 2-word alias.
  auto mentions = gaz.FindMentions(Tokenize("Malaysia is a country"));
  EXPECT_TRUE(mentions.empty());
}

// -------------------------------- Annotator --------------------------------

TEST(AnnotatorTest, SeparatesEntitiesFromKeywords) {
  Vocabulary entity_vocab, keyword_vocab;
  Gazetteer gaz(&entity_vocab);
  TermId ukraine = gaz.AddEntity("Ukraine");
  AnnotationPipeline pipeline(&gaz, &keyword_vocab);
  Annotation ann =
      pipeline.Annotate("The plane crashed over Ukraine on Thursday.");
  EXPECT_DOUBLE_EQ(ann.entities.ValueOf(ukraine), 1.0);
  // "crashed" is stemmed to "crash" and must be a keyword, not an entity.
  TermId crash = keyword_vocab.Lookup("crash");
  ASSERT_NE(crash, kInvalidTermId);
  EXPECT_GT(ann.keywords.ValueOf(crash), 0.0);
  // Stopwords never become keywords.
  EXPECT_EQ(keyword_vocab.Lookup("the"), kInvalidTermId);
}

TEST(AnnotatorTest, EntityTokensNotDoubleCounted) {
  Vocabulary entity_vocab, keyword_vocab;
  Gazetteer gaz(&entity_vocab);
  gaz.AddEntity("Ukraine");
  AnnotationPipeline pipeline(&gaz, &keyword_vocab);
  Annotation ann = pipeline.Annotate("Ukraine Ukraine Ukraine");
  EXPECT_DOUBLE_EQ(ann.entities.Sum(), 3.0);
  EXPECT_TRUE(ann.keywords.empty());
}

TEST(AnnotatorTest, CountsRepeatedKeywords) {
  Vocabulary entity_vocab, keyword_vocab;
  Gazetteer gaz(&entity_vocab);
  AnnotationPipeline pipeline(&gaz, &keyword_vocab);
  Annotation ann = pipeline.Annotate("crash after crash after crash");
  TermId crash = keyword_vocab.Lookup("crash");
  ASSERT_NE(crash, kInvalidTermId);
  EXPECT_DOUBLE_EQ(ann.keywords.ValueOf(crash), 3.0);
}

TEST(AnnotatorTest, TokenCountReported) {
  Vocabulary entity_vocab, keyword_vocab;
  Gazetteer gaz(&entity_vocab);
  AnnotationPipeline pipeline(&gaz, &keyword_vocab);
  Annotation ann = pipeline.Annotate("one two three");
  EXPECT_EQ(ann.num_tokens, 3u);
}

}  // namespace
}  // namespace storypivot::text
