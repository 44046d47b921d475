// Microbenchmarks (google-benchmark) for the hot paths under everything
// in StoryPivot: tokenization, stemming, sparse-vector similarity, story
// band keys (the alignment sketch) and temporal-index operations.

#include <benchmark/benchmark.h>

#include "core/similarity.h"
#include "sketch/band_keys.h"
#include "storage/temporal_index.h"
#include "text/porter_stemmer.h"
#include "text/term_vector.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace storypivot {
namespace {

text::TermVector RandomVector(Pcg32& rng, size_t terms, uint32_t universe) {
  std::vector<text::TermVector::Entry> entries;
  for (size_t i = 0; i < terms; ++i) {
    entries.push_back({rng.NextBounded(universe),
                       1.0 + rng.NextBounded(3)});
  }
  return text::TermVector::FromEntries(std::move(entries));
}

void BM_Tokenize(benchmark::State& state) {
  std::string input =
      "Officials leading the criminal investigation into the crash of "
      "Malaysia Airlines Flight 17 said Friday that the plane's wreckage "
      "had been tampered with, and Ukraine asked the United Nations civil "
      "aviation authority to help secure the crash site.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::Tokenize(input));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_Tokenize);

void BM_PorterStem(benchmark::State& state) {
  const char* words[] = {"investigation", "sanctions",  "crashed",
                         "negotiations",  "separatists", "evacuation",
                         "championship",  "relational",  "generalization"};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::PorterStem(words[i++ % std::size(words)]));
  }
}
BENCHMARK(BM_PorterStem);

void BM_TermVectorCosine(benchmark::State& state) {
  Pcg32 rng(1);
  text::TermVector a = RandomVector(rng, state.range(0), 1000);
  text::TermVector b = RandomVector(rng, state.range(0), 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Cosine(b));
  }
}
BENCHMARK(BM_TermVectorCosine)->Arg(8)->Arg(64)->Arg(512);

void BM_TermVectorWeightedJaccard(benchmark::State& state) {
  Pcg32 rng(2);
  text::TermVector a = RandomVector(rng, state.range(0), 1000);
  text::TermVector b = RandomVector(rng, state.range(0), 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.WeightedJaccard(b));
  }
}
BENCHMARK(BM_TermVectorWeightedJaccard)->Arg(8)->Arg(64)->Arg(512);

void BM_SnippetSimilarity(benchmark::State& state) {
  Pcg32 rng(3);
  text::DocumentFrequency df;
  SimilarityModel model({}, &df);
  Snippet a, b;
  a.entities = RandomVector(rng, 4, 200);
  a.keywords = RandomVector(rng, 8, 500);
  b.entities = RandomVector(rng, 4, 200);
  b.keywords = RandomVector(rng, 8, 500);
  df.AddDocument(a.keywords);
  df.AddDocument(b.keywords);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.SnippetSimilarity(a, b));
  }
}
BENCHMARK(BM_SnippetSimilarity);

void BM_StoryBandKeys(benchmark::State& state) {
  Pcg32 rng(4);
  const size_t terms = static_cast<size_t>(state.range(0));
  text::TermVector entities = RandomVector(rng, terms / 3, 200);
  text::TermVector keywords = RandomVector(rng, terms - terms / 3, 500);
  uint64_t keys[kLshBands];
  for (auto _ : state) {
    StoryBandKeys(entities, keywords, keys);
    benchmark::DoNotOptimize(keys);
  }
}
BENCHMARK(BM_StoryBandKeys)->Arg(12)->Arg(96);

void BM_TemporalIndexInsertNearEnd(benchmark::State& state) {
  Pcg32 rng(7);
  TemporalIndex index;
  Timestamp t = 0;
  SnippetId id = 0;
  for (auto _ : state) {
    // Mostly-increasing timestamps, like real publication streams.
    t += rng.NextInRange(-50, 200);
    index.Insert(t, id++);
    if (index.size() > 100000) {
      state.PauseTiming();
      index = TemporalIndex();
      t = 0;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_TemporalIndexInsertNearEnd);

void BM_TemporalIndexWindowScan(benchmark::State& state) {
  Pcg32 rng(8);
  TemporalIndex index;
  for (SnippetId i = 0; i < 50000; ++i) {
    index.Insert(rng.NextInRange(0, 1000000), i);
  }
  Timestamp lo = 0;
  for (auto _ : state) {
    // The call identification makes: ~500 ids per window.
    lo = (lo + 1234) % 900000;
    benchmark::DoNotOptimize(index.IdsInWindow(lo, lo + 10000));
  }
}
BENCHMARK(BM_TemporalIndexWindowScan);

void BM_TemporalIndexInsertOutOfOrder(benchmark::State& state) {
  Pcg32 rng(9);
  TemporalIndex index;
  SnippetId id = 0;
  for (auto _ : state) {
    // Fully random timestamps — the sorted vector's worst case.
    index.Insert(rng.NextInRange(0, 10000000), id++);
    if (index.size() > 50000) {
      state.PauseTiming();
      index = TemporalIndex();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_TemporalIndexInsertOutOfOrder);

}  // namespace
}  // namespace storypivot

BENCHMARK_MAIN();
