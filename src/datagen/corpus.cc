#include "datagen/corpus.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "datagen/word_lists.h"
#include "util/logging.h"
#include "util/strings.h"

namespace storypivot::datagen {
namespace {

constexpr std::string_view kOutletNames[] = {
    "New York Times",    "Wall Street Journal", "The Guardian",
    "Le Monde",          "Der Spiegel",         "El Pais",
    "Asahi Shimbun",     "Times of India",      "Globe and Mail",
    "Sydney Herald",     "Kyiv Post",           "Moscow Gazette",
    "Cairo Courier",     "Lagos Ledger",        "Rio Record",
    "Nordic Dispatch",   "Alpine Tribune",      "Pacific Observer",
    "Atlantic Review",   "Baltic Bulletin",
};

struct SourceSpec {
  std::string name;
  /// Coverage multiplier per domain index.
  std::vector<double> domain_affinity;
  double delay_mean_secs = 0;
  double jitter_secs = 0;
};

/// CAMEO-flavoured event-type label for a domain archetype (the second
/// field of the paper's tuple format).
std::string EventTypeOfDomain(int domain) {
  const auto& domains = Domains();
  if (domain < 0 || domain >= static_cast<int>(domains.size())) return "";
  std::string name(domains[domain].name);
  if (!name.empty() && name[0] >= 'a' && name[0] <= 'z') {
    name[0] = static_cast<char>(name[0] - 'a' + 'A');
  }
  return name;
}

/// Samples an index from `cum` (inclusive prefix sums of weights).
size_t WeightedSample(Pcg32& rng, const std::vector<double>& cum) {
  SP_CHECK(!cum.empty());
  double u = rng.NextDouble() * cum.back();
  auto it = std::lower_bound(cum.begin(), cum.end(), u);
  if (it == cum.end()) return cum.size() - 1;
  return static_cast<size_t>(it - cum.begin());
}

std::vector<double> PrefixSums(const std::vector<double>& weights) {
  std::vector<double> cum(weights.size());
  double total = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    total += weights[i];
    cum[i] = total;
  }
  return cum;
}

}  // namespace

CorpusConfig GdeltScalePreset() {
  CorpusConfig config;
  config.seed = 2014;
  config.num_sources = 50;
  config.num_entities = 500;
  config.num_communities = 60;
  config.num_stories = 400;
  config.start_time = MakeTimestamp(2014, 6, 1);
  config.end_time = MakeTimestamp(2014, 12, 1);
  config.target_num_snippets = 10'000'000;  // The paper's card; scale down.
  return config;
}

CorpusGenerator::CorpusGenerator(CorpusConfig config)
    : config_(std::move(config)) {
  SP_CHECK(config_.num_sources > 0);
  SP_CHECK(config_.num_stories > 0);
  SP_CHECK(config_.end_time > config_.start_time);
}

Corpus CorpusGenerator::Generate() {
  Corpus corpus;
  corpus.entity_vocabulary = std::make_unique<text::Vocabulary>();
  corpus.keyword_vocabulary = std::make_unique<text::Vocabulary>();

  WorldConfig world_config;
  world_config.seed = config_.seed;
  world_config.num_entities = config_.num_entities;
  world_config.num_communities = config_.num_communities;
  world_config.topics_per_domain = config_.topics_per_domain;
  corpus.world = std::make_unique<WorldModel>(world_config,
                                              corpus.entity_vocabulary.get(),
                                              corpus.keyword_vocabulary.get());
  const WorldModel& world = *corpus.world;

  Pcg32 rng(config_.seed, /*stream=*/23);

  // --- Sources.
  std::vector<SourceSpec> specs(config_.num_sources);
  size_t num_domains = 0;
  for (const Topic& t : world.topics()) {
    num_domains = std::max<size_t>(num_domains, t.domain + 1);
  }
  for (int s = 0; s < config_.num_sources; ++s) {
    SourceSpec& spec = specs[s];
    if (s < static_cast<int>(std::size(kOutletNames))) {
      spec.name = std::string(kOutletNames[s]);
    } else {
      spec.name = StrFormat("Outlet %d", s);
    }
    spec.domain_affinity.resize(num_domains);
    for (double& a : spec.domain_affinity) {
      a = std::clamp(1.0 + config_.coverage_bias * (2.0 * rng.NextDouble() -
                                                    1.0),
                     0.05, 2.0);
    }
    // Delay varies by source: local outlets are fast, international slow.
    double factor = 0.3 + 2.4 * rng.NextDouble();
    spec.delay_mean_secs =
        config_.mean_report_delay_hours * kSecondsPerHour * factor;
    spec.jitter_secs = config_.timestamp_jitter_hours * kSecondsPerHour;

    SourceInfo info;
    info.id = static_cast<SourceId>(s);
    info.name = spec.name;
    corpus.sources.push_back(std::move(info));
  }

  // --- Ground-truth stories with drifting episodes.
  Timestamp horizon = config_.end_time - config_.start_time;
  for (int i = 0; i < config_.num_stories; ++i) {
    TruthStory story;
    story.id = i;
    story.community =
        static_cast<int>(rng.NextBounded(
            static_cast<uint32_t>(world.communities().size())));
    story.topic = static_cast<int>(
        rng.NextBounded(static_cast<uint32_t>(world.topics().size())));
    Timestamp duration = static_cast<Timestamp>(std::min<double>(
        rng.NextExponential(config_.mean_story_duration_days) *
                kSecondsPerDay +
            2 * kSecondsPerDay,
        static_cast<double>(horizon)));
    story.begin = config_.start_time +
                  rng.NextInRange(0, std::max<Timestamp>(
                                         1, horizon - duration));
    story.end = story.begin + duration;

    const Topic& topic = world.topics()[story.topic];
    const std::vector<text::TermId>& community =
        world.communities()[story.community];

    // Core cast: three entities that persist across every episode.
    std::vector<text::TermId> cast = community;
    rng.Shuffle(cast);
    size_t core_n = std::min<size_t>(3, cast.size());

    // Shuffle a private copy of the topic words once per story; episode e
    // then takes a sliding window over it so adjacent episodes overlap
    // (~60%) while distant episodes barely do — story evolution.
    std::vector<size_t> word_order(topic.words.size());
    std::iota(word_order.begin(), word_order.end(), 0u);
    rng.Shuffle(word_order);

    int num_episodes =
        1 + static_cast<int>(rng.NextBounded(
                static_cast<uint32_t>(config_.max_episodes)));
    Timestamp ep_len = std::max<Timestamp>(1, duration / num_episodes);
    constexpr size_t kEpisodeWords = 10;
    constexpr size_t kEpisodeStride = 4;
    for (int e = 0; e < num_episodes; ++e) {
      Episode ep;
      ep.begin = story.begin + e * ep_len;
      ep.end = (e == num_episodes - 1) ? story.end : ep.begin + ep_len;
      // Entities: the core plus two episode-specific peripherals.
      ep.entities.assign(cast.begin(), cast.begin() + core_n);
      for (size_t k = 0; k < 2 && core_n + k < cast.size(); ++k) {
        size_t idx = (core_n + e * 2 + k) % cast.size();
        if (idx < core_n) continue;  // Wrapped onto the core.
        ep.entities.push_back(cast[idx]);
      }
      // Keyword pool: sliding window over the story's word order.
      for (size_t k = 0; k < kEpisodeWords && !word_order.empty(); ++k) {
        size_t idx = word_order[(e * kEpisodeStride + k) % word_order.size()];
        ep.word_pool.push_back(topic.words[idx]);
        ep.word_surfaces.push_back(topic.surfaces[idx]);
        ep.word_weights.push_back(topic.weights[idx]);
      }
      story.episodes.push_back(std::move(ep));
    }
    story.popularity =
        1.0 / std::pow(static_cast<double>(i + 1),
                       config_.story_popularity_skew);
    corpus.truth_stories.push_back(std::move(story));
  }

  // --- Events. Expected reports per event ~= num_sources * coverage_base,
  // so size the event count to hit the snippet target.
  double expected_reports =
      std::max(0.2, config_.num_sources * config_.coverage_base);
  int num_events = std::max(
      1, static_cast<int>(std::lround(config_.target_num_snippets /
                                      expected_reports)));
  std::vector<double> story_cum;
  {
    std::vector<double> pops;
    pops.reserve(corpus.truth_stories.size());
    for (const TruthStory& s : corpus.truth_stories) {
      pops.push_back(s.popularity);
    }
    story_cum = PrefixSums(pops);
  }

  std::vector<TruthEvent> events;
  events.reserve(num_events);
  for (int i = 0; i < num_events; ++i) {
    const TruthStory& story =
        corpus.truth_stories[WeightedSample(rng, story_cum)];
    TruthEvent event;
    event.story = story.id;
    event.time = story.begin +
                 rng.NextInRange(0, std::max<Timestamp>(
                                        1, story.end - story.begin - 1));
    // Locate the containing episode.
    event.episode_index = story.episodes.size() - 1;
    for (size_t e = 0; e < story.episodes.size(); ++e) {
      if (event.time < story.episodes[e].end) {
        event.episode_index = e;
        break;
      }
    }
    const Episode& ep = story.episodes[event.episode_index];
    // Entities for this event: 2-3 of the core + up to 1 peripheral.
    size_t take = std::min<size_t>(ep.entities.size(),
                                   2 + rng.NextBounded(2));
    for (size_t k = 0; k < take; ++k) event.entities.push_back(ep.entities[k]);
    if (ep.entities.size() > 3 && rng.NextBernoulli(0.7)) {
      event.entities.push_back(
          ep.entities[3 + rng.NextBounded(
                              static_cast<uint32_t>(ep.entities.size() - 3))]);
    }
    events.push_back(std::move(event));
  }

  // --- Reporting: every source covers each event with a biased coin; a
  // covered event yields one snippet with source-specific timestamp jitter,
  // publication delay, entity noise and keyword paraphrasing.
  struct Pending {
    Snippet snippet;
    Timestamp arrival;
    Document document;
  };
  std::vector<Pending> pending;
  pending.reserve(static_cast<size_t>(num_events * expected_reports * 1.2));

  const auto& entity_names = world.entity_names();
  const auto& filler = world.filler_words();
  const auto& filler_surfaces = world.filler_surfaces();

  for (const TruthEvent& event : events) {
    const TruthStory& story = corpus.truth_stories[event.story];
    const Episode& ep = story.episodes[event.episode_index];
    std::vector<double> word_cum = PrefixSums(ep.word_weights);
    int domain = world.topics()[story.topic].domain;

    for (int s = 0; s < config_.num_sources; ++s) {
      const SourceSpec& spec = specs[s];
      double p = config_.coverage_base * spec.domain_affinity[domain];
      if (!rng.NextBernoulli(p)) continue;

      Pending out;
      Snippet& snip = out.snippet;
      snip.source = static_cast<SourceId>(s);
      snip.truth_story = event.story;
      snip.event_type = EventTypeOfDomain(domain);
      Timestamp jitter = rng.NextInRange(
          -static_cast<Timestamp>(spec.jitter_secs),
          static_cast<Timestamp>(spec.jitter_secs));
      snip.timestamp = event.time + jitter;
      out.arrival = event.time + static_cast<Timestamp>(
                                     rng.NextExponential(
                                         spec.delay_mean_secs));

      // Entities with drop/add noise.
      std::vector<text::TermVector::Entry> ents;
      for (text::TermId e : event.entities) {
        if (rng.NextBernoulli(config_.entity_noise)) continue;  // Dropped.
        double count = rng.NextBernoulli(0.3) ? 2.0 : 1.0;
        ents.push_back({e, count});
      }
      if (rng.NextBernoulli(config_.entity_noise)) {
        const auto& community = world.communities()[story.community];
        ents.push_back(
            {community[rng.NextBounded(
                 static_cast<uint32_t>(community.size()))],
             1.0});
      }
      if (ents.empty() && !event.entities.empty()) {
        ents.push_back({event.entities.front(), 1.0});
      }
      snip.entities = text::TermVector::FromEntries(std::move(ents));

      // Keywords: paraphrase by re-sampling from the episode pool.
      std::vector<text::TermVector::Entry> kws;
      std::vector<std::string_view> kw_surfaces;
      for (int k = 0; k < config_.keywords_per_snippet; ++k) {
        if (!filler.empty() && rng.NextBernoulli(config_.keyword_noise)) {
          size_t f = rng.NextBounded(static_cast<uint32_t>(filler.size()));
          kws.push_back({filler[f], 1.0});
          kw_surfaces.push_back(filler_surfaces[f]);
        } else if (!ep.word_pool.empty()) {
          size_t w = WeightedSample(rng, word_cum);
          kws.push_back({ep.word_pool[w], 1.0});
          kw_surfaces.push_back(ep.word_surfaces[w]);
        }
      }
      snip.keywords = text::TermVector::FromEntries(std::move(kws));

      // Human-readable description and (optionally) a raw document.
      std::string entity_str;
      for (size_t k = 0; k < event.entities.size() && k < 2; ++k) {
        if (!entity_str.empty()) entity_str += ", ";
        entity_str += entity_names[event.entities[k]];
      }
      std::string kw_str;
      for (size_t k = 0; k < kw_surfaces.size() && k < 3; ++k) {
        if (!kw_str.empty()) kw_str += " ";
        kw_str += std::string(kw_surfaces[k]);
      }
      snip.description = entity_str + ": " + kw_str;
      snip.document_url =
          StrFormat("http://%s.example.com/%d-%d", "src",
                    static_cast<int>(pending.size()), s);

      if (config_.emit_raw_text) {
        Document& doc = out.document;
        doc.source = snip.source;
        doc.url = snip.document_url;
        doc.timestamp = snip.timestamp;
        doc.truth_story = event.story;
        doc.title = snip.description;
        std::string body;
        for (size_t k = 0; k < kw_surfaces.size(); ++k) {
          if (k > 0) body += " ";
          body += std::string(kw_surfaces[k]);
          if (k + 1 < event.entities.size()) {
            body += " " + entity_names[event.entities[k + 1]];
          }
        }
        body += ".";
        doc.paragraphs.push_back(entity_names[event.entities.front()] +
                                 " " + body);
      }
      pending.push_back(std::move(out));
    }
  }

  // --- Order by arrival (publication) and assign ids in arrival order.
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.snippet.timestamp < b.snippet.timestamp;
            });
  corpus.snippets.reserve(pending.size());
  corpus.arrivals.reserve(pending.size());
  if (config_.emit_raw_text) corpus.documents.reserve(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    pending[i].snippet.id = static_cast<SnippetId>(i);
    corpus.arrivals.push_back(pending[i].arrival);
    corpus.snippets.push_back(std::move(pending[i].snippet));
    if (config_.emit_raw_text) {
      corpus.documents.push_back(std::move(pending[i].document));
    }
  }
  return corpus;
}

}  // namespace storypivot::datagen
