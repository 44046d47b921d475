#include "util/failpoint.h"

#include <algorithm>
#include <unordered_map>

#include "util/hash.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/sync.h"

namespace storypivot::failpoint {
namespace {

/// Every injected error message starts with this, so `IsInjected` can
/// tell injected faults from real environmental failures.
constexpr const char kInjectedPrefix[] = "injected fault at ";

struct ArmedSite {
  Trigger trigger;
  Pcg32 rng;
  SiteStats stats;
  bool armed = false;
  bool exhausted = false;  // A fired one-shot never fires again.
};

/// Registry state lives behind the singleton, not in the header: the
/// header stays cheap to include and the atomic fast path is the only
/// thing callers ever touch when nothing is armed.
struct RegistryState {
  /// A LEAF of the lock hierarchy: no other lock is ever acquired while
  /// holding it (armed-site bookkeeping only — never calls out), so
  /// SP_FAILPOINT sites stay safe to drop into any locked region.
  // lockcheck: name=failpoint.Registry.mu
  Mutex mu;
  std::unordered_map<std::string, ArmedSite> sites SP_GUARDED_BY(mu);
};

RegistryState& State() {
  static RegistryState* state = new RegistryState();
  return *state;
}

Status InjectedError(std::string_view site, const Trigger& trigger) {
  std::string msg(kInjectedPrefix);
  msg += site;
  if (!trigger.note.empty()) {
    msg += " (";
    msg += trigger.note;
    msg += ")";
  }
  return Status::IoError(std::move(msg));
}

}  // namespace

Trigger OneShot(uint64_t on_evaluation) {
  Trigger trigger;
  trigger.kind = Trigger::Kind::kOneShot;
  trigger.n = std::max<uint64_t>(on_evaluation, 1);
  return trigger;
}

Trigger EveryNth(uint64_t n) {
  Trigger trigger;
  trigger.kind = Trigger::Kind::kEveryNth;
  trigger.n = std::max<uint64_t>(n, 1);
  return trigger;
}

Trigger Probability(double p, uint64_t seed) {
  Trigger trigger;
  trigger.kind = Trigger::Kind::kProbability;
  trigger.probability = p;
  trigger.seed = seed;
  return trigger;
}

Registry& Registry::Instance() {
  static Registry* instance = new Registry();
  return *instance;
}

void Registry::Arm(std::string_view site, Trigger trigger) {
  trigger.n = std::max<uint64_t>(trigger.n, 1);
  RegistryState& state = State();
  MutexLock lock(state.mu);
  ArmedSite& armed = state.sites[std::string(site)];
  if (!armed.armed) armed_sites_.fetch_add(1, std::memory_order_relaxed);
  // The site name is the RNG stream, so several sites armed with the
  // same schedule seed still draw independent sequences.
  armed.rng = Pcg32(trigger.seed, Crc32(site));
  armed.trigger = std::move(trigger);
  armed.stats = SiteStats{};
  armed.armed = true;
  armed.exhausted = false;
}

void Registry::Disarm(std::string_view site) {
  RegistryState& state = State();
  MutexLock lock(state.mu);
  auto it = state.sites.find(std::string(site));
  if (it == state.sites.end() || !it->second.armed) return;
  it->second.armed = false;
  armed_sites_.fetch_sub(1, std::memory_order_relaxed);
}

void Registry::DisarmAll() {
  RegistryState& state = State();
  MutexLock lock(state.mu);
  for (auto& [name, site] : state.sites) {
    if (site.armed) armed_sites_.fetch_sub(1, std::memory_order_relaxed);
    site.armed = false;
  }
  state.sites.clear();
}

Status Registry::EvaluateSlow(std::string_view site) {
  RegistryState& state = State();
  MutexLock lock(state.mu);
  auto it = state.sites.find(std::string(site));
  if (it == state.sites.end() || !it->second.armed) return Status::OK();
  ArmedSite& armed = it->second;
  ++armed.stats.evaluations;
  bool fire = false;
  switch (armed.trigger.kind) {
    case Trigger::Kind::kProbability:
      fire = armed.rng.NextBernoulli(armed.trigger.probability);
      break;
    case Trigger::Kind::kEveryNth:
      fire = armed.stats.evaluations % armed.trigger.n == 0;
      break;
    case Trigger::Kind::kOneShot:
      fire = !armed.exhausted && armed.stats.evaluations == armed.trigger.n;
      if (fire) armed.exhausted = true;
      break;
  }
  if (!fire) return Status::OK();
  ++armed.stats.fires;
  return InjectedError(site, armed.trigger);
}

bool Registry::Fired(std::string_view site, Status* error) {
  Status status = Evaluate(site);
  if (status.ok()) return false;
  *error = std::move(status);
  return true;
}

SiteStats Registry::Stats(std::string_view site) const {
  RegistryState& state = State();
  MutexLock lock(state.mu);
  auto it = state.sites.find(std::string(site));
  if (it == state.sites.end()) return SiteStats{};
  return it->second.stats;
}

std::vector<std::string> Registry::ArmedSites() const {
  RegistryState& state = State();
  MutexLock lock(state.mu);
  std::vector<std::string> names;
  for (const auto& [name, site] : state.sites) {
    if (site.armed) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool IsInjected(const Status& status) {
  if (status.ok()) return false;
  return status.message().find(kInjectedPrefix) != std::string::npos;
}

}  // namespace storypivot::failpoint
