#ifndef STORYPIVOT_UTIL_FAILPOINT_H_
#define STORYPIVOT_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace storypivot::failpoint {

/// Deterministic, seedable fault injection (DESIGN.md §12).
///
/// An injection SITE is a named place in production code — e.g.
/// "fs.append.write" — marked with `SP_FAILPOINT("fs.append.write")`.
/// Sites are inert until a test or bench ARMS them with a `Trigger`;
/// an armed site that fires makes the enclosing function return an
/// injected `kIoError` Status, exactly as if the underlying syscall had
/// failed.
///
/// Determinism: probability triggers draw from a per-site Pcg32 seeded
/// from the trigger's `seed`, and every-Nth/one-shot triggers count site
/// evaluations — so a fixed (schedule, workload) pair replays the same
/// faults at the same points, every run, on every machine. The chaos
/// harness depends on this.
///
/// Cost: sites compile to NOTHING unless the `STORYPIVOT_FAILPOINTS`
/// macro is defined (CMake option of the same name, ON by default in
/// this repo's presets; `tests/compile_fail/failpoint_noop.cc` proves
/// the OFF expansion is empty). When compiled in but disarmed, a site
/// costs one relaxed atomic load (see bench_faults).

/// How an armed site decides to fire.
struct Trigger {
  enum class Kind {
    /// Fires independently with probability `probability` per evaluation.
    kProbability,
    /// Fires on every `n`-th evaluation (n, 2n, 3n, ...).
    kEveryNth,
    /// Fires exactly once, on the `n`-th evaluation (1-based).
    kOneShot,
  };

  Kind kind = Kind::kOneShot;
  /// Fire probability for kProbability (clamped to [0,1]).
  double probability = 0.0;
  /// Cadence for kEveryNth / target evaluation for kOneShot (>= 1).
  uint64_t n = 1;
  /// Seed for the per-site RNG (kProbability only). The site name is
  /// hashed in as the stream, so distinct sites armed with one seed
  /// still draw independent sequences.
  uint64_t seed = 0;
  /// Free-form tag included in the injected message, e.g. "ENOSPC".
  std::string note;
};

/// Convenience constructors for the common trigger shapes.
[[nodiscard]] Trigger OneShot(uint64_t on_evaluation = 1);
[[nodiscard]] Trigger EveryNth(uint64_t n);
[[nodiscard]] Trigger Probability(double p, uint64_t seed);

/// Evaluation/fire counters for one site, for assertions and reports.
struct SiteStats {
  uint64_t evaluations = 0;
  uint64_t fires = 0;
};

/// Process-wide registry of armed failpoints. Thread-safe: arming is
/// protected by an annotated `Mutex` (util/sync.h) that is a LEAF of
/// the lock hierarchy (DESIGN.md §13) — it never wraps another lock, so
/// SP_FAILPOINT sites are safe inside any locked region — and the
/// disarmed fast path is a single relaxed atomic load, so leaving sites
/// compiled in does not perturb the engine's parallel sections.
class Registry {
 public:
  static Registry& Instance();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Arms `site` with `trigger`, replacing any existing trigger and
  /// resetting the site's counters.
  void Arm(std::string_view site, Trigger trigger);

  /// Disarms one site (keeps its stats readable until the next Arm).
  void Disarm(std::string_view site);

  /// Disarms every site and clears all stats. Tests call this in
  /// SetUp/TearDown so schedules never leak across test cases.
  void DisarmAll();

  /// Evaluates `site`: OK when disarmed or the trigger does not fire,
  /// otherwise the injected error. This is what `SP_FAILPOINT` calls.
  [[nodiscard]] Status Evaluate(std::string_view site) {
    if (armed_sites_.load(std::memory_order_relaxed) == 0) {
      return Status::OK();
    }
    return EvaluateSlow(site);
  }

  /// Evaluate-with-custom-handling: returns true when `site` fires and
  /// stores the injected error in `*error`. For call sites that need
  /// bespoke failure behaviour (e.g. a partial write) rather than an
  /// early return. This is what `SP_FAILPOINT_FIRED` calls.
  [[nodiscard]] bool Fired(std::string_view site, Status* error);

  /// Counters for `site` (zeros when never armed).
  [[nodiscard]] SiteStats Stats(std::string_view site) const;

  /// Names of the currently armed sites, sorted.
  [[nodiscard]] std::vector<std::string> ArmedSites() const;

 private:
  Registry() = default;

  [[nodiscard]] Status EvaluateSlow(std::string_view site);

  // Number of currently armed sites; the disarmed fast path reads only
  // this. The count is maintained under mu_ (declared in the .cc).
  std::atomic<int> armed_sites_{0};
};

/// True when `status` was produced by a failpoint (its message carries
/// the injection marker). Lets tests distinguish injected faults from
/// real environmental failures.
[[nodiscard]] bool IsInjected(const Status& status);

}  // namespace storypivot::failpoint

// --- Site macros -----------------------------------------------------------
//
// Production code marks injection sites with these. Both expand to
// nothing when STORYPIVOT_FAILPOINTS is off — `lint.failpoint_noop`
// compiles them inside constexpr functions to prove it.

#ifdef STORYPIVOT_FAILPOINTS

/// Evaluates the named site; when its armed trigger fires, returns the
/// injected error Status from the enclosing function (which must return
/// `Status` or a `Result<T>`).
#define SP_FAILPOINT(site)                                              \
  do {                                                                  \
    ::storypivot::Status sp_failpoint_status_ =                         \
        ::storypivot::failpoint::Registry::Instance().Evaluate(site);   \
    if (!sp_failpoint_status_.ok()) return sp_failpoint_status_;        \
  } while (false)

/// Boolean form: true when the site fires, with the injected error
/// stored through `error_ptr` (a `Status*`). For sites that fail in a
/// custom way instead of returning immediately.
#define SP_FAILPOINT_FIRED(site, error_ptr) \
  (::storypivot::failpoint::Registry::Instance().Fired((site), (error_ptr)))

#else  // !STORYPIVOT_FAILPOINTS

#define SP_FAILPOINT(site)   \
  do {                       \
    static_cast<void>(site); \
  } while (false)

#define SP_FAILPOINT_FIRED(site, error_ptr) \
  (static_cast<void>(site), static_cast<void>(error_ptr), false)

#endif  // STORYPIVOT_FAILPOINTS

#endif  // STORYPIVOT_UTIL_FAILPOINT_H_
