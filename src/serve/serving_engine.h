#ifndef STORYPIVOT_SERVE_SERVING_ENGINE_H_
#define STORYPIVOT_SERVE_SERVING_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "persist/durable_engine.h"
#include "search/search_engine.h"
#include "serve/epoch_manager.h"
#include "serve/read_snapshot.h"
#include "serve/server.h"
#include "util/status.h"

namespace storypivot::serve {

/// When the serving engine publishes a fresh epoch (DESIGN.md §15).
/// The default (every op) means readers always see the latest acked
/// prefix. Batching trades snapshot freshness for fewer publishes. The
/// capture itself is O(partitions) pointer copies, but after each one
/// the writer's first post to a term clones that term's posting list,
/// and each new epoch invalidates query-cache entries; batching pays
/// both once per batch instead of once per op.
struct PublishPolicy {
  /// Publish after this many acked ops (>= 1). 1 = every op. Under
  /// batching, Flush() publishes the pending tail.
  uint64_t every_ops = 1;
};

/// The full serving stack wired together (DESIGN.md §14):
///
///   DurableEngine (WAL + recovery, the single writer)
///     + SearchEngine (incrementally maintained postings index)
///     + EpochManager (immutable snapshot publication)
///     + Server (thread pool, admission control, deadlines, cache)
///
/// The durable engine's commit hook counts every acknowledged mutation
/// (a batch = one op) against the publish policy and captures + publishes
/// a fresh ReadSnapshot when the policy says so (default: every op), so
/// readers always see some acked prefix of the operation stream — never
/// a mid-batch state. Recovery (Reopen) always publishes immediately,
/// whatever the policy: the rebuilt prefix must become visible.
///
/// Captures are copy-on-write: O(partitions) pointer copies, after which
/// the writer's first post to a term clones its posting list (DESIGN.md
/// §15). Per-publish capture time and bytes copied vs shared are
/// recorded in EpochManager::Stats.
///
/// Threading contract: all mutations go through the single writer
/// thread (the DurableEngine serial section); Query() is safe from any
/// number of concurrent reader threads, which only ever touch pinned
/// immutable snapshots and the leaf-locked serve structures.
class ServingEngine {
 public:
  /// Opens (or creates) the durable engine at `dir`, attaches search,
  /// captures and publishes the initial snapshot (epoch 1), and starts
  /// the serving pool.
  [[nodiscard]] static Result<std::unique_ptr<ServingEngine>> Open(
      const std::string& dir, ServerOptions server_options = {},
      persist::DurabilityOptions durability_options = {},
      EngineConfig engine_config = {}, PublishPolicy publish_policy = {});

  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// The single writer. Mutate through durable().Add*/Remove*/Align;
  /// acked mutations publish new epochs per the publish policy.
  [[nodiscard]] persist::DurableEngine& durable() { return *durable_; }

  /// Read path: thread-safe, epoch-pinned.
  [[nodiscard]] Result<QueryResponse> Query(const QueryRequest& request) {
    return server_->Query(request);
  }

  [[nodiscard]] EpochManager& epochs() { return epochs_; }
  [[nodiscard]] Server& server() { return *server_; }
  [[nodiscard]] const search::SearchEngine& search() const {
    return *search_;
  }
  [[nodiscard]] const PublishPolicy& publish_policy() const {
    return policy_;
  }

  /// Acked ops not yet reflected in the published epoch (nonzero only
  /// under a batching policy). Writer-side.
  [[nodiscard]] uint64_t unpublished_ops() const {
    return ops_since_publish_;
  }

  /// Publishes now iff acked ops are pending under a batching policy
  /// (no-op otherwise). Writer-side. Returns the published epoch, or 0
  /// when nothing was pending.
  uint64_t Flush();

  /// Re-captures and publishes a snapshot of the current engine state
  /// unconditionally, resetting the policy counters. Writer-side.
  /// Normally automatic (commit hook); exposed for the initial publish,
  /// Flush() and tests.
  uint64_t PublishSnapshot();

 private:
  ServingEngine() = default;

  /// Commit-hook body: applies the publish policy (recovery publishes
  /// unconditionally). Writer-side.
  void OnCommit(persist::CommitEvent event);

  // Destruction order (reverse of declaration): the server drains its
  // workers first, then epochs drop their snapshots, then search
  // detaches, then the durable engine closes.
  std::unique_ptr<persist::DurableEngine> durable_;
  std::unique_ptr<search::SearchEngine> search_;
  EpochManager epochs_;
  std::unique_ptr<Server> server_;

  // Publication policy state (all writer-serial, like the hook).
  PublishPolicy policy_;
  uint64_t ops_since_publish_ = 0;
  /// Text-state cache reused across captures (read_snapshot.h).
  CaptureContext capture_context_;
  /// Copy-counter reading at the end of the previous publish; the delta
  /// at the next publish = bytes physically copied for that epoch.
  cow::CopyCounters published_counters_;
};

}  // namespace storypivot::serve

#endif  // STORYPIVOT_SERVE_SERVING_ENGINE_H_
