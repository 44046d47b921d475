#include "serve/serving_engine.h"

#include <utility>

#include "cow/stats.h"
#include "util/logging.h"
#include "util/timer.h"

namespace storypivot::serve {

Result<std::unique_ptr<ServingEngine>> ServingEngine::Open(
    const std::string& dir, ServerOptions server_options,
    persist::DurabilityOptions durability_options,
    EngineConfig engine_config, PublishPolicy publish_policy) {
  SP_CHECK(publish_policy.every_ops >= 1);
  std::unique_ptr<ServingEngine> serving(new ServingEngine());
  serving->policy_ = publish_policy;
  ASSIGN_OR_RETURN(serving->durable_,
                   persist::DurableEngine::Open(dir, durability_options,
                                                std::move(engine_config)));
  serving->search_ = std::make_unique<search::SearchEngine>(
      &serving->durable_->engine());
  // Every acked mutation (and every successful Reopen) runs the publish
  // policy. The hook runs inside the writer serial section, which is
  // exactly what Capture requires.
  ServingEngine* raw = serving.get();
  serving->durable_->set_commit_hook(
      [raw](persist::CommitEvent event) { raw->OnCommit(event); });
  serving->PublishSnapshot();  // Epoch 1: the recovered state.
  serving->server_ =
      std::make_unique<Server>(&serving->epochs_, server_options);
  return serving;
}

ServingEngine::~ServingEngine() {
  if (durable_ != nullptr) {
    // Detach the hook before members start dying under it.
    durable_->set_commit_hook({});
  }
}

void ServingEngine::OnCommit(persist::CommitEvent event) {
  if (event == persist::CommitEvent::kRecovery) {
    // Recovery rewound the engine to the log-consistent prefix; readers
    // must see the rebuilt state now, whatever the batching policy.
    PublishSnapshot();
    return;
  }
  if (++ops_since_publish_ >= policy_.every_ops) PublishSnapshot();
}

uint64_t ServingEngine::Flush() {
  if (ops_since_publish_ == 0) return 0;
  return PublishSnapshot();
}

uint64_t ServingEngine::PublishSnapshot() {
  WallTimer capture_timer;
  std::unique_ptr<ReadSnapshot> snapshot = ReadSnapshot::Capture(
      durable_->engine(), search_->index(), &capture_context_);
  const double capture_ms = capture_timer.ElapsedMillis();

  // Bytes physically copied for this epoch = every cow duplication since
  // the previous publish (the writer's path copies between publishes,
  // plus any copies the capture itself made). The rest of the
  // snapshot's resident size was structurally shared.
  const cow::CopyCounters now = cow::ReadCopyCounters();
  const uint64_t copied = now.bytes - published_counters_.bytes;
  const uint64_t approx = snapshot->ApproxBytes();
  const uint64_t shared = approx > copied ? approx - copied : 0;
  published_counters_ = now;

  const uint64_t epoch = epochs_.Publish(std::move(snapshot));
  epochs_.RecordCapture(capture_ms, copied, shared);
  epochs_.ReclaimExpired();  // Opportunistic registry trim.
  ops_since_publish_ = 0;
  if (server_ != nullptr) {
    // Entries cached at superseded epochs can never hit again.
    server_->OnEpochPublished(epoch);
  }
  return epoch;
}

}  // namespace storypivot::serve
