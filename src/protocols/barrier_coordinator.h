// Flink-style aligned checkpointing (paper §5.1 "Aligned checkpoint"): a
// coordinator periodically injects checkpoint barriers into every ingress
// substream; barriers flow with the data through each stage; a task aligns
// barriers across its input channels, synchronously snapshots its state to
// the checkpoint store, forwards the barrier, and acknowledges. When every
// task has acknowledged, the checkpoint is complete and becomes the global
// recovery point. At most one checkpoint is in flight (matching the paper's
// configuration).
//
// Only the latest completed checkpoint is ever restored, so completing
// round N subsumes every older snapshot: the write that publishes N also
// deletes each snapshot of a round below N (DESIGN.md §14). A task that
// cannot finish its snapshot declines the round, and the coordinator
// abandons it at once instead of waiting out the ack timeout.
#ifndef IMPELLER_SRC_PROTOCOLS_BARRIER_COORDINATOR_H_
#define IMPELLER_SRC_PROTOCOLS_BARRIER_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/retry.h"
#include "src/common/status.h"
#include "src/common/threading.h"
#include "src/kvstore/kv_store.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {

struct BarrierCoordinatorOptions {
  std::string query;
  DurationNs interval = 100 * kMillisecond;
  DurationNs ack_timeout = 10 * kSecond;
  // Optional: retry/* counters for barrier-injection appends.
  MetricsRegistry* metrics = nullptr;
  RetryPolicy retry;
  uint64_t seed = 17;
};

class BarrierCoordinator {
 public:
  BarrierCoordinator(SharedLog* log, KvStore* checkpoint_store, Clock* clock,
                     BarrierCoordinatorOptions options);
  ~BarrierCoordinator();

  // `ingress_substreams`: one tag per (ingress stream, substream) pair to
  // inject barriers into. `task_ids`: every task that must acknowledge.
  void Configure(std::vector<std::string> ingress_substreams,
                 std::vector<std::string> task_ids);

  void Start();
  void Stop();

  // Called by tasks after persisting their snapshot for `checkpoint_id`.
  void AckCheckpoint(const std::string& task_id, uint64_t checkpoint_id);
  // Called by a task that could not snapshot or forward `checkpoint_id`:
  // the round is abandoned now, and the next one starts after `interval`.
  void DeclineCheckpoint(const std::string& task_id, uint64_t checkpoint_id);

  // Id of the latest globally completed checkpoint; 0 when none.
  uint64_t LatestCompleted() const { return latest_completed_.load(); }

  // Recovery helper: reads the completed-checkpoint id from the checkpoint
  // store (survives coordinator restarts).
  static Result<uint64_t> ReadCompletedId(KvStore* store,
                                          const std::string& query);

  // Checkpoint-store key of `task_id`'s snapshot for round `checkpoint_id`.
  static std::string SnapshotKey(std::string_view task_id,
                                 uint64_t checkpoint_id);

  struct CompletedSnapshot {
    uint64_t checkpoint_id = 0;
    std::string blob;
  };
  // Recovery read: `task_id`'s snapshot in the latest completed checkpoint,
  // or nullopt when no checkpoint completed or the task has no snapshot in
  // it (it did not exist yet). A round completing between the two lookups
  // deletes the snapshot the first id names, so a missing snapshot is
  // retried under the completed id for as long as that id advances.
  static Result<std::optional<CompletedSnapshot>> ReadLatestSnapshot(
      KvStore* store, const std::string& query, std::string_view task_id);

  // Id of the latest round started (ids continue past the rounds an
  // earlier coordinator left in the store).
  uint64_t checkpoints_started() const { return started_.load(); }
  // Snapshot deletes issued by completing writes.
  uint64_t snapshots_deleted() const { return snapshots_deleted_.load(); }

 private:
  void Loop();
  Status InjectBarriers(uint64_t checkpoint_id);
  // Start(): continues round ids past every round the store has seen and
  // lists the snapshots already in it, which the next completion deletes.
  void PrepareSweep();
  // Publishes `checkpoint_id` as completed and deletes every snapshot of an
  // older round, in one store batch.
  Status CompleteRound(uint64_t checkpoint_id);

  SharedLog* log_;
  KvStore* store_;
  Clock* clock_;
  BarrierCoordinatorOptions options_;
  Retrier retrier_;

  std::vector<std::string> ingress_substreams_;
  std::vector<std::string> task_ids_;

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t inflight_id_ = 0;
  std::set<std::string> pending_acks_;
  std::string declined_by_;  // non-empty: the in-flight round was declined

  // Subsumption, owned by whoever runs the rounds (Start, then Loop).
  // Snapshots found in the store at Start, all of rounds below any round
  // this run starts; and the first round this run started, from which the
  // configured tasks' snapshots are deleted by range.
  std::vector<std::string> stale_keys_;
  uint64_t sweep_from_ = 1;

  std::atomic<uint64_t> latest_completed_{0};
  std::atomic<uint64_t> started_{0};
  std::atomic<uint64_t> snapshots_deleted_{0};
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> seq_{0};
  JoiningThread thread_;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_PROTOCOLS_BARRIER_COORDINATOR_H_
