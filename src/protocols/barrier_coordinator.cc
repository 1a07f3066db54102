#include "src/protocols/barrier_coordinator.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/core/commit_tracker.h"
#include "src/core/marker.h"
#include "src/core/record.h"
#include "src/fault/fault.h"
#include "src/obs/trace.h"

namespace impeller {

namespace {

std::string CompletedMetaKey(const std::string& query) {
  return "ackpt-meta/" + query;
}

// Every snapshot key of `query`'s tasks starts with this (task ids start
// with the query name).
std::string SnapshotPrefix(const std::string& query) {
  std::string prefix = "actl/";
  prefix += query;
  prefix += '/';
  return prefix;
}

}  // namespace

BarrierCoordinator::BarrierCoordinator(SharedLog* log,
                                       KvStore* checkpoint_store,
                                       Clock* clock,
                                       BarrierCoordinatorOptions options)
    : log_(log), store_(checkpoint_store), clock_(clock),
      options_(std::move(options)),
      retrier_(options_.retry, options_.seed, clock_, options_.metrics) {}

BarrierCoordinator::~BarrierCoordinator() { Stop(); }

void BarrierCoordinator::Configure(
    std::vector<std::string> ingress_substreams,
    std::vector<std::string> task_ids) {
  ingress_substreams_ = std::move(ingress_substreams);
  task_ids_ = std::move(task_ids);
}

void BarrierCoordinator::Start() {
  if (running_.exchange(true)) {
    return;
  }
  PrepareSweep();
  thread_ = JoiningThread([this] { Loop(); });
}

void BarrierCoordinator::PrepareSweep() {
  // The store outlives coordinators (rescales stop and start this one; a
  // restarted engine builds a new one over the same store). Round ids
  // continue past every round it holds, so a new round never reuses the id
  // of an older snapshot, and the snapshots already there are listed once
  // here instead of deleting by range from round 1.
  uint64_t last = started_.load();
  auto completed = ReadCompletedId(store_, options_.query);
  if (completed.ok()) {
    last = std::max(last, *completed);
    latest_completed_.store(std::max(latest_completed_.load(), *completed));
  }
  stale_keys_ = store_->ScanKeys(SnapshotPrefix(options_.query));
  for (const std::string& key : stale_keys_) {
    last = std::max<uint64_t>(
        last, std::strtoull(key.c_str() + key.rfind('/') + 1, nullptr, 10));
  }
  started_.store(last);
  sweep_from_ = last + 1;
}

void BarrierCoordinator::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  cv_.notify_all();
  thread_.Join();
}

Status BarrierCoordinator::InjectBarriers(uint64_t checkpoint_id) {
  TRACE_SPAN("protocol", "inject_barriers");
  // Fault probe: a coordinator failure here just skips this round — no task
  // ever sees checkpoint_id, the Loop logs and moves on to the next
  // interval (Flink's coordinator-failover behavior, minus the re-election
  // delay).
  if (auto f = IMPELLER_FAULT_PROBE("barrier/inject", options_.query,
                                    checkpoint_id)) {
    if (f.kind == fault::FaultKind::kCrash ||
        f.kind == fault::FaultKind::kError) {
      return UnavailableError("injected barrier-injection failure");
    }
    if (f.kind == fault::FaultKind::kDelay) {
      clock_->SleepFor(f.delay);
    }
  }
  // One barrier record per ingress substream: Kafka/Flink have no atomic
  // multi-partition append, so the baseline does not get one either. The
  // per-substream appends share one batch ack (parallel producer requests).
  std::vector<AppendRequest> batch;
  BarrierBody body;
  body.checkpoint_id = checkpoint_id;
  for (const std::string& tag : ingress_substreams_) {
    RecordHeader header;
    header.type = RecordType::kBarrier;
    header.producer = "ckpt-coord/" + options_.query;
    header.instance = kIngressInstance;
    header.seq = seq_.fetch_add(1) + 1;
    AppendRequest req;
    req.tags.push_back(tag);
    req.payload = EncodeEnvelope(header, EncodeBarrierBody(body));
    batch.push_back(std::move(req));
  }
  if (batch.empty()) {
    return InvalidArgumentError("no ingress substreams configured");
  }
  auto lsns = retrier_.Run("barrier_inject",
                           [&] { return log_->AppendBatch(batch); });
  if (!lsns.ok()) {
    return lsns.status();
  }
  return OkStatus();
}

void BarrierCoordinator::Loop() {
  while (running_.load()) {
    clock_->SleepFor(options_.interval);
    if (!running_.load()) {
      return;
    }
    uint64_t id;
    {
      std::lock_guard<std::mutex> lock(mu_);
      id = started_.load() + 1;
      inflight_id_ = id;
      pending_acks_ = std::set<std::string>(task_ids_.begin(),
                                            task_ids_.end());
      declined_by_.clear();
    }
    started_.fetch_add(1);
    Status st = InjectBarriers(id);
    if (!st.ok()) {
      LOG_WARN << "checkpoint " << id << " barrier injection failed: "
               << st.ToString();
      continue;
    }
    // Wait for all acknowledgements (or the timeout; a timed-out checkpoint
    // is abandoned and the next round proceeds — Flink's failure handling).
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::nanoseconds(options_.ack_timeout), [this] {
      return pending_acks_.empty() || !declined_by_.empty() ||
             !running_.load();
    });
    if (!running_.load()) {
      return;
    }
    bool complete = pending_acks_.empty() && declined_by_.empty();
    if (!declined_by_.empty()) {
      LOG_WARN << "checkpoint " << id << " declined by " << declined_by_;
    } else if (!complete) {
      LOG_WARN << "checkpoint " << id << " timed out with "
               << pending_acks_.size() << " missing acks";
    }
    inflight_id_ = 0;
    lock.unlock();
    if (complete) {
      Status st = CompleteRound(id);
      if (!st.ok()) {
        LOG_WARN << "checkpoint " << id
                 << " completion write failed: " << st.ToString();
      }
    }
  }
}

Status BarrierCoordinator::CompleteRound(uint64_t checkpoint_id) {
  // The completed id and the deletes share one batch, so one modeled store
  // round trip publishes the round and releases what it supersedes; a
  // reader never sees the new id without the snapshots it names, nor the
  // old snapshots gone without the new id.
  std::vector<KvWriteOp> ops;
  BinaryWriter w;
  w.WriteVarU64(checkpoint_id);
  ops.push_back({CompletedMetaKey(options_.query), w.Take()});
  for (const std::string& key : stale_keys_) {
    ops.push_back({key, std::nullopt});
  }
  for (uint64_t k = sweep_from_; k < checkpoint_id; ++k) {
    for (const std::string& task : task_ids_) {
      ops.push_back({SnapshotKey(task, k), std::nullopt});
    }
  }
  size_t deletes = ops.size() - 1;
  // On failure nothing was written; the next completion deletes the same
  // snapshots (the sweep state moves only on success).
  IMPELLER_RETURN_IF_ERROR(store_->WriteBatch(std::move(ops)));
  stale_keys_.clear();
  sweep_from_ = checkpoint_id;
  snapshots_deleted_.fetch_add(deletes);
  latest_completed_.store(checkpoint_id);
  return OkStatus();
}

void BarrierCoordinator::AckCheckpoint(const std::string& task_id,
                                       uint64_t checkpoint_id) {
  TRACE_INSTANT("protocol", "checkpoint_ack");
  std::lock_guard<std::mutex> lock(mu_);
  if (checkpoint_id != inflight_id_) {
    return;  // stale ack for an abandoned checkpoint
  }
  pending_acks_.erase(task_id);
  if (pending_acks_.empty()) {
    cv_.notify_all();
  }
}

void BarrierCoordinator::DeclineCheckpoint(const std::string& task_id,
                                           uint64_t checkpoint_id) {
  TRACE_INSTANT("protocol", "checkpoint_decline");
  std::lock_guard<std::mutex> lock(mu_);
  if (checkpoint_id != inflight_id_ || !declined_by_.empty()) {
    return;
  }
  declined_by_ = task_id;
  cv_.notify_all();
}

std::string BarrierCoordinator::SnapshotKey(std::string_view task_id,
                                            uint64_t checkpoint_id) {
  std::string key = "actl/";
  key += task_id;
  key += '/';
  key += std::to_string(checkpoint_id);
  return key;
}

Result<std::optional<BarrierCoordinator::CompletedSnapshot>>
BarrierCoordinator::ReadLatestSnapshot(KvStore* store,
                                       const std::string& query,
                                       std::string_view task_id) {
  auto id = ReadCompletedId(store, query);
  while (id.ok()) {
    auto blob = store->Get(SnapshotKey(task_id, *id));
    if (blob.ok()) {
      return std::optional<CompletedSnapshot>(
          CompletedSnapshot{*id, std::move(*blob)});
    }
    if (blob.status().code() != StatusCode::kNotFound) {
      return blob.status();
    }
    // Either a newer round completed after `id` was read and deleted this
    // snapshot, or the task had none in round `id`. Only the second case
    // may start empty.
    auto newer = ReadCompletedId(store, query);
    if (!newer.ok()) {
      return newer.status();
    }
    if (*newer <= *id) {
      return std::optional<CompletedSnapshot>();
    }
    id = std::move(newer);
  }
  return std::optional<CompletedSnapshot>();  // no completed checkpoint
}

Result<uint64_t> BarrierCoordinator::ReadCompletedId(
    KvStore* store, const std::string& query) {
  auto raw = store->Get(CompletedMetaKey(query));
  if (!raw.ok()) {
    return raw.status();
  }
  BinaryReader r(*raw);
  auto id = r.ReadVarU64();
  if (!id.ok()) {
    return id.status();
  }
  return *id;
}

}  // namespace impeller
