#include "src/core/checkpoint.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/core/gc.h"
#include "src/core/stream.h"

namespace impeller {

Result<std::optional<CutInfo>> ExtractCut(const Envelope& env, Lsn lsn,
                                          std::string_view task_id) {
  if (env.header.producer != task_id) {
    return std::optional<CutInfo>(std::nullopt);
  }
  if (env.header.type == RecordType::kProgressMarker) {
    auto marker = DecodeProgressMarker(env.body);
    if (!marker.ok()) {
      return marker.status();
    }
    CutInfo cut;
    cut.instance = env.header.instance;
    cut.lsn = lsn;
    cut.marker_seq = marker->marker_seq;
    cut.changelog_from = marker->changelog_from;
    cut.input_ends = std::move(marker->input_ends);
    return std::optional<CutInfo>(std::move(cut));
  }
  if (env.header.type == RecordType::kTxnControl) {
    auto body = DecodeTxnControlBody(env.body);
    if (!body.ok()) {
      return body.status();
    }
    if (body->kind != TxnControlKind::kCommit) {
      return std::optional<CutInfo>(std::nullopt);
    }
    CutInfo cut;
    cut.instance = env.header.instance;
    cut.lsn = lsn;
    cut.txn_id = body->txn_id;
    cut.changelog_from = body->changelog_from;
    cut.input_ends = std::move(body->input_ends);
    return std::optional<CutInfo>(std::move(cut));
  }
  return std::optional<CutInfo>(std::nullopt);
}

Result<std::optional<CutInfo>> LastCommittedCut(SharedLog* log,
                                                const std::string& task_id) {
  std::string tag = TaskLogTag(task_id);
  auto last = log->ReadLast(tag);
  if (!last.ok()) {
    return std::optional<CutInfo>(std::nullopt);
  }
  auto env = DecodeEnvelope(last->payload);
  if (!env.ok()) {
    return env.status();
  }
  auto cut = ExtractCut(*env, last->lsn, task_id);
  if (!cut.ok()) {
    return cut.status();
  }
  if (cut->has_value()) {
    return cut;
  }
  // Records below the trim point are gone; starting there keeps the scan
  // from stopping at kTrimmed before it reaches the retained cuts.
  std::optional<CutInfo> best;
  Lsn cursor = log->TrimPoint();
  while (true) {
    auto entry = log->ReadNext(tag, cursor);
    if (!entry.ok()) {
      if (entry.status().code() == StatusCode::kTrimmed) {
        cursor = log->TrimPoint();  // a trim overtook the scan
        continue;
      }
      break;
    }
    cursor = entry->lsn + 1;
    auto e = DecodeEnvelope(entry->payload);
    if (!e.ok()) {
      return e.status();
    }
    auto c = ExtractCut(*e, entry->lsn, task_id);
    if (!c.ok()) {
      return c.status();
    }
    if (c->has_value()) {
      best = std::move(**c);
    }
  }
  return best;
}

Result<ReplayStats> ReplayChangelog(
    SharedLog* log, const std::string& task_id, Lsn from_lsn, Lsn until_lsn,
    uint64_t until_txn_id,
    const std::function<void(const ChangeLogView&)>& apply) {
  ReplayStats stats;
  stats.next_lsn = from_lsn;
  if (until_lsn == kInvalidLsn) {
    return stats;  // no cut to replay to
  }
  (void)until_txn_id;
  std::string tag = ChangeLogTag(task_id);
  // Every record the replay must apply already has an assigned LSN <=
  // until_lsn (the recovery cut was read, so everything it covers is
  // sequenced), which makes the tag's sequenced tail a deterministic scan
  // bound. Tags whose cut lives elsewhere (kafka-txn commits cut to the
  // task log, not the changelog) would otherwise only terminate on a
  // quiet-timeout — stalling every recovery by the full timeout, long
  // enough for the failure detector to kill a live recovery.
  Lsn tag_tail;
  {
    auto last = log->ReadLast(tag);
    if (!last.ok()) {
      if (last.status().code() == StatusCode::kNotFound) {
        return stats;  // empty changelog: nothing to replay
      }
      return last.status();
    }
    tag_tail = last->lsn;
  }
  struct Pending {
    uint64_t instance;
    ChangeLogBody body;
  };
  std::vector<Pending> pending;
  Lsn cursor = from_lsn;
  while (true) {
    if (cursor > tag_tail) {
      return stats;  // sequenced suffix fully consumed
    }
    // The next record exists and is at most a delivery latency away from
    // visibility, so the timeout is a safety net, not a barrier.
    auto entry = log->AwaitNext(tag, cursor, 250 * kMillisecond);
    if (!entry.ok()) {
      if (entry.status().code() == StatusCode::kDeadlineExceeded) {
        return stats;
      }
      return InternalError("changelog replay failed at lsn " +
                           std::to_string(cursor) + ": " +
                           entry.status().ToString());
    }
    if (entry->lsn > until_lsn) {
      // First record beyond the recovery cut: uncommitted suffix or a later
      // (fenced) transaction — replay is complete.
      return stats;
    }
    cursor = entry->lsn + 1;
    stats.entries_read++;
    auto env = DecodeEnvelope(entry->payload);
    if (!env.ok()) {
      return env.status();
    }
    if (env->header.type == RecordType::kChangeLog) {
      auto body = DecodeChangeLogBody(env->body);
      if (!body.ok()) {
        return body.status();
      }
      pending.push_back({env->header.instance, std::move(*body)});
    } else {
      auto cut = ExtractCut(*env, entry->lsn, task_id);
      if (!cut.ok()) {
        return cut.status();
      }
      if (cut->has_value()) {
        // Apply committed changes; drop superseded instances' changes; keep
        // a newer instance's changes pending for its own first cut.
        std::vector<Pending> keep;
        for (auto& p : pending) {
          if (p.instance == (*cut)->instance) {
            apply(ChangeLogView{p.body.store, p.body.key, p.body.is_delete,
                                p.body.value, p.body.substream});
            stats.changes_applied++;
          } else if (p.instance > (*cut)->instance) {
            keep.push_back(std::move(p));
          }
        }
        pending = std::move(keep);
        stats.next_lsn = entry->lsn + 1;
        if (entry->lsn == until_lsn) {
          return stats;  // the recovery cut itself (marker protocols)
        }
      }
    }
  }
}

std::string EncodeSnapshot(
    const std::map<std::string, std::string>& sections) {
  BinaryWriter w;
  w.WriteVarU64(sections.size());
  for (const auto& [name, data] : sections) {
    w.WriteString(name);
    w.WriteString(data);
  }
  return w.Take();
}

Result<std::map<std::string, std::string>> DecodeSnapshot(
    std::string_view raw) {
  BinaryReader r(raw);
  auto n = r.ReadVarU64();
  if (!n.ok()) {
    return n.status();
  }
  std::map<std::string, std::string> sections;
  for (uint64_t i = 0; i < *n; ++i) {
    auto name = r.ReadString();
    if (!name.ok()) {
      return name.status();
    }
    auto data = r.ReadString();
    if (!data.ok()) {
      return data.status();
    }
    sections[std::move(*name)] = std::move(*data);
  }
  return sections;
}

std::string CheckpointBlobKey(std::string_view task_id) {
  return "ckpt/" + std::string(task_id);
}

std::string CheckpointMetaKey(std::string_view task_id) {
  return "ckptmeta/" + std::string(task_id);
}

std::string EncodeCheckpointMeta(const CheckpointMeta& meta) {
  BinaryWriter w;
  w.WriteVarU64(meta.cut_lsn);
  w.WriteVarU64(meta.next_replay_lsn);
  w.WriteVarU64(meta.marker_seq);
  return w.Take();
}

Result<CheckpointMeta> DecodeCheckpointMeta(std::string_view raw) {
  BinaryReader r(raw);
  CheckpointMeta meta;
  auto cut = r.ReadVarU64();
  if (!cut.ok()) {
    return cut.status();
  }
  meta.cut_lsn = *cut;
  auto next = r.ReadVarU64();
  if (!next.ok()) {
    return next.status();
  }
  meta.next_replay_lsn = *next;
  auto seq = r.ReadVarU64();
  if (!seq.ok()) {
    return seq.status();
  }
  meta.marker_seq = *seq;
  return meta;
}

// --- CheckpointWorker ---

CheckpointWorker::CheckpointWorker(SharedLog* log, KvStore* store,
                                   Clock* clock, DurationNs interval,
                                   GcRegistry* gc)
    : log_(log), store_(store), clock_(clock), interval_(interval), gc_(gc) {}

CheckpointWorker::~CheckpointWorker() { Stop(); }

void CheckpointWorker::RegisterTask(const std::string& task_id,
                                    Lsn start_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto shadow = std::make_unique<ShadowTask>();
  shadow->task_id = task_id;
  shadow->cursor = start_lsn;
  if (gc_ != nullptr) {
    gc_->PublishFloor(ChangeLogFloorSource(task_id), start_lsn);
  }
  tasks_.push_back(std::move(shadow));
}

void CheckpointWorker::UnregisterTask(const std::string& task_id) {
  std::lock_guard<std::mutex> lock(mu_);
  tasks_.erase(std::remove_if(tasks_.begin(), tasks_.end(),
                              [&](const std::unique_ptr<ShadowTask>& t) {
                                return t->task_id == task_id;
                              }),
               tasks_.end());
  if (gc_ != nullptr) {
    gc_->Remove(ChangeLogFloorSource(task_id));
  }
}

void CheckpointWorker::Start() {
  if (running_.exchange(true)) {
    return;
  }
  thread_ = JoiningThread([this] { Loop(); });
}

void CheckpointWorker::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  thread_.Join();
}

void CheckpointWorker::Loop() {
  TimeNs next = clock_->Now() + interval_;
  while (running_.load()) {
    TimeNs now = clock_->Now();
    if (now < next) {
      clock_->SleepFor(std::min<DurationNs>(next - now, 50 * kMillisecond));
      continue;
    }
    RunOnce();
    next = clock_->Now() + interval_;
  }
}

void CheckpointWorker::RunOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& shadow : tasks_) {
    Status st = Advance(*shadow);
    if (!st.ok()) {
      LOG_WARN << "checkpoint advance for " << shadow->task_id
               << " failed: " << st.ToString();
      continue;
    }
    if (shadow->last_cut_lsn != kInvalidLsn &&
        shadow->last_cut_lsn != shadow->last_checkpointed_cut) {
      st = WriteCheckpoint(*shadow);
      if (!st.ok()) {
        LOG_WARN << "checkpoint write for " << shadow->task_id
                 << " failed: " << st.ToString();
      }
    }
  }
}

Status CheckpointWorker::Advance(ShadowTask& shadow) {
  std::string tag = ChangeLogTag(shadow.task_id);
  while (true) {
    auto entry = log_->ReadNext(tag, shadow.cursor);
    if (!entry.ok()) {
      if (entry.status().code() == StatusCode::kNotFound) {
        return OkStatus();  // caught up
      }
      return entry.status();
    }
    shadow.cursor = entry->lsn + 1;
    auto env = DecodeEnvelope(entry->payload);
    if (!env.ok()) {
      return env.status();
    }
    if (env->header.type == RecordType::kChangeLog) {
      auto body = DecodeChangeLogBody(env->body);
      if (!body.ok()) {
        return body.status();
      }
      shadow.pending.push_back(
          {entry->lsn, env->header.instance, std::move(*body)});
      continue;
    }
    auto cut = ExtractCut(*env, entry->lsn, shadow.task_id);
    if (!cut.ok()) {
      return cut.status();
    }
    if (!cut->has_value()) {
      continue;
    }
    std::deque<ShadowTask::PendingChange> keep;
    for (auto& p : shadow.pending) {
      if (p.instance == (*cut)->instance) {
        auto& store = shadow.stores[p.body.store];
        if (store == nullptr) {
          store = std::make_unique<MapStateStore>(p.body.store, nullptr);
        }
        store->ApplyChange(p.body);
      } else if (p.instance > (*cut)->instance) {
        keep.push_back(std::move(p));
      }
    }
    shadow.pending = std::move(keep);
    shadow.last_cut_lsn = (*cut)->lsn;
    shadow.last_marker_seq = (*cut)->marker_seq;
  }
}

Status CheckpointWorker::WriteCheckpoint(ShadowTask& shadow) {
  std::map<std::string, std::string> sections;
  for (const auto& [name, store] : shadow.stores) {
    sections["store/" + name] = store->SerializeSnapshot();
  }
  CheckpointMeta meta;
  meta.cut_lsn = shadow.last_cut_lsn;
  meta.next_replay_lsn = shadow.last_cut_lsn + 1;
  meta.marker_seq = shadow.last_marker_seq;
  std::vector<KvWriteOp> batch;
  batch.push_back({CheckpointBlobKey(shadow.task_id),
                   EncodeSnapshot(sections)});
  batch.push_back({CheckpointMetaKey(shadow.task_id),
                   EncodeCheckpointMeta(meta)});
  IMPELLER_RETURN_IF_ERROR(store_->WriteBatch(std::move(batch)));
  shadow.last_checkpointed_cut = shadow.last_cut_lsn;
  checkpoints_.fetch_add(1);
  if (gc_ != nullptr) {
    // Change-log records below the checkpointed cut can be collected, but
    // the shadow's own cursor may trail the cut (pending uncommitted
    // suffix); never let GC outrun what we still need to read.
    gc_->PublishFloor(ChangeLogFloorSource(shadow.task_id),
                      std::min(meta.next_replay_lsn, shadow.cursor));
  }
  return OkStatus();
}

}  // namespace impeller
