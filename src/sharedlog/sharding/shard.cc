#include "src/sharedlog/sharding/shard.h"

#include <algorithm>

#include "src/fault/fault.h"
#include "src/obs/trace.h"

namespace impeller {

namespace {

// Distinct tag lists one batch shares among its records.
constexpr size_t kMaxSharedTagLists = 8;

}  // namespace

LogShard::LogShard(uint32_t id, std::string log_name,
                   std::shared_ptr<LatencyModel> latency, Clock* clock)
    : id_(id),
      log_name_(std::move(log_name)),
      probe_detail_(log_name_ + "/s" + std::to_string(id)),
      latency_(std::move(latency)),
      clock_(clock) {
  last_append_time_ = clock_->Now();
}

Result<LogShard::AdmitOutcome> LogShard::Admit(
    std::vector<AppendRequest>& reqs, size_t batch_bytes,
    const FencingTable& meta) {
  TimeNs start = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  // Sealed check comes before the fault probes: a sealed shard's sequencer
  // is fenced — it must not consume injected faults or assign offsets, only
  // bounce the straggler back to the log client for re-placement.
  if (sealed_) {
    TRACE_INSTANT("log", "append_sealed");
    return SealedError("shard " + probe_detail_ +
                       " sealed; re-place at the current epoch");
  }
  DurationNs injected_ack_delay = 0;
  // Fault probes before any mutation: a transient append error (lost
  // quorum, leader failover) rejects the whole batch with the requests
  // untouched, so the caller's retry re-issues identical records. The
  // "log/append" probe keeps the unsharded detail/lsn contract (at one
  // shard the local offset IS the global LSN); "log/shard/append" targets a
  // single shard by name, modeling a one-shard outage.
  if (auto f = IMPELLER_FAULT_PROBE("log/append", log_name_, next_local_)) {
    if (f.kind == fault::FaultKind::kError) {
      TRACE_INSTANT("log", "append_unavailable");
      return UnavailableError("injected append failure on " + log_name_);
    }
    if (f.kind == fault::FaultKind::kDelay) {
      injected_ack_delay += f.delay;  // ack-latency spike, applied below
    }
  }
  if (auto f =
          IMPELLER_FAULT_PROBE("log/shard/append", probe_detail_,
                               next_local_)) {
    if (f.kind == fault::FaultKind::kError) {
      TRACE_INSTANT("log", "shard_unavailable");
      return UnavailableError("injected shard failure on " + probe_detail_);
    }
    if (f.kind == fault::FaultKind::kDelay) {
      injected_ack_delay += f.delay;
    }
  }
  // Fencing check is atomic with local-offset assignment: a zombie racing
  // with the task manager's MetaIncrement is linearized here — admission
  // happens-after the increment sees the new instance and rejects.
  for (const auto& r : reqs) {
    if (!r.cond_key.empty()) {
      uint64_t current = meta.ValueOrZero(r.cond_key);
      if (current != r.cond_value) {
        TRACE_INSTANT("log", "append_fenced");
        return FencedError("conditional append: " + r.cond_key + " is " +
                           std::to_string(current) + ", expected " +
                           std::to_string(r.cond_value));
      }
    }
  }
  DurationNs idle_gap = start - last_append_time_;
  last_append_time_ = start;
  LatencySample latency = latency_->SampleAppend(batch_bytes, idle_gap);
  // One ordering round per batch: rounds on the same shard serialize (the
  // shard's sequencer is a pipeline of depth one), rounds on different
  // shards overlap.
  TimeNs ack_start = std::max(start, busy_until_);
  TimeNs ack_done = ack_start + latency.ack;
  busy_until_ = ack_done;

  AdmitOutcome out;
  out.first_local = next_local_;
  out.count = reqs.size();
  out.ack_done = ack_done;
  out.injected_ack_delay = injected_ack_delay;
  // A batch's records usually carry one of a few tag lists (a flush
  // spreads over the substreams of one stream): share each list.
  std::vector<TagList> batch_tags;
  for (auto& r : reqs) {
    Record rec;
    rec.entry.lsn = kInvalidLsn;  // stamped by the metalog at sequencing
    auto shared = std::find_if(
        batch_tags.begin(), batch_tags.end(),
        [&r](const TagList& tags) { return *tags == r.tags; });
    if (shared != batch_tags.end()) {
      rec.entry.tags = *shared;
    } else {
      rec.entry.tags =
          std::make_shared<const std::vector<std::string>>(std::move(r.tags));
      if (batch_tags.size() < kMaxSharedTagLists) {
        batch_tags.push_back(rec.entry.tags);
      }
    }
    rec.entry.payload = std::move(r.payload);
    rec.entry.append_time = start;
    rec.entry.visible_time = ack_done + latency.delivery;
    rec.durable_time = ack_done;
    records_.push_back(std::move(rec));
    ++next_local_;
  }
  return out;
}

uint64_t LogShard::Sequence(uint64_t from_local, Lsn first_global,
                            const SequenceVisitor& visit) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sequenced = 0;
  for (uint64_t local = std::max(from_local, base_local_);
       local < next_local_; ++local) {
    Record& rec = records_[local - base_local_];
    rec.entry.lsn = first_global + sequenced;
    visit(local, rec.entry.lsn, *rec.entry.tags, rec.entry.visible_time,
          rec.durable_time);
    ++sequenced;
  }
  return sequenced;
}

Result<LogEntry> LogShard::EntryAt(uint64_t local) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (local < base_local_) {
    return TrimmedError("record trimmed");
  }
  if (local >= next_local_) {
    return OutOfRangeError("local offset beyond shard tail");
  }
  return records_[local - base_local_].entry;
}

uint64_t LogShard::Seal() {
  std::lock_guard<std::mutex> lock(mu_);
  sealed_ = true;
  return next_local_;
}

void LogShard::Unseal() {
  std::lock_guard<std::mutex> lock(mu_);
  sealed_ = false;
}

bool LogShard::sealed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_;
}

std::vector<LogEntry> LogShard::TrimTo(uint64_t new_base_local) {
  std::vector<LogEntry> detached;
  std::lock_guard<std::mutex> lock(mu_);
  if (new_base_local <= base_local_) {
    return detached;
  }
  uint64_t dropped = std::min(new_base_local, next_local_) - base_local_;
  detached.reserve(dropped);
  for (uint64_t i = 0; i < dropped; ++i) {
    detached.push_back(std::move(records_[i].entry));
  }
  records_.erase(records_.begin(), records_.begin() + dropped);
  base_local_ = new_base_local;
  return detached;
}

}  // namespace impeller
