#include "src/sharedlog/sharding/metalog.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "src/common/logging.h"
#include "src/fault/fault.h"
#include "src/obs/trace.h"

namespace impeller {

Metalog::Metalog(std::string log_name, Clock* clock)
    : log_name_(std::move(log_name)), clock_(clock) {}

void Metalog::AttachShards(std::vector<LogShard*> shards) {
  shards_ = std::move(shards);
  sequenced_upto_.assign(shards_.size(), 0);
  global_of_.assign(shards_.size(), {});
  global_of_base_.assign(shards_.size(), 0);
}

void Metalog::PublishCutLocked() {
  uint64_t sequenced = 0;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    uint64_t drained = shards_[s]->Sequence(
        sequenced_upto_[s], next_lsn_,
        [&](uint64_t local, Lsn global, const std::vector<std::string>& tags,
            TimeNs visible_time, TimeNs durable_time) {
          ViewEntry e;
          e.shard = s;
          e.local = local;
          e.tags = &tags;
          e.visible_time = visible_time;
          e.durable_time = durable_time;
          entries_.push_back(e);
          for (const auto& tag : tags) {
            tag_index_[tag].lsns.push_back(global);
          }
          global_of_[s].push_back(global);
        });
    sequenced_upto_[s] += drained;
    next_lsn_ += drained;
    sequenced += drained;
  }
  if (sequenced > 0) {
    ++cuts_;
  }
}

std::vector<Lsn> Metalog::Sequence(uint32_t shard, uint64_t first_local,
                                   uint64_t count) {
  std::vector<Lsn> lsns(count, kInvalidLsn);
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Sequencer stall: a kDelay here holds the ordering plane — every
    // shard's appends stay unsequenced (invisible to readers) until the
    // stall passes, though shard admission continues underneath.
    if (auto f = IMPELLER_FAULT_PROBE("log/metalog/cut", log_name_,
                                      next_lsn_);
        f.kind == fault::FaultKind::kDelay) {
      TRACE_INSTANT("log", "metalog_stall");
      clock_->SleepFor(f.delay);
    }
    PublishCutLocked();
    const std::deque<Lsn>& globals = global_of_[shard];
    uint64_t base = global_of_base_[shard];
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t local = first_local + i;
      if (local < base || local - base >= globals.size()) {
        // Only reachable if a trim raced past records still being acked —
        // GC floors trail commits, so this is a bug, not a fault scenario.
        LOG_ERROR << log_name_ << ": shard " << shard << " local " << local
                  << " sequenced out from under an appender";
        continue;
      }
      lsns[i] = globals[local - base];
    }
  }
  // Readers blocked in AwaitNext wake up and re-check visibility.
  cv_.notify_all();
  return lsns;
}

Lsn Metalog::SealCut() {
  Lsn boundary;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PublishCutLocked();
    boundary = next_lsn_;
  }
  // The final cut may have made records visible; wake blocked readers so
  // they re-check instead of waiting out their visibility estimate.
  cv_.notify_all();
  return boundary;
}

Lsn Metalog::FindFirstLocked(std::string_view tag, Lsn from) const {
  auto it = tag_index_.find(tag);
  if (it == tag_index_.end()) {
    return kInvalidLsn;
  }
  const TagIndex& lsns = it->second;
  Lsn lower = std::max(from, base_lsn_);
  auto pos = std::lower_bound(lsns.begin(), lsns.end(), lower);
  if (pos == lsns.end()) {
    return kInvalidLsn;
  }
  return *pos;
}

const Metalog::ViewEntry* Metalog::SlotLocked(Lsn lsn) const {
  if (lsn < base_lsn_ || lsn >= next_lsn_) {
    return nullptr;
  }
  return &entries_[lsn - base_lsn_];
}

Result<LogEntry> Metalog::FetchLocked(const ViewEntry& entry) const {
  return shards_[entry.shard]->EntryAt(entry.local);
}

// Caller holds mu_. Serves (and clears) a fault-injected pending duplicate
// for `tag`: the record was already returned once, and is handed out again
// as if the consumer had re-fetched after a lost ack. Only a reader whose
// cursor has passed the record gets it — redelivery duplicates data, it
// must never let a reader skip ahead. Returns kInvalidLsn when no duplicate
// is due or the record has since been trimmed.
Lsn Metalog::TakePendingDuplicateLocked(std::string_view tag, Lsn from_lsn) {
  auto it = dup_pending_.find(tag);
  if (it == dup_pending_.end() || it->second >= from_lsn) {
    return kInvalidLsn;
  }
  Lsn lsn = it->second;
  dup_pending_.erase(it);
  if (SlotLocked(lsn) == nullptr) {
    return kInvalidLsn;
  }
  return lsn;
}

// Caller holds mu_. Fault probe on a successful tag read; a kDuplicate
// action arms redelivery of `lsn` on the next read of `tag`.
void Metalog::MaybeArmDuplicateLocked(std::string_view tag, Lsn lsn) {
  if (auto f = IMPELLER_FAULT_PROBE("log/read", tag, lsn);
      f.kind == fault::FaultKind::kDuplicate) {
    dup_pending_[std::string(tag)] = lsn;
  }
}

Result<LogEntry> Metalog::ReadNext(std::string_view tag, Lsn from_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Lsn dup = TakePendingDuplicateLocked(tag, from_lsn);
      dup != kInvalidLsn) {
    return FetchLocked(*SlotLocked(dup));
  }
  if (auto it = tag_index_.find(tag);
      it != tag_index_.end() && it->second.TrimmedAtOrAbove(from_lsn)) {
    // The cursor provably points at a record of this tag that was garbage
    // collected; surface that instead of silently skipping data.
    return TrimmedError("cursor " + std::to_string(from_lsn) +
                        " at/below trimmed tag record " +
                        std::to_string(it->second.trimmed_high));
  }
  Lsn lsn = FindFirstLocked(tag, from_lsn);
  if (lsn == kInvalidLsn) {
    return NotFoundError("no record with tag");
  }
  const ViewEntry* entry = SlotLocked(lsn);
  assert(entry != nullptr);
  if (entry->visible_time > clock_->Now()) {
    return NotFoundError("next record not yet visible");
  }
  MaybeArmDuplicateLocked(tag, lsn);
  return FetchLocked(*entry);
}

Result<LogEntry> Metalog::AwaitNext(std::string_view tag, Lsn from_lsn,
                                    DurationNs timeout) {
  TimeNs deadline = clock_->Now() + timeout;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (Lsn dup = TakePendingDuplicateLocked(tag, from_lsn);
        dup != kInvalidLsn) {
      return FetchLocked(*SlotLocked(dup));
    }
    if (auto it = tag_index_.find(tag);
        it != tag_index_.end() && it->second.TrimmedAtOrAbove(from_lsn)) {
      return TrimmedError("cursor at/below trimmed tag record");
    }
    Lsn lsn = FindFirstLocked(tag, from_lsn);
    TimeNs now = clock_->Now();
    if (lsn != kInvalidLsn) {
      const ViewEntry* entry = SlotLocked(lsn);
      assert(entry != nullptr);
      if (entry->visible_time <= now) {
        MaybeArmDuplicateLocked(tag, lsn);
        return FetchLocked(*entry);
      }
      if (closed_) {
        return UnavailableError("log closed");
      }
      if (now >= deadline) {
        return DeadlineExceededError("AwaitNext timed out");
      }
      DurationNs wait = std::min(entry->visible_time, deadline) - now;
      cv_.wait_for(lock, std::chrono::nanoseconds(wait));
      continue;
    }
    if (closed_) {
      return UnavailableError("log closed");
    }
    if (now >= deadline) {
      return DeadlineExceededError("AwaitNext timed out");
    }
    cv_.wait_for(lock, std::chrono::nanoseconds(deadline - now));
  }
}

Result<LogEntry> Metalog::ReadLast(std::string_view tag) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tag_index_.find(tag);
  if (it == tag_index_.end() || it->second.empty()) {
    return NotFoundError("no record with tag");
  }
  TimeNs now = clock_->Now();
  const TagIndex& lsns = it->second;
  for (auto rit = std::make_reverse_iterator(lsns.end());
       rit != std::make_reverse_iterator(lsns.begin()); ++rit) {
    const ViewEntry* entry = SlotLocked(*rit);
    if (entry == nullptr) {
      break;  // remaining entries are below the trim point
    }
    if (entry->durable_time <= now) {
      return FetchLocked(*entry);
    }
  }
  return NotFoundError("no durable record with tag");
}

Result<LogEntry> Metalog::ReadAt(Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lsn < base_lsn_) {
    return TrimmedError("record trimmed");
  }
  const ViewEntry* entry = SlotLocked(lsn);
  if (entry == nullptr) {
    return OutOfRangeError("lsn beyond tail");
  }
  if (entry->durable_time > clock_->Now()) {
    return NotFoundError("record not yet durable");
  }
  return FetchLocked(*entry);
}

Lsn Metalog::TailLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

Status Metalog::Trim(Lsn new_trim_point, uint64_t* records_dropped) {
  if (records_dropped != nullptr) {
    *records_dropped = 0;
  }
  // Declared before the lock so the detached records are freed after it is
  // released.
  std::vector<std::vector<LogEntry>> detached(shards_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (new_trim_point > next_lsn_) {
      return OutOfRangeError("trim point beyond tail");
    }
    if (new_trim_point <= base_lsn_) {
      return OkStatus();  // idempotent / stale trim
    }
    uint64_t dropped = new_trim_point - base_lsn_;
    // Per-shard trim prefix: a shard's local order is a subsequence of the
    // global order, so the records of shard s below the global trim point
    // are exactly a prefix of its local offsets.
    std::vector<uint64_t> shard_base(shards_.size(), 0);
    for (uint64_t i = 0; i < dropped; ++i) {
      const ViewEntry& e = entries_[i];
      shard_base[e.shard] = std::max(shard_base[e.shard], e.local + 1);
    }
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      if (shard_base[s] == 0) {
        continue;
      }
      uint64_t drop_locals = shard_base[s] > global_of_base_[s]
                                 ? shard_base[s] - global_of_base_[s]
                                 : 0;
      drop_locals = std::min<uint64_t>(drop_locals, global_of_[s].size());
      global_of_[s].erase(global_of_[s].begin(),
                          global_of_[s].begin() + drop_locals);
      global_of_base_[s] += drop_locals;
      detached[s] = shards_[s]->TrimTo(shard_base[s]);
    }
    // Only the tags of dropped records lose index entries, so the index
    // sheds its prefix in time proportional to the records dropped. Records
    // of one batch share their tag list: a repeat costs a pointer compare.
    const std::vector<std::string>* last_tags = nullptr;
    for (uint64_t i = 0; i < dropped; ++i) {
      const std::vector<std::string>* tags = entries_[i].tags;
      if (tags == last_tags) {
        continue;
      }
      last_tags = tags;
      for (const std::string& tag : *tags) {
        tag_index_.find(tag)->second.TrimBelow(new_trim_point);
      }
    }
    entries_.erase(entries_.begin(), entries_.begin() + dropped);
    base_lsn_ = new_trim_point;
    if (records_dropped != nullptr) {
      *records_dropped = dropped;
    }
  }
  // Readers blocked in AwaitNext below the new trim point must observe
  // kTrimmed now, not after their visibility/deadline wait expires — on
  // every shard, not just the one holding the metalog tail.
  cv_.notify_all();
  return OkStatus();
}

void Metalog::TagIndex::TrimBelow(Lsn trim_point) {
  while (head < lsns.size() && lsns[head] < trim_point) {
    trimmed_high = lsns[head];
    ++head;
  }
  if (head > lsns.size() / 2) {
    lsns.erase(lsns.begin(), lsns.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

Lsn Metalog::TrimPoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_;
}

void Metalog::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

uint64_t Metalog::cuts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cuts_;
}

}  // namespace impeller
