// One shard of the sharded shared log (Scalog/Boki data plane). A shard is
// an independent sequencer: it admits batches under its own lock, assigns
// contiguous *local* offsets, runs the latency model, and checks conditional
// appends against the log's fencing metadata. Shards know nothing about
// global LSNs — the metalog (metalog.h) interleaves per-shard cuts into the
// total order and stamps each record's LSN at sequencing time.
//
// The latency model doubles as a per-shard sequencer capacity model: each
// admitted batch occupies the shard's ordering pipeline for its modeled ack
// duration (`busy_until_`), so concurrent appenders to one shard queue
// behind each other's ack rounds while appenders on different shards overlap
// — which is exactly the scaling argument of the paper's shared log.
#ifndef IMPELLER_SRC_SHAREDLOG_SHARDING_SHARD_H_
#define IMPELLER_SRC_SHAREDLOG_SHARDING_SHARD_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/sharedlog/latency_model.h"
#include "src/sharedlog/log_record.h"

namespace impeller {

// The log's key-value configuration metadata (paper §3.4), shared by every
// shard: conditional appends on any shard fence against one table, so a
// zombie's append races with the task manager's MetaIncrement exactly as it
// did in the unsharded log. Lock order: shard mutex may be held when taking
// this table's mutex, never the reverse.
class FencingTable {
 public:
  void Put(const std::string& key, uint64_t value) {
    std::lock_guard<std::mutex> lock(mu_);
    map_[key] = value;
  }

  Result<uint64_t> Get(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      return NotFoundError("no metadata key " + key);
    }
    return it->second;
  }

  uint64_t Increment(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    return ++map_[key];
  }

  bool Cas(const std::string& key, uint64_t expected, uint64_t desired) {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t& slot = map_[key];
    if (slot != expected) {
      return false;
    }
    slot = desired;
    return true;
  }

  // Missing keys read as 0 (the value conditional appends compare against).
  uint64_t ValueOrZero(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    return it == map_.end() ? 0 : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, uint64_t> map_;
};

class LogShard {
 public:
  struct AdmitOutcome {
    uint64_t first_local = 0;  // local offset of the batch's first record
    uint64_t count = 0;
    // The modeled completion time of this batch's ordering round; the
    // appender sleeps until then (plus any injected ack-delay spike).
    TimeNs ack_done = 0;
    DurationNs injected_ack_delay = 0;
  };

  // `log_name` is the owning log's name (fault probes match on it);
  // `latency` may be shared across shards (models lock internally).
  LogShard(uint32_t id, std::string log_name,
           std::shared_ptr<LatencyModel> latency, Clock* clock);

  // Admits a batch: fault probes, fencing checks against `meta`, latency
  // sampling, and record storage at contiguous local offsets. All-or-nothing;
  // on any failure `reqs` is left intact for the caller's retry. Consumes
  // payloads (moves them into the shard) only on success.
  Result<AdmitOutcome> Admit(std::vector<AppendRequest>& reqs,
                             size_t batch_bytes, const FencingTable& meta);

  // Sequencing visitor: called once per record with its local offset and
  // freshly assigned global LSN. `tags` stays at its address for as long as
  // the record is in the shard (and in the records TrimTo hands back).
  using SequenceVisitor = std::function<void(
      uint64_t local, Lsn global, const std::vector<std::string>& tags,
      TimeNs visible_time, TimeNs durable_time)>;

  // Stamps global LSNs `first_global, first_global+1, ...` onto every record
  // with local offset >= `from_local`, reporting each to `visit`. Returns
  // the number of records sequenced. Called by the metalog with its mutex
  // held; takes the shard mutex internally (metalog -> shard lock order).
  uint64_t Sequence(uint64_t from_local, Lsn first_global,
                    const SequenceVisitor& visit);

  // Copy of the record at `local` (global LSN already stamped). kTrimmed if
  // the shard has dropped it.
  Result<LogEntry> EntryAt(uint64_t local) const;

  // Drops all records with local offset < new_base_local and hands them
  // back, so the caller can free them after releasing its own locks.
  std::vector<LogEntry> TrimTo(uint64_t new_base_local);

  // Seals the shard's sequencer (failover, DESIGN.md §10): every subsequent
  // Admit is rejected with kSealed before it can assign a local offset, so a
  // zombie sequencer cannot extend the log past the final cut. Idempotent;
  // returns the shard's final local tail (next unassigned offset). Already-
  // admitted records stay readable and sequencable.
  uint64_t Seal();

  // Reopens a sealed shard (rejoin at a later placement epoch). Local
  // offsets continue from the pre-seal tail.
  void Unseal();

  bool sealed() const;

  uint32_t id() const { return id_; }

 private:
  struct Record {
    LogEntry entry;  // entry.lsn == kInvalidLsn until sequenced
    TimeNs durable_time = 0;
  };

  const uint32_t id_;
  const std::string log_name_;
  const std::string probe_detail_;  // "<log_name>/s<id>"
  std::shared_ptr<LatencyModel> latency_;
  Clock* clock_;

  mutable std::mutex mu_;
  bool sealed_ = false;
  std::deque<Record> records_;  // records_[i] has local offset base_local_+i
  uint64_t base_local_ = 0;
  uint64_t next_local_ = 0;
  TimeNs last_append_time_ = 0;
  TimeNs busy_until_ = 0;  // modeled sequencer pipeline occupancy
};

}  // namespace impeller

#endif  // IMPELLER_SRC_SHAREDLOG_SHARDING_SHARD_H_
