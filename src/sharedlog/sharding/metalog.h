// The metalog: the ordering plane of the sharded shared log (Scalog §3,
// Boki). Shards admit records at local offsets; the metalog periodically
// publishes a *cut* — the vector of shard tails — and the interleaving rule
// (shard order within a cut, cut order across cuts) maps every record to a
// unique, dense global LSN. Readers resolve tags and LSNs entirely through
// the metalog's view; payloads are fetched from the owning shard.
//
// Cut publication is cooperative: every appender publishes on its own
// sequencing call under the view mutex, batching in whatever other shards
// admitted since the last cut (a combining sequencer). There is no
// background ordering thread to stall, but a fault probe on
// "log/metalog/cut" can inject one (kDelay holds the view mutex — a
// sequencer stall that every shard's appenders and readers observe).
//
// Lock order: metalog (view) mutex -> shard mutex. Appenders never hold the
// view mutex during admission, so shard admission runs concurrently across
// shards even while a cut is being published.
#ifndef IMPELLER_SRC_SHAREDLOG_SHARDING_METALOG_H_
#define IMPELLER_SRC_SHAREDLOG_SHARDING_METALOG_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/common/status.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/sharding/shard.h"

namespace impeller {

class Metalog {
 public:
  Metalog(std::string log_name, Clock* clock);

  // Wires the shards in; called once before any other method. The metalog
  // does not own the shards.
  void AttachShards(std::vector<LogShard*> shards);

  // Publishes a cut covering at least locals [first_local, first_local +
  // count) of `shard` and returns their global LSNs. Infallible in normal
  // operation: the records were already admitted, so one cut always covers
  // them (entries racing with a concurrent trim come back as kInvalidLsn,
  // which cannot happen while GC floors trail the commit path).
  std::vector<Lsn> Sequence(uint32_t shard, uint64_t first_local,
                            uint64_t count);

  // Seal protocol step 2 (DESIGN.md §10): publishes one final cut draining
  // every shard's admitted tail — in particular everything the sealed shard
  // admitted before its sequencer was fenced — and returns the LSN boundary
  // (exclusive) of the sealed shard's contribution to the global order.
  // Because the cut drains admitted records only, the global order stays
  // dense across the reconfiguration: no LSN gaps, no reordering.
  Lsn SealCut();

  // Read-side mirror of the SharedLog API over the global view.
  Result<LogEntry> ReadNext(std::string_view tag, Lsn from_lsn);
  Result<LogEntry> AwaitNext(std::string_view tag, Lsn from_lsn,
                             DurationNs timeout);
  Result<LogEntry> ReadLast(std::string_view tag);
  Result<LogEntry> ReadAt(Lsn lsn);

  Lsn TailLsn() const;

  // Drops every sequenced record with lsn < new_trim_point from the view
  // and from the owning shards. `records_dropped` (optional) reports how
  // many records this call actually removed. The view, the per-tag index
  // and the shards shed the prefix under their mutexes in time proportional
  // to the records dropped; the records themselves are freed after the
  // mutexes are released, so a trim never stalls appenders or readers on
  // freeing payloads.
  Status Trim(Lsn new_trim_point, uint64_t* records_dropped);
  Lsn TrimPoint() const;

  // Shutdown: wakes every reader blocked in AwaitNext on any shard; they
  // observe kUnavailable once no more data can arrive. Reads of existing
  // records keep working after Close.
  void Close();

  // Number of cuts published that sequenced at least one record.
  uint64_t cuts() const;

 private:
  struct ViewEntry {
    uint32_t shard = 0;
    uint64_t local = 0;
    // The record's shared tag list, owned by the shard's copy of the record.
    const std::vector<std::string>* tags = nullptr;
    TimeNs visible_time = 0;
    TimeNs durable_time = 0;
  };

  // Drains every shard's unsequenced tail into the view as one cut,
  // assigning dense global LSNs in shard order. Caller holds mu_.
  void PublishCutLocked();

  // Smallest indexed LSN >= from for `tag`, or kInvalidLsn. Caller holds mu_.
  Lsn FindFirstLocked(std::string_view tag, Lsn from) const;

  // View entry for an LSN, or nullptr if trimmed / beyond the tail. Caller
  // holds mu_.
  const ViewEntry* SlotLocked(Lsn lsn) const;

  // Copies the record behind a view entry out of its shard (takes the shard
  // mutex; caller holds mu_).
  Result<LogEntry> FetchLocked(const ViewEntry& entry) const;

  // Fault-injection redelivery (kDuplicate on "log/read"); see the dup
  // handling in the unsharded log. Callers hold mu_.
  Lsn TakePendingDuplicateLocked(std::string_view tag, Lsn from_lsn);
  void MaybeArmDuplicateLocked(std::string_view tag, Lsn lsn);

  const std::string log_name_;
  Clock* clock_;
  std::vector<LogShard*> shards_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ViewEntry> entries_;  // entries_[i] has lsn base_lsn_ + i
  Lsn base_lsn_ = 0;               // == trim point
  Lsn next_lsn_ = 0;
  // Per shard: next local offset not yet sequenced.
  std::vector<uint64_t> sequenced_upto_;
  // Per shard: global LSN of each sequenced local offset >= global_of_base_
  // (pruned by Trim alongside the shard's records).
  std::vector<std::deque<Lsn>> global_of_;
  std::vector<uint64_t> global_of_base_;
  // Heterogeneous lookup (transparent hash/equal): per-read probes take the
  // caller's string_view directly, no temporary std::string.
  template <typename V>
  using TagMap = std::unordered_map<std::string, V, TransparentStringHash,
                                    std::equal_to<>>;
  // One tag's LSNs, ascending. A trim advances `head` past the dropped
  // entries and compacts the vector once more than half of it is dead, so
  // shedding costs O(1) amortized per dropped entry while every read
  // searches one contiguous array.
  struct TagIndex {
    std::vector<Lsn> lsns;
    size_t head = 0;  // lsns[head..] are live
    // Highest LSN ever trimmed for the tag (kInvalidLsn: none): a cursor
    // at or below it has provably missed records and must see kTrimmed.
    Lsn trimmed_high = kInvalidLsn;

    std::vector<Lsn>::const_iterator begin() const {
      return lsns.begin() + static_cast<std::ptrdiff_t>(head);
    }
    std::vector<Lsn>::const_iterator end() const { return lsns.end(); }
    bool empty() const { return head == lsns.size(); }
    bool TrimmedAtOrAbove(Lsn from_lsn) const {
      return trimmed_high != kInvalidLsn && from_lsn <= trimmed_high;
    }
    // Drops the entries below `trim_point`.
    void TrimBelow(Lsn trim_point);
  };
  TagMap<TagIndex> tag_index_;
  TagMap<Lsn> dup_pending_;
  uint64_t cuts_ = 0;
  bool closed_ = false;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_SHAREDLOG_SHARDING_METALOG_H_
