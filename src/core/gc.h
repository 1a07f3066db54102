// Garbage collection (paper §3.5 "Garbage collection"): consumers publish
// the LSN floor below which they no longer need log records (per-substream
// GC tasks in the paper); a master GC worker takes the global minimum and
// issues the shared log's trim API.
#ifndef IMPELLER_SRC_CORE_GC_H_
#define IMPELLER_SRC_CORE_GC_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "src/common/clock.h"
#include "src/sched/scheduler.h"
#include "src/sharedlog/shared_log.h"

namespace impeller {

// Floor sources: one per log reader that may come back for records
// (DESIGN.md §14 tabulates who holds each and when it advances).
inline std::string FloorSource(std::string_view kind, std::string_view id) {
  std::string source(kind);
  source += '/';
  source += id;
  return source;
}
inline std::string InputFloorSource(std::string_view tag) {
  return FloorSource("in", tag);  // one consuming task per substream
}
inline std::string TaskLogFloorSource(std::string_view task_id) {
  return FloorSource("tasklog", task_id);
}
inline std::string ChangeLogFloorSource(std::string_view task_id) {
  return FloorSource("clog", task_id);
}
inline std::string HandoffFloorSource(std::string_view task_id) {
  return FloorSource("handoff", task_id);
}
inline std::string EgressFloorGroup(std::string_view tag) {
  return FloorSource("egress", tag);
}

class GcRegistry {
 public:
  // Publishes "everything below `floor` is no longer needed by `source`".
  // Floors are monotone per source; a lower value is ignored.
  void PublishFloor(const std::string& source, Lsn floor);
  void Remove(const std::string& source);

  // Reader groups hold a substream for readers that may come later (egress
  // consumers, DESIGN.md §14). The group's own floor (published under the
  // group's name before any member joins) counts only while the group has
  // no member: the first reader to join replaces it with its own floor
  // (source `member`), and when the last member leaves, the group floor
  // comes back at that member's floor, so what nobody has read stays in
  // the log.
  void JoinGroup(const std::string& group, const std::string& member,
                 Lsn floor);
  void LeaveGroup(const std::string& group, const std::string& member);

  // Global minimum across all published floors; kInvalidLsn when no source
  // has published (nothing may be trimmed).
  Lsn MinFloor() const;

  // Current floor of one source; kInvalidLsn when it holds none.
  Lsn FloorOf(const std::string& source) const;

  size_t sources() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Lsn> floors_;
  std::map<std::string, size_t> group_members_;
};

// The master GC task: a cooperative entity on the engine's scheduler that
// trims the shared log to the registry's global minimum once per interval
// (the engine uses its commit interval: floors only move at commits).
class GcWorker {
 public:
  GcWorker(SharedLog* log, GcRegistry* registry, DurationNs interval);

  // One scheduler slice: a collection pass, then idle for the interval, or
  // run again soon while the floor is more than one pass ahead; done once
  // RequestStop was called.
  sched::StepResult Step();
  void RequestStop() { stop_.store(true); }

  // At most this many records are trimmed per pass. Floors can jump by a
  // whole snapshot interval at once (the changelog floor moves only when a
  // checkpoint is written); in bounded passes such a backlog is collected
  // over several slices, so no slice holds the log's mutexes or a worker
  // for long.
  static constexpr uint64_t kMaxRecordsPerPass = 8192;

  // One collection pass (exposed for tests); true when the floor is still
  // ahead of the new trim point.
  bool RunOnce();

  uint64_t trims_issued() const { return trims_.load(); }

 private:
  SharedLog* log_;
  GcRegistry* registry_;
  DurationNs interval_;
  Lsn last_trim_ = 0;
  std::atomic<uint64_t> trims_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_GC_H_
