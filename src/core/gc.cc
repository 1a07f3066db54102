#include "src/core/gc.h"

#include "src/common/logging.h"

namespace impeller {

void GcRegistry::PublishFloor(const std::string& source, Lsn floor) {
  std::lock_guard<std::mutex> lock(mu_);
  Lsn& slot = floors_[source];
  if (floor > slot) {
    slot = floor;
  }
}

void GcRegistry::Remove(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  floors_.erase(source);
}

void GcRegistry::JoinGroup(const std::string& group,
                           const std::string& member, Lsn floor) {
  std::lock_guard<std::mutex> lock(mu_);
  // One critical section: MinFloor never sees the group without either
  // its own floor or the new member's.
  floors_.erase(group);
  floors_[member] = floor;
  ++group_members_[group];
}

void GcRegistry::LeaveGroup(const std::string& group,
                            const std::string& member) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = floors_.find(member);
  if (it == floors_.end()) {
    return;
  }
  Lsn floor = it->second;
  floors_.erase(it);
  size_t& members = group_members_[group];
  if (members > 0 && --members == 0) {
    floors_[group] = floor;
  }
}

Lsn GcRegistry::FloorOf(const std::string& source) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = floors_.find(source);
  return it == floors_.end() ? kInvalidLsn : it->second;
}

Lsn GcRegistry::MinFloor() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (floors_.empty()) {
    return kInvalidLsn;
  }
  Lsn min = kInvalidLsn;
  for (const auto& [source, floor] : floors_) {
    min = std::min(min, floor);
  }
  return min;
}

size_t GcRegistry::sources() const {
  std::lock_guard<std::mutex> lock(mu_);
  return floors_.size();
}

GcWorker::GcWorker(SharedLog* log, GcRegistry* registry, DurationNs interval)
    : log_(log), registry_(registry), interval_(interval) {}

sched::StepResult GcWorker::Step() {
  if (stop_.load()) {
    return sched::StepResult::Done();
  }
  if (RunOnce()) {
    return sched::StepResult::Ready();
  }
  return sched::StepResult::Idle(interval_);
}

bool GcWorker::RunOnce() {
  Lsn floor = registry_->MinFloor();
  if (floor == kInvalidLsn || floor <= last_trim_) {
    return false;
  }
  Lsn target = std::min(floor, last_trim_ + kMaxRecordsPerPass);
  Status st = log_->Trim(target);
  if (!st.ok()) {
    LOG_WARN << "GC trim to " << target << " failed: " << st.ToString();
    return false;
  }
  last_trim_ = target;
  trims_.fetch_add(1);
  return target < floor;
}

}  // namespace impeller
