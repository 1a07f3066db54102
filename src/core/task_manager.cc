#include "src/core/task_manager.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/core/stream.h"

namespace impeller {

TaskManager::TaskManager(SharedLog* log, KvStore* checkpoint_store,
                         EngineConfig config, MetricsRegistry* metrics,
                         Clock* clock, sched::WorkStealingScheduler* sched)
    : log_(log),
      checkpoint_store_(checkpoint_store),
      config_(config),
      metrics_(metrics),
      clock_(clock),
      sched_(sched) {}

TaskManager::~TaskManager() { Stop(); }

Status TaskManager::Submit(QueryPlan plan) {
  if (submitted_) {
    return InvalidArgumentError(
        "one TaskManager runs one query (one shared log per query, §3.1)");
  }
  if (config_.log_shards == 0) {
    return InvalidArgumentError(
        "log_shards must be >= 1: zero sequencers cannot order anything");
  }
  plan_ = std::move(plan);
  submitted_ = true;

  if (config_.protocol == ProtocolKind::kKafkaTxn) {
    TxnCoordinatorOptions opts;
    opts.name = plan_.name;
    opts.metrics = metrics_;
    opts.retry = config_.retry;
    txn_coordinator_ = std::make_unique<TxnCoordinator>(log_, clock_, opts);
    txn_coordinator_->Start();
  }
  if (config_.protocol == ProtocolKind::kAlignedCheckpoint) {
    BarrierCoordinatorOptions opts;
    opts.query = plan_.name;
    opts.interval = config_.commit_interval;
    opts.metrics = metrics_;
    opts.retry = config_.retry;
    barrier_coordinator_ = std::make_unique<BarrierCoordinator>(
        log_, checkpoint_store_, clock_, opts);
    std::vector<std::string> ingress_tags;
    for (const auto& [name, stream] : plan_.streams) {
      if (stream.external) {
        for (uint32_t sub = 0; sub < stream.num_substreams; ++sub) {
          ingress_tags.push_back(DataTag(name, sub));
        }
      }
    }
    std::vector<std::string> task_ids;
    for (const auto& stage : plan_.stages) {
      for (uint32_t i = 0; i < stage.num_tasks; ++i) {
        task_ids.push_back(MakeTaskId(plan_.name, stage.name, i));
      }
    }
    barrier_coordinator_->Configure(std::move(ingress_tags),
                                    std::move(task_ids));
  }
  gc_worker_ = std::make_unique<GcWorker>(log_, &gc_registry_,
                                          config_.commit_interval);
  if (config_.write_egress) {
    // Results nobody has read yet are never collected: each egress
    // substream is held until a consumer takes over (EgressConsumer).
    for (const auto& [name, stream] : plan_.streams) {
      if (stream.egress) {
        for (uint32_t sub = 0; sub < stream.num_substreams; ++sub) {
          gc_registry_.PublishFloor(EgressFloorGroup(DataTag(name, sub)), 0);
        }
      }
    }
  }
  bool marker_mode = config_.protocol == ProtocolKind::kProgressMarking ||
                     config_.protocol == ProtocolKind::kKafkaTxn;
  if (marker_mode && config_.enable_checkpointing) {
    checkpoint_worker_ = std::make_unique<CheckpointWorker>(
        log_, checkpoint_store_, clock_, config_.snapshot_interval,
        &gc_registry_);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& stage : plan_.stages) {
      for (uint32_t i = 0; i < stage.num_tasks; ++i) {
        std::string task_id = MakeTaskId(plan_.name, stage.name, i);
        TaskEntry& entry = tasks_[task_id];
        entry.stage = plan_.FindStage(stage.name);
        entry.index = i;
        if (checkpoint_worker_ != nullptr && stage.stateful &&
            checkpoint_registered_.insert(task_id).second) {
          checkpoint_worker_->RegisterTask(task_id);
        }
        IMPELLER_RETURN_IF_ERROR(SpawnLocked(entry, task_id));
      }
    }
  }

  if (checkpoint_worker_ != nullptr) {
    checkpoint_worker_->Start();
  }
  GcWorker* gc = gc_worker_.get();
  gc_ticket_ = sched_->Submit([gc] { return gc->Step(); }, 0, "gc");
  if (barrier_coordinator_ != nullptr) {
    barrier_coordinator_->Start();
  }
  running_.store(true);
  if (config_.auto_restart) {
    monitor_ = JoiningThread([this] { MonitorLoop(); });
  }
  return OkStatus();
}

Status TaskManager::SpawnLocked(TaskEntry& entry, const std::string& task_id) {
  // Mint the instance number atomically in the log's metadata: this is what
  // fences any still-running older instance (§3.4).
  uint64_t instance = log_->MetaIncrement(InstanceMetaKey(task_id));

  TaskWiring wiring;
  wiring.plan = &plan_;
  wiring.stage = entry.stage;
  wiring.index = entry.index;
  wiring.instance = instance;
  wiring.log = log_;
  wiring.checkpoint_store = checkpoint_store_;
  wiring.config = config_;
  wiring.metrics = metrics_;
  wiring.clock = clock_;
  wiring.txn_coordinator = txn_coordinator_.get();
  wiring.barrier_coordinator = barrier_coordinator_.get();
  wiring.gc = &gc_registry_;
  // Rescale handoff lives on the entry so a monitor restart mid-handoff
  // re-passes it instead of losing the old generation's cursors and state.
  wiring.initial_input_ends = entry.handoff_ends;
  wiring.handoff_sources = entry.handoff_sources;
  wiring.direct_handoff = entry.direct_handoff;

  if (entry.runtime != nullptr) {
    entry.old.emplace_back(std::move(entry.runtime), entry.ticket);
    entry.ticket = sched::kInvalidTicket;
  }
  entry.runtime = std::make_unique<TaskRuntime>(std::move(wiring));
  TaskRuntime* rt = entry.runtime.get();
  entry.ticket = sched_->Submit([rt] { return rt->Step(); },
                                TaskAffinity(entry), task_id);
  return OkStatus();
}

uint32_t TaskManager::TaskAffinity(const TaskEntry& entry) const {
  if (entry.stage != nullptr && !entry.stage->inputs.empty()) {
    // First owned input substream (task i of T owns substreams s % T == i,
    // so substream `index` is always owned: num_tasks <= num_substreams).
    return log_->ShardOfTag(DataTag(entry.stage->inputs[0], entry.index));
  }
  return entry.index;
}

void TaskManager::Stop() {
  if (!submitted_) {
    return;
  }
  // Fences CrashTask/RestartTask/StartReplacement: a restart racing the
  // shutdown could otherwise submit a task to a scheduler whose workers are
  // already joined, and then spin forever waiting for it to start.
  stopping_.store(true);
  running_.store(false);
  monitor_.Join();
  // Stop stages in topological order so each stage's final cut is already
  // in the log when its consumer drains (graceful shutdown = a complete,
  // consistent run).
  std::vector<const StageSpec*> order = TopologicalStageOrder();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Zombies first: they are superseded and hold no obligations.
    for (auto& [id, entry] : tasks_) {
      for (auto& [rt, ticket] : entry.old) {
        rt->RequestStop();
      }
    }
  }
  for (const StageSpec* stage : order) {
    std::vector<std::string> ids;
    for (uint32_t i = 0; i < stage->num_tasks; ++i) {
      ids.push_back(MakeTaskId(plan_.name, stage->name, i));
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& id : ids) {
      auto it = tasks_.find(id);
      if (it == tasks_.end()) {
        continue;
      }
      if (it->second.runtime != nullptr) {
        it->second.runtime->RequestStop();
      }
    }
    for (const auto& id : ids) {
      auto it = tasks_.find(id);
      if (it != tasks_.end()) {
        sched_->Wait(it->second.ticket);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, entry] : tasks_) {
      sched_->Wait(entry.ticket);
      for (auto& [rt, ticket] : entry.old) {
        sched_->Wait(ticket);
      }
    }
  }
  if (barrier_coordinator_ != nullptr) {
    barrier_coordinator_->Stop();
  }
  if (txn_coordinator_ != nullptr) {
    txn_coordinator_->Stop();
  }
  if (checkpoint_worker_ != nullptr) {
    checkpoint_worker_->Stop();
  }
  if (gc_worker_ != nullptr) {
    // Parked for at most one commit interval.
    gc_worker_->RequestStop();
    sched_->Wait(gc_ticket_);
  }
}

Status TaskManager::CrashTask(const std::string& task_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_.load()) {
    return UnavailableError("task manager is stopping");
  }
  auto it = tasks_.find(task_id);
  if (it == tasks_.end() || it->second.runtime == nullptr) {
    return NotFoundError("unknown task " + task_id);
  }
  it->second.runtime->Crash();
  return OkStatus();
}

Result<RecoveryStats> TaskManager::RestartTask(const std::string& task_id) {
  TaskRuntime* rt = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load()) {
      return UnavailableError("task manager is stopping");
    }
    auto it = tasks_.find(task_id);
    if (it == tasks_.end()) {
      return NotFoundError("unknown task " + task_id);
    }
    TaskEntry& entry = it->second;
    if (entry.runtime != nullptr) {
      entry.runtime->Crash();
      sched_->Wait(entry.ticket);
    }
    IMPELLER_RETURN_IF_ERROR(SpawnLocked(entry, task_id));
    rt = entry.runtime.get();
  }
  while (!rt->started() && !rt->finished()) {
    if (stopping_.load()) {
      // Shutdown owns the task now: Stop() requests its stop and waits its
      // ticket, so the restart's recovery never completes. Bail out rather
      // than spin against a draining scheduler.
      return UnavailableError("task manager stopped during restart");
    }
    clock_->SleepFor(100 * kMicrosecond);
  }
  if (rt->finished() && !rt->final_status().ok()) {
    return rt->final_status();
  }
  return rt->recovery_stats();
}

Status TaskManager::StartReplacement(const std::string& task_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_.load()) {
    return UnavailableError("task manager is stopping");
  }
  auto it = tasks_.find(task_id);
  if (it == tasks_.end()) {
    return NotFoundError("unknown task " + task_id);
  }
  // Deliberately do NOT stop the old instance: it becomes a zombie that the
  // conditional-append fence must neutralize.
  return SpawnLocked(it->second, task_id);
}

TaskRuntime* TaskManager::FindTask(const std::string& task_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tasks_.find(task_id);
  return it == tasks_.end() ? nullptr : it->second.runtime.get();
}

std::vector<std::string> TaskManager::AllTaskIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(tasks_.size());
  for (const auto& [id, entry] : tasks_) {
    ids.push_back(id);
  }
  return ids;
}

bool TaskManager::AllTasksIdle() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, entry] : tasks_) {
    if (entry.runtime != nullptr && !entry.runtime->finished()) {
      return false;
    }
  }
  return true;
}

namespace {

// Runs a function on scope exit; RescaleStage uses it so the barrier
// coordinator is resumed on every return path, including errors.
template <typename F>
class ScopeExit {
 public:
  explicit ScopeExit(F fn) : fn_(std::move(fn)) {}
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;
  ~ScopeExit() { fn_(); }

 private:
  F fn_;
};

// The source's checkpoint as of the handoff, if it does not outrun the
// source's final cut. Without one the new generation replays the source's
// changelog from its GC floor: from 0, or from where a rescale registered
// the id (records below belong to an earlier life of the id).
void CaptureHandoffCheckpoint(KvStore* store, const GcRegistry& gc,
                              HandoffSource& src) {
  Lsn floor = gc.FloorOf(ChangeLogFloorSource(src.task_id));
  src.replay_from = floor == kInvalidLsn ? 0 : floor;
  auto meta_raw = store->Get(CheckpointMetaKey(src.task_id));
  if (!meta_raw.ok()) {
    return;
  }
  auto meta = DecodeCheckpointMeta(*meta_raw);
  if (!meta.ok() || meta->cut_lsn == kInvalidLsn ||
      meta->cut_lsn > src.cut_lsn) {
    return;
  }
  auto blob = store->Get(CheckpointBlobKey(src.task_id));
  if (!blob.ok()) {
    return;
  }
  src.snapshot = std::make_shared<const std::string>(std::move(*blob));
  src.replay_from = meta->next_replay_lsn;
}

}  // namespace

Status TaskManager::RescaleStage(const std::string& stage_name,
                                 uint32_t new_tasks) {
  StageSpec* stage = nullptr;
  for (auto& s : plan_.stages) {
    if (s.name == stage_name) {
      stage = &s;
    }
  }
  if (stage == nullptr) {
    return NotFoundError("unknown stage " + stage_name);
  }
  if (new_tasks == 0 || new_tasks > stage->num_substreams) {
    return InvalidArgumentError(
        "task count must be in [1, num_substreams] (" +
        std::to_string(stage->num_substreams) + ")");
  }
  if (stopping_.load()) {
    return UnavailableError("task manager is stopping");
  }
  // One rescale at a time: the autoscaler and tests may race.
  std::lock_guard<std::mutex> rescale_lock(rescale_mu_);
  uint32_t old_tasks = stage->num_tasks;
  if (new_tasks == old_tasks) {
    return OkStatus();
  }
  bool marker_mode = config_.protocol == ProtocolKind::kProgressMarking ||
                     config_.protocol == ProtocolKind::kKafkaTxn;
  bool aligned = config_.protocol == ProtocolKind::kAlignedCheckpoint;

  // Under aligned checkpointing the coordinator's task list is about to
  // change; pause it for the duration of the rescale so no checkpoint
  // round spans the generation switch. The scope guard resumes it on EVERY
  // exit path — a rescale that fails partway through must not leave
  // checkpointing permanently halted.
  bool paused_coordinator = false;
  if (aligned && barrier_coordinator_ != nullptr) {
    barrier_coordinator_->Stop();
    paused_coordinator = true;
  }
  ScopeExit resume_coordinator([this, paused_coordinator] {
    if (paused_coordinator && !stopping_.load()) {
      ResumeBarrierCoordinator();
    }
  });

  std::vector<std::string> old_ids;
  for (uint32_t i = 0; i < old_tasks; ++i) {
    old_ids.push_back(MakeTaskId(plan_.name, stage->name, i));
  }

  // 1. Stop the old generation gracefully: each task drains and commits a
  //    final cut covering everything it consumed. The entries are marked
  //    retired for the duration so the monitor cannot resurrect an old
  //    instance next to the new generation (a crash during the drain is
  //    fine: the handoff then starts from the task's last *committed* cut
  //    and the new generation redoes the uncommitted suffix).
  {
    std::vector<sched::Ticket> draining;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& id : old_ids) {
        auto it = tasks_.find(id);
        if (it == tasks_.end()) {
          continue;
        }
        it->second.retired = true;
        if (it->second.runtime != nullptr) {
          it->second.runtime->RequestStop();
        }
        draining.push_back(it->second.ticket);
      }
    }
    // Each graceful drain can take up to the drain deadline with live
    // producers; waiting outside mu_ keeps the monitor's heartbeat checks,
    // unrelated restarts, and stats collection responsive. The entries are
    // already retired, so the monitor cannot respawn them mid-wait.
    for (sched::Ticket ticket : draining) {
      sched_->Wait(ticket);
    }
  }

  // 2. Gather the handoff: every substream's consumed end, plus — for
  //    stateful stages — the state-ownership transfer material. GC is held
  //    where it is until the new generation's pins are in place: the
  //    checkpoints captured below must still find their changelog suffix in
  //    the log when the new generation replays it.
  const std::string freeze_source = "rescale/" + stage_name;
  gc_registry_.PublishFloor(freeze_source, log_->TrimPoint());
  ScopeExit release_freeze(
      [this, &freeze_source] { gc_registry_.Remove(freeze_source); });
  std::map<std::string, Lsn> ends;
  std::vector<HandoffSource> sources;
  std::shared_ptr<DirectHandoff> direct;
  auto merge_ends = [&ends](const std::vector<std::pair<std::string, Lsn>>&
                                input_ends) {
    for (const auto& [tag, end] : input_ends) {
      if (end == kInvalidLsn) {
        continue;  // never consumed: do not plant a cursor at 0
      }
      auto [it, inserted] = ends.try_emplace(tag, end);
      if (!inserted && end > it->second) {
        it->second = end;
      }
    }
  };
  if (marker_mode) {
    // The changelog is the transfer medium: each old task's final cut names
    // the LSN up to which the new generation replays its changelog.
    for (uint32_t i = 0; i < old_tasks; ++i) {
      const std::string& id = old_ids[i];
      auto cut = LastCommittedCut(log_, id);
      if (!cut.ok()) {
        return cut.status();
      }
      if (!cut->has_value()) {
        continue;  // never committed: its substreams start fresh
      }
      merge_ends((*cut)->input_ends);
      if (stage->stateful) {
        HandoffSource src;
        src.task_id = id;
        src.default_substream = i;
        src.cut_lsn = (*cut)->lsn;
        src.txn_id = (*cut)->txn_id;
        CaptureHandoffCheckpoint(checkpoint_store_, gc_registry_, src);
        sources.push_back(std::move(src));
      }
    }
  } else {
    // No changelog under aligned/unsafe: export the stopped runtimes' state
    // (and commit-tracker continuation) in memory instead.
    direct = std::make_shared<DirectHandoff>();
    direct->completed_ckpt_at_handoff =
        barrier_coordinator_ != nullptr
            ? barrier_coordinator_->LatestCompleted()
            : 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& id : old_ids) {
      auto it = tasks_.find(id);
      if (it == tasks_.end() || it->second.runtime == nullptr) {
        continue;
      }
      DirectHandoff::Source src = it->second.runtime->ExportHandoff();
      merge_ends(src.input_ends);
      if (it->second.index >= new_tasks) {
        // Retired by this scale-down: keep its output sequence for the
        // scale-up that revives the id (its state goes to the survivors).
        DirectHandoff::Source sequence;
        sequence.task_id = src.task_id;
        sequence.seqmap = src.seqmap;
        sequence.out_seq = src.out_seq;
        retired_sequences_[id] = std::move(sequence);
      }
      direct->sources.push_back(std::move(src));
    }
    // A revived id continues its earlier life's output sequence: downstream
    // deduplication is keyed by producer id, so restarting at 0 would drop
    // its outputs as duplicates.
    for (uint32_t i = old_tasks; i < new_tasks; ++i) {
      auto it = retired_sequences_.find(MakeTaskId(plan_.name, stage->name, i));
      if (it != retired_sequences_.end()) {
        direct->sources.push_back(std::move(it->second));
        retired_sequences_.erase(it);
      }
    }
  }

  // 3. Spawn the new generation; substream ownership is recomputed from the
  //    new task count, and the handoff seeds each task's wiring. Each new
  //    task pins the sources' changelogs from their captured checkpoints
  //    until its first cut seals the handoff.
  Lsn handoff_floor = kInvalidLsn;
  for (const auto& src : sources) {
    handoff_floor = std::min(handoff_floor, src.replay_from);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stage->num_tasks = new_tasks;
    for (uint32_t i = 0; i < new_tasks; ++i) {
      std::string task_id = MakeTaskId(plan_.name, stage->name, i);
      TaskEntry& entry = tasks_[task_id];
      entry.stage = stage;
      entry.index = i;
      entry.retired = false;
      entry.handoff_ends = ends;
      entry.handoff_sources = sources;
      entry.direct_handoff = direct;
      if (handoff_floor != kInvalidLsn) {
        gc_registry_.Remove(HandoffFloorSource(task_id));
        gc_registry_.PublishFloor(HandoffFloorSource(task_id), handoff_floor);
      }
      if (checkpoint_worker_ != nullptr && stage->stateful &&
          checkpoint_registered_.insert(task_id).second) {
        // A revived id's changelog holds records of its earlier life: the
        // shadow starts past them.
        checkpoint_worker_->RegisterTask(task_id, log_->TailLsn());
      }
      IMPELLER_RETURN_IF_ERROR(SpawnLocked(entry, task_id));
    }
    // Scale-down leftovers: keep the entries but never restart them — a
    // respawn at index >= num_tasks would own no substream and recompute
    // the wrong range. Their logs are needed only through the handoff
    // pins above, so their own floors go.
    for (uint32_t i = new_tasks; i < old_tasks; ++i) {
      const std::string& id = old_ids[i];
      auto it = tasks_.find(id);
      if (it != tasks_.end()) {
        it->second.retired = true;
      }
      if (checkpoint_worker_ != nullptr && checkpoint_registered_.erase(id)) {
        checkpoint_worker_->UnregisterTask(id);
      }
      gc_registry_.Remove(TaskLogFloorSource(id));
      gc_registry_.Remove(HandoffFloorSource(id));
    }
  }

  if (aligned && barrier_coordinator_ != nullptr) {
    // A consumer's barrier alignment counts one barrier per producer task,
    // so the producer count baked into running consumers is now stale:
    // bounce them (graceful stop + respawn recovers from the latest
    // completed checkpoint; sequence dedup absorbs re-emissions).
    std::set<std::string> consumer_stages;
    for (const auto& [name, stream] : plan_.streams) {
      if (stream.producer_stage == stage_name &&
          !stream.consumer_stage.empty() &&
          stream.consumer_stage != stage_name) {
        consumer_stages.insert(stream.consumer_stage);
      }
    }
    std::vector<std::pair<std::string, sched::Ticket>> bounced;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& consumer : consumer_stages) {
        const StageSpec* cstage = plan_.FindStage(consumer);
        if (cstage == nullptr) {
          continue;
        }
        for (uint32_t i = 0; i < cstage->num_tasks; ++i) {
          std::string id = MakeTaskId(plan_.name, cstage->name, i);
          auto it = tasks_.find(id);
          if (it == tasks_.end()) {
            continue;
          }
          if (it->second.runtime != nullptr) {
            it->second.runtime->RequestStop();
          }
          bounced.emplace_back(std::move(id), it->second.ticket);
        }
      }
    }
    // Graceful drains run up to the drain deadline each; wait outside mu_
    // so the manager stays responsive (see step 1).
    for (const auto& [id, ticket] : bounced) {
      sched_->Wait(ticket);
    }
    // Respawn every bounced consumer even if one spawn fails — a stopped
    // task left behind would silently halt its stage.
    Status bounce_status = OkStatus();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [id, ticket] : bounced) {
        auto it = tasks_.find(id);
        if (it == tasks_.end()) {
          continue;
        }
        Status st = SpawnLocked(it->second, id);
        if (!st.ok()) {
          LOG_ERROR << "respawn of bounced consumer " << id
                    << " failed: " << st.ToString();
          if (bounce_status.ok()) {
            bounce_status = st;
          }
        }
      }
    }
    IMPELLER_RETURN_IF_ERROR(bounce_status);
  }

  // The resume_coordinator scope guard re-Configures and restarts the
  // barrier coordinator against the new task list on return.
  if (metrics_ != nullptr) {
    metrics_->GetCounter(new_tasks > old_tasks ? "rescale/up"
                                               : "rescale/down")
        ->Add();
  }
  return OkStatus();
}

void TaskManager::ResumeBarrierCoordinator() {
  std::vector<std::string> ingress_tags;
  std::vector<std::string> task_ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, stream] : plan_.streams) {
      if (stream.external) {
        for (uint32_t sub = 0; sub < stream.num_substreams; ++sub) {
          ingress_tags.push_back(DataTag(name, sub));
        }
      }
    }
    for (const auto& s : plan_.stages) {
      for (uint32_t i = 0; i < s.num_tasks; ++i) {
        task_ids.push_back(MakeTaskId(plan_.name, s.name, i));
      }
    }
  }
  barrier_coordinator_->Configure(std::move(ingress_tags),
                                  std::move(task_ids));
  barrier_coordinator_->Start();
}

std::vector<StageStats> TaskManager::CollectStageStats() {
  struct Accum {
    StageStats stats;
    std::map<std::string, Lsn> floors;
  };
  std::vector<Accum> accums;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& stage : plan_.stages) {
      Accum a;
      a.stats.stage = stage.name;
      a.stats.current_tasks = stage.num_tasks;
      a.stats.num_substreams = stage.num_substreams;
      a.stats.stateful = stage.stateful;
      for (uint32_t i = 0; i < stage.num_tasks; ++i) {
        auto it = tasks_.find(MakeTaskId(plan_.name, stage.name, i));
        if (it == tasks_.end() || it->second.runtime == nullptr) {
          continue;
        }
        a.stats.commit_overruns += it->second.runtime->commit_overruns();
        for (const auto& [tag, floor] : it->second.runtime->InputProgress()) {
          a.floors[tag] = floor;  // substreams are task-disjoint
        }
      }
      accums.push_back(std::move(a));
    }
  }
  // Tail reads happen outside mu_: they hit the shared log, not the tasks.
  std::vector<StageStats> out;
  out.reserve(accums.size());
  for (auto& a : accums) {
    for (const auto& [tag, floor] : a.floors) {
      auto last = log_->ReadLast(tag);
      if (!last.ok()) {
        continue;  // empty substream: no backlog
      }
      uint64_t consumed = floor == kInvalidLsn ? 0 : floor + 1;
      uint64_t tail = last->lsn + 1;
      if (tail > consumed) {
        a.stats.input_lag += tail - consumed;
      }
    }
    out.push_back(std::move(a.stats));
  }
  return out;
}

std::vector<const StageSpec*> TaskManager::TopologicalStageOrder() const {
  // Kahn's algorithm over producer -> consumer stream edges.
  std::map<std::string, int> indegree;
  std::map<std::string, std::vector<std::string>> edges;
  for (const auto& stage : plan_.stages) {
    indegree[stage.name];  // ensure presence
  }
  for (const auto& [name, stream] : plan_.streams) {
    if (stream.external || stream.egress || stream.producer_stage.empty() ||
        stream.consumer_stage.empty()) {
      continue;
    }
    edges[stream.producer_stage].push_back(stream.consumer_stage);
    indegree[stream.consumer_stage]++;
  }
  std::vector<const StageSpec*> order;
  std::vector<std::string> ready;
  for (const auto& [name, deg] : indegree) {
    if (deg == 0) {
      ready.push_back(name);
    }
  }
  while (!ready.empty()) {
    std::string name = ready.back();
    ready.pop_back();
    order.push_back(plan_.FindStage(name));
    for (const auto& next : edges[name]) {
      if (--indegree[next] == 0) {
        ready.push_back(next);
      }
    }
  }
  if (order.size() != plan_.stages.size()) {
    // Should be unreachable (Build() validates the DAG); fall back to
    // declaration order rather than dropping stages.
    order.clear();
    for (const auto& stage : plan_.stages) {
      order.push_back(&stage);
    }
  }
  return order;
}

void TaskManager::MonitorLoop() {
  while (running_.load()) {
    clock_->SleepFor(config_.heartbeat_interval);
    if (!running_.load()) {
      return;
    }
    std::vector<std::string> dead;
    {
      std::lock_guard<std::mutex> lock(mu_);
      TimeNs now = clock_->Now();
      for (auto& [id, entry] : tasks_) {
        TaskRuntime* rt = entry.runtime.get();
        if (rt == nullptr || entry.retired) {
          continue;
        }
        if (rt->finished()) {
          // Graceful exits and fenced zombies are final; crashes restart.
          Status st = rt->final_status();
          if (!st.ok() && st.code() != StatusCode::kFenced) {
            dead.push_back(id);
          }
          continue;
        }
        if (now - rt->last_heartbeat() > config_.failure_timeout) {
          dead.push_back(id);
        }
      }
    }
    for (const auto& id : dead) {
      LOG_WARN << "task " << id << " presumed failed; restarting";
      std::lock_guard<std::mutex> lock(mu_);
      auto it = tasks_.find(id);
      if (it != tasks_.end() && !it->second.retired) {
        Status st = SpawnLocked(it->second, id);
        if (!st.ok()) {
          LOG_ERROR << "restart of " << id << " failed: " << st.ToString();
        }
      }
    }
  }
}

}  // namespace impeller
