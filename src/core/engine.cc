#include "src/core/engine.h"

#include <atomic>

#include "src/common/hash.h"
#include "src/core/record.h"
#include "src/core/stream.h"

namespace impeller {

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  clock_ = options_.clock != nullptr ? options_.clock : MonotonicClock::Get();
  SharedLogOptions log_opts;
  log_opts.name = options_.name + ".log";
  log_opts.latency = options_.log_latency;
  log_opts.clock = clock_;
  log_opts.metrics = &metrics_;
  log_opts.shards = options_.config.log_shards;
  log_opts.failover = options_.config.log_failover;
  log_ = std::make_unique<SharedLog>(std::move(log_opts));
  KvStoreOptions kv_opts;
  kv_opts.wal_path = options_.kv_wal_path;
  kv_opts.latency = options_.kv_latency;
  kv_opts.clock = clock_;
  kv_ = std::make_unique<KvStore>(std::move(kv_opts));
  sched::SchedulerOptions sched_opts;
  sched_opts.workers = options_.config.sched_workers;
  sched_opts.clock = clock_;
  sched_opts.metrics = &metrics_;
  sched_opts.name = options_.name + ".sched";
  sched_ = std::make_unique<sched::WorkStealingScheduler>(sched_opts);
  sched_->Start();
  manager_ =
      std::make_unique<TaskManager>(log_.get(), kv_.get(), options_.config,
                                    &metrics_, clock_, sched_.get());
}

Engine::~Engine() { Stop(); }

Status Engine::Submit(QueryPlan plan) {
  IMPELLER_RETURN_IF_ERROR(manager_->Submit(std::move(plan)));
  submitted_ = true;
  if (options_.config.autoscale.enabled) {
    Autoscaler::Hooks hooks;
    TaskManager* manager = manager_.get();
    hooks.probe = [manager] { return manager->CollectStageStats(); };
    hooks.rescale = [manager](const std::string& stage, uint32_t n) {
      return manager->RescaleStage(stage, n);
    };
    autoscaler_ = std::make_unique<Autoscaler>(
        options_.config.autoscale, std::move(hooks), clock_, &metrics_);
    autoscaler_->Start();
  }
  return OkStatus();
}

void Engine::Stop() {
  if (submitted_ && !stopped_) {
    stopped_ = true;
    if (autoscaler_ != nullptr) {
      autoscaler_->Stop();
    }
    manager_->Stop();
    // Wake any reader still blocked in AwaitNext (no more data is coming),
    // then retire the scheduler workers.
    log_->Close();
    sched_->Stop();
  }
}

Result<std::unique_ptr<IngressProducer>> Engine::NewProducer(
    std::string producer_id, std::string stream) {
  if (!submitted_) {
    return InvalidArgumentError("submit a plan before creating producers");
  }
  const StreamSpec* spec = plan().FindStream(stream);
  if (spec == nullptr || !spec->external) {
    return InvalidArgumentError(stream + " is not an ingress stream");
  }
  return std::make_unique<IngressProducer>(
      log_.get(), std::move(producer_id), std::move(stream),
      spec->num_substreams, clock_, options_.config.retry, &metrics_);
}

Result<std::unique_ptr<EgressConsumer>> Engine::NewEgressConsumer(
    std::string_view stage, uint32_t substream) {
  if (!submitted_) {
    return InvalidArgumentError("submit a plan before creating consumers");
  }
  std::string stream = EgressStreamName(plan().name, stage);
  const StreamSpec* spec = plan().FindStream(stream);
  if (spec == nullptr) {
    return InvalidArgumentError("stage " + std::string(stage) +
                                " has no egress stream");
  }
  if (substream >= spec->num_substreams) {
    return InvalidArgumentError("egress substream out of range");
  }
  bool read_committed =
      options_.config.protocol == ProtocolKind::kProgressMarking ||
      options_.config.protocol == ProtocolKind::kKafkaTxn;
  // Without egress writes there is nothing to retain.
  GcRegistry* gc =
      options_.config.write_egress ? manager_->gc_registry() : nullptr;
  return std::make_unique<EgressConsumer>(log_.get(), stream, substream,
                                          read_committed, gc);
}

// --- IngressProducer ---

IngressProducer::IngressProducer(SharedLog* log, std::string producer_id,
                                 std::string stream, uint32_t num_substreams,
                                 Clock* clock, RetryPolicy retry,
                                 MetricsRegistry* metrics)
    : log_(log),
      producer_id_(std::move(producer_id)),
      stream_(std::move(stream)),
      num_substreams_(num_substreams),
      clock_(clock),
      retrier_(retry, Fnv1a(producer_id_), clock, metrics),
      pending_(num_substreams) {
  tags_.reserve(num_substreams);
  for (uint32_t sub = 0; sub < num_substreams; ++sub) {
    tags_.push_back(DataTag(stream_, sub));
  }
}

void IngressProducer::Send(std::string key, std::string value,
                           TimeNs event_time) {
  SendDuplicate(std::move(key), std::move(value), event_time, ++seq_);
}

void IngressProducer::SendDuplicate(std::string key, std::string value,
                                    TimeNs event_time,
                                    uint64_t original_seq) {
  uint32_t sub = HashPartition(key, num_substreams_);
  TimeNs stamped = event_time != 0 ? event_time : clock_->Now();
  // Single-pass encode: header and body go straight onto the substream's
  // flush buffer instead of materializing per-record strings.
  Pending& pending = pending_[sub];
  size_t offset = pending.buf.size();
  BinaryWriter w(&pending.buf);
  AppendEnvelopeHeader(w, RecordType::kData, producer_id_, kIngressInstance,
                       original_seq);
  AppendDataBody(w, key, value, stamped);
  pending.spans.emplace_back(offset, pending.buf.size() - offset);
  ++pending_count_;
}

Result<size_t> IngressProducer::Flush() {
  size_t flushed = 0;
  for (uint32_t sub = 0; sub < num_substreams_; ++sub) {
    Pending& pending = pending_[sub];
    if (!pending.spans.empty()) {
      // Appended behind a failed flush's leftovers: per-substream sequence
      // order must hold for duplicate suppression.
      size_t capacity = pending.buf.capacity();
      auto shared = std::make_shared<const std::string>(std::move(pending.buf));
      pending.buf = std::string();
      pending.buf.reserve(capacity);
      for (const auto& [offset, size] : pending.spans) {
        AppendRequest req;
        req.tags.push_back(tags_[sub]);
        req.payload = PayloadRef(shared, offset, size);
        pending.batch.push_back(std::move(req));
      }
      pending.spans.clear();
    }
    std::vector<AppendRequest>& batch = pending.batch;
    if (batch.empty()) {
      continue;
    }
    auto lsns = retrier_.Run("ingress_flush",
                             [&] { return log_->AppendBatch(batch); });
    if (!lsns.ok()) {
      // AppendBatch left this batch intact; it (and every later substream's
      // records) stays buffered for the caller's next Flush.
      return lsns.status();
    }
    flushed += batch.size();
    pending_count_ -= batch.size();
    batch.clear();
  }
  return flushed;
}

size_t IngressProducer::buffered() const { return pending_count_; }

// --- EgressConsumer ---

EgressConsumer::EgressConsumer(SharedLog* log, std::string stream,
                               uint32_t substream, bool read_committed,
                               GcRegistry* gc)
    : tracker_(read_committed),
      // Everything below the trim point is gone: start at the oldest record
      // the log still holds.
      reader_(log, DataTag(stream, substream), 0, &tracker_,
              /*start_lsn=*/log->TrimPoint()),
      gc_(gc) {
  if (gc_ != nullptr) {
    static std::atomic<uint64_t> next_id{0};
    gc_group_ = EgressFloorGroup(reader_.tag());
    gc_source_ = gc_group_ + "#" + std::to_string(next_id.fetch_add(1));
    gc_->JoinGroup(gc_group_, gc_source_, reader_.next_lsn());
    // A trim the GC worker chose before the join may have landed since the
    // start was read; the join stops later ones at the start.
    Lsn trim = log->TrimPoint();
    if (trim > reader_.next_lsn()) {
      reader_.Restore(trim, kInvalidLsn);
    }
  }
}

EgressConsumer::~EgressConsumer() {
  if (gc_ != nullptr) {
    gc_->LeaveGroup(gc_group_, gc_source_);
  }
}

Result<std::vector<ReadyRecord>> EgressConsumer::PollAll() {
  if (gc_ != nullptr) {
    // Calling again acknowledges what the previous call returned: the
    // reader's committed floor. Records buffered behind an uncommitted head
    // are above it, so they stay pinned until they are handed out.
    Lsn floor = reader_.committed_floor();
    gc_->PublishFloor(gc_source_, floor == kInvalidLsn ? 0 : floor + 1);
  }
  std::vector<ReadyRecord> out;
  SubstreamReader::Hooks hooks;
  while (true) {
    auto n = reader_.Poll(1024, &out, hooks);
    if (!n.ok()) {
      return n.status();
    }
    if (*n == 0) {
      return out;
    }
  }
}

}  // namespace impeller
