// Engine-wide configuration. Defaults follow the paper's experimental setup
// (§5.1): commit interval 100 ms, snapshot interval 10 s, 128 KiB output
// buffers.
#ifndef IMPELLER_SRC_CORE_CONFIG_H_
#define IMPELLER_SRC_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/autoscale/autoscaler.h"
#include "src/common/clock.h"
#include "src/common/retry.h"
#include "src/sharedlog/sharding/failover.h"

namespace impeller {

// Which exactly-once mechanism the engine runs (§5.1 baselines).
enum class ProtocolKind {
  kProgressMarking,    // Impeller (this paper)
  kKafkaTxn,           // Kafka Streams' two-phase transaction protocol
  kAlignedCheckpoint,  // Flink-style aligned checkpointing
  kUnsafe,             // no progress tracking (§5.3.4)
};

const char* ProtocolKindName(ProtocolKind kind);

struct EngineConfig {
  ProtocolKind protocol = ProtocolKind::kProgressMarking;

  // Interval between progress markers / transaction commits / checkpoint
  // barrier rounds. Log garbage collection (always on) runs one pass per
  // interval, since the floors it trims to only move at commits.
  DurationNs commit_interval = 100 * kMillisecond;

  // Interval between asynchronous state checkpoints (progress-marking mode).
  DurationNs snapshot_interval = 10 * kSecond;
  bool enable_checkpointing = true;

  // Output buffer: appends are batched until this many bytes or the commit
  // point, whichever comes first.
  size_t output_buffer_bytes = 128 * 1024;
  DurationNs output_flush_interval = 10 * kMillisecond;

  // Kafka-txn baseline: maximum bytes of output buffered while a commit is
  // in flight before processing stalls (§3.6 "if its buffer fills up").
  size_t txn_inflight_buffer_bytes = 128 * 1024;

  // Input polling.
  DurationNs poll_interval = 1 * kMillisecond;
  size_t max_records_per_poll = 512;

  // Operator timer (window trigger) cadence.
  DurationNs timer_interval = 20 * kMillisecond;

  // Task-manager heartbeat monitoring.
  DurationNs heartbeat_interval = 50 * kMillisecond;
  DurationNs failure_timeout = 2 * kSecond;
  bool auto_restart = true;

  // Shared-log sharding: per-shard sequencers interleaved by the metalog
  // into one total order. 1 = single sequencer (seed behavior).
  uint32_t log_shards = 1;

  // Shard failure detection / seal protocol (DESIGN.md §10): when a shard
  // stops admitting, the log seals it and bumps the placement epoch so
  // pipelines keep appending to the survivors.
  FailoverOptions log_failover;

  // Workers in the engine's work-stealing task scheduler. 0 = one per
  // hardware thread (floored at 4 so small machines keep preemptive
  // sharing between tasks).
  uint32_t sched_workers = 0;

  // Backoff for log-client appends on transient kUnavailable failures
  // (tasks, ingress producers, protocol coordinators).
  RetryPolicy retry;

  // Whether sinks append results to an egress stream (paper measures
  // latency at emission from the output operator, before the push).
  bool write_egress = true;

  // Metrics-driven autoscaling (disabled by default): the engine runs an
  // Autoscaler that watches per-stage backlog and calls RescaleStage.
  AutoscaleOptions autoscale;
};

inline const char* ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kProgressMarking:
      return "impeller";
    case ProtocolKind::kKafkaTxn:
      return "kafka-txn";
    case ProtocolKind::kAlignedCheckpoint:
      return "aligned-ckpt";
    case ProtocolKind::kUnsafe:
      return "unsafe";
  }
  return "?";
}

}  // namespace impeller

#endif  // IMPELLER_SRC_CORE_CONFIG_H_
