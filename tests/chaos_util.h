// Shared harness of the chaos suites (chaos_test, gc_chaos_test): the
// fixed NEXMark bid stream, seeded adversarial fault schedules per protocol,
// and the over-partitioned running-count plan the rescale-handoff cases
// move state with. Every schedule derives from one seed, so a failing run
// replays exactly.
#ifndef IMPELLER_TESTS_CHAOS_UTIL_H_
#define IMPELLER_TESTS_CHAOS_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/fault/fault.h"
#include "src/nexmark/events.h"
#include "tests/test_util.h"

namespace impeller {
namespace chaos {

constexpr uint32_t kTasksPerStage = 2;
constexpr size_t kNumEvents = 120;
constexpr uint64_t kNumChaosSeeds = 8;
constexpr TimeNs kEventTimeBase = 1'000'000'000;  // synthetic, deterministic

// Nightly soak runs randomize the seed window: IMPELLER_CHAOS_SEED_BASE=N
// shifts the chaos seeds to N+1..N+kNumChaosSeeds. The base is logged so a
// soak failure replays locally with the same env var. Default (unset/empty)
// is 0, i.e. the fixed seeds 1..8 used by regular CI.
inline uint64_t ChaosSeedBase() {
  const char* env = std::getenv("IMPELLER_CHAOS_SEED_BASE");
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  return std::strtoull(env, nullptr, 10);
}

inline EngineConfig ChaosConfig(ProtocolKind protocol) {
  EngineConfig config = testutil::FastConfig(protocol);
  // Crashed tasks must come back on their own, quickly.
  config.auto_restart = true;
  config.heartbeat_interval = 10 * kMillisecond;
  config.failure_timeout = 250 * kMillisecond;
  config.snapshot_interval = 150 * kMillisecond;
  return config;
}

// Deterministic bid stream: unique price and date_time per event, auction
// ids spread across substreams. Both the baseline and every chaos run feed
// exactly this sequence.
inline std::vector<Bid> MakeBids() {
  std::vector<Bid> bids;
  bids.reserve(kNumEvents);
  for (size_t i = 0; i < kNumEvents; ++i) {
    Bid bid;
    bid.auction = 1000 + i % 37;
    bid.bidder = i;
    bid.price = 100 + static_cast<int64_t>(i) * 7;
    bid.channel = "chaos";
    bid.url = "https://bid/" + std::to_string(i);
    bid.date_time = kEventTimeBase + static_cast<TimeNs>(i) * kMillisecond;
    bids.push_back(std::move(bid));
  }
  return bids;
}

// Crash points exercised per protocol — each protocol's own critical
// sections (marker append, txn phase 2 / post-commit ambiguity,
// checkpoint + barrier rounds), plus the output-flush edges all share.
inline std::vector<std::string> CrashPoints(ProtocolKind protocol) {
  switch (protocol) {
    case ProtocolKind::kProgressMarking:
      return {"task/commit/pre_marker", "task/commit/post_marker",
              "task/flush/pre", "task/flush/post"};
    case ProtocolKind::kKafkaTxn:
      return {"task/flush/pre", "task/flush/post", "txn/phase2",
              "txn/post_commit"};
    case ProtocolKind::kAlignedCheckpoint:
      return {"task/flush/pre", "task/flush/post", "task/checkpoint/mid",
              "barrier/inject"};
    case ProtocolKind::kUnsafe:
      return {};
  }
  return {};
}

// Derives one adversarial schedule set from (protocol, seed). Benign
// schedules (delay spikes, bounded transient errors, duplicate redelivery,
// checkpoint-store hiccups) apply to every protocol; crash schedules hit
// two seed-chosen protocol-critical points; with several shards one
// seed-chosen shard is additionally killed for good mid-run, exercising
// seal + epoch-bump failover underneath the protocol. Transient-error fire
// caps stay below RetryPolicy::max_attempts so errors alone can never
// exhaust a retry loop — errors test the Retrier, crashes test recovery.
inline std::vector<fault::FaultSchedule> DeriveSchedules(
    ProtocolKind protocol, uint64_t seed, uint32_t shards) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull +
          static_cast<uint64_t>(protocol) * 0x100000001B3ull);
  std::vector<fault::FaultSchedule> out;

  {
    // Append-ack delay spikes. every_n guarantees fires (appends are
    // plentiful), so every chaos run provably injected something.
    fault::FaultSchedule s;
    s.point = "log/append";
    s.kind = fault::FaultKind::kDelay;
    s.delay = static_cast<DurationNs>(rng.NextRange(1, 4)) * kMillisecond;
    s.every_n = static_cast<uint64_t>(rng.NextRange(20, 40));
    s.max_fires = 3;
    out.push_back(s);
  }
  {
    // Transient append unavailability, absorbed by the Retrier.
    fault::FaultSchedule s;
    s.point = "log/append";
    s.kind = fault::FaultKind::kError;
    s.every_n = static_cast<uint64_t>(rng.NextRange(15, 30));
    s.max_fires = static_cast<uint64_t>(rng.NextRange(2, 3));
    out.push_back(s);
  }
  {
    // Duplicate redelivery on the bid input path.
    fault::FaultSchedule s;
    s.point = "log/read";
    s.kind = fault::FaultKind::kDuplicate;
    s.detail_substr = "bids";
    s.every_n = static_cast<uint64_t>(rng.NextRange(25, 60));
    s.max_fires = 2;
    out.push_back(s);
  }
  {
    // Checkpoint-store write hiccup. Only a delay for kUnsafe: an error
    // there can escalate to a restart, which unsafe legitimately loses
    // data over.
    fault::FaultSchedule s;
    s.point = "kv/write";
    s.kind = protocol != ProtocolKind::kUnsafe && rng.NextDouble() < 0.5
                 ? fault::FaultKind::kError
                 : fault::FaultKind::kDelay;
    s.delay = 2 * kMillisecond;
    s.every_n = static_cast<uint64_t>(rng.NextRange(2, 5));
    s.max_fires = 2;
    out.push_back(s);
  }

  if (shards > 1) {
    // Permanently kill one seed-chosen shard once it has admitted a few
    // records: every later append it sees fails, the failure detector
    // seals it, and the log re-places traffic at the next placement epoch.
    // The committed output must not care which sequencer ordered it.
    fault::FaultSchedule s;
    s.point = "log/shard/append";
    s.kind = fault::FaultKind::kError;
    s.detail_substr = "/s" + std::to_string(rng.NextBounded(shards));
    s.at_lsn = static_cast<uint64_t>(rng.NextRange(3, 10));
    s.max_fires = 0;  // unlimited: the shard never comes back
    out.push_back(s);
  }

  std::vector<std::string> points = CrashPoints(protocol);
  if (!points.empty()) {
    size_t first = rng.NextBounded(points.size());
    size_t second =
        (first + 1 + rng.NextBounded(points.size() - 1)) % points.size();
    for (size_t idx : {first, second}) {
      fault::FaultSchedule s;
      s.point = points[idx];
      s.kind = fault::FaultKind::kCrash;
      s.at_hit = static_cast<uint64_t>(rng.NextRange(1, 6));
      s.max_fires = 1;
      out.push_back(s);
    }
  }
  return out;
}

inline std::string ProtocolTestName(
    const ::testing::TestParamInfo<std::tuple<ProtocolKind, uint32_t>>&
        info) {
  std::string name = ProtocolKindName(std::get<0>(info.param));
  std::replace(name.begin(), name.end(), '-', '_');
  return name + "_shards" + std::to_string(std::get<1>(info.param));
}

inline std::string ShardKillTestName(
    const ::testing::TestParamInfo<ProtocolKind>& info) {
  std::string name = ProtocolKindName(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

constexpr int kHandoffKeys = 24;
constexpr int kHandoffRounds = 3;  // per phase; two phases around the rescale
constexpr size_t kPhaseLines =
    static_cast<size_t>(kHandoffKeys) * kHandoffRounds;

// Running per-key count whose stateful stage is over-partitioned (6
// substreams on 2 tasks) and therefore rescalable in both directions. Each
// input record emits one update (key, running count), so the committed
// output of the whole run is a fixed multiset — counts 1..6 per key — no
// matter which generation or task emitted each line.
inline Result<QueryPlan> HandoffCountPlan() {
  AggregateFn count;
  count.init = [] { return std::string("0"); };
  count.add = [](std::string_view acc, const StreamRecord&) {
    return std::to_string(std::stoll(std::string(acc)) + 1);
  };
  QueryBuilder qb("rh");
  qb.Ingress("nums");
  qb.AddStage("count", kTasksPerStage)
      .WithSubstreams(6)
      .ReadsFrom({"nums"})
      .Aggregate("c", count)
      .WritesTo("counts");
  qb.AddStage("fmt", kTasksPerStage)
      .ReadsFrom({"counts"})
      .Map([](StreamRecord r) { return r; })
      .Sink("rh");
  return qb.Build();
}

}  // namespace chaos
}  // namespace impeller

#endif  // IMPELLER_TESTS_CHAOS_UTIL_H_
