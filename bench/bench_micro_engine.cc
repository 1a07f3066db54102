// Microbenchmarks for the engine's hot paths: record/marker codecs — with
// the §3.5 compact-vs-full marker ablation — state-store operations, the
// stream-join expiry tick, commit-tracker classification, window
// assignment, and the NEXMark generator.
#include <benchmark/benchmark.h>

// Exactly one TU per binary may define the replacement operator new/delete;
// for this binary it is this file, enabling allocs_per_record counters.
#include "bench/alloc_hook.h"

#include <map>
#include <memory>

#include "bench/bench_common.h"
#include "bench/bench_gbench_json.h"

#include "src/common/arena.h"
#include "src/common/serde.h"
#include "src/core/commit_tracker.h"
#include "src/core/marker.h"
#include "src/core/operator.h"
#include "src/core/operators.h"
#include "src/core/record.h"
#include "src/core/state_store.h"
#include "src/core/window.h"
#include "src/nexmark/generator.h"
#include "src/nexmark/udfs.h"
#include "src/obs/alloc_stats.h"

namespace impeller {
namespace {

ProgressMarker SampleMarker(int inputs) {
  ProgressMarker m;
  m.marker_seq = 123456;
  for (int i = 0; i < inputs; ++i) {
    m.input_ends.emplace_back("d/stream/" + std::to_string(i),
                              1000000 + i * 17);
  }
  m.outputs_from = 999900;
  m.changelog_from = 999950;
  return m;
}

// The naive marker layout the paper's §3.5 optimization removes: two LSNs
// per input range and explicit output/change-log range ends.
std::string EncodeFullMarker(const ProgressMarker& m) {
  BinaryWriter w(128);
  w.WriteVarU64(m.marker_seq);
  w.WriteVarU64(m.input_ends.size());
  for (const auto& [tag, lsn] : m.input_ends) {
    w.WriteString(tag);
    w.WriteVarU64(lsn > 1000 ? lsn - 1000 : 0);  // range start
    w.WriteVarU64(lsn);                          // range end
  }
  w.WriteVarU64(m.outputs_from);
  w.WriteVarU64(m.outputs_from + 500);    // explicit output range end
  w.WriteVarU64(m.changelog_from);
  w.WriteVarU64(m.changelog_from + 200);  // explicit change-log range end
  w.WriteBool(false);
  return w.Take();
}

void BM_MarkerEncodeCompact(benchmark::State& state) {
  ProgressMarker m = SampleMarker(static_cast<int>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string enc = EncodeProgressMarker(m);
    bytes = enc.size();
    benchmark::DoNotOptimize(enc);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_MarkerEncodeCompact)->Arg(1)->Arg(2)->Arg(4);

void BM_MarkerEncodeFullAblation(benchmark::State& state) {
  ProgressMarker m = SampleMarker(static_cast<int>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string enc = EncodeFullMarker(m);
    bytes = enc.size();
    benchmark::DoNotOptimize(enc);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_MarkerEncodeFullAblation)->Arg(1)->Arg(2)->Arg(4);

void BM_MarkerDecode(benchmark::State& state) {
  std::string enc = EncodeProgressMarker(SampleMarker(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeProgressMarker(enc));
  }
}
BENCHMARK(BM_MarkerDecode);

void BM_EnvelopeRoundTrip(benchmark::State& state) {
  RecordHeader h;
  h.type = RecordType::kData;
  h.producer = "q5/win/1";
  h.instance = 3;
  h.seq = 123456;
  DataBody body;
  body.key = "auction-1234";
  body.value = std::string(static_cast<size_t>(state.range(0)), 'v');
  body.event_time = 1234567890;
  for (auto _ : state) {
    std::string enc = EncodeEnvelope(h, EncodeDataBody(body));
    auto env = DecodeEnvelope(enc);
    benchmark::DoNotOptimize(DecodeDataBody(env->body));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EnvelopeRoundTrip)->Arg(100)->Arg(500);

// --- record-path allocation ablation (DESIGN.md §12) ---
//
// Both benchmarks run the same logical per-record pipeline — decode a log
// payload, materialize a StreamRecord, re-encode it for append — and report
// allocs_per_record / bytes_copied_per_record from the thread-local
// obs::AllocStats tallies (heap side fed by bench/alloc_hook.h). "Owning"
// reproduces the pre-refactor path: every decode copies into fresh
// std::strings and every record is framed into its own payload string.
// "ZeroCopy" is the shipped path: view decode in place, StringPool
// materialization, append-mode serialization into one reused flush buffer.

std::string SampleDataPayload(size_t value_size) {
  RecordHeader h;
  h.type = RecordType::kData;
  h.producer = "q1/map/0";
  h.instance = 2;
  h.seq = 987654;
  DataBody body;
  body.key = "auction-1234";
  body.value = std::string(value_size, 'v');
  body.event_time = 1234567890;
  return EncodeEnvelope(h, EncodeDataBody(body));
}

void SetAllocCounters(benchmark::State& state, const obs::AllocStats& d,
                      uint64_t records) {
  if (records == 0) return;
  state.counters["allocs_per_record"] =
      static_cast<double>(d.allocs) / static_cast<double>(records);
  state.counters["bytes_copied_per_record"] =
      static_cast<double>(d.bytes_copied) / static_cast<double>(records);
}

void BM_RecordPathOwning(benchmark::State& state) {
  const std::string payload = SampleDataPayload(static_cast<size_t>(state.range(0)));
  const std::string tag = "d/q1/0";
  std::vector<std::pair<std::string, std::string>> batch;
  obs::AllocStats start;
  uint64_t warm = 0, measured = 0;
  for (auto _ : state) {
    if (warm++ == 64) {
      start = obs::AllocStatsNow();
      measured = 0;
    }
    auto env = DecodeEnvelope(payload);
    auto data = DecodeDataBody(env->body);
    StreamRecord rec{std::move(data->key), std::move(data->value),
                     data->event_time};
    DataBody out;
    out.key = rec.key;
    out.value = rec.value;
    out.event_time = rec.event_time;
    RecordHeader h;
    h.type = RecordType::kData;
    h.producer = "q1/map/0";
    h.instance = 2;
    h.seq = env->header.seq + 1;
    std::string enc = EncodeEnvelope(h, EncodeDataBody(out));
    obs::RecordBytesCopied(env->header.producer.size() + env->body.size() +
                           rec.key.size() + rec.value.size() + enc.size());
    batch.emplace_back(tag, std::move(enc));
    if (batch.size() >= 64) batch.clear();
    ++measured;
  }
  SetAllocCounters(state, [&] {
    obs::AllocStats now = obs::AllocStatsNow();
    obs::AllocStats d;
    d.allocs = now.allocs - start.allocs;
    d.alloc_bytes = now.alloc_bytes - start.alloc_bytes;
    d.bytes_copied = now.bytes_copied - start.bytes_copied;
    return d;
  }(), measured);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RecordPathOwning)->Arg(100)->Arg(500);

void BM_RecordPathZeroCopy(benchmark::State& state) {
  const std::string payload = SampleDataPayload(static_cast<size_t>(state.range(0)));
  const std::string tag = "d/q1/0";
  StringPool pool;
  std::string flush_buffer;
  std::vector<std::string> tags;
  size_t records_in_buffer = 0;
  obs::AllocStats start;
  uint64_t warm = 0, measured = 0;
  for (auto _ : state) {
    if (warm++ == 64) {
      start = obs::AllocStatsNow();
      measured = 0;
    }
    auto env = DecodeEnvelopeView(payload);
    auto data = DecodeDataView(env->body);
    StreamRecord rec;
    rec.key = pool.Acquire();
    rec.key.assign(data->key.data(), data->key.size());
    rec.value = pool.Acquire();
    rec.value.assign(data->value.data(), data->value.size());
    rec.event_time = data->event_time;
    obs::RecordBytesCopied(rec.key.size() + rec.value.size());
    size_t before = flush_buffer.size();
    BinaryWriter w(&flush_buffer);
    AppendEnvelopeHeader(w, RecordType::kData, "q1/map/0", 2, env->seq + 1);
    AppendDataBody(w, rec.key, rec.value, rec.event_time);
    obs::RecordBytesCopied(flush_buffer.size() - before);
    tags.push_back(tag);
    pool.Release(std::move(rec.key));
    pool.Release(std::move(rec.value));
    if (++records_in_buffer >= 64) {
      // Flush: the real OutputBuffer moves the buffer into a shared
      // immutable string; capacity reuse via clear() models the next
      // epoch's warm buffer.
      flush_buffer.clear();
      tags.clear();
      records_in_buffer = 0;
    }
    ++measured;
  }
  SetAllocCounters(state, [&] {
    obs::AllocStats now = obs::AllocStatsNow();
    obs::AllocStats d;
    d.allocs = now.allocs - start.allocs;
    d.alloc_bytes = now.alloc_bytes - start.alloc_bytes;
    d.bytes_copied = now.bytes_copied - start.bytes_copied;
    return d;
  }(), measured);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RecordPathZeroCopy)->Arg(100)->Arg(500);

// Q1's stateless operator chain (currency-conversion map) must run
// allocation-free once its scratch capacity is warm: view decode of the
// bid, thread-local re-encode scratch, capacity-reusing value assign.
void BM_NexmarkQ1ChainSteadyState(benchmark::State& state) {
  NexmarkGenerator generator({}, 5, MonotonicClock::Get());
  std::string bid_raw;
  while (bid_raw.empty()) {
    auto event = generator.Next();
    if (event.kind == NexmarkGenerator::Kind::kBid) {
      bid_raw = EncodeBid(event.bid);
    }
  }
  StreamRecord rec;
  obs::AllocStats start;
  uint64_t warm = 0, measured = 0;
  for (auto _ : state) {
    if (warm++ == 64) {
      start = obs::AllocStatsNow();
      measured = 0;
    }
    rec.key.assign("1007");
    rec.value.assign(bid_raw);
    rec.event_time = 1234567890;
    if (nexmark::NonEmptyValue(rec)) {
      rec = nexmark::ConvertUsdToEur(std::move(rec));
    }
    benchmark::DoNotOptimize(rec);
    ++measured;
  }
  obs::AllocStats now = obs::AllocStatsNow();
  state.counters["allocs_per_record"] =
      measured ? static_cast<double>(now.allocs - start.allocs) /
                     static_cast<double>(measured)
               : 0;
}
BENCHMARK(BM_NexmarkQ1ChainSteadyState);

void BM_StateStorePut(benchmark::State& state) {
  uint64_t captured = 0;
  MapStateStore store("s", [&](const ChangeLogView&) { ++captured; });
  uint64_t i = 0;
  for (auto _ : state) {
    store.Put("key" + std::to_string(i++ % 10000), "value");
  }
  benchmark::DoNotOptimize(captured);
}
BENCHMARK(BM_StateStorePut);

void BM_StateStoreSnapshot(benchmark::State& state) {
  MapStateStore store("s", nullptr);
  for (int i = 0; i < state.range(0); ++i) {
    store.Put("key" + std::to_string(i), std::string(64, 'v'));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.SerializeSnapshot());
  }
  state.counters["entries"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_StateStoreSnapshot)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// Minimal context for driving one operator outside an engine.
class BenchContext final : public OperatorContext {
 public:
  MapStateStore* GetStore(std::string_view name) override {
    auto& slot = stores_[std::string(name)];
    if (slot == nullptr) {
      slot = std::make_unique<MapStateStore>(std::string(name), nullptr);
    }
    return slot.get();
  }
  Clock* clock() override { return MonotonicClock::Get(); }
  const std::string& task_id() const override { return task_id_; }
  uint32_t task_index() const override { return 0; }
  MetricsRegistry* metrics() override { return &metrics_; }
  TimeNs max_event_time() const override { return max_event_time_; }
  void set_max_event_time(TimeNs t) { max_event_time_ = t; }

 private:
  std::string task_id_ = "bench/join/0";
  MetricsRegistry metrics_;
  std::map<std::string, std::unique_ptr<MapStateStore>> stores_;
  TimeNs max_event_time_ = 0;
};

class DiscardCollector final : public Collector {
 public:
  void EmitTo(uint32_t, StreamRecord) override {}
};

// One stream-stream join timer tick with a full 10 s window buffered
// (range(0) entries over both sides) and ~75 entries past the horizon, as
// in one Q4 join task at 8k events/s. Expiry must cost O(due entries), not
// O(buffered): the 40000 row must stay far below 4x the 10000 row. The
// arrivals that make entries due are processed outside the timed region.
void BM_JoinExpiryTick(benchmark::State& state) {
  constexpr DurationNs kWindow = 10 * kSecond;
  constexpr int kDuePerTick = 75;
  const DurationNs spacing = kWindow / state.range(0);
  BenchContext ctx;
  StreamStreamJoinOperator op(
      "j", kWindow,
      [](std::string_view l, std::string_view) { return std::string(l); },
      /*allowed_lateness=*/0);
  op.Open(&ctx);
  DiscardCollector out;
  TimeNs et = 0;
  uint64_t seq = 0;
  // Distinct keys, so the arrivals' window probes never match.
  auto arrive = [&](int64_t n) {
    for (int64_t i = 0; i < n; ++i, ++seq) {
      et += spacing;
      op.Process(static_cast<uint32_t>(seq % 2),
                 StreamRecord{"auction" + std::to_string(seq),
                              std::string(48, 'v'), et},
                 &out);
    }
    ctx.set_max_event_time(et);
  };
  arrive(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    arrive(kDuePerTick);
    state.ResumeTiming();
    op.OnTimer(0, &out);
  }
  state.counters["buffered"] = static_cast<double>(
      ctx.GetStore("j.left")->size() + ctx.GetStore("j.right")->size());
}
BENCHMARK(BM_JoinExpiryTick)->Arg(10000)->Arg(40000)
    ->Unit(benchmark::kMicrosecond);

void BM_CommitTrackerClassify(benchmark::State& state) {
  CommitTracker tracker(true);
  for (int p = 0; p < 8; ++p) {
    tracker.OnCommitEvent("producer" + std::to_string(p), 1, 100000);
  }
  RecordHeader h;
  h.producer = "producer3";
  h.instance = 1;
  Lsn lsn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.Classify(h, lsn++ % 200000));
  }
}
BENCHMARK(BM_CommitTrackerClassify);

void BM_WindowAssignSliding(benchmark::State& state) {
  WindowSpec w = WindowSpec::Sliding(10 * kSecond, 2 * kSecond);
  std::vector<TimeNs> starts;
  TimeNs t = 0;
  for (auto _ : state) {
    w.AssignWindows(t += 1234567, &starts);
    benchmark::DoNotOptimize(starts);
  }
}
BENCHMARK(BM_WindowAssignSliding);

void BM_NexmarkGenerate(benchmark::State& state) {
  NexmarkGenerator generator({}, 5, MonotonicClock::Get());
  for (auto _ : state) {
    auto event = generator.Next();
    switch (event.kind) {
      case NexmarkGenerator::Kind::kBid:
        benchmark::DoNotOptimize(EncodeBid(event.bid));
        break;
      case NexmarkGenerator::Kind::kAuction:
        benchmark::DoNotOptimize(EncodeAuction(event.auction));
        break;
      case NexmarkGenerator::Kind::kPerson:
        benchmark::DoNotOptimize(EncodePerson(event.person));
        break;
    }
  }
}
BENCHMARK(BM_NexmarkGenerate);

}  // namespace
}  // namespace impeller

// Strip the shared --seed flag before google-benchmark sees argv: it
// rejects flags it does not know.
int main(int argc, char** argv) {
  impeller::bench::InitBench(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  impeller::bench::JsonForwardingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
