// Repository benchmark driver: runs one named NEXMark workload against the
// engine, open loop, and prints its end-to-end metrics (or, with --trace 1,
// its per-layer metrics) as the last line of stdout. See README.md for the
// workloads, the metric -> module -> workload table and how to run one.
//
// Threads: one driver thread owns the seeded event schedule and the ingress
// producers; one observer thread polls the committed egress. The engine runs
// on a fixed two-worker scheduler. Everything the benchmark learns about the
// engine comes from its public API: timed calls into NexmarkGenerator,
// IngressProducer, EgressConsumer and TaskManager, and deltas of the
// counters in Engine::metrics() and KvStore::bytes_written().
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/serde.h"
#include "src/core/engine.h"
#include "src/nexmark/events.h"
#include "src/nexmark/generator.h"
#include "src/nexmark/plan_queries.h"
#include "src/sharedlog/latency_model.h"

namespace impeller {
namespace perfbench {
namespace {

// ---------------------------------------------------------------- options

struct Workload {
  const char* name;
  int query;
  ProtocolKind protocol;
  double rate;       // generated events per second
  DurationNs flush;  // ingress flush cadence (paper §5.3: 10/100 ms)
  double warmup_s;   // before the measured window
};

// Rates come from the one-time knee sweep recorded in README.md.
const Workload kWorkloads[] = {
    {"q1-steady", 1, ProtocolKind::kProgressMarking, 100000,
     10 * kMillisecond, 2.0},
    {"q4-steady", 4, ProtocolKind::kProgressMarking, 8000, 100 * kMillisecond,
     10.5},
    {"q4-aligned", 4, ProtocolKind::kAlignedCheckpoint, 6000,
     100 * kMillisecond, 10.5},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  // spans and the checkpoint WAL
};

constexpr uint32_t kWorkers = 2;
constexpr uint32_t kTasksPerStage = 2;
constexpr int kSetupRepeats = 41;
constexpr DurationNs kObserverNap = 500 * kMicrosecond;
constexpr DurationNs kStatsPeriod = 100 * kMillisecond;
constexpr size_t kMaxSpans = 400000;
// Deadline for the final settle. With the set-up, warm-up and window it
// stays within run.py's timeout, so a stuck run is reported by the output
// check, not killed.
constexpr DurationNs kSettleTimeout = 30 * kSecond;

// ----------------------------------------------------------------- timing

TimeNs WallNow() { return MonotonicClock::Get()->Now(); }

int64_t CpuNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

// Exact quantile of a sample (nearest rank); sorts a copy.
double Quantile(std::vector<int64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + rank, v.end());
  return static_cast<double>(v[rank]);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Generator clock: returns the due time of the event being generated, so
// each event is stamped with when it was due, not when it was generated
// (no coordinated omission).
class DueClock final : public Clock {
 public:
  TimeNs Now() const override { return due_; }
  void SleepFor(DurationNs d) override { due_ += d; }
  void Set(TimeNs t) { due_ = t; }

 private:
  TimeNs due_ = 0;
};

// Event i of a schedule at `rate` events/s is due at t0 + floor(i*1e9/rate).
// With rate < 1e9 the inverse is unique: i = ceil((d - t0) * rate / 1e9).
struct Schedule {
  TimeNs t0 = 0;
  uint64_t rate = 1;
  TimeNs Due(uint64_t i) const {
    return t0 + static_cast<TimeNs>(
                    (static_cast<__int128>(i) * kSecond) / rate);
  }
  int64_t IndexOf(TimeNs due) const {
    __int128 num = static_cast<__int128>(due - t0) * rate;
    return static_cast<int64_t>((num + kSecond - 1) / kSecond);
  }
};

// ------------------------------------------------------------------ spans

struct Span {
  const char* name;
  TimeNs start;
  TimeNs end;
  int64_t parent;  // index into the same thread's span list, -1 = root
  int64_t batch;   // ingress flush round the work belongs to, -1 = none
  int64_t count;   // events / records covered
};

// Per-thread span list: kept in memory, written when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(1024);
    }
  }
  int64_t Add(const char* name, TimeNs start, TimeNs end, int64_t parent,
              int64_t batch, int64_t count) {
    if (!enabled_ || spans_.size() >= kMaxSpans) {
      dropped_ += enabled_ ? 1 : 0;
      return -1;
    }
    spans_.push_back({name, start, end, parent, batch, count});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// ----------------------------------------------------------------- engine

EngineOptions MakeOptions(ProtocolKind protocol, uint64_t seed,
                          const std::string& wal) {
  EngineOptions options;
  // A file-backed checkpoint store, so KvStore::bytes_written() counts the
  // checkpoint bytes (it counts WAL frames).
  options.kv_wal_path = wal;
  options.config.protocol = protocol;
  options.config.commit_interval = 100 * kMillisecond;
  options.config.snapshot_interval = 10 * kSecond;
  options.config.log_shards = 1;
  options.config.sched_workers = kWorkers;
  options.log_latency = std::make_shared<CalibratedLatencyModel>(
      CalibratedLatencyModel::BokiParams(), seed);
  // Checkpoint-store cost as the repository's fig7 harness models it: a
  // synced remote WAL, per-byte cost scaled with the reduced input rates.
  CalibratedLatencyParams kv;
  kv.ack_median = static_cast<DurationNs>(1.2 * kMillisecond);
  kv.ack_sigma = 0.2;
  kv.per_byte_ns = protocol == ProtocolKind::kAlignedCheckpoint ? 150.0 : 8.0;
  options.kv_latency = std::make_shared<CalibratedLatencyModel>(kv, seed + 1);
  return options;
}

struct Pipeline {
  std::unique_ptr<Engine> engine;
  std::map<std::string, std::unique_ptr<IngressProducer>> producers;
  std::vector<std::unique_ptr<EgressConsumer>> consumers;
  std::string sink_stage;
};

Result<Pipeline> BuildPipeline(const Workload& w, uint64_t seed,
                               const std::string& wal) {
  NexmarkQueryOptions qopt;
  qopt.tasks_per_stage = kTasksPerStage;
  IMPELLER_ASSIGN_OR_RETURN(nexmark::NexmarkPlanQuery built,
                            nexmark::BuildNexmarkPlanQuery(w.query, qopt));
  Pipeline p;
  IMPELLER_ASSIGN_OR_RETURN(p.sink_stage,
                            nexmark::PlanSinkStage(built.lowered));
  QueryPlan plan = std::move(built.lowered.query);
  std::vector<std::string> ingress;
  for (const auto& [name, spec] : plan.streams) {
    if (spec.external) {
      ingress.push_back(name);
    }
  }
  uint32_t egress_substreams = 0;
  if (const StreamSpec* out = plan.FindStream(
          EgressStreamName(plan.name, p.sink_stage))) {
    egress_substreams = out->num_substreams;
  }
  p.engine = std::make_unique<Engine>(MakeOptions(w.protocol, seed, wal));
  IMPELLER_RETURN_IF_ERROR(p.engine->Submit(std::move(plan)));
  for (const std::string& stream : ingress) {
    IMPELLER_ASSIGN_OR_RETURN(p.producers[stream],
                              p.engine->NewProducer("gen/" + stream, stream));
  }
  for (uint32_t s = 0; s < egress_substreams; ++s) {
    IMPELLER_ASSIGN_OR_RETURN(auto consumer,
                              p.engine->NewEgressConsumer(p.sink_stage, s));
    p.consumers.push_back(std::move(consumer));
  }
  return p;
}

// One generated event, encoded for its ingress stream.
struct Encoded {
  IngressProducer* producer = nullptr;
  std::string key;
  std::string value;
};

// Encodes `e` for its ingress stream; false when the query does not consume
// that kind of event.
bool Encode(Pipeline& p, const NexmarkGenerator::Event& e, Encoded* out) {
  const char* stream = e.kind == NexmarkGenerator::Kind::kBid ? "bids"
                       : e.kind == NexmarkGenerator::Kind::kAuction
                           ? "auctions"
                           : "persons";
  auto it = p.producers.find(stream);
  if (it == p.producers.end()) {
    return false;
  }
  out->producer = it->second.get();
  switch (e.kind) {
    case NexmarkGenerator::Kind::kBid:
      out->key = std::to_string(e.bid.auction);
      out->value = EncodeBid(e.bid);
      break;
    case NexmarkGenerator::Kind::kAuction:
      out->key = std::to_string(e.auction.id);
      out->value = EncodeAuction(e.auction);
      break;
    case NexmarkGenerator::Kind::kPerson:
      out->key = std::to_string(e.person.id);
      out->value = EncodePerson(e.person);
      break;
  }
  return true;
}

// The reference Q1 result: USD cents to EUR cents, rounded half away.
int64_t ReferenceEur(int64_t usd) {
  return static_cast<int64_t>(std::llround(static_cast<double>(usd) * 0.908));
}

// ------------------------------------------------------------ shared state

struct Window {
  std::atomic<TimeNs> start{0};
  std::atomic<TimeNs> end{0};  // 0 = still open
};

// A benchmark thread's own CPU time inside the measured window. The thread
// reads its own clock, because another thread's CPU clock is gone once that
// thread exits.
class WindowCpu {
 public:
  // Called by the owning thread on every loop turn, and with `exiting`
  // once when it stops working inside the window.
  void Tick(const Window& w, bool exiting) {
    if (open_ns_ < 0 && w.start.load(std::memory_order_acquire) != 0) {
      open_ns_ = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    }
    if (open_ns_ >= 0 && close_ns_ < 0 &&
        (exiting || w.end.load(std::memory_order_acquire) != 0)) {
      close_ns_ = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    }
  }
  // Read after the thread is joined.
  int64_t spent_ns() const {
    return close_ns_ >= 0 ? close_ns_ - open_ns_ : 0;
  }

 private:
  int64_t open_ns_ = -1;
  int64_t close_ns_ = -1;
};

// What the load driver offered. Filled by its thread, read by the main
// thread after that thread is joined.
struct DriverOut {
  uint64_t generated = 0;       // generator events (incl. not-consumed kinds)
  uint64_t offered = 0;         // events sent to an ingress stream
  uint64_t append_failed = 0;   // events never acked by the final flush
  int64_t gen_ns = 0;           // time in Next + Encode* (traced runs)
  int64_t send_ns = 0;          // time in Send (traced runs)
  uint64_t timed_events = 0;    // events covered by gen_ns / send_ns
  std::vector<int64_t> late_ns;       // Send start - due, window events
  std::vector<int64_t> residency_ns;  // flush start - due, window events
  std::vector<int64_t> flush_ns;      // one per IngressProducer::Flush
  uint64_t window_flushed = 0;   // records in window flushes
  uint64_t window_offered = 0;
  WindowCpu cpu;
};

// Q1 per-bid result bookkeeping, indexed by schedule index.
struct BidBook {
  std::vector<int64_t> expected;  // reference EUR price, -1 = not a bid
  std::vector<uint8_t> seen;      // results observed (saturating)
  std::vector<int64_t> got;       // price of the first result observed
};

struct ObserverOut {
  std::vector<int64_t> latency_ns;    // window results
  std::map<std::string, std::string> final_value;  // q4: last value per key
  std::atomic<uint64_t> results{0};
  uint64_t polls = 0;
  uint64_t empty_polls = 0;
  int64_t poll_ns = 0;
  uint64_t unparsable = 0;
  uint64_t duplicates = 0;  // q4: egress records seen twice
  uint64_t out_of_schedule = 0;
  TimeNs frontier = 0;        // max event time seen at egress
  // (arrival, frontier) after each non-empty poll inside the window: the
  // slope of this series is the committed event-time rate.
  std::vector<std::pair<TimeNs, TimeNs>> frontier_track;
  Status error = OkStatus();
  // Stage input lag sampled every 100 ms (traced runs).
  std::map<std::string, std::vector<uint64_t>> lag_samples;
  WindowCpu cpu;
};

// ------------------------------------------------------------------ driver

class Driver {
 public:
  Driver(Pipeline* p, const Workload& w, uint64_t seed, Schedule sched,
         Window* window, BidBook* book, SpanLog* spans)
      : p_(p),
        w_(w),
        sched_(sched),
        window_(window),
        book_(book),
        spans_(spans),
        gen_(NexmarkConfig{}, seed, &due_clock_) {}

  // Steady open loop: generates every event as it falls due, flushes on
  // the fixed cadence, until `stop` is set.
  void RunSteady(const std::atomic<bool>& stop) {
    TimeNs next_flush = sched_.t0 + w_.flush;
    uint64_t i = 0;
    std::vector<TimeNs> pending_dues;
    while (!stop.load(std::memory_order_acquire)) {
      out_.cpu.Tick(*window_, false);
      TimeNs now = WallNow();
      TimeNs burst_start = now;
      uint64_t burst_events = 0;
      while (sched_.Due(i) <= now && i < book_->expected.size()) {
        if (SendOne(i, &pending_dues)) {
          ++burst_events;
        }
        ++i;
      }
      if (burst_events > 0) {
        spans_->Add("driver.burst", burst_start, WallNow(), -1, round_,
                    static_cast<int64_t>(burst_events));
      }
      now = WallNow();
      if (now >= next_flush) {
        FlushAll(&pending_dues);
        while (next_flush <= now) {
          next_flush += w_.flush;
        }
      }
      TimeNs wake = std::min(next_flush, now + kMillisecond);
      TimeNs after = WallNow();
      if (wake > after) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wake - after));
      }
    }
    out_.cpu.Tick(*window_, true);
    FlushAll(&pending_dues);
    out_.generated = i;
    CountUnacked();
  }

  DriverOut& out() { return out_; }

 private:
  void CountUnacked() {
    for (auto& [stream, producer] : p_->producers) {
      out_.append_failed += producer->buffered();
    }
  }

  bool SendOne(uint64_t i, std::vector<TimeNs>* pending_dues) {
    TimeNs due = sched_.Due(i);
    due_clock_.Set(due);
    TimeNs t_gen = spans_->enabled() ? WallNow() : 0;
    NexmarkGenerator::Event e = gen_.Next();
    bool is_bid = e.kind == NexmarkGenerator::Kind::kBid;
    book_->expected[i] = is_bid ? ReferenceEur(e.bid.price) : -1;
    Encoded enc;
    if (!Encode(*p_, e, &enc)) {
      return false;
    }
    TimeNs t_send = WallNow();
    enc.producer->Send(std::move(enc.key), std::move(enc.value), due);
    if (spans_->enabled()) {
      out_.gen_ns += t_send - t_gen;
      out_.send_ns += WallNow() - t_send;
      ++out_.timed_events;
    }
    ++out_.offered;
    if (InWindow(due)) {
      out_.late_ns.push_back(t_send - due);
      ++out_.window_offered;
    }
    pending_dues->push_back(due);
    return true;
  }

  bool InWindow(TimeNs due) const {
    TimeNs start = window_->start.load(std::memory_order_acquire);
    TimeNs end = window_->end.load(std::memory_order_acquire);
    return start != 0 && due >= start && (end == 0 || due < end);
  }

  void FlushAll(std::vector<TimeNs>* pending_dues) {
    TimeNs round_start = WallNow();
    for (TimeNs due : *pending_dues) {
      if (InWindow(due)) {
        out_.residency_ns.push_back(round_start - due);
      }
    }
    size_t records = pending_dues->size();
    int64_t round_span = spans_->Add("driver.flush_round", round_start, 0, -1,
                                     round_, static_cast<int64_t>(records));
    for (auto& [stream, producer] : p_->producers) {
      size_t buffered = producer->buffered();
      if (buffered == 0) {
        continue;
      }
      TimeNs t = WallNow();
      auto flushed = producer->Flush();
      TimeNs done = WallNow();
      spans_->Add("ingress.flush", t, done, round_span, round_,
                  static_cast<int64_t>(buffered));
      if (InWindow(t)) {
        out_.flush_ns.push_back(done - t);
        out_.window_flushed += buffered;
      }
      if (!flushed.ok()) {
        // The batch stays buffered and is re-sent by the next flush.
        std::fprintf(stderr, "ingress flush failed: %s\n",
                     flushed.status().ToString().c_str());
      }
    }
    if (round_span >= 0) {
      const_cast<Span&>(spans_->spans()[round_span]).end = WallNow();
    }
    pending_dues->clear();
    ++round_;
  }

  Pipeline* p_;
  const Workload& w_;
  Schedule sched_;
  Window* window_;
  BidBook* book_;
  SpanLog* spans_;
  DueClock due_clock_;
  NexmarkGenerator gen_;
  DriverOut out_;
  int64_t round_ = 0;
};

// ---------------------------------------------------------------- observer

class Observer {
 public:
  Observer(Pipeline* p, const Workload& w, Schedule sched, Window* window,
           BidBook* book, SpanLog* spans, bool sample_stats)
      : p_(p),
        w_(w),
        sched_(sched),
        window_(window),
        book_(book),
        spans_(spans),
        sample_stats_(sample_stats) {}

  void Run(const std::atomic<bool>& stop) {
    TimeNs next_stats = WallNow();
    while (!stop.load(std::memory_order_acquire)) {
      out_.cpu.Tick(*window_, false);
      bool any = PollOnce();
      TimeNs now = WallNow();
      if (sample_stats_ && now >= next_stats) {
        SampleStats();
        next_stats += kStatsPeriod;
      }
      if (!any) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(kObserverNap));
      }
    }
    out_.cpu.Tick(*window_, true);
  }

  // One round over every egress substream; true if any record arrived.
  bool PollOnce() {
    bool any = false;
    for (auto& consumer : p_->consumers) {
      TimeNs t = WallNow();
      auto records = consumer->PollAll();
      TimeNs seen_at = WallNow();
      ++out_.polls;
      out_.poll_ns += seen_at - t;
      if (!records.ok()) {
        out_.error = records.status();
        continue;
      }
      if (records->empty()) {
        ++out_.empty_polls;
        continue;
      }
      spans_->Add("egress.poll", t, seen_at, -1, -1,
                  static_cast<int64_t>(records->size()));
      any = true;
      for (const ReadyRecord& r : *records) {
        Consume(r, seen_at);
      }
      TimeNs start = window_->start.load(std::memory_order_acquire);
      TimeNs end = window_->end.load(std::memory_order_acquire);
      if (start != 0 && seen_at >= start && (end == 0 || seen_at < end)) {
        out_.frontier_track.emplace_back(seen_at, out_.frontier);
      }
    }
    return any;
  }

  ObserverOut& out() { return out_; }

 private:
  void Consume(const ReadyRecord& r, TimeNs seen_at) {
    ++out_.results;
    TimeNs et = r.data.event_time;
    out_.frontier = std::max(out_.frontier, et);
    TimeNs start = window_->start.load(std::memory_order_acquire);
    TimeNs end = window_->end.load(std::memory_order_acquire);
    if (start != 0 && et >= start && (end == 0 || et < end)) {
      out_.latency_ns.push_back(seen_at - et);
    }
    if (w_.query != 1) {
      out_.final_value[std::string(r.data.key)] = std::string(r.data.value);
      std::string id(r.header.producer);
      id += '#';
      id += std::to_string(r.header.seq);
      out_.duplicates += committed_.insert(std::move(id)).second ? 0 : 1;
      return;
    }
    auto bid = DecodeBidView(r.data.value);
    if (!bid.ok()) {
      ++out_.unparsable;
      return;
    }
    int64_t i = sched_.IndexOf(bid->date_time);
    if (i < 0 || static_cast<size_t>(i) >= book_->seen.size() ||
        sched_.Due(i) != bid->date_time) {
      ++out_.out_of_schedule;
      return;
    }
    if (book_->seen[i] == 0) {
      book_->got[i] = bid->price;
    }
    if (book_->seen[i] < 255) {
      ++book_->seen[i];
    }
  }

  void SampleStats() {
    TimeNs t = WallNow();
    std::vector<StageStats> stats = p_->engine->tasks()->CollectStageStats();
    TimeNs done = WallNow();
    spans_->Add("tasks.collect_stage_stats", t, done, -1, -1,
                static_cast<int64_t>(stats.size()));
    TimeNs start = window_->start.load(std::memory_order_acquire);
    TimeNs end = window_->end.load(std::memory_order_acquire);
    if (start == 0 || t < start || (end != 0 && t >= end)) {
      return;
    }
    for (const StageStats& s : stats) {
      out_.lag_samples[s.stage].push_back(s.input_lag);
    }
  }

  Pipeline* p_;
  const Workload& w_;
  Schedule sched_;
  Window* window_;
  BidBook* book_;
  SpanLog* spans_;
  bool sample_stats_;
  ObserverOut out_;
  std::unordered_set<std::string> committed_;  // producer#seq seen (q4)
};

// -------------------------------------------------------------- the run

struct Counters {
  std::map<std::string, uint64_t> values;
  uint64_t kv_bytes = 0;
  TimeNs at = 0;

  static Counters Read(Engine* engine) {
    Counters c;
    MetricsRegistry* m = engine->metrics();
    for (const std::string& name : m->CounterNames()) {
      c.values[name] = m->GetCounter(name)->Get();
    }
    c.kv_bytes = engine->checkpoint_store()->bytes_written();
    c.at = WallNow();
    return c;
  }
  uint64_t Delta(const Counters& before, const std::string& name) const {
    auto a = values.find(name);
    auto b = before.values.find(name);
    uint64_t after = a == values.end() ? 0 : a->second;
    uint64_t prior = b == before.values.end() ? 0 : b->second;
    return after - prior;
  }
};

// Metric line bookkeeping: every metric is printed with its unit and, for
// ratios, its base; the JSON result collects the ones the mode reports.
class Report {
 public:
  void E2e(const std::string& name, double v, const char* unit,
           const std::string& base = "") {
    Print("e2e", name, v, unit, base);
    e2e_.emplace_back(name, v, unit);
  }
  void Layer(const std::string& name, double v, const char* unit,
             const std::string& base = "") {
    Print("layer", name, v, unit, base);
    layer_.emplace_back(name, v, unit);
  }
  void Note(const std::string& text) { std::printf("# %s\n", text.c_str()); }

  std::string Json(bool trace, bool correct, uint64_t attempted,
                   uint64_t failed) const {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    const auto& list = trace ? layer_ : e2e_;
    for (size_t i = 0; i < list.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, "
                    "\"unit\": \"%s\"}", i ? ", " : "",
                    std::get<0>(list[i]).c_str(), std::get<1>(list[i]),
                    std::get<2>(list[i]));
      s += buf;
    }
    s += "}}";
    return s;
  }

 private:
  void Print(const char* kind, const std::string& name, double v,
             const char* unit, const std::string& base) {
    std::printf("%-5s %-34s %16.6f %-6s %s\n", kind, name.c_str(), v, unit,
                base.c_str());
  }
  std::vector<std::tuple<std::string, double, const char*>> e2e_;
  std::vector<std::tuple<std::string, double, const char*>> layer_;
};

template <typename... T>
std::string Fmt(const char* fmt, T... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Waits until the egress has been quiet for a full second (ten commit
// intervals, several per stage hop) after the input stopped; false on
// timeout. Stage input lag cannot serve here: a consumer's committed
// position stops short of its producers' trailing progress markers.
bool Drain(Observer* observer, DurationNs timeout) {
  TimeNs start = WallNow();
  TimeNs last = start;
  while (WallNow() - start < timeout) {
    if (observer->PollOnce()) {
      last = WallNow();
    } else if (observer->out().results.load() > 0 &&
               WallNow() - last >= kSecond) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// Single-threaded reference for Q4, folded straight from the seeded event
// list: each auction's winning bid is the highest bid on it whose event time
// is within the join window of the auction's, and each category's result is
// (sum, count) of its auctions' winning prices -- the encoding the engine's
// avg_price aggregate commits. Returns the final value per category key.
std::map<std::string, std::string> FoldQ4(uint64_t seed, Schedule sched,
                                          uint64_t generated) {
  const DurationNs window = NexmarkQueryOptions{}.join_window;
  DueClock clock;
  NexmarkGenerator gen(NexmarkConfig{}, seed, &clock);
  struct Open {
    TimeNs et = 0;
    uint64_t category = 0;
    int64_t best = -1;
  };
  struct BidRef {
    uint64_t auction = 0;
    int64_t price = 0;
    TimeNs et = 0;
  };
  std::unordered_map<uint64_t, Open> auctions;
  std::vector<BidRef> bids;
  for (uint64_t i = 0; i < generated; ++i) {
    clock.Set(sched.Due(i));
    NexmarkGenerator::Event e = gen.Next();
    if (e.kind == NexmarkGenerator::Kind::kAuction) {
      auctions[e.auction.id] = {e.event_time, e.auction.category, -1};
    } else if (e.kind == NexmarkGenerator::Kind::kBid) {
      bids.push_back({e.bid.auction, e.bid.price, e.event_time});
    }
  }
  for (const BidRef& bid : bids) {
    auto it = auctions.find(bid.auction);
    if (it != auctions.end() && std::abs(bid.et - it->second.et) < window) {
      it->second.best = std::max(it->second.best, bid.price);
    }
  }
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> by_category;
  for (const auto& [id, a] : auctions) {
    if (a.best >= 0) {
      auto& [sum, count] = by_category[a.category];
      sum += static_cast<uint64_t>(a.best);
      ++count;
    }
  }
  std::map<std::string, std::string> out;
  for (const auto& [category, agg] : by_category) {
    BinaryWriter w(20);
    w.WriteVarU64(agg.first);
    w.WriteVarU64(agg.second);
    out[std::to_string(category)] = w.Take();
  }
  return out;
}

void WriteSpans(const std::string& path,
                const std::vector<std::pair<const char*, const SpanLog*>>&
                    logs,
                TimeNs origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  int tid = 0;
  for (const auto& [thread, log] : logs) {
    ++tid;
    const auto& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"thread\": \"%s\", \"id\": %zu, \"parent\": %lld, "
                   "\"batch\": %lld, \"count\": %lld}}",
                   first ? "" : ",\n", s.name, tid, (s.start - origin) / 1e3,
                   (s.end - s.start) / 1e3, thread, i,
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.batch),
                   static_cast<long long>(s.count));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// Least-squares slope of y over x.
double Slope(const std::vector<std::pair<TimeNs, TimeNs>>& pts) {
  if (pts.size() < 2) {
    return 0;
  }
  double mx = 0, my = 0;
  for (const auto& [x, y] : pts) {
    mx += static_cast<double>(x - pts[0].first);
    my += static_cast<double>(y - pts[0].second);
  }
  mx /= pts.size();
  my /= pts.size();
  double sxy = 0, sxx = 0;
  for (const auto& [x, y] : pts) {
    double dx = static_cast<double>(x - pts[0].first) - mx;
    double dy = static_cast<double>(y - pts[0].second) - my;
    sxy += dx * dy;
    sxx += dx * dx;
  }
  return sxx > 0 ? sxy / sxx : 0;
}

// Nanoseconds one WallNow() costs on this machine: the unit cost of the
// traced run's extra timing.
double ClockReadNs() {
  constexpr int kReads = 100000;
  TimeNs t = WallNow();
  for (int i = 0; i < kReads; ++i) {
    WallNow();
  }
  return (WallNow() - t) / static_cast<double>(kReads);
}

const char* const kLagStages[] = {"convert", "ka", "kb", "winbid", "avg"};

class Bench {
 public:
  Bench(const Workload& w, const Args& a)
      : w_(w),
        a_(a),
        driver_spans_(a.trace),
        observer_spans_(a.trace) {}

  int Run() {
    std::printf("# workload %s seed %llu seconds %.1f trace %d\n", w_.name,
                static_cast<unsigned long long>(a_.seed), a_.seconds,
                a_.trace ? 1 : 0);
    if (!SetUp()) {
      return 2;
    }
    Measure();
    Check();
    ReportEndToEnd();
    if (a_.trace) {
      ReportLayers();
      ReportTracing();
    }
    std::fflush(stdout);
    std::printf("%s\n",
                report_.Json(a_.trace, correct_, attempted_, failed_).c_str());
    return correct_ ? 0 : 1;
  }

 private:
  // Engine + Submit + producers + consumers, repeated; the median set-up is
  // reported and the last one kept.
  bool SetUp() {
    std::vector<double> setups;
    wal_ = a_.out_dir + "/kv-" + std::to_string(::getpid()) + ".wal";
    for (int r = 0; r < kSetupRepeats; ++r) {
      if (p_.engine != nullptr) {
        p_.engine->Stop();
        p_ = Pipeline{};
      }
      std::remove(wal_.c_str());
      TimeNs t = WallNow();
      auto built = BuildPipeline(w_, a_.seed, wal_);
      if (!built.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     built.status().ToString().c_str());
        return false;
      }
      p_ = std::move(*built);
      setups.push_back((WallNow() - t) / 1e9);
    }
    setup_s_ = Median(setups);
    for (double v : setups) {
      setup_list_ += Fmt(" %.6f", v);
    }
    sched_.rate = static_cast<uint64_t>(w_.rate);
    size_t cap =
        static_cast<size_t>(w_.rate * (w_.warmup_s + a_.seconds + 5.0));
    book_.expected.assign(cap, -1);
    book_.seen.assign(book_.expected.size(), 0);
    book_.got.assign(book_.expected.size(), 0);
    return true;
  }

  void OpenWindow() {
    emit_hist_ = p_.engine->metrics()->Histogram(
        "lat/q" + std::to_string(w_.query));
    emit_hist_->Reset();
    before_ = Counters::Read(p_.engine.get());
    cpu_before_ = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    window_.start.store(before_.at, std::memory_order_release);
  }

  void CloseWindow() {
    TimeNs end = WallNow();
    window_.end.store(end, std::memory_order_release);
    emit_p50_ = emit_hist_->p50() / 1e6;
    emit_p99_ = emit_hist_->p99() / 1e6;
    emit_n_ = emit_hist_->Count();
    after_ = Counters::Read(p_.engine.get());
    cpu_after_ = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    window_s_ = (end - window_.start.load()) / 1e9;
  }

  void Measure() {
    origin_ = WallNow();
    sched_.t0 = origin_;
    driver_ = std::make_unique<Driver>(&p_, w_, a_.seed, sched_, &window_,
                                       &book_, &driver_spans_);
    observer_ = std::make_unique<Observer>(&p_, w_, sched_, &window_, &book_,
                                           &observer_spans_, a_.trace);
    std::atomic<bool> stop_driver{false}, stop_observer{false};
    std::thread observer_thread([&] { observer_->Run(stop_observer); });
    std::thread driver_thread([&] { driver_->RunSteady(stop_driver); });
    SleepUntil(origin_ + static_cast<DurationNs>(w_.warmup_s * kSecond));
    OpenWindow();
    SleepUntil(window_.start.load() +
               static_cast<DurationNs>(a_.seconds * kSecond));
    CloseWindow();
    stop_driver.store(true, std::memory_order_release);
    driver_thread.join();
    stop_observer.store(true, std::memory_order_release);
    observer_thread.join();
    // Let what is in flight commit so the check sees every result.
    drained_ = Drain(observer_.get(), kSettleTimeout);
    peak_rss_mb_ = PeakRssMb();
    p_.engine->Stop();
    p_ = Pipeline{};
    std::remove(wal_.c_str());
  }

  static void SleepUntil(TimeNs t) {
    TimeNs now = WallNow();
    if (t > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
    }
  }

  void Check() {
    const DriverOut& d = driver_->out();
    ObserverOut& o = observer_->out();
    correct_ = drained_ && o.error.ok() && o.unparsable == 0;
    failed_ = d.append_failed;
    attempted_ = d.offered;
    std::string check;
    if (w_.query == 1) {
      check = CheckQ1();
    } else if (drained_) {
      check = CheckQ4();
    }
    if (!drained_) {
      check += Fmt(" (pipeline did not drain within %.0f s)",
                   kSettleTimeout / 1e9);
    }
    if (!o.error.ok()) {
      check += " (egress poll error: " + o.error.ToString() + ")";
    }
    correct_ = correct_ && failed_ == 0;
    report_.Note(check);
  }

  // Every offered bid has exactly one committed result, equal to the
  // reference conversion.
  std::string CheckQ1() {
    uint64_t limit = driver_->out().generated;
    uint64_t bids = 0, missing = 0, duplicated = 0, wrong = 0;
    for (size_t i = 0; i < limit; ++i) {
      if (book_.expected[i] < 0) {
        continue;
      }
      ++bids;
      if (book_.seen[i] == 0) {
        ++missing;
      } else if (book_.seen[i] > 1) {
        ++duplicated;
      } else if (book_.got[i] != book_.expected[i]) {
        ++wrong;
      }
    }
    uint64_t stray = observer_->out().out_of_schedule;
    failed_ += missing + duplicated + wrong + stray;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "output check: %llu bids offered; %llu missing, %llu "
                  "duplicated, %llu with a wrong EUR price, %llu not in the "
                  "schedule",
                  static_cast<unsigned long long>(bids),
                  static_cast<unsigned long long>(missing),
                  static_cast<unsigned long long>(duplicated),
                  static_cast<unsigned long long>(wrong),
                  static_cast<unsigned long long>(stray));
    return buf;
  }

  // No egress record is committed twice, and the final committed value per
  // key equals the single-threaded fold of the same event list.
  std::string CheckQ4() {
    const auto& got = observer_->out().final_value;
    auto ref = FoldQ4(a_.seed, sched_, driver_->out().generated);
    uint64_t mismatched = 0;
    for (const auto& [key, value] : ref) {
      auto it = got.find(key);
      mismatched += it == got.end() || it->second != value ? 1 : 0;
    }
    for (const auto& [key, value] : got) {
      mismatched += ref.count(key) == 0 ? 1 : 0;
    }
    uint64_t dups = observer_->out().duplicates;
    // A wrong final value cannot be pinned to single events, so every
    // offered event counts as failed.
    if (mismatched > 0) {
      failed_ = std::max<uint64_t>(failed_, driver_->out().offered);
    }
    failed_ += dups;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "output check: %zu keys' final values vs the "
                  "single-threaded fold: %llu differ; %llu egress records "
                  "committed twice",
                  ref.size(), static_cast<unsigned long long>(mismatched),
                  static_cast<unsigned long long>(dups));
    return buf;
  }

  void ReportEndToEnd() {
    const DriverOut& d = driver_->out();
    const ObserverOut& o = observer_->out();
    lat_p50_ = Quantile(o.latency_ns, 0.50) / 1e6;
    size_t n = o.latency_ns.size();
    std::string nbase = "n=" + std::to_string(n);
    report_.E2e("latency_p50_ms", lat_p50_, "ms", nbase);
    report_.E2e("latency_p99_ms", Quantile(o.latency_ns, 0.99) / 1e6, "ms",
                nbase + (n >= 1000 ? "" : " (<10 samples beyond)"));
    report_.E2e("latency_p999_ms", Quantile(o.latency_ns, 0.999) / 1e6, "ms",
                nbase + (n >= 10000 ? "" : " (<10 samples beyond)"));
    // Committed event-time frontier slope (event-seconds per second) times
    // the offered rate.
    double slope = Slope(o.frontier_track);
    double offered_rate =
        w_.rate * Ratio(static_cast<double>(d.offered),
                        static_cast<double>(d.generated));
    report_.E2e("throughput_eps", slope * offered_rate, "1/s",
                Fmt("frontier slope %.4f x offered %.0f events/s", slope,
                    offered_rate) +
                    " (" + std::to_string(o.frontier_track.size()) +
                    " points)");
    double bench_cpu_us = (d.cpu.spent_ns() + o.cpu.spent_ns()) / 1e3;
    double engine_cpu_us = (cpu_after_ - cpu_before_) / 1e3 - bench_cpu_us;
    report_.E2e("cpu_us_per_event",
                Ratio(engine_cpu_us, static_cast<double>(d.window_offered)),
                "us",
                Fmt("%.0f us engine CPU / %.0f events", engine_cpu_us,
                     static_cast<double>(d.window_offered)));
    report_.E2e("peak_rss_mb", peak_rss_mb_, "MB",
                "after the drain, before the check");
    report_.E2e("setup_s", setup_s_, "s",
                "median of " + std::to_string(kSetupRepeats) +
                    " engine set-ups (" + setup_list_ + " )");
    report_.Note(Fmt("failed_frac %.6f (%.0f", Ratio(failed_, attempted_),
                      static_cast<double>(failed_)) +
                 " failed of " + std::to_string(attempted_) +
                 " attempted operations)");
  }

  void ReportLayers() {
    const DriverOut& d = driver_->out();
    const ObserverOut& o = observer_->out();
    auto delta = [&](const char* name) {
      return static_cast<double>(after_.Delta(before_, name));
    };
    double events = static_cast<double>(d.window_offered);
    double ws = window_s_;
    auto count_base = [&](double num, const char* what, double den,
                          const char* of) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%.0f %s / %.0f %s, %.3f s window", num,
                    what, den, of, ws);
      return std::string(buf);
    };

    // nexmark + driver
    report_.Layer("nexmark.gen_us_per_event",
                  Ratio(d.gen_ns / 1e3, static_cast<double>(d.timed_events)),
                  "us",
                  "Next + Encode* time / " + std::to_string(d.timed_events) +
                      " events");
    report_.Layer("driver.late_p99_ms", Quantile(d.late_ns, 0.99) / 1e6, "ms",
                  "Send start - due, n=" + std::to_string(d.late_ns.size()));
    report_.Layer("driver.events", events, "count", "offered in the window");

    // core ingress
    report_.Layer("ingress.residency_p50_ms",
                  Quantile(d.residency_ns, 0.5) / 1e6, "ms",
                  "flush start - due, n=" +
                      std::to_string(d.residency_ns.size()));
    report_.Layer("ingress.flush_p50_ms", Quantile(d.flush_ns, 0.5) / 1e6,
                  "ms", "IngressProducer::Flush, n=" +
                            std::to_string(d.flush_ns.size()));
    report_.Layer("ingress.flush_p99_ms", Quantile(d.flush_ns, 0.99) / 1e6,
                  "ms", "n=" + std::to_string(d.flush_ns.size()));
    report_.Layer("ingress.records_per_flush",
                  Ratio(static_cast<double>(d.window_flushed),
                        static_cast<double>(d.flush_ns.size())),
                  "count",
                  count_base(static_cast<double>(d.window_flushed), "records",
                             static_cast<double>(d.flush_ns.size()),
                             "flushes"));
    report_.Layer("ingress.send_ns",
                  Ratio(static_cast<double>(d.send_ns),
                        static_cast<double>(d.timed_events)),
                  "ns", "IngressProducer::Send time / " +
                            std::to_string(d.timed_events) + " calls");

    // sharedlog
    double appends = delta("log/appends"), records = delta("log/records");
    report_.Layer("sharedlog.records_per_append", Ratio(records, appends),
                  "count", count_base(records, "records", appends, "appends"));
    report_.Layer("sharedlog.appends_per_s", Ratio(appends, ws), "1/s",
                  count_base(appends, "appends", ws, "s"));
    report_.Layer("sharedlog.bytes_per_event",
                  Ratio(delta("log/bytes_appended"), events), "B",
                  count_base(delta("log/bytes_appended"), "bytes", events,
                             "events"));
    report_.Layer("sharedlog.reads_per_record",
                  Ratio(delta("log/reads"), records), "count",
                  count_base(delta("log/reads"), "reads", records,
                             "records"));
    report_.Layer("sharedlog.cuts_per_s", Ratio(delta("log/cuts"), ws), "1/s",
                  count_base(delta("log/cuts"), "metalog cuts", ws, "s") +
                      " (exported only with >1 shard)");

    // sched
    report_.Layer("sched.steps_per_event", Ratio(delta("sched/steps"), events),
                  "count",
                  count_base(delta("sched/steps"), "steps", events, "events"));
    report_.Layer("sched.steals_per_s", Ratio(delta("sched/steals"), ws),
                  "1/s", count_base(delta("sched/steals"), "steals", ws, "s"));
    report_.Layer("sched.parks_per_s", Ratio(delta("sched/parks"), ws), "1/s",
                  count_base(delta("sched/parks"), "parks", ws, "s"));

    // core tasks/operators
    std::string hbase = "sink histogram lat/q" + std::to_string(w_.query) +
                        ", n=" + std::to_string(emit_n_);
    report_.Layer("core.emit_p50_ms", emit_p50_, "ms", hbase);
    report_.Layer("core.emit_p99_ms", emit_p99_, "ms", hbase);
    for (const char* stage : kLagStages) {
      auto it = o.lag_samples.find(stage);
      std::vector<uint64_t> lag;
      if (it != o.lag_samples.end()) {
        lag = it->second;
      }
      uint64_t max_lag =
          lag.empty() ? 0 : *std::max_element(lag.begin(), lag.end());
      double growth =
          lag.size() < 2 ? 0
                         : (static_cast<double>(lag.back()) -
                            static_cast<double>(lag.front())) / ws;
      std::string sbase = lag.empty()
                              ? std::string("stage not in this query")
                              : std::to_string(lag.size()) +
                                    " CollectStageStats samples";
      report_.Layer(std::string("core.input_lag_max.") + stage,
                    static_cast<double>(max_lag), "count", sbase);
      report_.Layer(std::string("core.input_lag_growth.") + stage, growth,
                    "1/s", "(last - first sample) / window, " + sbase);
    }
    report_.Layer("core.commit_overruns", delta("task/commit_overruns"),
                  "count", "task/commit_overruns delta");

    // protocols
    report_.Layer("protocols.gate_ms", lat_p50_ - emit_p50_, "ms",
                  "latency_p50_ms - core.emit_p50_ms (difference of medians)");

    // kvstore
    double kv = static_cast<double>(after_.kv_bytes - before_.kv_bytes);
    report_.Layer("kvstore.bytes_written_per_s", Ratio(kv, ws), "B/s",
                  count_base(kv, "bytes", ws, "s"));

    // core egress
    report_.Layer("egress.poll_us",
                  Ratio(o.poll_ns / 1e3, static_cast<double>(o.polls)), "us",
                  "EgressConsumer::PollAll, " + std::to_string(o.polls) +
                      " calls");
    report_.Layer("egress.empty_poll_frac",
                  Ratio(static_cast<double>(o.empty_polls),
                        static_cast<double>(o.polls)),
                  "ratio",
                  count_base(static_cast<double>(o.empty_polls), "empty",
                             static_cast<double>(o.polls), "polls"));

    // common retry
    report_.Layer("retry.retry_frac",
                  Ratio(delta("retry/retries"), delta("retry/attempts")),
                  "ratio",
                  count_base(delta("retry/retries"), "retries",
                             delta("retry/attempts"), "attempts"));

    if (std::string(w_.name) == "q1-steady" ||
        std::string(w_.name) == "q4-steady") {
      double residency = Quantile(d.residency_ns, 0.5) / 1e6;
      double flush = Quantile(d.flush_ns, 0.5) / 1e6;
      double remainder = emit_p50_ - residency - flush;
      report_.Note("latency ledger (medians, ms):");
      std::printf("#   ingress.residency_p50_ms        %10.3f\n", residency);
      std::printf("# + ingress.flush_p50_ms            %10.3f\n", flush);
      std::printf("# + remainder to emission (derived)  %10.3f  "
                  "= core.emit_p50_ms - the two above\n", remainder);
      std::printf("# + protocols.gate_ms (derived)      %10.3f  "
                  "= latency_p50_ms - core.emit_p50_ms\n",
                  lat_p50_ - emit_p50_);
      std::printf("# = latency_p50_ms                   %10.3f\n", lat_p50_);
    }
  }

  void ReportTracing() {
    std::string path = a_.out_dir + "/spans-" + w_.name + "-" +
                       std::to_string(a_.seed) + ".json";
    size_t spans =
        driver_spans_.spans().size() + observer_spans_.spans().size();
    uint64_t dropped = driver_spans_.dropped() + observer_spans_.dropped();
    WriteSpans(path,
               {{"driver", &driver_spans_}, {"observer", &observer_spans_}},
               origin_);
    // Extra work of a traced run: two clock reads per timed event and one
    // per span, on the benchmark's own threads.
    double reads = 2.0 * driver_->out().timed_events + spans;
    double cost_ms = reads * ClockReadNs() / 1e6;
    std::printf("# tracing: %zu spans kept, %llu dropped%s; ~%.0f extra clock "
                "reads = %.1f ms on benchmark threads (%.2f%% of the window)\n",
                spans, static_cast<unsigned long long>(dropped),
                (", written to " + path).c_str(), reads,
                cost_ms, Ratio(cost_ms, window_s_ * 1e3) * 100);
  }

  const Workload& w_;
  const Args& a_;
  Pipeline p_;
  Schedule sched_;
  BidBook book_;
  Window window_;
  SpanLog driver_spans_, observer_spans_;
  std::unique_ptr<Driver> driver_;
  std::unique_ptr<Observer> observer_;
  Report report_;
  LatencyHistogram* emit_hist_ = nullptr;
  Counters before_, after_;
  int64_t cpu_before_ = 0, cpu_after_ = 0;
  TimeNs origin_ = 0;
  double window_s_ = 0;
  double setup_s_ = 0;
  double peak_rss_mb_ = 0;
  std::string setup_list_;
  double lat_p50_ = 0;
  double emit_p50_ = 0;
  double emit_p99_ = 0;
  uint64_t emit_n_ = 0;
  std::string wal_;
  bool drained_ = true;
  bool correct_ = false;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace
}  // namespace perfbench
}  // namespace impeller

int main(int argc, char** argv) {
  using impeller::perfbench::Args;
  Args a;
  for (int i = 1; i < argc; i += 2) {
    std::string k = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", k.c_str());
      return 2;
    }
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  ::mkdir(a.out_dir.c_str(), 0755);
  for (const auto& w : impeller::perfbench::kWorkloads) {
    if (a.workload == w.name) {
      return impeller::perfbench::Bench(w, a).Run();
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
  return 2;
}
