// End-to-end correctness under realistic latency models: the same
// exactly-once guarantees must hold when appends take milliseconds and
// records propagate asynchronously (tests elsewhere run with zero latency
// for speed and determinism). Also validates the calibrated models against
// their Table 2 targets statistically.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace impeller {
namespace {

using testutil::Numbered;
using testutil::FastConfig;
using testutil::ReadWordCounts;
using testutil::WaitFor;
using testutil::WordCountPlan;

TEST(LatencyModelTest, BokiSampleStatisticsMatchTable2) {
  CalibratedLatencyModel model(CalibratedLatencyModel::BokiParams(), 7);
  LatencyHistogram hist;
  for (int i = 0; i < 20000; ++i) {
    LatencySample s = model.SampleAppend(16 * 1024, 10 * kMillisecond);
    hist.Record(s.ack + s.delivery);
  }
  // Table 2 "Impeller's log": p50 2546-2714 us, p99 3596-3832 us.
  EXPECT_NEAR(static_cast<double>(hist.p50()), 2.6e6, 0.35e6);
  EXPECT_NEAR(static_cast<double>(hist.p99()), 3.7e6, 0.8e6);
}

TEST(LatencyModelTest, KafkaIdleTailMatchesTable2Shape) {
  CalibratedLatencyModel model(CalibratedLatencyModel::KafkaParams(), 7);
  LatencyHistogram busy, idle;
  for (int i = 0; i < 20000; ++i) {
    LatencySample s = model.SampleAppend(16 * 1024, 10 * kMillisecond);
    busy.Record(s.ack + s.delivery);
    s = model.SampleAppend(16 * 1024, 100 * kMillisecond);
    idle.Record(s.ack + s.delivery);
  }
  // Busy partitions: lower latency than the shared log (Table 2 at 100
  // aps); idle partitions: elevated p50 and a heavy tail (Table 2 at 10
  // aps, where Kafka's p99 exceeds the log's).
  EXPECT_LT(busy.p50(), 2 * kMillisecond);
  EXPECT_GT(idle.p50(), busy.p50() + 300 * kMicrosecond);
  EXPECT_GT(idle.p99(), 3500 * kMicrosecond);
}

TEST(LatencyModelTest, ScaleKnobCompressesTime) {
  CalibratedLatencyParams params = CalibratedLatencyModel::BokiParams();
  params.scale = 0.1;
  CalibratedLatencyModel model(params, 7);
  LatencyHistogram hist;
  for (int i = 0; i < 2000; ++i) {
    LatencySample s = model.SampleAppend(100, 0);
    hist.Record(s.ack + s.delivery);
  }
  EXPECT_LT(hist.p50(), 400 * kMicrosecond);
  EXPECT_GT(hist.p50(), 100 * kMicrosecond);
}

TEST(LatencyModelTest, WordCountExactUnderBokiLatency) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  options.config.commit_interval = 50 * kMillisecond;
  options.log_latency = std::make_shared<CalibratedLatencyModel>(
      CalibratedLatencyModel::BokiParams(), 3);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(2);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  for (int i = 0; i < 30; ++i) {
    (*producer)->Send(Numbered("k", i), "real latency run");
  }
  ASSERT_TRUE((*producer)->Flush().ok());

  Counter* out = engine.metrics()->GetCounter("out/wc");
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 90; }, 20 * kSecond));
  engine.Stop();
  auto counts = ReadWordCounts(engine, 2);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)["real"], 30);
  EXPECT_EQ((*counts)["latency"], 30);
  EXPECT_EQ((*counts)["run"], 30);
  // End-to-end latency reflects the model: several ms per hop at least.
  EXPECT_GT(engine.metrics()->Histogram("lat/wc")->p50(), 4 * kMillisecond);
}

TEST(LatencyModelTest, CrashRecoveryExactUnderLatency) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  options.config.commit_interval = 40 * kMillisecond;
  options.log_latency = std::make_shared<CalibratedLatencyModel>(
      CalibratedLatencyModel::BokiParams(), 5);
  Engine engine(std::move(options));
  auto plan = WordCountPlan(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen", "lines");
  ASSERT_TRUE(producer.ok());
  Counter* out = engine.metrics()->GetCounter("out/wc");

  for (int i = 0; i < 20; ++i) {
    (*producer)->Send("k", "pre crash");
  }
  ASSERT_TRUE((*producer)->Flush().ok());
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 40; }, 20 * kSecond));

  // Crash while markers and data are in flight through the modeled network.
  auto stats = engine.tasks()->RestartTask("wc/count/0");
  ASSERT_TRUE(stats.ok());

  for (int i = 0; i < 20; ++i) {
    (*producer)->Send("k", "post");
  }
  ASSERT_TRUE((*producer)->Flush().ok());
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 60; }, 20 * kSecond));
  engine.Stop();
  auto counts = ReadWordCounts(engine, 1);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)["pre"], 20);
  EXPECT_EQ((*counts)["crash"], 20);
  EXPECT_EQ((*counts)["post"], 20);
}

}  // namespace
}  // namespace impeller
