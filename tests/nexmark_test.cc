// NEXMark suite tests: generator mix/sizes (§5.3), query plan shapes
// (Table 3), and short end-to-end runs of Q1-Q8.
#include <gtest/gtest.h>

#include "src/nexmark/driver.h"
#include "src/nexmark/generator.h"
#include "src/nexmark/queries.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

using testutil::FastConfig;
using testutil::Numbered;
using testutil::WaitFor;

TEST(NexmarkGeneratorTest, EventMixMatchesPaper) {
  NexmarkGenerator generator({}, 1, MonotonicClock::Get());
  int bids = 0, auctions = 0, persons = 0;
  constexpr int kTotal = 50000;
  for (int i = 0; i < kTotal; ++i) {
    switch (generator.Next().kind) {
      case NexmarkGenerator::Kind::kBid:
        bids++;
        break;
      case NexmarkGenerator::Kind::kAuction:
        auctions++;
        break;
      case NexmarkGenerator::Kind::kPerson:
        persons++;
        break;
    }
  }
  EXPECT_NEAR(bids / static_cast<double>(kTotal), 0.92, 0.001);
  EXPECT_NEAR(auctions / static_cast<double>(kTotal), 0.06, 0.001);
  EXPECT_NEAR(persons / static_cast<double>(kTotal), 0.02, 0.001);
}

TEST(NexmarkGeneratorTest, AverageEventSizesMatchPaper) {
  NexmarkGenerator generator({}, 2, MonotonicClock::Get());
  int64_t bid_bytes = 0, auction_bytes = 0, person_bytes = 0;
  int bids = 0, auctions = 0, persons = 0;
  for (int i = 0; i < 20000; ++i) {
    auto event = generator.Next();
    switch (event.kind) {
      case NexmarkGenerator::Kind::kBid:
        bid_bytes += static_cast<int64_t>(EncodeBid(event.bid).size());
        bids++;
        break;
      case NexmarkGenerator::Kind::kAuction:
        auction_bytes +=
            static_cast<int64_t>(EncodeAuction(event.auction).size());
        auctions++;
        break;
      case NexmarkGenerator::Kind::kPerson:
        person_bytes +=
            static_cast<int64_t>(EncodePerson(event.person).size());
        persons++;
        break;
    }
  }
  EXPECT_NEAR(bid_bytes / static_cast<double>(bids), 100.0, 15.0);
  EXPECT_NEAR(auction_bytes / static_cast<double>(auctions), 500.0, 50.0);
  EXPECT_NEAR(person_bytes / static_cast<double>(persons), 200.0, 25.0);
}

TEST(NexmarkGeneratorTest, BidsReferenceRecentAuctionsWithSkew) {
  // Hot-key popularity is relative to the newest auction (zipf over
  // recency rank), so measure the distribution of "distance from newest".
  NexmarkGenerator generator({}, 3, MonotonicClock::Get());
  uint64_t max_auction_id = 0;
  int64_t bids = 0, near_head = 0;
  for (int i = 0; i < 50000; ++i) {
    auto event = generator.Next();
    if (event.kind == NexmarkGenerator::Kind::kAuction) {
      max_auction_id = std::max(max_auction_id, event.auction.id);
    } else if (event.kind == NexmarkGenerator::Kind::kBid &&
               max_auction_id > 100) {
      EXPECT_LE(event.bid.auction, max_auction_id)
          << "bids target already-opened auctions";
      ++bids;
      if (max_auction_id - event.bid.auction < 5) {
        ++near_head;  // one of the 5 most recent of ~100 in flight
      }
    }
  }
  // Uniform would give ~5%; the zipf skew concentrates far more mass on the
  // most recent (hottest) auctions.
  EXPECT_GT(near_head, bids / 5);
}

TEST(NexmarkGeneratorTest, Deterministic) {
  NexmarkGenerator a({}, 42, MonotonicClock::Get());
  NexmarkGenerator b({}, 42, MonotonicClock::Get());
  for (int i = 0; i < 1000; ++i) {
    auto ea = a.Next();
    auto eb = b.Next();
    ASSERT_EQ(static_cast<int>(ea.kind), static_cast<int>(eb.kind));
    if (ea.kind == NexmarkGenerator::Kind::kBid) {
      EXPECT_EQ(ea.bid.auction, eb.bid.auction);
      EXPECT_EQ(ea.bid.price, eb.bid.price);
    }
  }
}

TEST(NexmarkQueriesTest, AllQueriesBuild) {
  for (int q = 1; q <= 8; ++q) {
    auto plan = BuildNexmarkQuery(q);
    ASSERT_TRUE(plan.ok()) << "Q" << q << ": " << plan.status().ToString();
    EXPECT_EQ(plan->name, Numbered("q", q));
    EXPECT_NE(plan->FindStage(NexmarkSinkStage(q)), nullptr) << "Q" << q;
  }
  EXPECT_FALSE(BuildNexmarkQuery(0).ok());
  EXPECT_FALSE(BuildNexmarkQuery(9).ok());
}

TEST(NexmarkQueriesTest, StatefulnessMatchesTable3) {
  // Q1/Q2 are purely stateless; Q3-Q8 contain stateful operators.
  for (int q = 1; q <= 8; ++q) {
    auto plan = BuildNexmarkQuery(q);
    ASSERT_TRUE(plan.ok());
    bool any_stateful = false;
    for (const auto& stage : plan->stages) {
      any_stateful = any_stateful || stage.stateful;
    }
    EXPECT_EQ(any_stateful, q >= 3) << "Q" << q;
  }
}

class NexmarkEndToEnd : public ::testing::TestWithParam<int> {};

TEST_P(NexmarkEndToEnd, ProducesOutput) {
  int q = GetParam();
  NexmarkQueryOptions query_options;
  query_options.tasks_per_stage = 2;
  // Scale windows down so they fire within the short test run.
  query_options.q5_window = kSecond;
  query_options.q5_slide = 250 * kMillisecond;
  query_options.q7_window = 500 * kMillisecond;
  query_options.q8_window = 5 * kSecond;
  query_options.join_window = 5 * kSecond;
  query_options.allowed_lateness = 100 * kMillisecond;

  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  auto plan = BuildNexmarkQuery(q, query_options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());

  NexmarkDriverOptions driver_options;
  driver_options.events_per_sec = 6000;
  driver_options.flush_interval = 10 * kMillisecond;
  auto driver = NexmarkDriver::Create(&engine, q, driver_options);
  ASSERT_TRUE(driver.ok()) << driver.status().ToString();
  (*driver)->Start();

  Counter* out = engine.metrics()->GetCounter("out/q" + std::to_string(q));
  bool produced = WaitFor([&] { return out->Get() > 0; }, 25 * kSecond);
  (*driver)->Stop();
  EXPECT_TRUE(produced) << "Q" << q << " produced no output after "
                        << (*driver)->events_sent() << " input events";
  engine.Stop();
  EXPECT_GT(engine.metrics()->Histogram("lat/q" + std::to_string(q))->Count(),
            0u);
}

INSTANTIATE_TEST_SUITE_P(Queries, NexmarkEndToEnd,
                         ::testing::Range(1, 9),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return testutil::Numbered("Q", info.param);
                         });

TEST(NexmarkSemanticsTest, Q2OutputsOnlyMatchingAuctions) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  auto plan = BuildNexmarkQuery(2);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());

  auto producer = engine.NewProducer("gen/bids", "bids");
  ASSERT_TRUE(producer.ok());
  int expected = 0;
  for (uint64_t auction = 100; auction < 400; ++auction) {
    Bid bid;
    bid.auction = auction;
    bid.bidder = 1;
    bid.price = 10;
    (*producer)->Send(std::to_string(auction), EncodeBid(bid));
    if (auction % 123 == 0) {
      expected++;
    }
  }
  ASSERT_TRUE((*producer)->Flush().ok());
  Counter* out = engine.metrics()->GetCounter("out/q2");
  ASSERT_TRUE(WaitFor(
      [&] { return out->Get() >= static_cast<uint64_t>(expected); }));
  MonotonicClock::Get()->SleepFor(50 * kMillisecond);
  EXPECT_EQ(out->Get(), static_cast<uint64_t>(expected));
  engine.Stop();

  for (uint32_t sub = 0; sub < 2; ++sub) {
    auto consumer = engine.NewEgressConsumer(NexmarkSinkStage(2), sub);
    ASSERT_TRUE(consumer.ok());
    auto records = (*consumer)->PollAll();
    ASSERT_TRUE(records.ok());
    for (const auto& r : *records) {
      auto bid = DecodeBid(r.data.value);
      ASSERT_TRUE(bid.ok());
      EXPECT_EQ(bid->auction % 123, 0u);
    }
  }
}

TEST(NexmarkSemanticsTest, Q1ConvertsPrices) {
  EngineOptions options;
  options.config = FastConfig(ProtocolKind::kProgressMarking);
  Engine engine(std::move(options));
  auto plan = BuildNexmarkQuery(1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.Submit(std::move(*plan)).ok());
  auto producer = engine.NewProducer("gen/bids", "bids");
  ASSERT_TRUE(producer.ok());
  Bid bid;
  bid.auction = 7;
  bid.bidder = 1;
  bid.price = 1000;
  (*producer)->Send("7", EncodeBid(bid));
  ASSERT_TRUE((*producer)->Flush().ok());
  Counter* out = engine.metrics()->GetCounter("out/q1");
  ASSERT_TRUE(WaitFor([&] { return out->Get() >= 1; }));
  engine.Stop();

  bool found = false;
  for (uint32_t sub = 0; sub < 2 && !found; ++sub) {
    auto consumer = engine.NewEgressConsumer(NexmarkSinkStage(1), sub);
    ASSERT_TRUE(consumer.ok());
    auto records = (*consumer)->PollAll();
    ASSERT_TRUE(records.ok());
    for (const auto& r : *records) {
      auto converted = DecodeBid(r.data.value);
      ASSERT_TRUE(converted.ok());
      EXPECT_EQ(converted->price, 908) << "1000 USD -> 908 EUR";
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace impeller
