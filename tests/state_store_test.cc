// State store tests: operations, change capture, snapshot/restore, and the
// replay-equivalence property that underpins recovery (§3.3.4): applying a
// store's captured change log to an empty store reproduces the original.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/core/state_store.h"
#include "tests/test_util.h"

namespace impeller {
namespace {

using testutil::Cat;
using testutil::Numbered;

TEST(StateStoreTest, PutGetDelete) {
  MapStateStore store("s", nullptr);
  store.Put("a", "1");
  EXPECT_EQ(*store.Get("a"), "1");
  store.Put("a", "2");
  EXPECT_EQ(*store.Get("a"), "2");
  store.Delete("a");
  EXPECT_FALSE(store.Get("a").has_value());
  store.Delete("missing");  // no-op
}

TEST(StateStoreTest, ChangeCaptureSeesEveryMutation) {
  std::vector<ChangeLogBody> captured;
  MapStateStore store("agg", [&](const ChangeLogView& c) {
    captured.push_back(ChangeLogBody{std::string(c.store), std::string(c.key),
                                     c.is_delete, std::string(c.value)});
  });
  store.Put("k", "v1");
  store.Put("k", "v2");
  store.Delete("k");
  store.Delete("k");  // deleting a missing key is not a change
  ASSERT_EQ(captured.size(), 3u);
  EXPECT_EQ(captured[0].value, "v1");
  EXPECT_EQ(captured[1].value, "v2");
  EXPECT_TRUE(captured[2].is_delete);
  EXPECT_EQ(captured[0].store, "agg");
}

TEST(StateStoreTest, ScanPrefixAndRange) {
  MapStateStore store("s", nullptr);
  store.Put("a/1", "1");
  store.Put("a/2", "2");
  store.Put("b/1", "3");
  std::vector<std::string> keys;
  store.ScanPrefix("a/", [&](std::string_view k, std::string_view) {
    keys.emplace_back(k);
    return true;
  });
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a/1");

  keys.clear();
  store.ScanRange("a/2", "b/2", [&](std::string_view k, std::string_view) {
    keys.emplace_back(k);
    return true;
  });
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a/2");
  EXPECT_EQ(keys[1], "b/1");
}

TEST(StateStoreTest, ScanEarlyStop) {
  MapStateStore store("s", nullptr);
  for (int i = 0; i < 10; ++i) {
    store.Put(Numbered("k", i), "v");
  }
  int visited = 0;
  store.ScanPrefix("k", [&](std::string_view, std::string_view) {
    return ++visited < 3;
  });
  EXPECT_EQ(visited, 3);
}

TEST(StateStoreTest, DeleteRangeCapturesDeletions) {
  int deletes = 0;
  MapStateStore store("s", [&](const ChangeLogView& c) {
    if (c.is_delete) {
      deletes++;
    }
  });
  store.Put("a", "1");
  store.Put("b", "2");
  store.Put("c", "3");
  store.DeleteRange("a", "c");
  EXPECT_EQ(deletes, 2);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Get("c").has_value());
}

TEST(StateStoreTest, SnapshotRestoreRoundTrip) {
  MapStateStore store("s", nullptr);
  for (int i = 0; i < 100; ++i) {
    store.Put(Numbered("key", i), std::string(i, 'v'));
  }
  std::string blob = store.SerializeSnapshot();
  MapStateStore restored("s", nullptr);
  ASSERT_TRUE(restored.RestoreSnapshot(blob).ok());
  EXPECT_EQ(restored.size(), 100u);
  EXPECT_EQ(*restored.Get("key42"), std::string(42, 'v'));
  EXPECT_EQ(restored.SizeBytes(), store.SizeBytes());
}

TEST(StateStoreTest, RestoreRejectsCorruptBlob) {
  MapStateStore store("s", nullptr);
  EXPECT_FALSE(store.RestoreSnapshot("\xFF\xFF\xFF garbage").ok());
}

TEST(StateStoreTest, ReplayEquivalenceProperty) {
  // Random mutation sequences: replaying the captured change log must
  // reproduce the exact final state.
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    std::vector<ChangeLogBody> log;
    MapStateStore original("s", [&](const ChangeLogView& c) {
      log.push_back(ChangeLogBody{std::string(c.store), std::string(c.key),
                                  c.is_delete, std::string(c.value)});
    });
    for (int op = 0; op < 200; ++op) {
      std::string key = Numbered("k", rng.NextBounded(30));
      if (rng.NextBool(0.3)) {
        original.Delete(key);
      } else {
        original.Put(key, Numbered("v", rng.NextU64() % 1000));
      }
    }
    MapStateStore replayed("s", nullptr);
    for (const auto& change : log) {
      replayed.ApplyChange(change);
    }
    EXPECT_EQ(replayed.SerializeSnapshot(), original.SerializeSnapshot())
        << "round " << round;
  }
}

TEST(StateStoreTest, SizeBytesTracksContent) {
  MapStateStore store("s", nullptr);
  EXPECT_EQ(store.SizeBytes(), 0u);
  store.Put("abc", "12345");
  EXPECT_GE(store.SizeBytes(), 8u);
  store.Delete("abc");
  EXPECT_EQ(store.size(), 0u);
}

TEST(StateStoreTest, SizeBytesExactUnderReplacement) {
  // Every replacement path — Put, ApplyChange, MergeSnapshot — must account
  // for the replaced entry's old size, or bytes_ drifts upward forever.
  MapStateStore store("s", nullptr);
  store.Put("k", "0123456789");
  store.Put("k", "v");
  EXPECT_EQ(store.SizeBytes(), 2u);  // "k" + "v"

  store.ApplyChange(ChangeLogView{"s", "k", false, "0123456789", 0});
  store.ApplyChange(ChangeLogView{"s", "k", false, "v", 0});
  EXPECT_EQ(store.SizeBytes(), 2u);

  // Merging the same snapshot repeatedly (multi-source handoffs overlap, a
  // snapshot can land over a prior merge) must not inflate the size.
  std::string blob = store.SerializeSnapshot();
  MapStateStore merged("s", nullptr);
  ASSERT_TRUE(merged.MergeSnapshot(blob, nullptr).ok());
  ASSERT_TRUE(merged.MergeSnapshot(blob, nullptr).ok());
  EXPECT_EQ(merged.SizeBytes(), store.SizeBytes());
  EXPECT_EQ(merged.size(), store.size());
}

TEST(StateStoreTest, MergesPreOwnershipSnapshotLeniently) {
  // Snapshots persisted before the ownership upgrade carry no owner field
  // and no leading format mark; they must still restore, with every entry
  // unowned (recovery then claims them via the owner filter's default).
  BinaryWriter w(64);
  w.WriteVarU64(2);  // legacy layout: count, then key/value pairs
  w.WriteString("a");
  w.WriteString("1");
  w.WriteString("b");
  w.WriteString("22");
  std::string legacy = w.Take();

  MapStateStore store("s", nullptr);
  ASSERT_TRUE(store.MergeSnapshot(legacy, nullptr).ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(*store.Get("a"), "1");
  EXPECT_EQ(*store.Get("b"), "22");
  EXPECT_EQ(*store.GetOwner("a"), kUnownedSubstream);
  EXPECT_EQ(store.SizeBytes(), 5u);  // "a"+"1" + "b"+"22"

  // The filter sees kUnownedSubstream and may normalize it in place, the
  // same way a rescale handoff claims unowned entries.
  MapStateStore claimed("s", nullptr);
  ASSERT_TRUE(claimed
                  .MergeSnapshot(legacy,
                                 [](uint32_t& owner) {
                                   EXPECT_EQ(owner, kUnownedSubstream);
                                   owner = 3;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(*claimed.GetOwner("a"), 3u);
}

// --- event-time index ---

// Index test values: a leading varint event time, then a payload.
std::string Timed(TimeNs t, std::string_view payload = "p") {
  BinaryWriter w(payload.size() + 12);
  w.WriteVarI64(t);
  w.WriteString(payload);
  return w.Take();
}

std::optional<TimeNs> TimeOf(std::string_view raw) {
  BinaryReader r(raw);
  auto t = r.ReadVarI64();
  if (!t.ok()) {
    return std::nullopt;
  }
  return *t;
}

// A store indexed by TimeOf whose captured changes are "+key" / "-key".
// After any mutation path, DeleteOlderThan must agree with the scan it
// replaces: a key-order ScanPrefix("") filtered on time < horizon.
class TimeIndexTest : public ::testing::Test {
 protected:
  TimeIndexTest()
      : store_("s",
               [this](const ChangeLogView& c) {
                 captured_.push_back(Cat(c.is_delete ? "-" : "+", c.key));
               },
               &ctx_) {
    store_.IndexByTime(TimeOf);
  }

  std::vector<std::string> Keys() const {
    std::vector<std::string> keys;
    store_.ScanPrefix("", [&](std::string_view key, std::string_view) {
      keys.emplace_back(key);
      return true;
    });
    return keys;
  }

  void ExpectExpiresLikeScan(TimeNs horizon) {
    std::vector<std::string> expected, kept;
    store_.ScanPrefix("", [&](std::string_view key, std::string_view value) {
      std::optional<TimeNs> t = TimeOf(value);
      if (t && *t < horizon) {
        expected.push_back(Cat("-", key));
      } else {
        kept.emplace_back(key);
      }
      return true;
    });
    // A horizon that deletes all or nothing would not test much.
    EXPECT_FALSE(expected.empty());
    EXPECT_FALSE(kept.empty());
    captured_.clear();
    EXPECT_EQ(store_.DeleteOlderThan(horizon), expected.size());
    EXPECT_EQ(captured_, expected);
    EXPECT_EQ(Keys(), kept);
    // Nothing below the horizon is left to find.
    EXPECT_EQ(store_.DeleteOlderThan(horizon), 0u);
  }

  uint32_t ctx_ = kUnownedSubstream;
  std::vector<std::string> captured_;
  MapStateStore store_;
};

TEST_F(TimeIndexTest, Put) {
  for (int i = 0; i < 20; ++i) {
    store_.Put(Numbered("k", i), Timed((i * 7) % 20));
  }
  ExpectExpiresLikeScan(10);
}

TEST_F(TimeIndexTest, PutReplacingValueMovesItsTime) {
  store_.Put("a", Timed(5));
  store_.Put("b", Timed(50));
  store_.Put("c", Timed(5));
  store_.Put("a", Timed(50));  // moved past the horizon
  store_.Put("b", Timed(3));   // moved below it
  store_.Put("c", Timed(5, "same time, new payload"));
  captured_.clear();
  EXPECT_EQ(store_.DeleteOlderThan(10), 2u);
  EXPECT_EQ(captured_, (std::vector<std::string>{"-b", "-c"}));
  EXPECT_EQ(Keys(), std::vector<std::string>{"a"});
  EXPECT_EQ(store_.DeleteOlderThan(51), 1u);
  EXPECT_EQ(store_.size(), 0u);
}

TEST_F(TimeIndexTest, Delete) {
  for (int i = 0; i < 20; ++i) {
    store_.Put(Numbered("k", i), Timed(i));
  }
  for (int i = 0; i < 20; i += 2) {
    store_.Delete(Numbered("k", i));
  }
  store_.DeleteRange("k15", "k17");
  ExpectExpiresLikeScan(10);
}

TEST_F(TimeIndexTest, ApplyChange) {
  for (int i = 0; i < 20; ++i) {
    store_.ApplyChange(ChangeLogView{"s", Numbered("k", i), false,
                                     Timed(i), 0});
  }
  store_.ApplyChange(ChangeLogView{"s", "k3", true, {}, 0});
  store_.ApplyChange(ChangeLogView{"s", "k4", false, Timed(40), 0});
  store_.ApplyChange(ChangeLogView{"s", "k14", false, Timed(1), 0});
  ExpectExpiresLikeScan(10);
}

TEST_F(TimeIndexTest, RestoreSnapshot) {
  for (int i = 0; i < 20; ++i) {
    store_.Put(Numbered("stale", i), Timed(i));
  }
  MapStateStore source("s", nullptr);
  for (int i = 0; i < 20; ++i) {
    source.Put(Numbered("k", i), Timed((i * 3) % 20));
  }
  ASSERT_TRUE(store_.RestoreSnapshot(source.SerializeSnapshot()).ok());
  ExpectExpiresLikeScan(10);
}

TEST_F(TimeIndexTest, MergeSnapshotWithOwnerFilter) {
  for (int i = 0; i < 10; ++i) {
    store_.Put(Numbered("k", i), Timed(i));
  }
  uint32_t source_ctx = 0;
  MapStateStore source("s", nullptr, &source_ctx);
  for (int i = 0; i < 20; ++i) {
    source_ctx = i % 2;
    // Overlapping keys k0..k9 move their time; only odd owners merge.
    source.Put(Numbered("k", i), Timed(20 - i));
  }
  ASSERT_TRUE(store_
                  .MergeSnapshot(source.SerializeSnapshot(),
                                 [](uint32_t& owner) { return owner == 1; })
                  .ok());
  EXPECT_EQ(store_.size(), 15u);  // k0..k9 plus odd k11..k19
  ExpectExpiresLikeScan(10);
}

TEST_F(TimeIndexTest, RetainOwned) {
  for (int i = 0; i < 20; ++i) {
    ctx_ = i % 3;
    store_.Put(Numbered("k", i), Timed(i));
  }
  store_.RetainOwned([](uint32_t& owner) { return owner != 1; });
  ExpectExpiresLikeScan(10);
}

TEST_F(TimeIndexTest, Clear) {
  for (int i = 0; i < 20; ++i) {
    store_.Put(Numbered("old", i), Timed(i));
  }
  store_.Clear();
  EXPECT_EQ(store_.DeleteOlderThan(100), 0u);
  for (int i = 0; i < 20; ++i) {
    store_.Put(Numbered("k", i), Timed(19 - i));
  }
  ExpectExpiresLikeScan(10);
}

TEST_F(TimeIndexTest, IndexesExistingEntriesAndSkipsUnreadableValues) {
  store_.IndexByTime(nullptr);
  for (int i = 0; i < 20; ++i) {
    store_.Put(Numbered("k", i), Timed(i));
  }
  store_.Put("k3", "");  // no time: never indexed, never expired
  EXPECT_EQ(store_.DeleteOlderThan(100), 0u) << "no index, no expiry";
  store_.IndexByTime(TimeOf);
  ExpectExpiresLikeScan(10);
  EXPECT_TRUE(store_.Get("k3").has_value());
}

TEST_F(TimeIndexTest, RandomMutationsMatchScan) {
  Rng rng(91);
  for (int round = 0; round < 20; ++round) {
    for (int op = 0; op < 200; ++op) {
      std::string key = Numbered("k", rng.NextBounded(50));
      TimeNs t = static_cast<TimeNs>(rng.NextBounded(100));
      ctx_ = static_cast<uint32_t>(rng.NextBounded(3));
      switch (rng.NextBounded(4)) {
        case 0:
          store_.Delete(key);
          break;
        case 1:
          store_.ApplyChange(ChangeLogView{"s", key, false, Timed(t), ctx_});
          break;
        default:
          store_.Put(key, Timed(t));
      }
    }
    if (round % 5 == 4) {
      store_.RetainOwned([](uint32_t& owner) { return owner != 2; });
    }
    TimeNs horizon = 30 + static_cast<TimeNs>(round);
    std::vector<std::string> expected;
    store_.ScanPrefix("", [&](std::string_view key, std::string_view value) {
      if (*TimeOf(value) < horizon) {
        expected.push_back(Cat("-", key));
      }
      return true;
    });
    captured_.clear();
    store_.DeleteOlderThan(horizon);
    EXPECT_EQ(captured_, expected) << "round " << round;
  }
}

}  // namespace
}  // namespace impeller
