// Durable key-value store standing in for Kvrocks as Impeller's checkpoint
// store (paper §3.5, §5.1). Writes are synchronous: each mutation is
// appended to a write-ahead log file (when configured) and charged the
// modeled remote-write latency, matching the paper's "synchronously flush
// appends to its write-ahead log" configuration. Recovery replays the WAL.
#ifndef IMPELLER_SRC_KVSTORE_KV_STORE_H_
#define IMPELLER_SRC_KVSTORE_KV_STORE_H_

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/sharedlog/latency_model.h"

namespace impeller {

struct KvStoreOptions {
  // Path for the write-ahead log; empty keeps the store memory-only (unit
  // tests) while still charging write latency.
  std::string wal_path;
  // fsync after every batch. Expensive; benchmarks rely on the latency
  // model instead and keep this off.
  bool fsync_writes = false;
  // Latency charged per write batch (models the network + remote WAL
  // flush). Defaults to zero latency.
  std::shared_ptr<LatencyModel> latency;
  Clock* clock = nullptr;
};

struct KvWriteOp {
  std::string key;
  std::optional<std::string> value;  // nullopt = delete
};

class KvStore {
 public:
  explicit KvStore(KvStoreOptions options = {});
  ~KvStore();

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // Replays an existing WAL into memory. Call once before use when opening
  // a store over a pre-existing file.
  Status Recover();

  Status Put(std::string_view key, std::string_view value);
  Status Delete(std::string_view key);
  // Atomic multi-key batch with one charged write latency.
  Status WriteBatch(std::vector<KvWriteOp> ops);

  Result<std::string> Get(std::string_view key) const;
  bool Contains(std::string_view key) const;

  // All key-value pairs whose key starts with `prefix`, in key order.
  std::vector<std::pair<std::string, std::string>> ScanPrefix(
      std::string_view prefix) const;
  // The keys alone (no value copies), in key order.
  std::vector<std::string> ScanKeys(std::string_view prefix) const;

  size_t size() const;
  uint64_t bytes_written() const;

 private:
  Status AppendWal(const std::vector<KvWriteOp>& ops);

  KvStoreOptions options_;
  Clock* clock_;

  mutable std::mutex mu_;
  std::map<std::string, std::string> data_;
  std::FILE* wal_ = nullptr;
  // Reused frame scratch for AppendWal (guarded by mu_): the full
  // [len][body][checksum] frame is assembled here and written with one
  // fwrite, so steady-state WAL appends neither allocate nor split writes.
  std::string wal_frame_;
  uint64_t bytes_written_ = 0;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_KVSTORE_KV_STORE_H_
