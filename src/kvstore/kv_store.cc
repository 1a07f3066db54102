#include "src/kvstore/kv_store.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/fault/fault.h"
#include "src/obs/trace.h"

namespace impeller {

namespace {
constexpr uint8_t kOpPut = 1;
constexpr uint8_t kOpDelete = 2;
}  // namespace

KvStore::KvStore(KvStoreOptions options) : options_(std::move(options)) {
  if (options_.clock == nullptr) {
    options_.clock = MonotonicClock::Get();
  }
  clock_ = options_.clock;
  if (options_.latency == nullptr) {
    options_.latency = std::make_shared<ZeroLatencyModel>();
  }
  if (!options_.wal_path.empty()) {
    wal_ = std::fopen(options_.wal_path.c_str(), "ab+");
    if (wal_ == nullptr) {
      LOG_ERROR << "cannot open WAL " << options_.wal_path << ": "
                << std::strerror(errno);
    }
  }
}

KvStore::~KvStore() {
  if (wal_ != nullptr) {
    std::fclose(wal_);
  }
}

Status KvStore::Recover() {
  TRACE_SPAN("kv", "recover");
  if (options_.wal_path.empty()) {
    return OkStatus();
  }
  std::FILE* f = std::fopen(options_.wal_path.c_str(), "rb");
  if (f == nullptr) {
    return OkStatus();  // nothing to recover
  }
  std::string content;
  char buf[64 * 1024];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);

  std::lock_guard<std::mutex> lock(mu_);
  data_.clear();
  size_t pos = 0;
  while (pos + 4 <= content.size()) {
    uint32_t len = 0;
    std::memcpy(&len, content.data() + pos, 4);
    if (pos + 4 + len + 8 > content.size()) {
      break;  // torn tail record: ignore, matching WAL semantics
    }
    std::string_view body(content.data() + pos + 4, len);
    uint64_t stored_sum = 0;
    std::memcpy(&stored_sum, content.data() + pos + 4 + len, 8);
    if (Fnv1a(body) != stored_sum) {
      LOG_WARN << "WAL checksum mismatch at byte " << pos << "; truncating";
      break;
    }
    BinaryReader reader(body);
    bool ok = true;
    while (!reader.AtEnd() && ok) {
      auto op = reader.ReadU8();
      auto key = reader.ReadString();
      if (!op.ok() || !key.ok()) {
        ok = false;
        break;
      }
      if (*op == kOpPut) {
        auto value = reader.ReadString();
        if (!value.ok()) {
          ok = false;
          break;
        }
        data_[*key] = *value;
      } else if (*op == kOpDelete) {
        data_.erase(*key);
      } else {
        ok = false;
      }
    }
    if (!ok) {
      return DataLossError("corrupt WAL record");
    }
    pos += 4 + len + 8;
  }
  return OkStatus();
}

Status KvStore::AppendWal(const std::vector<KvWriteOp>& ops) {
  if (wal_ == nullptr) {
    return OkStatus();
  }
  // Assemble the whole [len][body][checksum] frame in one reused buffer and
  // hand it to fwrite in a single call. The on-disk bytes are identical to
  // the previous three-write encoding.
  wal_frame_.clear();
  wal_frame_.resize(4);  // length prefix, patched once the body is encoded
  {
    BinaryWriter writer(&wal_frame_);
    for (const auto& op : ops) {
      if (op.value.has_value()) {
        writer.WriteU8(kOpPut);
        writer.WriteString(op.key);
        writer.WriteString(*op.value);
      } else {
        writer.WriteU8(kOpDelete);
        writer.WriteString(op.key);
      }
    }
  }
  uint32_t len = static_cast<uint32_t>(wal_frame_.size() - 4);
  uint64_t sum = Fnv1a(std::string_view(wal_frame_).substr(4));
  std::memcpy(wal_frame_.data(), &len, 4);
  wal_frame_.append(reinterpret_cast<const char*>(&sum), 8);
  if (std::fwrite(wal_frame_.data(), 1, wal_frame_.size(), wal_) !=
      wal_frame_.size()) {
    return InternalError("WAL write failed");
  }
  std::fflush(wal_);
  if (options_.fsync_writes) {
    ::fsync(fileno(wal_));
  }
  bytes_written_ += wal_frame_.size();
  return OkStatus();
}

Status KvStore::Put(std::string_view key, std::string_view value) {
  std::vector<KvWriteOp> ops;
  ops.push_back({std::string(key), std::string(value)});
  return WriteBatch(std::move(ops));
}

Status KvStore::Delete(std::string_view key) {
  std::vector<KvWriteOp> ops;
  ops.push_back({std::string(key), std::nullopt});
  return WriteBatch(std::move(ops));
}

Status KvStore::WriteBatch(std::vector<KvWriteOp> ops) {
  if (ops.empty()) {
    return OkStatus();
  }
  // Covers the WAL append plus the modeled synchronous remote-write wait —
  // the cost aligned checkpointing pays per snapshot (§5.3.3).
  TRACE_SPAN("kv", "write_batch");
  // Fault probe: a transient store error aborts the write before any state
  // changes (checkpoint paths abandon the snapshot and retry later); a delay
  // widens the window in which a fenced-off zombie can race a checkpoint.
  if (auto f = IMPELLER_FAULT_PROBE("kv/write", ops.front().key,
                                    fault::kNoLsn)) {
    if (f.kind == fault::FaultKind::kError) {
      return UnavailableError("injected kv write failure");
    }
    if (f.kind == fault::FaultKind::kDelay) {
      clock_->SleepFor(f.delay);
    }
  }
  size_t bytes = 0;
  for (const auto& op : ops) {
    bytes += op.key.size() + (op.value ? op.value->size() : 0);
  }
  LatencySample latency = options_.latency->SampleAppend(bytes, 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    IMPELLER_RETURN_IF_ERROR(AppendWal(ops));
    for (auto& op : ops) {
      if (op.value.has_value()) {
        data_[std::move(op.key)] = std::move(*op.value);
      } else {
        data_.erase(op.key);
      }
    }
  }
  // Synchronous remote write: the caller waits for durability.
  clock_->SleepFor(latency.ack + latency.delivery);
  return OkStatus();
}

Result<std::string> KvStore::Get(std::string_view key) const {
  TRACE_SPAN("kv", "get");
  // Fault probe: a delay widens the window between a reader's lookups (an
  // aligned recovery racing a round that completes meanwhile).
  if (auto f = IMPELLER_FAULT_PROBE("kv/get", key, fault::kNoLsn)) {
    if (f.kind == fault::FaultKind::kError) {
      return UnavailableError("injected kv read failure");
    }
    if (f.kind == fault::FaultKind::kDelay) {
      clock_->SleepFor(f.delay);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = data_.find(std::string(key));
  if (it == data_.end()) {
    return NotFoundError("no key " + std::string(key));
  }
  return it->second;
}

bool KvStore::Contains(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_.count(std::string(key)) != 0;
}

std::vector<std::pair<std::string, std::string>> KvStore::ScanPrefix(
    std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = data_.lower_bound(std::string(prefix)); it != data_.end();
       ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    out.emplace_back(it->first, it->second);
  }
  return out;
}

std::vector<std::string> KvStore::ScanKeys(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = data_.lower_bound(std::string(prefix)); it != data_.end();
       ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    out.push_back(it->first);
  }
  return out;
}

size_t KvStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_.size();
}

uint64_t KvStore::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_written_;
}

}  // namespace impeller
