#include "src/core/state_store.h"

#include <algorithm>
#include <vector>

#include "src/common/serde.h"

namespace impeller {

MapStateStore::MapStateStore(std::string name, ChangeSink sink,
                             const uint32_t* ctx_substream)
    : name_(std::move(name)),
      sink_(std::move(sink)),
      ctx_substream_(ctx_substream) {}

std::optional<std::string> MapStateStore::Get(std::string_view key) const {
  auto it = data_.find(key);
  if (it == data_.end()) {
    return std::nullopt;
  }
  return it->second.value;
}

std::optional<std::string_view> MapStateStore::GetView(
    std::string_view key) const {
  auto it = data_.find(key);
  if (it == data_.end()) {
    return std::nullopt;
  }
  return std::string_view(it->second.value);
}

std::optional<uint32_t> MapStateStore::GetOwner(std::string_view key) const {
  auto it = data_.find(key);
  if (it == data_.end()) {
    return std::nullopt;
  }
  return it->second.owner;
}

MapStateStore::Map::iterator MapStateStore::Assign(std::string_view key,
                                                  std::string_view value) {
  auto it = data_.find(key);
  if (it == data_.end()) {
    it = data_.emplace(std::string(key), Entry{std::string(value)}).first;
    bytes_ += key.size() + value.size();
  } else {
    // Replaced: adjust for the value size delta only.
    Unindex(*it);
    bytes_ -= std::min(bytes_, it->second.value.size());
    bytes_ += value.size();
    it->second.value.assign(value);
  }
  Index(*it);
  return it;
}

MapStateStore::Map::iterator MapStateStore::Erase(Map::iterator it) {
  Unindex(*it);
  bytes_ -= std::min(bytes_, it->first.size() + it->second.value.size());
  return data_.erase(it);
}

void MapStateStore::Index(const Map::value_type& entry) {
  if (!time_of_) {
    return;
  }
  if (std::optional<TimeNs> t = time_of_(entry.second.value)) {
    by_time_.emplace(*t, entry.first);
  }
}

void MapStateStore::Unindex(const Map::value_type& entry) {
  if (!time_of_) {
    return;
  }
  if (std::optional<TimeNs> t = time_of_(entry.second.value)) {
    by_time_.erase({*t, entry.first});
  }
}

void MapStateStore::Put(std::string_view key, std::string_view value) {
  // Last writer wins: a write during record processing stamps the record's
  // input substream; a write outside it (timers) keeps the existing owner,
  // so timer-driven re-puts of a key never orphan it.
  uint32_t ctx = ctx_substream_ != nullptr ? *ctx_substream_
                                           : kUnownedSubstream;
  auto it = Assign(key, value);
  if (ctx != kUnownedSubstream) {
    it->second.owner = ctx;
  }
  if (sink_) {
    sink_(ChangeLogView{name_, key, /*is_delete=*/false, value,
                        it->second.owner});
  }
}

void MapStateStore::Delete(std::string_view key) {
  auto it = data_.find(key);
  if (it == data_.end()) {
    return;
  }
  uint32_t owner = it->second.owner;
  Erase(it);
  if (sink_) {
    sink_(ChangeLogView{name_, key, /*is_delete=*/true, {}, owner});
  }
}

void MapStateStore::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, std::string_view)>& visit)
    const {
  for (auto it = data_.lower_bound(prefix); it != data_.end();
       ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    if (!visit(it->first, it->second.value)) {
      break;
    }
  }
}

void MapStateStore::ScanRange(
    std::string_view from, std::string_view to,
    const std::function<bool(std::string_view, std::string_view)>& visit)
    const {
  auto it = data_.lower_bound(from);
  auto end = data_.lower_bound(to);
  for (; it != end; ++it) {
    if (!visit(it->first, it->second.value)) {
      break;
    }
  }
}

void MapStateStore::ScanAll(
    const std::function<bool(std::string_view, std::string_view, uint32_t)>&
        visit) const {
  for (const auto& [key, entry] : data_) {
    if (!visit(key, entry.value, entry.owner)) {
      break;
    }
  }
}

void MapStateStore::DeleteRange(std::string_view from, std::string_view to) {
  std::vector<std::string> doomed;
  ScanRange(from, to, [&](std::string_view key, std::string_view) {
    doomed.emplace_back(key);
    return true;
  });
  for (const auto& key : doomed) {
    Delete(key);
  }
}

void MapStateStore::IndexByTime(TimeOfFn time_of) {
  time_of_ = std::move(time_of);
  by_time_.clear();
  for (const auto& entry : data_) {
    Index(entry);
  }
}

size_t MapStateStore::DeleteOlderThan(TimeNs horizon) {
  std::vector<std::string> doomed;
  for (auto it = by_time_.begin();
       it != by_time_.end() && it->first < horizon; ++it) {
    doomed.emplace_back(it->second);
  }
  std::sort(doomed.begin(), doomed.end());
  for (const auto& key : doomed) {
    Delete(key);
  }
  return doomed.size();
}

void MapStateStore::ApplyChange(const ChangeLogView& change) {
  if (change.is_delete) {
    auto it = data_.find(change.key);
    if (it != data_.end()) {
      Erase(it);
    }
    return;
  }
  Assign(change.key, change.value)->second.owner = change.substream;
}

namespace {

// Leading varint of an owner-carrying snapshot. Pre-ownership snapshots
// start directly with the entry count, which can never reach this value, so
// MergeSnapshot can decode both formats: entries without a trailing owner
// field default to kUnownedSubstream (checkpoints taken before the
// ownership upgrade must stay recoverable).
constexpr uint64_t kOwnedSnapshotMark = ~uint64_t{0};

}  // namespace

std::string MapStateStore::SerializeSnapshot() const {
  BinaryWriter w(bytes_ + 32);
  w.WriteVarU64(kOwnedSnapshotMark);
  w.WriteVarU64(data_.size());
  for (const auto& [key, entry] : data_) {
    w.WriteString(key);
    w.WriteString(entry.value);
    w.WriteVarU64(entry.owner);
  }
  return w.Take();
}

Status MapStateStore::RestoreSnapshot(std::string_view raw) {
  Clear();
  return MergeSnapshot(raw, nullptr);
}

Status MapStateStore::MergeSnapshot(std::string_view raw,
                                    const OwnerFilter& keep) {
  BinaryReader r(raw);
  auto first = r.ReadVarU64();
  if (!first.ok()) {
    return first.status();
  }
  bool has_owner = *first == kOwnedSnapshotMark;
  uint64_t count = *first;
  if (has_owner) {
    auto n = r.ReadVarU64();
    if (!n.ok()) {
      return n.status();
    }
    count = *n;
  }
  for (uint64_t i = 0; i < count; ++i) {
    auto key = r.ReadStringView();
    if (!key.ok()) {
      return key.status();
    }
    auto value = r.ReadStringView();
    if (!value.ok()) {
      return value.status();
    }
    uint32_t owner = kUnownedSubstream;
    if (has_owner) {
      auto owner_raw = r.ReadVarU64();
      if (!owner_raw.ok()) {
        return owner_raw.status();
      }
      owner = static_cast<uint32_t>(*owner_raw);
    }
    if (keep && !keep(owner)) {
      continue;
    }
    // A key may already be present: several handoff sources merge into one
    // store, and a snapshot can land over a prior merge.
    Assign(*key, *value)->second.owner = owner;
  }
  return OkStatus();
}

void MapStateStore::RetainOwned(const OwnerFilter& keep) {
  for (auto it = data_.begin(); it != data_.end();) {
    uint32_t owner = it->second.owner;
    if (keep && !keep(owner)) {
      it = Erase(it);
    } else {
      it->second.owner = owner;  // filter may have normalized it
      ++it;
    }
  }
}

void MapStateStore::Clear() {
  data_.clear();
  by_time_.clear();
  bytes_ = 0;
}

std::string EncodeCompositeKey(std::string_view key, uint64_t suffix) {
  std::string out;
  out.reserve(key.size() + 9);
  out.append(key);
  out.push_back('\0');
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<char>((suffix >> (8 * i)) & 0xFF));
  }
  return out;
}

Result<std::pair<std::string, uint64_t>> DecodeCompositeKey(
    std::string_view raw) {
  if (raw.size() < 9) {
    return DataLossError("composite key too short");
  }
  size_t sep = raw.size() - 9;
  if (raw[sep] != '\0') {
    return DataLossError("composite key missing separator");
  }
  uint64_t suffix = 0;
  for (size_t i = sep + 1; i < raw.size(); ++i) {
    suffix = (suffix << 8) | static_cast<uint8_t>(raw[i]);
  }
  return std::make_pair(std::string(raw.substr(0, sep)), suffix);
}

}  // namespace impeller
