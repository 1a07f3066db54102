// Log record and append-request types for the shared log (Boki-style).
// A record carries an LSN assigned by the log, a set of string tags used for
// selective reads, and an opaque payload. Conditional appends are fenced on
// the log's key-value configuration metadata (used for zombie fencing,
// paper §3.4).
#ifndef IMPELLER_SRC_SHAREDLOG_LOG_RECORD_H_
#define IMPELLER_SRC_SHAREDLOG_LOG_RECORD_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/clock.h"

namespace impeller {

using Lsn = uint64_t;
constexpr Lsn kInvalidLsn = std::numeric_limits<Lsn>::max();

// Refcounted slice of an immutable payload buffer. The log stores payloads
// as PayloadRefs, so copying a LogEntry out of the log (Read/AwaitNext) bumps
// a refcount instead of copying bytes, and many records batched into one
// contiguous flush buffer share a single allocation. A PayloadRef (and any
// string_view taken from it) keeps its backing buffer alive, including past
// Trim of the underlying log entries.
class PayloadRef {
 public:
  PayloadRef() = default;
  // Wraps an owning string (one shared buffer, no byte copy).
  PayloadRef(std::string s)  // NOLINT(google-explicit-constructor)
      : buf_(std::make_shared<const std::string>(std::move(s))),
        off_(0),
        len_(buf_->size()) {}
  PayloadRef(const char* s) : PayloadRef(std::string(s)) {}  // NOLINT
  // Slice of a shared buffer; `off`/`len` must lie within *buf.
  PayloadRef(std::shared_ptr<const std::string> buf, size_t off, size_t len)
      : buf_(std::move(buf)), off_(off), len_(len) {}

  std::string_view view() const {
    return buf_ ? std::string_view(buf_->data() + off_, len_)
                : std::string_view();
  }
  operator std::string_view() const { return view(); }  // NOLINT
  std::string ToString() const { return std::string(view()); }

  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  // The shared backing buffer (may cover more than this slice).
  const std::shared_ptr<const std::string>& buffer() const { return buf_; }

  friend bool operator==(const PayloadRef& a, const PayloadRef& b) {
    return a.view() == b.view();
  }
  // Template so that comparisons against string literals / std::string are
  // exact matches instead of ambiguous user-defined conversions.
  template <typename T,
            typename = std::enable_if_t<
                std::is_convertible_v<const T&, std::string_view> &&
                !std::is_same_v<std::decay_t<T>, PayloadRef>>>
  friend bool operator==(const PayloadRef& a, const T& b) {
    return a.view() == std::string_view(b);
  }

 private:
  std::shared_ptr<const std::string> buf_;
  size_t off_ = 0;
  size_t len_ = 0;
};

struct AppendRequest {
  std::vector<std::string> tags;
  PayloadRef payload;

  // Conditional append: succeeds only while the log's metadata entry
  // `cond_key` equals `cond_value` (empty key = unconditional). The check is
  // atomic with LSN assignment, which is what makes fencing airtight.
  std::string cond_key;
  uint64_t cond_value = 0;
};

// A record's tags, immutable and shared: the records of one batch that
// carry the same tags (a flush targets one substream) share one list, and
// copying a LogEntry out of the log bumps a refcount.
using TagList = std::shared_ptr<const std::vector<std::string>>;

struct LogEntry {
  Lsn lsn = kInvalidLsn;
  TagList tags;
  PayloadRef payload;
  TimeNs append_time = 0;   // when the producer issued the append
  TimeNs visible_time = 0;  // when readers can first observe it
};

}  // namespace impeller

#endif  // IMPELLER_SRC_SHAREDLOG_LOG_RECORD_H_
