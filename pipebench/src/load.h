// The load generator: closed-loop uploads over keep-alive connections, the
// open-loop live writer, and the closed-loop query readers. One process,
// at most 4 client threads plus the writer.

#ifndef PIPEBENCH_LOAD_H_
#define PIPEBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "core/time_series.h"
#include "inputs.h"
#include "net/query_wire.h"
#include "net/wire.h"

namespace pipebench {

// Blocking framed connection to a daemon on 127.0.0.1.
class FrameConn {
 public:
  FrameConn() = default;
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;
  ~FrameConn() { Close(); }

  smeter::Status Connect(uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }
  smeter::Status Send(std::string_view bytes);
  // The next frame; the view stays valid until the next Recv.
  smeter::Result<smeter::net::FrameView> Recv();
  // Receives an ack of `type` and requires status kOk.
  smeter::Status ExpectAck(smeter::net::FrameType type);
  smeter::Status ExpectBatchAck(uint64_t seq);

 private:
  int fd_ = -1;
  std::string in_;
  size_t offset_ = 0;
};

// Everything an upload phase measured.
struct UploadResult {
  uint64_t sessions_ok = 0;
  uint64_t sessions_failed = 0;
  uint64_t symbols_ok = 0;
  std::vector<double> session_ms;   // HELLO sent (or due) -> GOODBYE_ACK
  std::vector<double> batch_us;     // SYMBOL_BATCH -> BATCH_ACK
  std::vector<double> lateness_ms;  // issue time minus due time
  double wall_s = 0;
  double client_cpu_s = 0;  // the upload threads' own CPU
  std::vector<std::vector<Span>> spans;
  std::vector<std::string> errors;  // first few failures, for the log
};

// Appends a later upload phase's results (wall time adds up).
void AppendUploads(UploadResult* into, UploadResult&& part);

// Closed loop: session i rides connection i % connections; every frame
// waits for its ack. Failed sessions reconnect and move on (no retry).
UploadResult RunClosedLoop(uint16_t port,
                           const std::vector<History>& histories,
                           const std::vector<UploadSession>& sessions,
                           size_t connections, bool trace,
                           uint64_t group_base);

// Meters acknowledged by the live writer, with the time of each ack, for
// the readers' point lookups and the traced replay's write order.
struct AckLog {
  std::mutex mutex;
  std::vector<std::string> meters;
  std::vector<int64_t> ack_ns;
  std::vector<uint32_t> session_index;
  std::atomic<size_t> size{0};
};

// Open loop on one connection: sends sessions[first, first + count), the
// n-th due at start + n / rate and timed from when it was due. Runs until
// `stop` is set or the sessions run out.
UploadResult RunOpenLoopWriter(uint16_t port,
                               const std::vector<History>& histories,
                               const std::vector<UploadSession>& sessions,
                               size_t first, size_t count, double rate_per_s,
                               const std::atomic<bool>& stop, bool trace,
                               uint64_t group_base, AckLog* acks);

// Symbol cap of every range scan (a 2-day window holds 192 slots).
inline constexpr uint32_t kMaxRangeSymbols = 1024;

enum class QueryKind : uint8_t { kPoint = 0, kRange = 1, kAggregate = 2 };

// One issued query; the traced replay re-issues them in send order.
struct QueryRecord {
  int64_t send_ns = 0;
  QueryKind kind = QueryKind::kPoint;
  bool ragged = false;  // aggregates: window not partition-aligned
  std::string meter;
  smeter::TimeRange range;
  int level = 0;
  double round_trip_us = 0;
  bool ok = false;
  int32_t sample = -1;  // index into QueryResult's sampled answers
};

// Every reader issues `per_reader` queries, dealt from shuffled decks of
// forty: 24 point lookups, 12 range scans, 3 partition-aligned and 1
// ragged aggregate — the 60/30/10 mix, exactly, for every seed. With an
// even split of aggregates their median would sit on the gap between the
// rollup-only mode and the edge-scan mode; with more ragged ones the
// queueing behind them put every p99 on the gap between one and two
// aggregates waited for.
inline constexpr size_t kDeckSize = 40;

struct QueryPlan {
  size_t readers = 3;
  size_t per_reader = 4000;  // a multiple of kDeckSize
  uint64_t seed = 1;
  int64_t store_start = 0;
  int64_t store_days = 28;
  int native_level = 4;
  std::vector<std::string> store_meters;   // range-scan targets
  std::vector<std::string> point_targets;  // static point targets...
  AckLog* live_targets = nullptr;          // ...or the live writer's acks
  size_t sample_every = 16;  // keep every n-th answer for the check
};

struct QueryResult {
  std::vector<double> point_us, range_us, aggregate_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t histogram_mismatches = 0;  // sum(histogram) + gaps != windows
  double wall_s = 0;
  double client_cpu_s = 0;
  std::vector<QueryRecord> records;  // all readers, sorted by send time
  std::vector<smeter::net::PointResultPayload> points;
  std::vector<smeter::net::RangeResultPayload> ranges;
  std::vector<smeter::net::AggregateResultPayload> aggregates;
  std::vector<std::vector<Span>> spans;
  std::vector<std::string> errors;
};

QueryResult RunReaders(uint16_t port, const QueryPlan& plan, bool trace);

// Appends a later query phase's results (sample indexes rebased).
void AppendQueries(QueryResult* into, QueryResult&& part);

}  // namespace pipebench

#endif  // PIPEBENCH_LOAD_H_
