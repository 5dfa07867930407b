// In-process replays of a run's own inputs: the correctness gates (the
// drained ingestd archive against an ArchiveSink replay, served answers
// against direct ArchiveStore calls) and, in traced runs, the per-layer
// timings of every public layer the daemons call.

#ifndef PIPEBENCH_REPLAY_H_
#define PIPEBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/time_series.h"
#include "inputs.h"
#include "load.h"

namespace pipebench {

// fsync, fdatasync, rename, open, create counts of this process so far
// (from the LD_PRELOAD shim). Fails when the shim is not loaded.
struct SyscallCounts {
  uint64_t fsync = 0;
  uint64_t fdatasync = 0;
  uint64_t rename = 0;
  uint64_t open = 0;
  uint64_t create = 0;
  SyscallCounts operator-(const SyscallCounts& other) const;
};
smeter::Result<SyscallCounts> ReadSyscallCounts();
// Sums the per-process lines the shim appended to `path` at exit.
SyscallCounts ReadChildCounts(const std::string& path);

// Byte-compares two directory trees (every regular file, recursively).
smeter::Status CompareTrees(const std::string& expected,
                            const std::string& actual);
uint64_t TreeBytes(const std::string& dir);

// Persists `sessions` through an in-process ArchiveSink into `dir` and
// finalizes it, exactly as a one-shard ingestd would.
struct SinkReplay {
  uint64_t meters = 0;
  uint64_t symbols = 0;
  double persist_s = 0;    // sum over Persist calls
  double finalize_s = 0;
  SyscallCounts counts;    // during the Persist calls
  uint64_t archive_bytes = 0;
};
smeter::Result<SinkReplay> ReplayIntoSink(
    const std::string& dir, const std::vector<History>& histories,
    const std::vector<UploadSession>& sessions);

// Wire decode, Session state machine and v3 pack over the sessions'
// frames, single-threaded.
struct IngestReplay {
  uint64_t sessions = 0;
  uint64_t frames = 0;
  uint64_t symbols = 0;
  uint64_t wire_bytes = 0;
  double decode_s = 0;
  double session_symbols_s = 0;    // SYMBOL_BATCH frames
  double session_handshake_s = 0;  // HELLO, TABLE, GOODBYE, TakeSeries
  double pack_s = 0;
};
smeter::Result<IngestReplay> ReplayIngestLayers(
    const std::vector<History>& histories,
    const std::vector<UploadSession>& sessions);

// LookupTable::Build and EncodePipelineWithGaps over raw traces.
struct EncoderReplay {
  uint64_t samples = 0;
  double table_build_s = 0;
  double encode_s = 0;
};
smeter::Result<EncoderReplay> ReplayEncoder(
    const std::vector<smeter::TimeSeries>& raw);

// UnpackSymbolicSeries over every segment of a store.
struct UnpackReplay {
  uint64_t symbols = 0;
  double unpack_s = 0;
};
smeter::Result<UnpackReplay> ReplayUnpack(const std::string& store_dir);

// Re-issues served queries against an in-process ArchiveStore and
// compares every sampled answer. With `all`, every query is replayed and
// timed in send order; when `live` is set its acknowledged sessions are
// appended to a fresh current log in `live_current_dir`, interleaved with
// the queries by time, so the store sees the same write/read order as the
// served run. Without `live`, the store's current table is read from
// `current_dir`.
struct QueryReplay {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> errors;
  uint64_t points = 0, ranges = 0, aggregates = 0;
  double latest_s = 0, scan_s = 0, aggregate_s = 0;
  uint64_t refreshes = 0;
  uint64_t scan_segments = 0;
  uint64_t scanned_partitions = 0;
  uint64_t rollup_partitions = 0;
};
struct LiveWrites {
  const AckLog* acks = nullptr;
  const std::vector<History>* histories = nullptr;
  const std::vector<UploadSession>* sessions = nullptr;
  std::string live_current_dir;
};
smeter::Result<QueryReplay> ReplayQueries(const std::string& store_dir,
                                          const std::string& current_dir,
                                          const QueryResult& served, bool all,
                                          const LiveWrites* live);

}  // namespace pipebench

#endif  // PIPEBENCH_REPLAY_H_
