#include "replay.h"

#include <dlfcn.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "common.h"
#include "common/io.h"
#include "common/sync.h"
#include "core/archive_store.h"
#include "core/codec.h"
#include "core/lookup_table.h"
#include "net/archive_sink.h"
#include "net/session.h"
#include "net/wire.h"

namespace pipebench {

namespace fs = std::filesystem;
namespace net = smeter::net;
using smeter::InternalError;
using smeter::Result;
using smeter::Status;

SyscallCounts SyscallCounts::operator-(const SyscallCounts& other) const {
  return {fsync - other.fsync, fdatasync - other.fdatasync,
          rename - other.rename, open - other.open, create - other.create};
}

Result<SyscallCounts> ReadSyscallCounts() {
  using CountsFn = void (*)(unsigned long*);
  static CountsFn counts_fn = reinterpret_cast<CountsFn>(
      dlsym(RTLD_DEFAULT, "pipebench_shim_counts"));
  if (counts_fn == nullptr) {
    return smeter::FailedPreconditionError(
        "the pipebench shim is not loaded (run through pipebench/run.py)");
  }
  unsigned long raw[5];
  counts_fn(raw);
  return SyscallCounts{raw[0], raw[1], raw[2], raw[3], raw[4]};
}

SyscallCounts ReadChildCounts(const std::string& path) {
  SyscallCounts total;
  std::ifstream in(path);
  long pid = 0;
  SyscallCounts line;
  while (in >> pid >> line.fsync >> line.fdatasync >> line.rename >>
         line.open >> line.create) {
    total.fsync += line.fsync;
    total.fdatasync += line.fdatasync;
    total.rename += line.rename;
    total.open += line.open;
    total.create += line.create;
  }
  return total;
}

namespace {

std::map<std::string, fs::path> RegularFiles(const std::string& root) {
  std::map<std::string, fs::path> files;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) {
      files[fs::relative(entry.path(), root).string()] = entry.path();
    }
  }
  return files;
}

// SymbolicSeries -> the store's current-table row, as ArchiveSink writes it.
smeter::CurrentRecord CurrentRowFor(const std::string& meter,
                                    const smeter::SymbolicSeries& series) {
  const smeter::SymbolicSample& last = series[series.size() - 1];
  smeter::CurrentRecord record;
  record.meter = meter;
  record.timestamp = last.timestamp;
  record.level = series.level();
  record.symbol = last.symbol.is_gap()
                      ? smeter::kStoreGapSymbol
                      : static_cast<uint16_t>(last.symbol.index());
  return record;
}

}  // namespace

Status CompareTrees(const std::string& expected, const std::string& actual) {
  const auto want = RegularFiles(expected);
  const auto got = RegularFiles(actual);
  for (const auto& [name, path] : want) {
    auto it = got.find(name);
    if (it == got.end()) return InternalError("missing " + name);
    Result<std::string> a = smeter::io::ReadFileToString(path.string());
    Result<std::string> b = smeter::io::ReadFileToString(it->second.string());
    if (!a.ok()) return a.status();
    if (!b.ok()) return b.status();
    if (*a != *b) return InternalError(name + " differs");
  }
  for (const auto& entry : got) {
    if (want.count(entry.first) == 0) {
      return InternalError("unexpected file " + entry.first);
    }
  }
  return Status::Ok();
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : RegularFiles(dir)) {
    bytes += fs::file_size(entry.second);
  }
  return bytes;
}

Result<SinkReplay> ReplayIntoSink(const std::string& dir,
                                  const std::vector<History>& histories,
                                  const std::vector<UploadSession>& sessions) {
  Result<std::unique_ptr<net::ArchiveSink>> sink =
      net::ArchiveSink::Open(dir, /*resume=*/false);
  if (!sink.ok()) return sink.status();
  SinkReplay replay;
  Result<SyscallCounts> before = ReadSyscallCounts();
  if (!before.ok()) return before.status();
  for (const UploadSession& session : sessions) {
    const History& history = histories[session.history];
    const int64_t begin = NowNs();
    Status status = (*sink)->Persist(session.meter, history.table_blob,
                                     history.symbols, history.quality);
    replay.persist_s += Seconds(NowNs() - begin);
    if (!status.ok()) return status;
    ++replay.meters;
    replay.symbols += history.symbols.size();
  }
  Result<SyscallCounts> after = ReadSyscallCounts();
  if (!after.ok()) return after.status();
  replay.counts = *after - *before;
  const int64_t begin = NowNs();
  SMETER_RETURN_IF_ERROR((*sink)->Finalize());
  replay.finalize_s = Seconds(NowNs() - begin);
  replay.archive_bytes = TreeBytes(dir);
  return replay;
}

Result<IngestReplay> ReplayIngestLayers(
    const std::vector<History>& histories,
    const std::vector<UploadSession>& sessions) {
  IngestReplay replay;
  std::vector<net::Frame> replies;
  std::string wire;
  for (const UploadSession& session : sessions) {
    const History& history = histories[session.history];
    wire.clear();
    wire += session.hello;
    for (const std::string& frame : history.frames) wire += frame;
    replay.wire_bytes += wire.size();

    // Layer 1: frame decode (CRC checks included), on its own.
    std::vector<net::FrameView> views;
    std::string_view rest(wire);
    int64_t begin = NowNs();
    while (!rest.empty()) {
      net::DecodeViewResult decoded = net::DecodeFrameView(rest);
      if (decoded.outcome != net::DecodeResult::Outcome::kFrame) {
        return InternalError("replayed frame did not decode");
      }
      views.push_back(decoded.frame);
      rest.remove_prefix(decoded.consumed);
    }
    replay.decode_s += Seconds(NowNs() - begin);
    replay.frames += views.size();

    // Layer 2: the session state machine, frame by frame.
    net::Session state(net::SessionOptions{});
    smeter::ScopedThreadRole role(state.writer_role());
    for (const net::FrameView& view : views) {
      replies.clear();
      begin = NowNs();
      state.OnWireFrame(view, &replies);
      const double spent = Seconds(NowNs() - begin);
      if (view.type == net::FrameType::kSymbolBatch) {
        replay.session_symbols_s += spent;
      } else {
        replay.session_handshake_s += spent;
      }
    }
    begin = NowNs();
    Result<smeter::SymbolicSeries> series = state.TakeSeries();
    replay.session_handshake_s += Seconds(NowNs() - begin);
    if (!series.ok()) return series.status();
    replay.symbols += series->size();

    // Layer 3: the v3 framed pack the sink writes.
    begin = NowNs();
    Result<std::string> packed = smeter::PackSymbolicSeriesFramed(*series);
    replay.pack_s += Seconds(NowNs() - begin);
    if (!packed.ok()) return packed.status();
    ++replay.sessions;
  }
  return replay;
}

Result<EncoderReplay> ReplayEncoder(const std::vector<smeter::TimeSeries>& raw) {
  const smeter::FleetEncodeOptions options = EncodeOptions();
  EncoderReplay replay;
  for (const smeter::TimeSeries& trace : raw) {
    const std::vector<double> values = trace.Values();
    int64_t begin = NowNs();
    Result<smeter::LookupTable> table =
        smeter::LookupTable::Build(values, options.table);
    replay.table_build_s += Seconds(NowNs() - begin);
    if (!table.ok()) return table.status();
    begin = NowNs();
    Result<smeter::QualityEncoding> encoded =
        smeter::EncodePipelineWithGaps(trace, *table, options.pipeline);
    replay.encode_s += Seconds(NowNs() - begin);
    if (!encoded.ok()) return encoded.status();
    replay.samples += trace.size();
  }
  return replay;
}

Result<UnpackReplay> ReplayUnpack(const std::string& store_dir) {
  std::vector<std::string> blobs;
  for (const auto& [name, path] : RegularFiles(store_dir)) {
    if (path.extension() != smeter::kSegmentSuffix) continue;
    Result<std::string> blob = smeter::io::ReadFileToString(path.string());
    if (!blob.ok()) return blob.status();
    blobs.push_back(std::move(blob.value()));
  }
  UnpackReplay replay;
  const int64_t begin = NowNs();
  for (const std::string& blob : blobs) {
    Result<smeter::SymbolicSeries> series = smeter::UnpackSymbolicSeries(blob);
    if (!series.ok()) return series.status();
    replay.symbols += series->size();
  }
  replay.unpack_s = Seconds(NowNs() - begin);
  return replay;
}

namespace {

bool SamePoint(const net::PointResultPayload& served,
               const Result<smeter::PointValue>& direct) {
  if (!direct.ok()) return false;
  return served.status == net::WireStatus::kOk &&
         served.timestamp == direct->timestamp &&
         served.level == direct->level && served.symbol == direct->symbol;
}

bool SameRange(const net::RangeResultPayload& served,
               const Result<smeter::RangeScanResult>& direct) {
  if (!direct.ok()) return false;
  return served.status == net::WireStatus::kOk &&
         served.start_timestamp == direct->start_timestamp &&
         served.step_seconds == direct->step_seconds &&
         served.level == direct->level &&
         (served.truncated != 0) == direct->truncated &&
         served.symbols == direct->symbols;
}

bool SameAggregate(const net::AggregateResultPayload& served,
                   const Result<smeter::FleetAggregate>& direct) {
  if (!direct.ok()) return false;
  return served.status == net::WireStatus::kOk &&
         served.level == direct->level && served.meters == direct->meters &&
         served.meters_coarser == direct->meters_coarser &&
         served.windows == direct->windows && served.gaps == direct->gaps &&
         served.rollup_partitions == direct->rollup_partitions &&
         served.scanned_partitions == direct->scanned_partitions &&
         served.histogram == direct->histogram;
}

}  // namespace

Result<QueryReplay> ReplayQueries(const std::string& store_dir,
                                  const std::string& current_dir,
                                  const QueryResult& served, bool all,
                                  const LiveWrites* live) {
  const bool interleave = all && live != nullptr;
  std::unique_ptr<smeter::CurrentTableWriter> writer;
  smeter::ArchiveStoreOptions options;
  options.current_dir = current_dir;
  if (interleave) {
    fs::create_directories(live->live_current_dir);
    Result<std::unique_ptr<smeter::CurrentTableWriter>> opened =
        smeter::CurrentTableWriter::Open(live->live_current_dir);
    if (!opened.ok()) return opened.status();
    writer = std::move(opened.value());
    options.current_dir = live->live_current_dir;
  }
  Result<std::unique_ptr<smeter::ArchiveStore>> store =
      smeter::ArchiveStore::Open(store_dir, options);
  if (!store.ok()) return store.status();

  QueryReplay replay;
  size_t next_write = 0;
  for (const QueryRecord& record : served.records) {
    if (!record.ok || (!all && record.sample < 0)) continue;
    while (interleave && next_write < live->acks->ack_ns.size() &&
           live->acks->ack_ns[next_write] <= record.send_ns) {
      const UploadSession& session =
          (*live->sessions)[live->acks->session_index[next_write]];
      SMETER_RETURN_IF_ERROR(writer->Update(CurrentRowFor(
          session.meter, (*live->histories)[session.history].symbols)));
      ++next_write;
    }
    bool same = true;
    const int64_t begin = NowNs();
    if (record.kind == QueryKind::kPoint) {
      const uint64_t refreshes = (*store)->current_refreshes();
      Result<smeter::PointValue> direct = (*store)->Latest(record.meter);
      replay.latest_s += Seconds(NowNs() - begin);
      replay.refreshes += (*store)->current_refreshes() - refreshes;
      ++replay.points;
      if (record.sample >= 0) {
        same = SamePoint(served.points[static_cast<size_t>(record.sample)],
                         direct);
      }
    } else if (record.kind == QueryKind::kRange) {
      const uint64_t segments = (*store)->segments_read();
      Result<smeter::RangeScanResult> direct = (*store)->Scan(
          record.meter, record.range, record.level, kMaxRangeSymbols);
      replay.scan_s += Seconds(NowNs() - begin);
      replay.scan_segments += (*store)->segments_read() - segments;
      ++replay.ranges;
      if (record.sample >= 0) {
        same = SameRange(served.ranges[static_cast<size_t>(record.sample)],
                         direct);
      }
    } else {
      Result<smeter::FleetAggregate> direct =
          (*store)->Aggregate(record.range, record.level);
      replay.aggregate_s += Seconds(NowNs() - begin);
      ++replay.aggregates;
      if (direct.ok()) {
        replay.scanned_partitions += direct->scanned_partitions;
        replay.rollup_partitions += direct->rollup_partitions;
      }
      if (record.sample >= 0) {
        same = SameAggregate(
            served.aggregates[static_cast<size_t>(record.sample)], direct);
      }
    }
    if (record.sample >= 0) {
      ++replay.checked;
      if (!same) {
        ++replay.mismatches;
        if (replay.errors.size() < 5) {
          replay.errors.push_back(
              "served answer differs from ArchiveStore for query kind " +
              std::to_string(static_cast<int>(record.kind)) + " meter '" +
              record.meter + "'");
        }
      }
    }
  }
  if (writer) SMETER_RETURN_IF_ERROR(writer->Close());
  return replay;
}

}  // namespace pipebench
