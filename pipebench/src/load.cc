#include "load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <algorithm>
#include <cstring>
#include <random>
#include <thread>
#include <utility>

#include "net/query_client.h"

namespace pipebench {

using smeter::InternalError;
using smeter::Result;
using smeter::Status;
namespace net = smeter::net;

namespace {

constexpr int64_t kIoTimeoutMs = 20'000;
constexpr size_t kMaxLoggedErrors = 5;

Status Errno(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

void NoteError(std::vector<std::string>* errors, const Status& status) {
  if (errors->size() < kMaxLoggedErrors) errors->push_back(status.message());
}

// One upload conversation on an open connection, HELLO .. GOODBYE_ACK.
Status RunSession(FrameConn* conn, const History& history,
                  const UploadSession& session, SpanRecorder* spans,
                  uint64_t group, std::vector<double>* batch_us) {
  const int32_t root = spans->Begin(kSpanSession, group);
  int32_t span = spans->Begin(kSpanHello, group, root);
  SMETER_RETURN_IF_ERROR(conn->Send(session.hello));
  SMETER_RETURN_IF_ERROR(conn->ExpectAck(net::FrameType::kHelloAck));
  spans->End(span);

  span = spans->Begin(kSpanTable, group, root);
  SMETER_RETURN_IF_ERROR(conn->Send(history.frames.front()));
  SMETER_RETURN_IF_ERROR(conn->ExpectAck(net::FrameType::kTableAck));
  spans->End(span);

  const size_t batches = history.frames.size() - 2;
  for (size_t b = 0; b < batches; ++b) {
    span = spans->Begin(kSpanBatch, group, root);
    const int64_t sent = NowNs();
    SMETER_RETURN_IF_ERROR(conn->Send(history.frames[1 + b]));
    SMETER_RETURN_IF_ERROR(conn->ExpectBatchAck(b + 1));
    batch_us->push_back(static_cast<double>(NowNs() - sent) * 1e-3);
    spans->End(span);
  }

  span = spans->Begin(kSpanGoodbye, group, root);
  SMETER_RETURN_IF_ERROR(conn->Send(history.frames.back()));
  SMETER_RETURN_IF_ERROR(conn->ExpectAck(net::FrameType::kGoodbyeAck));
  spans->End(span);
  spans->End(root);
  return Status::Ok();
}

}  // namespace

void AppendUploads(UploadResult* into, UploadResult&& part) {
  into->sessions_ok += part.sessions_ok;
  into->sessions_failed += part.sessions_failed;
  into->symbols_ok += part.symbols_ok;
  into->session_ms.insert(into->session_ms.end(), part.session_ms.begin(),
                          part.session_ms.end());
  into->batch_us.insert(into->batch_us.end(), part.batch_us.begin(),
                        part.batch_us.end());
  into->lateness_ms.insert(into->lateness_ms.end(), part.lateness_ms.begin(),
                           part.lateness_ms.end());
  into->wall_s += part.wall_s;
  into->client_cpu_s += part.client_cpu_s;
  for (auto& spans : part.spans) into->spans.push_back(std::move(spans));
  for (auto& error : part.errors) {
    if (into->errors.size() < kMaxLoggedErrors) into->errors.push_back(error);
  }
}

Status FrameConn::Connect(uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Errno("socket");
  timeval tv{};
  tv.tv_sec = kIoTimeoutMs / 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int enable = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Errno("connect 127.0.0.1:" + std::to_string(port));
    Close();
    return status;
  }
  return Status::Ok();
}

void FrameConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_.clear();
  offset_ = 0;
}

Status FrameConn::Send(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
    if (n > 0) {
      bytes.remove_prefix(static_cast<size_t>(n));
    } else if (errno != EINTR) {
      return Errno("write");
    }
  }
  return Status::Ok();
}

Result<net::FrameView> FrameConn::Recv() {
  for (;;) {
    net::DecodeViewResult decoded =
        net::DecodeFrameView(std::string_view(in_).substr(offset_));
    if (decoded.outcome == net::DecodeResult::Outcome::kFrame) {
      offset_ += decoded.consumed;
      return decoded.frame;
    }
    if (decoded.outcome == net::DecodeResult::Outcome::kError) {
      return decoded.error;
    }
    in_.erase(0, offset_);
    offset_ = 0;
    char chunk[16 * 1024];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      in_.append(chunk, static_cast<size_t>(n));
    } else if (n == 0) {
      return InternalError("server closed the connection");
    } else if (errno != EINTR) {
      return Errno("read");
    }
  }
}

Status FrameConn::ExpectAck(net::FrameType type) {
  Result<net::FrameView> view = Recv();
  if (!view.ok()) return view.status();
  if (view->type != type) {
    return InternalError("expected frame type " +
                         std::to_string(static_cast<int>(type)) + ", got " +
                         std::to_string(static_cast<int>(view->type)));
  }
  Result<net::AckPayload> ack =
      net::ParseAck(net::Frame{view->type, std::string(view->payload)});
  if (!ack.ok()) return ack.status();
  if (ack->status != net::WireStatus::kOk) {
    return InternalError("refused [" + net::WireStatusName(ack->status) +
                         "] " + ack->message);
  }
  return Status::Ok();
}

Status FrameConn::ExpectBatchAck(uint64_t seq) {
  Result<net::FrameView> view = Recv();
  if (!view.ok()) return view.status();
  if (view->type != net::FrameType::kBatchAck) {
    return InternalError("expected BATCH_ACK, got frame type " +
                         std::to_string(static_cast<int>(view->type)));
  }
  Result<net::BatchAckPayload> ack = net::ParseBatchAck(
      net::Frame{view->type, std::string(view->payload)});
  if (!ack.ok()) return ack.status();
  if (ack->seq != seq || ack->status != net::WireStatus::kOk) {
    return InternalError("batch " + std::to_string(seq) + " refused [" +
                         net::WireStatusName(ack->status) + "] " +
                         ack->message);
  }
  return Status::Ok();
}

UploadResult RunClosedLoop(uint16_t port,
                           const std::vector<History>& histories,
                           const std::vector<UploadSession>& sessions,
                           size_t connections, bool trace,
                           uint64_t group_base) {
  std::vector<UploadResult> parts(connections);
  std::vector<std::thread> threads;
  const int64_t begin = NowNs();
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      UploadResult& part = parts[c];
      const double cpu0 = CpuSeconds(RUSAGE_THREAD);
      SpanRecorder spans(trace);
      FrameConn conn;
      int64_t previous_end = NowNs();
      for (size_t i = c; i < sessions.size(); i += connections) {
        const UploadSession& session = sessions[i];
        Status status =
            conn.connected() ? Status::Ok() : conn.Connect(port);
        const int64_t start = NowNs();
        part.lateness_ms.push_back(
            static_cast<double>(start - previous_end) * 1e-6);
        if (status.ok()) {
          status = RunSession(&conn, histories[session.history], session,
                              &spans, group_base + i, &part.batch_us);
        }
        previous_end = NowNs();
        if (status.ok()) {
          ++part.sessions_ok;
          part.symbols_ok += histories[session.history].symbols.size();
          part.session_ms.push_back(
              static_cast<double>(previous_end - start) * 1e-6);
        } else {
          ++part.sessions_failed;
          NoteError(&part.errors, status);
          conn.Close();
        }
      }
      part.client_cpu_s = CpuSeconds(RUSAGE_THREAD) - cpu0;
      part.spans.push_back(spans.spans());
    });
  }
  for (std::thread& thread : threads) thread.join();
  UploadResult result;
  for (UploadResult& part : parts) AppendUploads(&result, std::move(part));
  result.wall_s = Seconds(NowNs() - begin);
  return result;
}

UploadResult RunOpenLoopWriter(uint16_t port,
                               const std::vector<History>& histories,
                               const std::vector<UploadSession>& sessions,
                               size_t first, size_t count, double rate_per_s,
                               const std::atomic<bool>& stop, bool trace,
                               uint64_t group_base, AckLog* acks) {
  UploadResult result;
  const double cpu0 = CpuSeconds(RUSAGE_THREAD);
  SpanRecorder spans(trace);
  FrameConn conn;
  const int64_t begin = NowNs();
  const double interval_ns = 1e9 / rate_per_s;
  for (size_t n = 0; n < count; ++n) {
    const size_t k = first + n;
    const int64_t due =
        begin + static_cast<int64_t>(static_cast<double>(n) * interval_ns);
    int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    if (stop.load(std::memory_order_relaxed)) break;
    const UploadSession& session = sessions[k];
    now = NowNs();
    result.lateness_ms.push_back(static_cast<double>(now - due) * 1e-6);
    Status status = conn.connected() ? Status::Ok() : conn.Connect(port);
    if (status.ok()) {
      status = RunSession(&conn, histories[session.history], session, &spans,
                          group_base + k, &result.batch_us);
    }
    const int64_t end = NowNs();
    if (status.ok()) {
      ++result.sessions_ok;
      result.symbols_ok += histories[session.history].symbols.size();
      result.session_ms.push_back(static_cast<double>(end - due) * 1e-6);
      std::lock_guard<std::mutex> lock(acks->mutex);
      acks->meters.push_back(session.meter);
      acks->ack_ns.push_back(end);
      acks->session_index.push_back(static_cast<uint32_t>(k));
      acks->size.store(acks->meters.size(), std::memory_order_release);
    } else {
      ++result.sessions_failed;
      NoteError(&result.errors, status);
      conn.Close();
    }
  }
  result.wall_s = Seconds(NowNs() - begin);
  result.client_cpu_s = CpuSeconds(RUSAGE_THREAD) - cpu0;
  result.spans.push_back(spans.spans());
  return result;
}

namespace {

struct ReaderPart {
  std::vector<double> us[3];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t histogram_mismatches = 0;
  double cpu_s = 0;
  std::vector<QueryRecord> records;
  std::vector<net::PointResultPayload> points;
  std::vector<net::RangeResultPayload> ranges;
  std::vector<net::AggregateResultPayload> aggregates;
  std::vector<Span> spans;
  std::vector<std::string> errors;
};

std::string PickPointTarget(const QueryPlan& plan, std::mt19937_64* rng) {
  if (plan.live_targets == nullptr) {
    return plan.point_targets[(*rng)() % plan.point_targets.size()];
  }
  const size_t size = plan.live_targets->size.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(plan.live_targets->mutex);
  return plan.live_targets->meters[(*rng)() % size];
}

// One reader's deck of query kinds; aggregates carry the ragged flag.
std::vector<std::pair<QueryKind, bool>> Deck(std::mt19937_64* rng) {
  std::vector<std::pair<QueryKind, bool>> deck;
  for (int i = 0; i < 24; ++i) deck.emplace_back(QueryKind::kPoint, false);
  for (int i = 0; i < 12; ++i) deck.emplace_back(QueryKind::kRange, false);
  for (int i = 0; i < 3; ++i) deck.emplace_back(QueryKind::kAggregate, false);
  deck.emplace_back(QueryKind::kAggregate, true);
  std::shuffle(deck.begin(), deck.end(), *rng);
  return deck;
}

void RunReader(uint16_t port, const QueryPlan& plan, size_t reader, bool trace,
               ReaderPart* part) {
  const double cpu0 = CpuSeconds(RUSAGE_THREAD);
  SpanRecorder spans(trace);
  net::QueryClientOptions options;
  options.port = port;
  options.timeout_ms = kIoTimeoutMs;
  Result<std::unique_ptr<net::QueryClient>> client =
      net::QueryClient::Connect(options);
  if (!client.ok()) {
    ++part->attempted;
    ++part->failed;
    NoteError(&part->errors, client.status());
    return;
  }
  std::mt19937_64 rng(plan.seed * 7919 + reader);
  const int64_t day = smeter::kSecondsPerDay;
  const int64_t slot = EncodeOptions().pipeline.window_seconds;
  const int64_t slots_per_day = day / slot;
  uint64_t issued[3] = {0, 0, 0};
  std::vector<std::pair<QueryKind, bool>> deck;
  for (size_t n = 0; n < plan.per_reader; ++n) {
    if (n % kDeckSize == 0) deck = Deck(&rng);
    QueryRecord record;
    record.kind = deck[n % kDeckSize].first;
    record.ragged = deck[n % kDeckSize].second;
    if (record.kind == QueryKind::kPoint) {
      record.meter = PickPointTarget(plan, &rng);
    } else if (record.kind == QueryKind::kRange) {
      record.meter = plan.store_meters[rng() % plan.store_meters.size()];
      // Two days starting mid-day: never aligned to a daily partition.
      const int64_t first_day = static_cast<int64_t>(
          rng() % static_cast<uint64_t>(plan.store_days - 2));
      const int64_t offset =
          slot * (1 + static_cast<int64_t>(
                          rng() % static_cast<uint64_t>(slots_per_day - 1)));
      record.range.begin = plan.store_start + first_day * day + offset;
      record.range.end = record.range.begin + 2 * day;
      record.level = 1 + static_cast<int>(
                             rng() % static_cast<uint64_t>(plan.native_level));
    } else {
      // Seven days, starting on a partition boundary (rollups only) or
      // mid-day (two edge partitions scanned).
      const int64_t first_day = static_cast<int64_t>(
          rng() % static_cast<uint64_t>(plan.store_days - 7));
      const int64_t offset =
          record.ragged
              ? slot * (1 + static_cast<int64_t>(rng() % static_cast<uint64_t>(
                                                     slots_per_day - 1)))
              : 0;
      record.range.begin = plan.store_start + first_day * day + offset;
      record.range.end = record.range.begin + 7 * day;
      record.level = 1 + static_cast<int>(
                             rng() % static_cast<uint64_t>(plan.native_level));
    }
    const int kind = static_cast<int>(record.kind);
    const bool sample = issued[kind]++ % plan.sample_every == 0;
    const int32_t span = spans.Begin(kSpanPoint + static_cast<uint32_t>(kind),
                                     (uint64_t{reader} << 40) | part->attempted);
    record.send_ns = NowNs();
    Status status;
    bool transport_broken = false;
    if (record.kind == QueryKind::kPoint) {
      Result<net::PointResultPayload> answer = (*client)->Point(record.meter);
      transport_broken = !answer.ok();
      status = answer.ok() ? Status::Ok() : answer.status();
      if (answer.ok() && answer->status != net::WireStatus::kOk) {
        status = InternalError("point " + record.meter + ": " +
                               net::WireStatusName(answer->status));
      }
      if (answer.ok() && sample) {
        record.sample = static_cast<int32_t>(part->points.size());
        part->points.push_back(std::move(answer.value()));
      }
    } else if (record.kind == QueryKind::kRange) {
      Result<net::RangeResultPayload> answer = (*client)->Range(
          record.meter, record.range, record.level, kMaxRangeSymbols);
      transport_broken = !answer.ok();
      status = answer.ok() ? Status::Ok() : answer.status();
      if (answer.ok() && answer->status != net::WireStatus::kOk) {
        status = InternalError("range " + record.meter + ": " +
                               net::WireStatusName(answer->status));
      }
      if (answer.ok() && sample) {
        record.sample = static_cast<int32_t>(part->ranges.size());
        part->ranges.push_back(std::move(answer.value()));
      }
    } else {
      Result<net::AggregateResultPayload> answer =
          (*client)->Aggregate(record.range, record.level);
      transport_broken = !answer.ok();
      status = answer.ok() ? Status::Ok() : answer.status();
      if (answer.ok() && answer->status != net::WireStatus::kOk) {
        status = InternalError("aggregate: " +
                               net::WireStatusName(answer->status));
      }
      if (status.ok()) {
        uint64_t sum = answer->gaps;
        for (uint64_t count : answer->histogram) sum += count;
        if (sum != answer->windows) ++part->histogram_mismatches;
      }
      if (answer.ok() && sample) {
        record.sample = static_cast<int32_t>(part->aggregates.size());
        part->aggregates.push_back(std::move(answer.value()));
      }
    }
    const int64_t end = NowNs();
    spans.End(span);
    record.round_trip_us = static_cast<double>(end - record.send_ns) * 1e-3;
    record.ok = status.ok();
    ++part->attempted;
    if (status.ok()) {
      part->us[kind].push_back(record.round_trip_us);
    } else {
      ++part->failed;
      NoteError(&part->errors, status);
    }
    part->records.push_back(std::move(record));
    if (transport_broken) break;
  }
  part->cpu_s = CpuSeconds(RUSAGE_THREAD) - cpu0;
  part->spans = spans.spans();
}

}  // namespace

void AppendQueries(QueryResult* into, QueryResult&& part) {
  auto append = [](auto* to, auto& from) {
    to->insert(to->end(), std::make_move_iterator(from.begin()),
               std::make_move_iterator(from.end()));
  };
  const size_t offsets[3] = {into->points.size(), into->ranges.size(),
                             into->aggregates.size()};
  for (QueryRecord& record : part.records) {
    if (record.sample >= 0) {
      record.sample +=
          static_cast<int32_t>(offsets[static_cast<int>(record.kind)]);
    }
  }
  append(&into->point_us, part.point_us);
  append(&into->range_us, part.range_us);
  append(&into->aggregate_us, part.aggregate_us);
  append(&into->records, part.records);
  append(&into->points, part.points);
  append(&into->ranges, part.ranges);
  append(&into->aggregates, part.aggregates);
  append(&into->spans, part.spans);
  append(&into->errors, part.errors);
  into->attempted += part.attempted;
  into->failed += part.failed;
  into->histogram_mismatches += part.histogram_mismatches;
  into->wall_s += part.wall_s;
  into->client_cpu_s += part.client_cpu_s;
}

QueryResult RunReaders(uint16_t port, const QueryPlan& plan, bool trace) {
  std::vector<ReaderPart> parts(plan.readers);
  std::vector<std::thread> threads;
  const int64_t begin = NowNs();
  for (size_t r = 0; r < plan.readers; ++r) {
    threads.emplace_back(RunReader, port, std::cref(plan), r, trace,
                         &parts[r]);
  }
  for (std::thread& thread : threads) thread.join();
  QueryResult result;
  for (ReaderPart& part : parts) {
    QueryResult reader;
    reader.point_us = std::move(part.us[0]);
    reader.range_us = std::move(part.us[1]);
    reader.aggregate_us = std::move(part.us[2]);
    reader.attempted = part.attempted;
    reader.failed = part.failed;
    reader.histogram_mismatches = part.histogram_mismatches;
    reader.client_cpu_s = part.cpu_s;
    reader.records = std::move(part.records);
    reader.points = std::move(part.points);
    reader.ranges = std::move(part.ranges);
    reader.aggregates = std::move(part.aggregates);
    reader.spans.push_back(std::move(part.spans));
    reader.errors = std::move(part.errors);
    AppendQueries(&result, std::move(reader));
  }
  result.errors.resize(std::min(result.errors.size(), kMaxLoggedErrors));
  result.wall_s = Seconds(NowNs() - begin);
  std::sort(result.records.begin(), result.records.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.send_ns < b.send_ns;
            });
  return result;
}

}  // namespace pipebench
