// pipebench: one run of one workload of the smart-meter pipeline benchmark.
//
//   pipebench --workload daily_upload|backfill|live_query --seed N
//             --seconds S --trace 0|1 --smeter <path> --work <dir>
//
// Every run drives the whole path — sensor-side encode, upload to a real
// `smeter ingestd --threads 2`, store build, queries against a real
// `smeter queryd` — and the workload decides where the weight sits (see
// README.md). The last stdout line is the JSON result; progress, the
// metric table and the traced ledger go to stderr. Exit 0 only when every
// correctness gate held.

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/mount.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/archive_store.h"
#include "daemon.h"
#include "inputs.h"
#include "load.h"
#include "replay.h"

namespace pipebench {
namespace {

namespace fs = std::filesystem;
using smeter::Result;
using smeter::Status;

constexpr int64_t kDay = smeter::kSecondsPerDay;
// Day 0 of the store: 2024-01-01.
constexpr int64_t kEpochDay = 19723 * kDay;
constexpr size_t kUploadConnections = 4;
// The timed phases run in blocks (see RunBlocks), one per kSecondsPerBlock
// of --seconds: a block of any workload takes about four seconds on the
// 4-vCPU VM the benchmark was tuned on.
constexpr int kSecondsPerBlock = 4;
// Store builds per block (see RunBlocks).
constexpr size_t kBuildsPerBlock = 3;
// Span groups: upload round r uses r << 32 | session; the writer this.
constexpr uint64_t kWriterGroups = uint64_t{1} << 40;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string smeter;
  std::string work;
};

// The fixed shape of the store every workload queries: kStoreMeters
// meters x kStoreDays daily partitions.
constexpr size_t kStoreMeters = 256;
constexpr int64_t kStoreDays = 28;

// What a workload uploads and how its query phase runs.
struct WorkloadShape {
  FleetSpec fleet;
  size_t copies = 1;          // sessions per history (distinct meter ids)
  std::string prefix;         // meter id prefix
  double writer_rate = 0;     // > 0: live_query's open-loop writer
  size_t writer_sessions = 0;  // the writer sends this many, all of them
  size_t decks_per_part = 1;  // query decks per reader per query part
  size_t blocks = 2;          // blocks of timed phases (see RunBlocks)
};

Result<WorkloadShape> ShapeFor(const Args& args) {
  WorkloadShape shape;
  const uint64_t seed = args.seed * 1'000'003 + 17;
  shape.blocks = std::max<size_t>(
      2, static_cast<size_t>(args.seconds / kSecondsPerBlock));
  // Every query part deals each reader 84 decks: 3 x 84 x 4 = 1,008
  // aggregates per part, so that a part's p99 has ten samples beyond it.
  shape.decks_per_part = 84;
  if (args.workload == "daily_upload") {
    // 20,000 meters x 1 day of 5-minute readings per upload round.
    shape.fleet = {20000, kEpochDay + kStoreDays * kDay, 1, 300, seed,
                   1000, 2000, 3};
    shape.prefix = "d";
  } else if (args.workload == "backfill") {
    // 32 meters x 365 days of 1-minute readings, each history re-sent
    // under 50 meter ids per round.
    shape.fleet = {32, kEpochDay - 365 * kDay, 365, 60, seed, 4, 4, 1};
    shape.copies = 50;
    shape.prefix = "b";
  } else if (args.workload == "live_query") {
    // Writer fleet: 1-day sessions for the day after the store's span.
    // The writer sends 250 of them per block, at 200 per second.
    shape.fleet = {2000, kEpochDay + kStoreDays * kDay, 1, 300, seed,
                   250, 2000, 3};
    shape.copies = 5;
    shape.prefix = "l";
    shape.writer_rate = 200;
    shape.writer_sessions = 250 * shape.blocks;
  } else {
    return smeter::InvalidArgumentError("unknown workload '" + args.workload +
                                        "'");
  }
  return shape;
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--smeter") {
      args.smeter = value;
    } else if (flag == "--work") {
      args.work = value;
    } else {
      return smeter::InvalidArgumentError("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.smeter.empty() ||
      args.work.empty() || args.seconds < 1) {
    return smeter::InvalidArgumentError(
        "usage: pipebench --workload W --seed N --seconds S --trace 0|1 "
        "--smeter PATH --work DIR");
  }
  return args;
}

void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));
void Log(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

// Per-run state shared by the phases.
struct Run {
  Args args;
  WorkloadShape shape;
  MetricTable metrics;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::string Dir(const std::string& name) const {
    return args.work + "/" + name;
  }
  void Fail(const std::string& what) {
    correct = false;
    Log("pipebench: CHECK FAILED: %s", what.c_str());
  }
};

// Puts the work directory on a private tmpfs: a new mount namespace
// (plain, or inside a user namespace when the plain one is not allowed)
// with a tmpfs mounted over `work`. Files stay inside the checkout's tree,
// nothing outside this process tree sees the mount, and it vanishes with
// the last process of the run. Must run before any thread starts.
bool MountPrivateTmpfs(const std::string& work) {
  fs::create_directories(work);
  if (::unshare(CLONE_NEWNS) != 0) {
    const uid_t uid = ::getuid();
    const gid_t gid = ::getgid();
    if (::unshare(CLONE_NEWUSER | CLONE_NEWNS) != 0) return false;
    auto write_file = [](const char* path, const std::string& text) {
      const int fd = ::open(path, O_WRONLY | O_CLOEXEC);
      if (fd < 0) return false;
      const bool ok = ::write(fd, text.data(), text.size()) ==
                      static_cast<ssize_t>(text.size());
      ::close(fd);
      return ok;
    };
    if (!write_file("/proc/self/setgroups", "deny") ||
        !write_file("/proc/self/uid_map", "0 " + std::to_string(uid) + " 1") ||
        !write_file("/proc/self/gid_map", "0 " + std::to_string(gid) + " 1")) {
      return false;
    }
  }
  if (::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return false;
  }
  return ::mount("pipebench", work.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                 "size=4g,mode=0755") == 0;
}

// The daemons running now, for the signal handler.
std::vector<Daemon*> g_live_daemons;

// Owns a running daemon: it is listed in g_live_daemons until Stop() drains
// it, and a daemon still running when its owner goes out of scope (an
// error path) is killed and reaped there.
class LiveDaemon {
 public:
  explicit LiveDaemon(Daemon daemon) : daemon_(daemon) {
    g_live_daemons.push_back(&daemon_);
  }
  ~LiveDaemon() {
    KillDaemon(&daemon_);
    Forget();
  }
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  uint16_t port() const { return daemon_.port; }
  DaemonExit Stop() {
    const DaemonExit exit = StopDaemon(&daemon_);
    Forget();
    return exit;
  }

 private:
  void Forget() {
    std::erase(g_live_daemons, &daemon_);
  }

  Daemon daemon_;
};

Result<Daemon> Spawn(const Run& run, std::vector<std::string> args,
                     Placement placement, const std::string& name) {
  return SpawnDaemon(run.args.smeter, std::move(args), placement,
                     run.Dir(name + ".log"), run.Dir(name + ".counts"));
}

struct StoreFixture {
  std::vector<std::string> meters;
  uint64_t symbols = 0;
  smeter::StoreBuildReport report;
  std::string archive;  // the fixture's archive (untimed set-up)
  std::string dir;      // the store the queries read
};

// Set-up, untimed: the store fixture's archive.
Result<StoreFixture> PrepareStore(Run* run) {
  FleetSpec spec{kStoreMeters, kEpochDay, kStoreDays, 900,
                 run->args.seed * 7 + 3, 64, 0};
  EncodeStats untimed;
  Result<std::vector<History>> histories =
      GenerateAndEncode(spec, &untimed, nullptr);
  if (!histories.ok()) return histories.status();
  StoreFixture fixture;
  std::vector<UploadSession> sessions;
  for (size_t i = 0; i < histories->size(); ++i) {
    std::string meter = "q";
    meter += std::to_string(i);
    sessions.push_back(MakeSession(std::move(meter), static_cast<uint32_t>(i)));
    fixture.meters.push_back(sessions.back().meter);
    fixture.symbols += (*histories)[i].symbols.size();
  }
  fixture.archive = run->Dir("store_archive");
  fixture.dir = run->Dir("store");
  Result<SinkReplay> sink =
      ReplayIntoSink(fixture.archive, *histories, sessions);
  if (!sink.ok()) return sink.status();
  return fixture;
}

// Aggregated results of the phases, for the metric table.
struct Observed {
  EncodeStats encode;
  std::vector<double> build_s;  // every timed BuildArchiveStore, in order
  std::vector<double> setup_s;  // every set-up probe
  // Per upload round: symbols/s and latency percentiles. The run reports
  // its slowest round (see SetEndToEnd).
  struct Round {
    double rate = 0;
    double session_p50 = 0, session_p99 = 0;  // p99: logged only
    double batch_p50 = 0;
  };
  std::vector<Round> rounds;
  // Per query part: queries/s and latency percentiles; likewise.
  struct Part {
    double rate = 0;
    double point_p50 = 0, point_p99 = 0;
    double range_p50 = 0, range_p99 = 0;
    double aggregate_p50 = 0, aggregate_p99 = 0;
  };
  std::vector<Part> parts;
  UploadResult upload;  // pooled over rounds
  std::vector<UploadSession> sessions;
  std::vector<History> histories;
  std::vector<smeter::TimeSeries> raw;
  double ingest_cpu_s = 0;
  uint64_t ingest_sessions = 0;
  double ingest_rss_mb = 0;
  double query_cpu_s = 0;
  double query_rss_mb = 0;
  SyscallCounts ingest_counts;
  QueryResult queries;  // pooled over query parts
  UploadResult writer;  // live_query's open-loop writer, pooled over parts
  std::string archive;  // the drained archive checked against the replay
  AckLog acks;
};

// Timed: one BuildArchiveStore run of the fixture. The first build of the
// run is the store the queries read; the others are removed.
Status TimeStoreBuild(Run* run, StoreFixture* store, Observed* seen) {
  const bool keep = !fs::exists(store->dir);
  const std::string dir = keep ? store->dir : run->Dir("store_scratch");
  const int64_t begin = NowNs();
  Result<smeter::StoreBuildReport> report =
      smeter::BuildArchiveStore(store->archive, dir);
  seen->build_s.push_back(Seconds(NowNs() - begin));
  if (!report.ok()) return report.status();
  store->report = *report;
  if (!keep) fs::remove_all(dir);
  return Status::Ok();
}

// Set-up time, one probe: spawn ingestd and queryd together and wait until
// both answered their first request.
Status MeasureSetupOnce(Run* run, const StoreFixture& store,
                        const std::string& current_dir, Observed* seen) {
  const std::string archive = run->Dir("probe_archive");
  fs::remove_all(archive);
  const int64_t begin = NowNs();
  Result<Daemon> spawned_ingest =
      Spawn(*run, {"ingestd", "--threads", "2", "--dir", archive},
            Placement::kIngest, "probe");
  if (!spawned_ingest.ok()) return spawned_ingest.status();
  LiveDaemon ingest(*spawned_ingest);
  Result<Daemon> spawned_query = Spawn(
      *run, {"queryd", "--store", store.dir, "--current-dir", current_dir},
      Placement::kQuery, "probe");
  if (!spawned_query.ok()) return spawned_query.status();
  LiveDaemon query(*spawned_query);
  Status ingest_ok = IngestHandshake(ingest.port());
  Status query_ok = QueryHandshake(query.port());
  seen->setup_s.push_back(Seconds(NowNs() - begin));
  ingest.Stop();
  query.Stop();
  fs::remove_all(archive);
  SMETER_RETURN_IF_ERROR(ingest_ok);
  return query_ok;
}

Status MeasureSetup(Run* run, const StoreFixture& store,
                    const std::string& current_dir, Observed* seen) {
  SMETER_RETURN_IF_ERROR(MeasureSetupOnce(run, store, current_dir, seen));
  return MeasureSetupOnce(run, store, current_dir, seen);
}

void NoteRound(UploadResult* result, Observed* seen) {
  Observed::Round round;
  round.rate = static_cast<double>(result->symbols_ok) / result->wall_s;
  round.session_p50 = Percentile(&result->session_ms, 50);
  round.session_p99 = Percentile(&result->session_ms, 99);
  round.batch_p50 = Percentile(&result->batch_us, 50);
  seen->rounds.push_back(round);
}

// Stops an ingestd and books its CPU, RSS and syscall counts.
void StopIngest(Run* run, LiveDaemon* daemon, const std::string& name,
                uint64_t sessions, Observed* seen) {
  const DaemonExit exit = daemon->Stop();
  if (!exit.clean) run->Fail(name + " did not drain and exit cleanly");
  seen->ingest_cpu_s += exit.user_s + exit.sys_s;
  seen->ingest_sessions += sessions;
  seen->ingest_rss_mb = std::max(seen->ingest_rss_mb, exit.maxrss_mb);
  const SyscallCounts counts = ReadChildCounts(run->Dir(name + ".counts"));
  seen->ingest_counts.fsync += counts.fsync + counts.fdatasync;
  seen->ingest_counts.rename += counts.rename;
  seen->ingest_counts.create += counts.create;
}

// One closed-loop upload round into a fresh ingestd and archive. Round 0's
// archive is kept: the gate checks it and queryd reads its current table.
Status RunUploadRound(Run* run, size_t round, Observed* seen) {
  const std::string archive = run->Dir("archive" + std::to_string(round));
  const std::string name = "ingestd" + std::to_string(round);
  KeepAwake awake;
  Result<Daemon> spawned =
      Spawn(*run, {"ingestd", "--threads", "2", "--dir", archive},
            Placement::kIngest, name);
  if (!spawned.ok()) return spawned.status();
  LiveDaemon daemon(*spawned);
  UploadResult result =
      RunClosedLoop(daemon.port(), seen->histories, seen->sessions,
                    kUploadConnections, run->args.trace,
                    uint64_t{round} << 32);
  StopIngest(run, &daemon, name, seen->sessions.size(), seen);
  NoteRound(&result, seen);
  Log("pipebench: round %zu: %" PRIu64 " sessions ok, %" PRIu64
      " failed, %.3f s, %.0f symbols/s, session p99 %.3f ms",
      round, result.sessions_ok, result.sessions_failed, result.wall_s,
      seen->rounds.back().rate, seen->rounds.back().session_p99);
  for (const std::string& error : result.errors) {
    Log("pipebench:   session error: %s", error.c_str());
  }
  AppendUploads(&seen->upload, std::move(result));
  if (round == 0) {
    seen->archive = archive;
  } else {
    fs::remove_all(archive);
  }
  return Status::Ok();
}

// One query part: a fresh queryd over the store, three closed-loop readers
// and, on live_query, the writer's share of its sessions sent open loop
// into `live` (whose archive is queryd's current-table directory). The
// part ends when both the readers and the writer are done: the writer
// always sends its whole share, so the current log grows by the same
// amount in every run.
Status RunQueryPart(Run* run, const StoreFixture& store, size_t part,
                    const std::string& current_dir, const LiveDaemon* live,
                    Observed* seen) {
  KeepAwake awake;
  Result<Daemon> spawned = Spawn(
      *run, {"queryd", "--store", store.dir, "--current-dir", current_dir},
      Placement::kQuery, "queryd" + std::to_string(part));
  if (!spawned.ok()) return spawned.status();
  LiveDaemon query(*spawned);

  QueryPlan plan;
  plan.seed = run->args.seed * run->shape.blocks + part;
  plan.per_reader = run->shape.decks_per_part * kDeckSize;
  plan.store_start = kEpochDay;
  plan.store_days = kStoreDays;
  plan.store_meters = store.meters;

  std::atomic<bool> stop{false};
  std::thread writer;
  UploadResult written;
  if (live != nullptr) {
    plan.live_targets = &seen->acks;
    const size_t total = run->shape.writer_sessions;
    const size_t first = total * part / run->shape.blocks;
    const size_t count = total * (part + 1) / run->shape.blocks - first;
    writer = std::thread([&, first, count] {
      written = RunOpenLoopWriter(live->port(), seen->histories,
                                  seen->sessions, first, count,
                                  run->shape.writer_rate, stop,
                                  run->args.trace, kWriterGroups,
                                  &seen->acks);
    });
    // Point lookups need an acknowledged meter first.
    const int64_t deadline = NowNs() + 10'000'000'000;
    while (seen->acks.size.load() == 0 && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (seen->acks.size.load() == 0) {
      stop = true;
      writer.join();
      return smeter::InternalError("the live writer got no session acked");
    }
  } else {
    for (const UploadSession& session : seen->sessions) {
      plan.point_targets.push_back(session.meter);
    }
  }

  QueryResult queries = RunReaders(query.port(), plan, run->args.trace);
  if (writer.joinable()) writer.join();
  const DaemonExit exit = query.Stop();
  if (!exit.clean) run->Fail("queryd did not drain and exit cleanly");
  seen->query_cpu_s += exit.user_s + exit.sys_s;
  seen->query_rss_mb = std::max(seen->query_rss_mb, exit.maxrss_mb);
  Log("pipebench: query part %zu: %" PRIu64 " attempted, %" PRIu64
      " failed over %.3f s",
      part, queries.attempted, queries.failed, queries.wall_s);
  for (const std::string& error : queries.errors) {
    Log("pipebench:   query error: %s", error.c_str());
  }
  Observed::Part stats;
  stats.rate = static_cast<double>(queries.attempted) / queries.wall_s;
  std::vector<double> us = queries.point_us;
  stats.point_p50 = Percentile(&us, 50);
  stats.point_p99 = Percentile(&us, 99);
  us = queries.range_us;
  stats.range_p50 = Percentile(&us, 50);
  stats.range_p99 = Percentile(&us, 99);
  us = queries.aggregate_us;
  stats.aggregate_p50 = Percentile(&us, 50);
  stats.aggregate_p99 = Percentile(&us, 99);
  seen->parts.push_back(stats);
  Log("pipebench:   p50 point %.1f us, range %.1f us, aggregate %.1f us; "
      "p99 %.0f, %.0f, %.0f us; %.0f queries/s",
      stats.point_p50, stats.range_p50, stats.aggregate_p50, stats.point_p99,
      stats.range_p99, stats.aggregate_p99, stats.rate);
  AppendQueries(&seen->queries, std::move(queries));
  if (live != nullptr) {
    Log("pipebench: live writer part %zu: %" PRIu64 " sessions ok, %" PRIu64
        " failed over %.3f s",
        part, written.sessions_ok, written.sessions_failed, written.wall_s);
    for (const std::string& error : written.errors) {
      Log("pipebench:   session error: %s", error.c_str());
    }
    AppendUploads(&seen->writer, std::move(written));
  }
  return Status::Ok();
}

// Every timed phase runs in blocks spread over the run — three store
// builds, an upload round, four set-up probes, a query part, an encode of
// the first chunk again — so that every block samples every phase. The
// builds and probes sit between the longer phases rather than back to
// back: on the 4-vCPU VM the benchmark was tuned on, memory-bound work
// switched between a fast and a ~1.5x slower state every second or so,
// and samples taken together shared the state.
Status RunBlocks(Run* run, StoreFixture* store, Observed* seen) {
  const bool live = run->shape.writer_rate > 0;
  std::optional<LiveDaemon> live_ingest;
  std::string current_dir;
  if (live) {
    current_dir = run->Dir("live_archive");
    Result<Daemon> spawned = Spawn(
        *run, {"ingestd", "--threads", "2", "--dir", current_dir},
        Placement::kLiveIngest, "ingestd");
    if (!spawned.ok()) return spawned.status();
    live_ingest.emplace(*spawned);
  }
  static_assert(kBuildsPerBlock == 3, "RunBlocks times three builds");
  for (size_t block = 0; block < run->shape.blocks; ++block) {
    SMETER_RETURN_IF_ERROR(TimeStoreBuild(run, store, seen));
    SMETER_RETURN_IF_ERROR(RunUploadRound(run, block, seen));
    if (!live) current_dir = seen->archive;
    SMETER_RETURN_IF_ERROR(TimeStoreBuild(run, store, seen));
    SMETER_RETURN_IF_ERROR(MeasureSetup(run, *store, current_dir, seen));
    SMETER_RETURN_IF_ERROR(RunQueryPart(
        run, *store, block, current_dir,
        live_ingest ? &*live_ingest : nullptr, seen));
    SMETER_RETURN_IF_ERROR(TimeStoreBuild(run, store, seen));
    SMETER_RETURN_IF_ERROR(MeasureSetup(run, *store, current_dir, seen));
    SMETER_RETURN_IF_ERROR(RetimeEncode(run->shape.fleet, &seen->encode));
  }
  if (live) {
    StopIngest(run, &*live_ingest, "ingestd",
               seen->writer.sessions_ok + seen->writer.sessions_failed, seen);
    seen->archive = current_dir;
    std::vector<double> from_due = seen->writer.session_ms;
    Log("pipebench: live writer: %" PRIu64 " sessions; from due: p50 %.3f "
        "ms, p99 %.3f ms",
        seen->writer.sessions_ok, Percentile(&from_due, 50),
        Percentile(&from_due, 99));
  }
  const QueryResult& q = seen->queries;
  Log("pipebench: queries: %" PRIu64 " attempted, %" PRIu64
      " failed over %.3f s (%zu point, %zu range, %zu aggregate)",
      q.attempted, q.failed, q.wall_s, q.point_us.size(), q.range_us.size(),
      q.aggregate_us.size());
  return Status::Ok();
}

// The sessions that reached the archive, in upload order: every session
// of a closed-loop round, or the writer's acknowledged ones.
std::vector<UploadSession> PersistedSessions(const Run& run,
                                             const Observed& seen) {
  if (run.shape.writer_rate <= 0) return seen.sessions;
  std::vector<UploadSession> persisted;
  for (uint32_t index : seen.acks.session_index) {
    persisted.push_back(seen.sessions[index]);
  }
  return persisted;
}

void SetEndToEnd(Run* run, Observed* seen) {
  MetricTable& m = run->metrics;
  UploadResult& up = seen->upload;
  QueryResult& q = seen->queries;
  // Each block's value, and the run reports its slowest block: the
  // highest latency or build time, the lowest rate. A block runs mostly in
  // one of the host's fast or slow states (see RunBlocks) and the share of
  // slow blocks drifts from run to run, so a median or mean over blocks
  // moves with that share; the slow state itself recurs in nearly every
  // run at the same level. The batch p99 is the exception: a round's p99
  // follows single stalls of the host (one round in 14 read 1.7 ms against
  // ~0.45 ms), so it pools every round's samples.
  auto slowest = [](const auto& blocks, auto field) {
    double worst = blocks.front().*field;
    for (const auto& block : blocks) worst = std::max(worst, block.*field);
    return worst;
  };
  auto lowest = [](const auto& blocks, auto field) {
    double worst = blocks.front().*field;
    for (const auto& block : blocks) worst = std::min(worst, block.*field);
    return worst;
  };
  using R = Observed::Round;
  using P = Observed::Part;
  const std::vector<R>& rounds = seen->rounds;
  const std::vector<P>& parts = seen->parts;
  m.Set("ingest_symbols_per_s", lowest(rounds, &R::rate), "1/s");
  m.Set("session_p50_ms", slowest(rounds, &R::session_p50), "ms");
  m.Set("batch_ack_p50_us", slowest(rounds, &R::batch_p50), "us");
  m.Set("batch_ack_p99_us", Percentile(&up.batch_us, 99), "us");
  // Encode is timed per chunk as well as per block (see GenerateAndEncode);
  // its rate is the trimmed mean of all those timings.
  m.Set("encode_samples_per_s", TrimmedMean(seen->encode.chunk_rates),
        "1/s");
  m.Set("query_point_p50_us", slowest(parts, &P::point_p50), "us");
  m.Set("query_point_p99_us", slowest(parts, &P::point_p99), "us");
  m.Set("query_range_p50_us", slowest(parts, &P::range_p50), "us");
  m.Set("query_range_p99_us", slowest(parts, &P::range_p99), "us");
  m.Set("query_aggregate_p50_us", slowest(parts, &P::aggregate_p50), "us");
  m.Set("queries_per_s", lowest(parts, &P::rate), "1/s");
  // Logged, not reported: between runs of the same code these spread past
  // any bound the benchmark may set (see README.md).
  Log("pipebench: session p99 %.3f ms (pooled), aggregate p99 %.0f us "
      "(slowest part)",
      Percentile(&up.session_ms, 99), slowest(parts, &P::aggregate_p99));
  // A block's build time is the median of its builds.
  std::vector<double> block_builds;
  for (size_t i = 0; i + kBuildsPerBlock <= seen->build_s.size();
       i += kBuildsPerBlock) {
    block_builds.push_back(Median(std::vector<double>(
        seen->build_s.begin() + static_cast<std::ptrdiff_t>(i),
        seen->build_s.begin() +
            static_cast<std::ptrdiff_t>(i + kBuildsPerBlock))));
  }
  m.Set("store_build_s",
        *std::max_element(block_builds.begin(), block_builds.end()), "s");
  std::string builds;
  for (double b : block_builds) {
    char text[32];
    std::snprintf(text, sizeof text, " %.4f", b);
    builds += text;
  }
  Log("pipebench: store build per block (s):%s", builds.c_str());
  m.Set("server_peak_rss_mb", seen->ingest_rss_mb + seen->query_rss_mb, "MB");
  Log("pipebench: samples: %zu sessions, %zu batches, %zu point, %zu range, "
      "%zu aggregate",
      up.session_ms.size(), up.batch_us.size(), q.point_us.size(),
      q.range_us.size(), q.aggregate_us.size());
}

// Span-recording cost per span, measured at run time.
double SpanCostNs() {
  constexpr int kSpans = 200'000;
  SpanRecorder recorder(true);
  const int64_t begin = NowNs();
  for (int i = 0; i < kSpans; ++i) recorder.End(recorder.Begin(kSpanBatch, i));
  return static_cast<double>(NowNs() - begin) / kSpans;
}

// Traced run: the per-layer table and the ingest ledger.
Status SetPerLayer(Run* run, Observed* seen, const StoreFixture& store,
                   const SinkReplay& sink) {
  MetricTable& m = run->metrics;
  const std::vector<UploadSession> persisted = PersistedSessions(*run, *seen);

  Result<EncoderReplay> encoder = ReplayEncoder(seen->raw);
  if (!encoder.ok()) return encoder.status();
  const double samples = static_cast<double>(encoder->samples);
  m.Set("encoder.table_build_ns_per_sample",
        encoder->table_build_s * 1e9 / samples, "ns");
  m.Set("encoder.encode_ns_per_sample", encoder->encode_s * 1e9 / samples,
        "ns");

  Result<IngestReplay> ingest = ReplayIngestLayers(seen->histories, persisted);
  if (!ingest.ok()) return ingest.status();
  const double sessions = static_cast<double>(ingest->sessions);
  const double symbols = static_cast<double>(ingest->symbols);
  m.Set("wire.decode_ns_per_frame",
        ingest->decode_s * 1e9 / static_cast<double>(ingest->frames), "ns");
  m.Set("wire.bytes_per_symbol",
        static_cast<double>(ingest->wire_bytes) / symbols, "B");
  m.Set("session.ns_per_symbol", ingest->session_symbols_s * 1e9 / symbols,
        "ns");
  m.Set("session.handshake_us_per_meter",
        ingest->session_handshake_s * 1e6 / sessions, "us");
  m.Set("codec.pack_ns_per_symbol", ingest->pack_s * 1e9 / symbols, "ns");

  const double meters = static_cast<double>(sink.meters);
  m.Set("archive_sink.persist_us_per_meter", sink.persist_s * 1e6 / meters,
        "us");
  m.Set("archive_sink.fsyncs_per_meter",
        static_cast<double>(sink.counts.fsync + sink.counts.fdatasync) /
            meters,
        "count");
  m.Set("archive_sink.renames_per_meter",
        static_cast<double>(sink.counts.rename) / meters, "count");
  m.Set("archive_sink.files_per_meter",
        static_cast<double>(sink.counts.create) / meters, "count");
  m.Set("archive_sink.bytes_per_symbol",
        static_cast<double>(sink.archive_bytes) /
            static_cast<double>(sink.symbols),
        "B");
  m.Set("archive_sink.finalize_ms", sink.finalize_s * 1e3, "ms");

  Result<UnpackReplay> unpack = ReplayUnpack(store.dir);
  if (!unpack.ok()) return unpack.status();
  m.Set("codec.unpack_ns_per_symbol",
        unpack->unpack_s * 1e9 / static_cast<double>(unpack->symbols), "ns");

  const double ingest_sessions = static_cast<double>(seen->ingest_sessions);
  m.Set("ingest_server.cpu_us_per_meter",
        seen->ingest_cpu_s * 1e6 / ingest_sessions, "us");
  m.Set("ingest_server.fsyncs_per_meter",
        static_cast<double>(seen->ingest_counts.fsync) / ingest_sessions,
        "count");

  m.Set("archive_store.segments_written",
        static_cast<double>(store.report.segments_written), "count");
  m.Set("archive_store.bytes_per_symbol",
        static_cast<double>(store.report.segment_bytes) /
            static_cast<double>(store.symbols),
        "B");

  LiveWrites live{&seen->acks, &seen->histories, &seen->sessions,
                  run->Dir("replay_current")};
  const bool is_live = run->shape.writer_rate > 0;
  Result<QueryReplay> queries =
      ReplayQueries(store.dir, seen->archive, seen->queries, /*all=*/true,
                    is_live ? &live : nullptr);
  if (!queries.ok()) return queries.status();
  if (queries->mismatches > 0) {
    run->Fail(std::to_string(queries->mismatches) +
              " served answers differ from direct ArchiveStore calls");
  }
  const double points = static_cast<double>(queries->points);
  const double ranges = static_cast<double>(queries->ranges);
  const double aggregates = static_cast<double>(queries->aggregates);
  m.Set("archive_store.latest_us", queries->latest_s * 1e6 / points, "us");
  m.Set("archive_store.refreshes_per_lookup",
        static_cast<double>(queries->refreshes) / points, "count");
  m.Set("archive_store.scan_us", queries->scan_s * 1e6 / ranges, "us");
  m.Set("archive_store.segments_per_scan",
        static_cast<double>(queries->scan_segments) / ranges, "count");
  m.Set("archive_store.aggregate_us", queries->aggregate_s * 1e6 / aggregates,
        "us");
  m.Set("archive_store.scanned_partitions_per_aggregate",
        static_cast<double>(queries->scanned_partitions) / aggregates,
        "count");
  m.Set("archive_store.rollup_partitions_per_aggregate",
        static_cast<double>(queries->rollup_partitions) / aggregates,
        "count");

  const QueryResult& q = seen->queries;
  const double served_queries =
      static_cast<double>(q.point_us.size() + q.range_us.size() +
                          q.aggregate_us.size());
  double served_us = 0;
  for (const auto* list : {&q.point_us, &q.range_us, &q.aggregate_us}) {
    for (double us : *list) served_us += us;
  }
  const double direct_us =
      (queries->latest_s + queries->scan_s + queries->aggregate_s) * 1e6;
  m.Set("query_server.cpu_us_per_query",
        seen->query_cpu_s * 1e6 / served_queries, "us");
  m.Set("query_server.overhead_us", (served_us - direct_us) / served_queries,
        "us");

  const UploadResult& up = seen->upload;
  m.Set("loadgen.cpu_us_per_session",
        up.client_cpu_s * 1e6 /
            static_cast<double>(up.sessions_ok + up.sessions_failed),
        "us");
  m.Set("loadgen.cpu_us_per_query",
        q.client_cpu_s * 1e6 / static_cast<double>(q.attempted), "us");
  // How late the generator issued work: the open-loop writer's sessions
  // against their schedule, or each closed-loop session against the
  // previous one's ack.
  std::vector<double> lateness =
      is_live ? seen->writer.lateness_ms : up.lateness_ms;
  m.Set("loadgen.lateness_ms_p99", Percentile(&lateness, 99), "ms");

  // The ledger: where a session's client-observed time goes. Every row
  // but the last is measured (client self time from the spans, the
  // layers from the single-threaded replay of the same sessions); the
  // socket-wait row is what remains — kernel, loopback, epoll loop,
  // queueing behind other connections.
  std::vector<int64_t> self(kSpanNameCount, 0);
  for (const std::vector<Span>& recorder : up.spans) {
    const std::vector<int64_t> part = SelfTimeByName(recorder);
    for (size_t i = 0; i < part.size(); ++i) self[i] += part[i];
  }
  std::vector<std::vector<Span>> all = up.spans;
  all.insert(all.end(), seen->writer.spans.begin(), seen->writer.spans.end());
  all.insert(all.end(), q.spans.begin(), q.spans.end());
  uint64_t spans = 0;
  for (const std::vector<Span>& recorder : all) spans += recorder.size();
  double session_ms_sum = 0;
  for (double ms : up.session_ms) session_ms_sum += ms;
  const double total_us =
      session_ms_sum * 1e3 / static_cast<double>(up.session_ms.size());
  const double loadgen_us = static_cast<double>(self[kSpanSession]) * 1e-3 /
                            static_cast<double>(up.sessions_ok);
  const double wire_us = ingest->decode_s * 1e6 / sessions;
  const double session_us =
      (ingest->session_symbols_s + ingest->session_handshake_s) * 1e6 /
      sessions;
  const double pack_us = ingest->pack_s * 1e6 / sessions;
  const double sink_us = sink.persist_s * 1e6 / meters - pack_us;
  const double wait_us =
      total_us - loadgen_us - wire_us - session_us - pack_us - sink_us;
  m.Set("ledger.total_us_per_session", total_us, "us");
  m.Set("ledger.loadgen_us_per_session", loadgen_us, "us");
  m.Set("ledger.wire_us_per_session", wire_us, "us");
  m.Set("ledger.session_us_per_session", session_us, "us");
  m.Set("ledger.codec_pack_us_per_session", pack_us, "us");
  m.Set("ledger.archive_sink_us_per_session", sink_us, "us");
  m.Set("ledger.socket_wait_us_per_session", wait_us, "us");
  m.Set("ingest_server.wait_us_per_session", wait_us, "us");
  Log("pipebench: ledger (mean per session, %zu sessions):",
      up.session_ms.size());
  const std::pair<const char*, double> rows[] = {
      {"loadgen (client self time)", loadgen_us},
      {"wire (DecodeFrameView)", wire_us},
      {"session (Session::OnWireFrame)", session_us},
      {"codec (PackSymbolicSeriesFramed)", pack_us},
      {"archive_sink (Persist minus pack)", sink_us},
      {"socket wait (remainder)", wait_us}};
  double sum = 0;
  for (const auto& [row, us] : rows) {
    Log("  %-36s %12.2f us  %6.2f%%", row, us, 100 * us / total_us);
    sum += us;
  }
  Log("  %-36s %12.2f us  (client-observed session: %.2f us)", "sum", sum,
      total_us);
  // Per connection, sessions run back to back: the rows times the sessions
  // each connection carried make up the upload rounds' time.
  Log("  x %zu sessions / %zu connections = %.3f s; the rounds took %.3f s",
      up.session_ms.size(), kUploadConnections,
      sum * 1e-6 * static_cast<double>(up.session_ms.size()) /
          static_cast<double>(kUploadConnections),
      up.wall_s);

  double busy_ns = session_ms_sum * 1e6;
  for (double ms : seen->writer.session_ms) busy_ns += ms * 1e6;
  for (const auto* list : {&q.point_us, &q.range_us, &q.aggregate_us}) {
    for (double us : *list) busy_ns += us * 1e3;
  }
  m.Set("trace.overhead_pct",
        100.0 * static_cast<double>(spans) * SpanCostNs() / busy_ns, "%");

  const std::string trace_dir =
      fs::path(run->args.work).parent_path().parent_path().string() +
      "/traces";
  fs::create_directories(trace_dir);
  // One file per workload, overwritten by its next traced run.
  const std::string trace_path =
      trace_dir + "/" + run->args.workload + ".csv";
  if (WriteSpans(trace_path, all)) {
    Log("pipebench: %" PRIu64 " spans -> %s", spans, trace_path.c_str());
  }
  return Status::Ok();
}

Status Execute(Run* run) {
  Observed seen;

  // Phase 1: sensor-side encode (timed inside GenerateAndEncode).
  Result<std::vector<History>> histories = GenerateAndEncode(
      run->shape.fleet, &seen.encode, run->args.trace ? &seen.raw : nullptr);
  if (!histories.ok()) return histories.status();
  seen.histories = std::move(histories.value());
  Log("pipebench: encoded %zu histories, %" PRIu64 " samples, %.3g/s",
      seen.histories.size(), seen.encode.samples,
      TrimmedMean(seen.encode.chunk_rates));
  const size_t count = seen.histories.size();
  for (size_t copy = 0; copy < run->shape.copies; ++copy) {
    for (size_t h = 0; h < count; ++h) {
      std::string meter = run->shape.prefix + std::to_string(copy * count + h);
      seen.sessions.push_back(
          MakeSession(std::move(meter), static_cast<uint32_t>(h)));
    }
  }

  // Phase 2: store builds, upload rounds, set-up probes and queries.
  Result<StoreFixture> store = PrepareStore(run);
  if (!store.ok()) return store.status();
  SMETER_RETURN_IF_ERROR(RunBlocks(run, &*store, &seen));
  run->metrics.Set("setup_s", Median(seen.setup_s), "s");

  const uint64_t sessions_failed =
      seen.upload.sessions_failed + seen.writer.sessions_failed;
  run->attempted += seen.upload.sessions_ok + seen.writer.sessions_ok +
                    sessions_failed + seen.queries.attempted;
  run->failed += sessions_failed + seen.queries.failed;
  if (sessions_failed > 0) {
    run->Fail(std::to_string(sessions_failed) +
              " sessions did not end in GOODBYE_ACK(ok)");
  }
  if (seen.queries.failed > 0) {
    run->Fail(std::to_string(seen.queries.failed) + " queries failed");
  }
  if (seen.queries.histogram_mismatches > 0) {
    run->Fail(std::to_string(seen.queries.histogram_mismatches) +
              " aggregate histograms do not sum to their windows");
  }

  // Gate: the drained archive equals an in-process ArchiveSink replay.
  Log("pipebench: checking the drained archive");
  const std::vector<UploadSession> persisted = PersistedSessions(*run, seen);
  const std::string expected = run->Dir("expected_archive");
  Result<SinkReplay> sink =
      ReplayIntoSink(expected, seen.histories, persisted);
  if (!sink.ok()) return sink.status();
  if (Status same = CompareTrees(expected, seen.archive); !same.ok()) {
    run->Fail("drained ingestd archive differs from the ArchiveSink replay: " +
              same.message());
  }

  SetEndToEnd(run, &seen);
  if (run->args.trace) {
    SMETER_RETURN_IF_ERROR(SetPerLayer(run, &seen, *store, *sink));
  } else {
    // Gate: sampled served answers equal direct ArchiveStore calls.
    Result<QueryReplay> check = ReplayQueries(store->dir, seen.archive,
                                              seen.queries, false, nullptr);
    if (!check.ok()) return check.status();
    Log("pipebench: %" PRIu64 " sampled answers checked against ArchiveStore",
        check->checked);
    if (check->mismatches > 0 || check->checked == 0) {
      run->Fail(std::to_string(check->mismatches) + " of " +
                std::to_string(check->checked) +
                " sampled answers differ from direct ArchiveStore calls");
    }
    for (const std::string& error : check->errors) Log("  %s", error.c_str());
  }
  return Status::Ok();
}

void StopAllDaemons(int) {
  for (Daemon* daemon : g_live_daemons) {
    if (daemon->pid > 0) ::kill(daemon->pid, SIGKILL);
  }
  _exit(3);
}

int Main(int argc, char** argv) {
  Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    Log("pipebench: %s", args.status().message().c_str());
    return 2;
  }
  Run run;
  run.args = *args;
  Result<WorkloadShape> shape = ShapeFor(run.args);
  if (!shape.ok()) {
    Log("pipebench: %s", shape.status().message().c_str());
    return 2;
  }
  run.shape = *shape;
  if (Result<SyscallCounts> shim = ReadSyscallCounts(); !shim.ok()) {
    Log("pipebench: %s", shim.status().message().c_str());
    return 2;
  }
  fs::remove_all(run.args.work);
  // On the checkout's own disk fsync and metadata costs swamp every
  // timing (see README.md), so a run without its tmpfs is refused.
  if (!MountPrivateTmpfs(run.args.work)) {
    Log("pipebench: cannot mount a private tmpfs at %s (%s); refusing to "
        "measure on the checkout's disk",
        run.args.work.c_str(), std::strerror(errno));
    return 2;
  }
  Log("pipebench: work files on a private tmpfs at %s", run.args.work.c_str());
  Log("pipebench: %s", PinCpus().c_str());
  signal(SIGINT, StopAllDaemons);
  signal(SIGTERM, StopAllDaemons);

  Status status = Execute(&run);
  // Frees the tmpfs's memory now; the mount point itself stays busy until
  // the namespace ends.
  std::error_code ignored;
  fs::remove_all(run.args.work, ignored);
  if (!status.ok()) {
    Log("pipebench: run failed: %s", status.message().c_str());
    return 1;
  }
  Log("pipebench: %s seed %" PRIu64 " trace %d: correct=%s attempted=%" PRIu64
      " failed=%" PRIu64,
      run.args.workload.c_str(), run.args.seed, run.args.trace ? 1 : 0,
      run.correct ? "true" : "false", run.attempted, run.failed);
  run.metrics.PrintTable(stderr);

  // End-to-end metrics with tracing off, per-layer metrics with it on.
  static const char* const kEndToEnd[] = {
      "setup_s", "ingest_symbols_per_s", "session_p50_ms",
      "batch_ack_p50_us", "batch_ack_p99_us", "encode_samples_per_s",
      "store_build_s", "query_point_p50_us", "query_point_p99_us",
      "query_range_p50_us", "query_range_p99_us", "query_aggregate_p50_us",
      "queries_per_s", "server_peak_rss_mb"};
  const MetricTable result = run.metrics.Select(
      std::vector<std::string>(std::begin(kEndToEnd), std::end(kEndToEnd)),
      /*keep=*/!run.args.trace);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              run.correct ? "true" : "false", run.attempted, run.failed,
              result.Json().c_str());
  std::fflush(stdout);
  return run.correct ? 0 : 1;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) { return pipebench::Main(argc, argv); }
