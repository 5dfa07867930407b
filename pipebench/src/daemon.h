// Child-process control for the daemons under test: spawn `smeter
// ingestd|queryd` on 127.0.0.1:0, read the port from its "listening on"
// line, drain it with SIGTERM and collect its CPU and peak RSS from wait4.

#ifndef PIPEBENCH_DAEMON_H_
#define PIPEBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace pipebench {

struct Daemon {
  pid_t pid = -1;
  int stdout_fd = -1;
  uint16_t port = 0;
};

struct DaemonExit {
  bool clean = false;  // exited 0 after the drain
  double user_s = 0;
  double sys_s = 0;
  double maxrss_mb = 0;
};

// Where a daemon runs. With four or more CPUs the load generator (this
// process, from PinCpus on) gets the third and fourth, an upload ingestd
// the first two, queryd the first and the live ingestd beside it the
// second — so the kernel cannot place a daemon next to a client, or the
// live writer's ingestd behind queryd's long aggregates, differently from
// one run to the next. With fewer CPUs nothing is pinned.
enum class Placement { kIngest, kQuery, kLiveIngest };

// Pins this process to the load generator's CPUs; returns a description
// for the log.
std::string PinCpus();

// While alive, keeps every pinned CPU busy with a SCHED_IDLE spinning
// thread, so an idle CPU never halts: waking a halted virtual CPU goes
// through the hypervisor and its cost varies with the host's load, which
// made closed-loop round trips vary run to run. Any real thread preempts
// a SCHED_IDLE one at once. No-op when nothing is pinned.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Spawns `smeter <args...> --listen 127.0.0.1:0` with stderr sent to
// `log_path` and the syscall shim's exit counts appended to `counts_path`,
// and waits (up to 20 s) for the "listening on <port>" line.
smeter::Result<Daemon> SpawnDaemon(const std::string& smeter,
                                   std::vector<std::string> args,
                                   Placement placement,
                                   const std::string& log_path,
                                   const std::string& counts_path);

// SIGTERM, read the rest of stdout (the counters dump) and reap the child.
DaemonExit StopDaemon(Daemon* daemon);

// Kills and reaps a daemon on an error path.
void KillDaemon(Daemon* daemon);

// The daemons' first requests, for set-up timing: a HELLO answered by
// HELLO_ACK(ok) on ingestd, and the query handshake on queryd.
smeter::Status IngestHandshake(uint16_t port);
smeter::Status QueryHandshake(uint16_t port);

}  // namespace pipebench

#endif  // PIPEBENCH_DAEMON_H_
