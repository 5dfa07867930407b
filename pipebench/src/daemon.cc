#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common.h"
#include "load.h"
#include "net/query_client.h"
#include "net/wire.h"

namespace pipebench {

using smeter::InternalError;
using smeter::Result;
using smeter::Status;

namespace {

constexpr int64_t kListenTimeoutMs = 20'000;
constexpr char kShimOutVar[] = "PIPEBENCH_SHIM_OUT";

// The first four usable CPUs, once PinCpus found at least four.
std::vector<int> g_cpus;

cpu_set_t CpuSet(std::initializer_list<int> indexes) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int index : indexes) CPU_SET(g_cpus[static_cast<size_t>(index)], &set);
  return set;
}

}  // namespace

std::string PinCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return "CPU affinity unavailable; nothing pinned";
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 4) {
    return std::to_string(cpus.size()) + " CPUs; nothing pinned";
  }
  g_cpus.assign(cpus.begin(), cpus.begin() + 4);
  const cpu_set_t client = CpuSet({2, 3});
  if (::sched_setaffinity(0, sizeof(client), &client) != 0) {
    g_cpus.clear();
    return "sched_setaffinity failed; nothing pinned";
  }
  return "load generator on CPUs " + std::to_string(g_cpus[2]) + "," +
         std::to_string(g_cpus[3]) + "; ingestd on " +
         std::to_string(g_cpus[0]) + "," + std::to_string(g_cpus[1]) +
         "; queryd on " + std::to_string(g_cpus[0]) + ", live ingestd on " +
         std::to_string(g_cpus[1]);
}

KeepAwake::KeepAwake() {
  for (int cpu : g_cpus) {
    threads_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof(one), &one);
      sched_param param{};
      ::sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_ = true;
  for (std::thread& thread : threads_) thread.join();
}

Result<Daemon> SpawnDaemon(const std::string& smeter,
                           std::vector<std::string> args, Placement placement,
                           const std::string& log_path,
                           const std::string& counts_path) {
  args.insert(args.begin(), smeter);
  args.push_back("--listen");
  args.push_back("127.0.0.1:0");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  // The parent's environment (LD_PRELOAD of the shim included) with this
  // child's own counts file.
  const std::string counts_var = std::string(kShimOutVar) + "=" + counts_path;
  std::vector<std::string> env_strings;
  for (char** var = environ; *var != nullptr; ++var) {
    if (std::strncmp(*var, kShimOutVar, std::strlen(kShimOutVar)) != 0 ||
        (*var)[std::strlen(kShimOutVar)] != '=') {
      env_strings.emplace_back(*var);
    }
  }
  env_strings.push_back(counts_var);
  std::vector<char*> envp;
  for (std::string& var : env_strings) envp.push_back(var.data());
  envp.push_back(nullptr);

  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return InternalError(std::string("pipe2: ") + std::strerror(errno));
  }
  cpu_set_t cpus;
  if (!g_cpus.empty()) {
    cpus = placement == Placement::kIngest ? CpuSet({0, 1})
           : placement == Placement::kQuery ? CpuSet({0})
                                            : CpuSet({1});
  }
  Daemon daemon;
  const pid_t pid = fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return InternalError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    if (!g_cpus.empty()) ::sched_setaffinity(0, sizeof(cpus), &cpus);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  ::close(pipe_fds[1]);
  daemon.pid = pid;
  daemon.stdout_fd = pipe_fds[0];

  std::string line;
  const int64_t deadline = NowNs() + kListenTimeoutMs * 1'000'000;
  while (line.find('\n') == std::string::npos) {
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    pollfd pfd{daemon.stdout_fd, POLLIN, 0};
    if (left_ms <= 0 || ::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) {
      KillDaemon(&daemon);
      return InternalError(args[1] + ": no 'listening on' line within " +
                           std::to_string(kListenTimeoutMs) + " ms (see " +
                           log_path + ")");
    }
    char chunk[256];
    const ssize_t n = ::read(daemon.stdout_fd, chunk, sizeof(chunk));
    if (n <= 0) {
      KillDaemon(&daemon);
      return InternalError(args[1] + " exited before listening (see " +
                           log_path + ")");
    }
    line.append(chunk, static_cast<size_t>(n));
  }
  const std::string marker = "listening on ";
  const size_t at = line.find(marker);
  if (at == std::string::npos) {
    KillDaemon(&daemon);
    return InternalError(args[1] + ": unexpected first line: " + line);
  }
  daemon.port = static_cast<uint16_t>(
      std::strtoul(line.c_str() + at + marker.size(), nullptr, 10));
  if (daemon.port == 0) {
    KillDaemon(&daemon);
    return InternalError(args[1] + ": no port in: " + line);
  }
  return daemon;
}

DaemonExit StopDaemon(Daemon* daemon) {
  DaemonExit exit;
  if (daemon->pid <= 0) return exit;
  ::kill(daemon->pid, SIGTERM);
  // Drain stdout (the counters dump) so the child never blocks on a full
  // pipe while exiting.
  char chunk[4096];
  while (::read(daemon->stdout_fd, chunk, sizeof(chunk)) > 0) {
  }
  int status = 0;
  rusage usage{};
  while (::wait4(daemon->pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  ::close(daemon->stdout_fd);
  exit.clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  exit.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
                static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  exit.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
               static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  exit.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  daemon->pid = -1;
  daemon->stdout_fd = -1;
  return exit;
}

void KillDaemon(Daemon* daemon) {
  if (daemon->pid > 0) {
    ::kill(daemon->pid, SIGKILL);
    int status = 0;
    while (::waitpid(daemon->pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (daemon->stdout_fd >= 0) ::close(daemon->stdout_fd);
  daemon->pid = -1;
  daemon->stdout_fd = -1;
}

Status IngestHandshake(uint16_t port) {
  FrameConn conn;
  SMETER_RETURN_IF_ERROR(conn.Connect(port));
  smeter::net::HelloPayload hello;
  hello.meter_id = "setup_probe";
  SMETER_RETURN_IF_ERROR(
      conn.Send(smeter::net::EncodeFrame(smeter::net::MakeHello(hello))));
  return conn.ExpectAck(smeter::net::FrameType::kHelloAck);
}

Status QueryHandshake(uint16_t port) {
  smeter::net::QueryClientOptions options;
  options.port = port;
  return smeter::net::QueryClient::Connect(std::move(options)).status();
}

}  // namespace pipebench
