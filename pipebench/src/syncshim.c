/* LD_PRELOAD shim loaded into every benchmark process (pipebench itself and
 * the smeter daemons it spawns). It counts the durability-relevant calls the
 * archive layers make:
 *
 *   fsync, fdatasync           counted and forwarded unchanged
 *   rename, renameat(2)        counted and forwarded unchanged
 *   open(64), openat(64)       counted and forwarded unchanged; opens with
 *                              O_CREAT are also counted as file creations
 *
 * In-process readers call pipebench_shim_counts(); child processes append
 * one line "pid fsync fdatasync rename open create" to the file named by
 * PIPEBENCH_SHIM_OUT when they exit. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <fcntl.h>
#include <stdarg.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/types.h>
#include <unistd.h>

enum { kFsync, kFdatasync, kRename, kOpen, kCreate, kCounters };

static atomic_ulong g_counts[kCounters];

static void Bump(int which) {
  atomic_fetch_add_explicit(&g_counts[which], 1, memory_order_relaxed);
}

static void* Next(const char* name) {
  void* fn = dlsym(RTLD_NEXT, name);
  if (fn == NULL) {
    fprintf(stderr, "pipebench shim: no libc symbol %s\n", name);
    abort();
  }
  return fn;
}

void pipebench_shim_counts(unsigned long out[5]) {
  for (int i = 0; i < kCounters; ++i) {
    out[i] = atomic_load_explicit(&g_counts[i], memory_order_relaxed);
  }
}

int fsync(int fd) {
  static int (*real)(int);
  Bump(kFsync);
  if (real == NULL) real = (int (*)(int))Next("fsync");
  return real(fd);
}

int fdatasync(int fd) {
  static int (*real)(int);
  Bump(kFdatasync);
  if (real == NULL) real = (int (*)(int))Next("fdatasync");
  return real(fd);
}

int rename(const char* from, const char* to) {
  static int (*real)(const char*, const char*);
  Bump(kRename);
  if (real == NULL) real = (int (*)(const char*, const char*))Next("rename");
  return real(from, to);
}

int renameat(int from_dir, const char* from, int to_dir, const char* to) {
  static int (*real)(int, const char*, int, const char*);
  Bump(kRename);
  if (real == NULL) {
    real = (int (*)(int, const char*, int, const char*))Next("renameat");
  }
  return real(from_dir, from, to_dir, to);
}

int renameat2(int from_dir, const char* from, int to_dir, const char* to,
              unsigned int flags) {
  static int (*real)(int, const char*, int, const char*, unsigned int);
  Bump(kRename);
  if (real == NULL) {
    real = (int (*)(int, const char*, int, const char*, unsigned int))Next(
        "renameat2");
  }
  return real(from_dir, from, to_dir, to, flags);
}

static mode_t ModeArg(int flags, va_list args) {
  return (flags & (O_CREAT | O_TMPFILE)) ? (mode_t)va_arg(args, int) : 0;
}

static void CountOpen(int flags) {
  Bump(kOpen);
  if (flags & O_CREAT) Bump(kCreate);
}

#define PIPEBENCH_OPEN(name)                                          \
  int name(const char* path, int flags, ...) {                        \
    static int (*real)(const char*, int, ...);                        \
    va_list args;                                                     \
    va_start(args, flags);                                            \
    mode_t mode = ModeArg(flags, args);                               \
    va_end(args);                                                     \
    CountOpen(flags);                                                 \
    if (real == NULL) real = (int (*)(const char*, int, ...))Next(#name); \
    return real(path, flags, mode);                                   \
  }

#define PIPEBENCH_OPENAT(name)                                             \
  int name(int dir, const char* path, int flags, ...) {                    \
    static int (*real)(int, const char*, int, ...);                        \
    va_list args;                                                          \
    va_start(args, flags);                                                 \
    mode_t mode = ModeArg(flags, args);                                    \
    va_end(args);                                                          \
    CountOpen(flags);                                                      \
    if (real == NULL) real = (int (*)(int, const char*, int, ...))Next(#name); \
    return real(dir, path, flags, mode);                                   \
  }

PIPEBENCH_OPEN(open)
PIPEBENCH_OPEN(open64)
PIPEBENCH_OPENAT(openat)
PIPEBENCH_OPENAT(openat64)

__attribute__((destructor)) static void WriteCounts(void) {
  const char* path = getenv("PIPEBENCH_SHIM_OUT");
  if (path == NULL || *path == '\0') return;
  unsigned long counts[kCounters];
  pipebench_shim_counts(counts);
  char line[160];
  int len = snprintf(line, sizeof(line), "%ld %lu %lu %lu %lu %lu\n",
                     (long)getpid(), counts[kFsync], counts[kFdatasync],
                     counts[kRename], counts[kOpen], counts[kCreate]);
  static int (*real_open)(const char*, int, ...);
  if (real_open == NULL) real_open = (int (*)(const char*, int, ...))Next("open");
  int fd = real_open(path, O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return;
  if (write(fd, line, (size_t)len) != len) {
    /* Best effort: a missing line shows up as a zero count upstream. */
  }
  close(fd);
}
