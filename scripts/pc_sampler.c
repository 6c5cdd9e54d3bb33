// LD_PRELOAD program-counter sampler for scripts/profile_host.sh.
//
// Arms ITIMER_PROF at load time (1000 samples per CPU-second) and records
// the interrupted PC on every SIGPROF. At exit each PC is resolved to
// (loaded object, ELF virtual address) with dladdr1 and written to
// SAMPLE_DIR/samples.<pid>, one "path addr" line per sample, ready for
// addr2line. SAMPLE_DIR is fixed when the script compiles this file.
// Samples past the buffer are dropped.

#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef SAMPLE_DIR
#define SAMPLE_DIR "."
#endif

#define kHz 1000
#define kMaxSamples (1 << 22)
static uintptr_t samples[kMaxSamples];
static size_t n;    // slots claimed; may run past kMaxSamples
static pid_t owner; // a forked child inherits samples it did not take

static void OnProf(int sig, siginfo_t* si, void* ctx) {
  (void)sig, (void)si;
  const mcontext_t* mc = &((ucontext_t*)ctx)->uc_mcontext;
#if defined(__x86_64__)
  uintptr_t pc = (uintptr_t)mc->gregs[REG_RIP];
#elif defined(__aarch64__)
  uintptr_t pc = (uintptr_t)mc->pc;
#endif
  // SIGPROF lands on whichever thread is running, so claim a slot
  // atomically.
  size_t i = __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED);
  if (i < kMaxSamples) samples[i] = pc;
}

__attribute__((constructor)) static void Start(void) {
  owner = getpid();
  struct sigaction sa = {0};
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = {{0, 1000000 / kHz}, {0, 1000000 / kHz}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void Stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  if (getpid() != owner) return;
  size_t count = __atomic_load_n(&n, __ATOMIC_RELAXED);
  if (count > kMaxSamples) count = kMaxSamples;
  char path[4096], exe[4096];
  ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len > 0 ? len : 0] = '\0';
  snprintf(path, sizeof path, "%s/samples.%d", SAMPLE_DIR, (int)owner);
  FILE* f = fopen(path, "w");
  if (f == NULL) return;
  for (size_t i = 0; i < count; ++i) {
    // pc - l_addr is the ELF virtual address addr2line expects, for PIE
    // and non-PIE executables and shared objects alike.
    Dl_info info;
    struct link_map* lm = NULL;
    if (dladdr1((void*)samples[i], &info, (void**)&lm, RTLD_DL_LINKMAP) == 0 ||
        lm == NULL) {
      fprintf(f, "? 0x%lx\n", (unsigned long)samples[i]);
      continue;
    }
    fprintf(f, "%s 0x%lx\n", lm->l_name[0] != '\0' ? lm->l_name : exe,
            (unsigned long)(samples[i] - lm->l_addr));
  }
  fclose(f);
}
