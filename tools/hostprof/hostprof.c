/* hostprof: an LD_PRELOAD stack sampler for frame-pointer builds.
 *
 * A clock read costs about as much as an engine event on the machines this
 * repository is measured on, so host time inside `run_for` is attributed
 * from outside the program: ITIMER_PROF delivers SIGPROF every 4 ms of CPU
 * time (250 Hz), the handler walks the frame-pointer chain of the main
 * thread into a preallocated buffer, and at exit the buffer is written out
 * after a copy of /proc/self/maps. Each sample also keeps the word at the
 * stack pointer: in a leaf that has not set up its frame (libc, or a
 * function whose prologue LLVM shrink-wrapped past its loop) that word is
 * the return address into the caller the frame walk skips, and
 * `hostprof.py` puts it back when it decodes as one. `hostprof.py` turns
 * the file into tables. Output path: $HOSTPROF_OUT, default ./hostprof.out.
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 48
#define MAX_WORDS (1u << 24) /* 128 MiB of address space, touched as used */
#define STACK_SPAN (8u << 20)

static uintptr_t *buf;    /* records: depth, the word at rsp, then `depth` addresses */
static size_t used;       /* words written */
static long dropped;      /* samples that did not fit */
static pid_t main_tid;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    if (syscall(SYS_gettid) != main_tid) return;
    if (used + MAX_DEPTH + 2 > MAX_WORDS) { dropped++; return; }
    ucontext_t *uc = ctx;
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    /* The word on top of the interrupted stack (always mapped); an rsp
     * that is not 8-byte aligned, which compiled code never leaves,
     * records 0. */
    uintptr_t top = (sp & 7) == 0 ? *(uintptr_t *)sp : 0;
    uintptr_t *rec = buf + used + 1, depth = 0;
    rec[++depth] = uc->uc_mcontext.gregs[REG_RIP];
    /* A frame pointer is believed only while it stays inside the stack
     * above the interrupted frame, aligned and strictly rising: code
     * built without frame pointers (libc) ends the walk, never faults. */
    uintptr_t lo = sp, hi = sp + STACK_SPAN;
    while (depth < MAX_DEPTH && fp > lo && fp < hi && (fp & 7) == 0) {
        uintptr_t ret = ((uintptr_t *)fp)[1];
        if (ret < 4096) break;
        rec[++depth] = ret;
        lo = fp;
        fp = ((uintptr_t *)fp)[0];
    }
    rec[0] = top;
    buf[used] = depth;
    used += depth + 2;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.out", "w");
    if (!out) return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[1024];
    while (maps && fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    if (maps) fclose(maps);
    fprintf(out, "D %ld\n", dropped);
    /* T <word at rsp> <leaf pc> <return addresses...> */
    for (size_t i = 0; i < used; i += buf[i] + 2) {
        fputc('T', out);
        for (uintptr_t j = 1; j <= buf[i] + 1; j++) fprintf(out, " %lx", (unsigned long)buf[i + j]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    buf = mmap(NULL, MAX_WORDS * sizeof *buf, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) return;
    main_tid = syscall(SYS_gettid);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    atexit(dump);
    struct itimerval every = {{0, 4000}, {0, 4000}};
    setitimer(ITIMER_PROF, &every, NULL);
}
