/* heapprof: an LD_PRELOAD heap-peak attributor for frame-pointer builds.
 *
 * The allocator entry points (malloc, calloc, realloc, free, memalign,
 * aligned_alloc, posix_memalign) are wrapped over glibc's `__libc_*`
 * definitions. Live bytes are counted with malloc_usable_size; every
 * allocation of 16 KiB or more keeps its frame-pointer stack in a table of
 * live blocks, and each time the live total passes a new peak by 256 KiB
 * that table is copied. At exit the copy is written in hostprof's format,
 * one `T` line per KiB of a block (`T 0 <caller pc> <return addresses...>`)
 * after a copy of /proc/self/maps, so `hostprof.py` reads a heap peak as it
 * reads a time profile: `--tree`, `--layers` and `--diff` give KiB where
 * they gave samples. A `P` line (ignored by hostprof.py) and a line on
 * stderr give the peak and how much of it the large blocks explain.
 * Output path: $HOSTPROF_OUT, default ./heapprof.out.
 *
 * Build with frame pointers (`-fno-omit-frame-pointer`) so the walk can
 * start in the wrapper.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <malloc.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define MIN_TRACKED (16u << 10)
#define PEAK_STEP (256u << 10)
#define MAX_DEPTH 32
#define SLOT_BITS 15 /* at most 32,768 live large blocks itemised */
#define SLOTS (1u << SLOT_BITS)
#define STACK_SPAN (8u << 20)

struct block {
    void *ptr;
    size_t size, depth;
    uintptr_t pc[MAX_DEPTH];
};

static struct block live[SLOTS];     /* open addressing, linear probing */
static struct block peak[SLOTS];     /* the live large blocks at the last peak */
static size_t n_peak;                /* blocks in `peak` */
static size_t untracked;             /* bytes of large blocks the table had no room for */
static size_t cur, marked;           /* live bytes; live bytes at the last copy */
static int lock, done;

static void acquire(void) { while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE)) {} }
static void release(void) { __atomic_clear(&lock, __ATOMIC_RELEASE); }

static size_t home(void *p) {
    return (size_t)(((uintptr_t)p >> 4) * 0x9E3779B97F4A7C15ull >> (64 - SLOT_BITS));
}

/* The stack above a wrapper's frame `fp`: its first entry is the return
 * address into the wrapper's caller. A frame pointer is believed only
 * while it stays aligned, rising and within the stack above the wrapper,
 * as in hostprof.c. */
static void walk(struct block *b, uintptr_t *fp) {
    uintptr_t lo = (uintptr_t)fp, hi = lo + STACK_SPAN;
    b->depth = 0;
    while (b->depth < MAX_DEPTH && (uintptr_t)fp >= lo && (uintptr_t)fp < hi
           && ((uintptr_t)fp & 7) == 0) {
        if (fp[1] < 4096) break;
        b->pc[b->depth++] = fp[1];
        if (fp[0] <= (uintptr_t)fp) break;
        lo = (uintptr_t)fp;
        fp = (uintptr_t *)fp[0];
    }
}

static void track(void *p, uintptr_t *fp) {
    if (!p || done) return;
    size_t size = malloc_usable_size(p);
    acquire();
    cur += size;
    if (size >= MIN_TRACKED) {
        size_t i = home(p), probes = 0;
        while (live[i].ptr && probes++ < SLOTS) i = (i + 1) & (SLOTS - 1);
        if (!live[i].ptr) {
            live[i].ptr = p;
            live[i].size = size;
            walk(&live[i], fp);
        } else {
            untracked += size;
        }
    }
    if (cur >= marked + PEAK_STEP) {
        n_peak = 0;
        for (size_t i = 0; i < SLOTS; i++)
            if (live[i].ptr) peak[n_peak++] = live[i];
        marked = cur;
    }
    release();
}

static void untrack(void *p) {
    if (!p || done) return;
    size_t size = malloc_usable_size(p);
    acquire();
    cur -= size;
    if (size >= MIN_TRACKED) {
        size_t i = home(p);
        while (live[i].ptr && live[i].ptr != p) i = (i + 1) & (SLOTS - 1);
        if (live[i].ptr) {
            /* Backward-shift deletion: move up every later entry of the
             * probe run whose home does not lie cyclically in (i, j]. */
            for (size_t j = (i + 1) & (SLOTS - 1); live[j].ptr; j = (j + 1) & (SLOTS - 1)) {
                size_t h = home(live[j].ptr);
                if (((j - h) & (SLOTS - 1)) >= ((j - i) & (SLOTS - 1))) {
                    live[i] = live[j];
                    i = j;
                }
            }
            live[i].ptr = NULL;
        }
    }
    release();
}

#define HERE ((uintptr_t *)__builtin_frame_address(0))

void *malloc(size_t n) { void *p = __libc_malloc(n); track(p, HERE); return p; }
void *calloc(size_t k, size_t n) { void *p = __libc_calloc(k, n); track(p, HERE); return p; }
void *memalign(size_t a, size_t n) { void *p = __libc_memalign(a, n); track(p, HERE); return p; }
void *aligned_alloc(size_t a, size_t n) { void *p = __libc_memalign(a, n); track(p, HERE); return p; }
void free(void *p) { untrack(p); __libc_free(p); }

void *realloc(void *old, size_t n) {
    untrack(old);
    void *p = __libc_realloc(old, n);
    /* A failed realloc leaves the old block live. */
    track(p ? p : (n ? old : NULL), HERE);
    return p;
}

int posix_memalign(void **out, size_t a, size_t n) {
    if (a < sizeof(void *) || (a & (a - 1))) return EINVAL;
    void *p = __libc_memalign(a, n);
    if (!p && n) return ENOMEM;
    track(p, HERE);
    *out = p;
    return 0;
}

__attribute__((destructor)) static void dump(void) {
    acquire();
    done = 1; /* stdio below allocates: stop counting */
    release();
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "heapprof.out", "w");
    if (!out) return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[1024];
    while (maps && fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    if (maps) fclose(maps);
    size_t itemised = 0;
    for (size_t i = 0; i < n_peak; i++) itemised += peak[i].size;
    fprintf(out, "D 0\nP %zu %zu %zu\n", marked, itemised, untracked);
    for (size_t i = 0; i < n_peak; i++) {
        for (size_t kib = 0; kib < peak[i].size >> 10; kib++) {
            fputs("T 0", out);
            for (size_t j = 0; j < peak[i].depth; j++) fprintf(out, " %lx", (unsigned long)peak[i].pc[j]);
            fputc('\n', out);
        }
    }
    fclose(out);
    fprintf(stderr, "heapprof: peak %zu KiB live; %zu KiB of it in %zu blocks of >= %u KiB, "
            "written to %s\n", marked >> 10, itemised >> 10, n_peak, MIN_TRACKED >> 10,
            path ? path : "heapprof.out");
}
