#!/usr/bin/env python3
"""Symbolise a hostprof.out sample file (see README.md).

    hostprof.py FILE                      self and inclusive tables
    hostprof.py FILE --tree ROOT          top-down call tree under ROOT
    hostprof.py FILE --annotate FUNC      per-instruction samples in FUNC
    hostprof.py A --diff B                A's and B's tables side by side, with deltas
    hostprof.py FILE --loads [N]          hottest 16-byte stack-slot loads in the top N self functions
    hostprof.py FILE --layers [--diff B]  samples per repo crate (the layer table)

ROOT and FUNC are substrings of demangled names (hashes stripped). Only the
binutils the image has are used: `nm` for the symbol table, `objdump` for
the annotation and the prologues. Frames outside the main executable (libc,
the vDSO) are named after their mapping. A leaf that has not set up its
frame pointer gets its caller back from the word the sampler read at the
stack pointer, when that word is a return address (see `recover_callers`).
"""
import argparse
import bisect
import collections
import os
import re
import subprocess
import sys


def load(path):
    """Returns (maps, stacks, tops): file mappings (lo, hi, offset, path,
    perms), leaf-first stacks, and each stack's word at the stack pointer
    (None in files from a sampler that did not record it: `S` lines)."""
    maps, stacks, tops = [], [], []
    for line in open(path):
        kind, _, rest = line.partition(" ")
        if kind == "M":
            f = rest.split()
            if len(f) >= 6:
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, int(f[2], 16), f[5], f[1]))
        elif kind in ("S", "T"):
            words = [int(a, 16) for a in rest.split()]
            tops.append(words.pop(0) if kind == "T" else None)
            stacks.append(words)
    return sorted(maps), stacks, tops


class Symbols:
    """Function symbols of one ELF file, by file-relative address."""

    def __init__(self, path):
        out = subprocess.run(["nm", "-C", "--defined-only", "-n", path],
                             capture_output=True, text=True).stdout
        self.addrs, self.names = [], []
        for line in out.splitlines():
            f = line.split(" ", 2)
            if len(f) == 3 and f[1] in "tTwW":
                self.addrs.append(int(f[0], 16))
                self.names.append(re.sub(r"::h[0-9a-f]{16}$", "", f[2]))
        # PIE executables are linked at 0 and mapped at base; ET_EXEC at
        # their link address. `readelf` tells which.
        hdr = subprocess.run(["readelf", "-h", path], capture_output=True, text=True).stdout
        self.pie = "DYN" in hdr

    def lookup(self, rel):
        i = bisect.bisect_right(self.addrs, rel) - 1
        return (self.names[i], self.addrs[i]) if i >= 0 else ("?", 0)


class Resolver:
    def __init__(self, maps, exe):
        self.maps, self.exe, self.syms = maps, exe, Symbols(exe)
        # The first segment of a PIE has offset 0 and link address 0, so
        # where it is mapped is what to subtract from a sampled address.
        los = [lo for lo, _, off, path, _ in maps if path == exe and off == 0]
        self.base = los[0] if los and self.syms.pie else 0
        self.cache = {}
        self.prologues = {}
        self.files = {}

    def mapping(self, addr):
        return next((m for m in self.maps if m[0] <= addr < m[1]), None)

    def frameless(self, pc):
        """Whether the frame walk from a leaf at pc starts at its caller's
        frame: pc is in a library (built without frame pointers), or before
        its function's `mov %rsp,%rbp` (none at all, or shrink-wrapped past
        the code that runs first)."""
        m = self.mapping(pc)
        if m is None or m[3] != self.exe:
            return True
        start = self.syms.lookup(pc - self.base)[1]
        if start not in self.prologues:
            movs = [a for a, insn in disassemble(self, start) if re.match(r"mov\s+%rsp,%rbp$", insn)]
            self.prologues[start] = movs[0] if movs else None
        mov = self.prologues[start]
        return mov is None or pc - self.base <= mov

    def returns_to(self, addr):
        """Whether addr is a return address: it lies in an executable file
        mapping and the bytes just before it decode as a `call`."""
        m = self.mapping(addr)
        if m is None or "x" not in m[4] or not m[3].startswith("/"):
            return False
        lo, _, off, path, _ = m
        at = addr - lo + off
        if at < 7:
            return False
        if path not in self.files:
            self.files[path] = open(path, "rb")
        f = self.files[path]
        f.seek(at - 7)
        code = f.read(7)
        return any(call_length(code[7 - n:]) == n for n in range(2, 8))

    def name(self, addr, leaf):
        # A return address points after the call; step back into it.
        key = addr if leaf else addr - 1
        if key not in self.cache:
            self.cache[key] = self._name(key)
        return self.cache[key]

    def _name(self, addr):
        for lo, hi, _, path, _ in self.maps:
            if lo <= addr < hi:
                if path == self.exe:
                    return self.syms.lookup(addr - self.base)[0]
                return "[" + os.path.basename(path) + "]"
        return "[unmapped]"


def call_length(code):
    """len(code) when code is exactly one x86-64 `call`: `e8 rel32`, or
    `ff /2` (an optional REX prefix, ModRM, SIB and displacement) through a
    register or memory; else 0."""
    if len(code) == 5 and code[0] == 0xE8:
        return 5
    i = 1 if code and 0x40 <= code[0] <= 0x4F else 0
    if len(code) < i + 2 or code[i] != 0xFF or (code[i + 1] >> 3) & 7 != 2:
        return 0
    mod, rm = code[i + 1] >> 6, code[i + 1] & 7
    n = i + 2
    if mod != 3 and rm == 4:  # a SIB byte, whose base 5 under mod 0 means disp32
        if len(code) <= n:
            return 0
        n += 1 + (4 if mod == 0 and code[n] & 7 == 5 else 0)
    elif mod == 0 and rm == 5:  # rip-relative disp32
        n += 4
    n += {1: 1, 2: 4}.get(mod, 0)
    return n if n == len(code) else 0


def recover_callers(res, stacks, tops):
    """Puts back the caller a frameless leaf's walk skipped. Until a
    function runs `mov %rsp,%rbp` the frame pointer is still its caller's,
    so the walk's first return address is the caller's caller; the word at
    the stack pointer is the caller's return address when nothing has been
    pushed yet, which `returns_to` checks. Stacks from a sampler that
    recorded no such word, or whose word is not a return address, stay as
    they were."""
    out = []
    for stack, top in zip(stacks, tops):
        if (top and top not in stack[1:2] and res.returns_to(top)
                and res.frameless(stack[0])):
            stack = stack[:1] + [top] + stack[1:]
        out.append(stack)
    return out


def table(title, counts, total, top):
    print(f"\n{title} ({total} samples)")
    for name, n in counts.most_common(top):
        print(f"{100 * n / total:6.1f}%  {n:7d}  {name}")


def diff_table(title, a, ta, b, tb, top):
    """A's and B's shares and samples per name, the top by either share."""
    share = lambda counts, total, name: 100 * counts[name] / total
    names = sorted(set(a) | set(b), key=lambda n: -max(share(a, ta, n), share(b, tb, n)))
    print(f"\n{title} (A {ta} samples, B {tb} samples)")
    print(f"{'A':>7} {'B':>7} {'delta':>7}  {'A':>7} {'B':>7} {'delta':>7}  name")
    for name in names[:top]:
        sa, sb = share(a, ta, name), share(b, tb, name)
        print(f"{sa:6.1f}% {sb:6.1f}% {sb - sa:+7.1f}  {a[name]:7d} {b[name]:7d} {b[name] - a[name]:+7d}  {name}")


def self_and_inclusive(named):
    """Leaf counts, and counts of every stack a function appears in."""
    inclusive = collections.Counter()
    for f in named:
        inclusive.update(set(f))
    return collections.Counter(f[0] for f in named), inclusive


def profile(path, exe):
    """Returns (resolver, raw stacks, named stacks) of one sample file."""
    maps, stacks, tops = load(path)
    if not stacks:
        sys.exit("no samples in " + path)
    exe = exe or next(m[3] for m in maps if m[3].startswith("/") and ".so" not in m[3])
    res = Resolver(maps, exe)
    stacks = recover_callers(res, stacks, tops)
    return res, stacks, [[res.name(a, i == 0) for i, a in enumerate(s)] for s in stacks]


# The repository's crates, as the first segment of a demangled path.
REPO_CRATES = {"sim", "hwsim", "guestos", "vmm", "dummynet", "checkpoint", "ckptstore", "cowstore",
               "clocksync", "emulab", "workloads", "tcd_bench", "tcd_benchmark"}
# The crate a demangled name belongs to: `ckptstore::hash::record_hash`,
# `<ckptstore::segment::Segment as core::cmp::PartialEq>::eq`.
CRATE = re.compile(r"<*([A-Za-z_][A-Za-z0-9_]*)::")


def layers(named):
    """Samples per layer: each stack is charged to its first frame, from the
    leaf up, whose path starts with a repo crate. Any other frame (`std`,
    `core`, `alloc`, `hashbrown`, a shared library) passes the sample to its
    caller; a stack with no repo frame, such as a libc leaf whose frame walk
    ends there, is `unattributed`."""
    counts = collections.Counter()
    for frames in named:
        crates = (m.group(1) for m in map(CRATE.match, frames) if m)
        counts[next((c for c in crates if c in REPO_CRATES), "unattributed")] += 1
    return counts


def tree(named, root, total, min_pct):
    """Top-down tree of every stack below its outermost frame matching root."""
    node = lambda: {"n": 0, "kids": collections.defaultdict(node)}
    top = node()
    for frames in named:  # leaf first
        hits = [i for i, f in enumerate(frames) if root in f]
        if not hits:
            continue
        cur = top
        for f in reversed(frames[: hits[-1] + 1]):
            cur = cur["kids"][f]
            cur["n"] += 1

    def show(n, depth):
        for name, kid in sorted(n["kids"].items(), key=lambda kv: -kv[1]["n"]):
            if 100 * kid["n"] / total >= min_pct:
                print(f"{100 * kid['n'] / total:6.1f}%  {'  ' * depth}{name}")
                show(kid, depth + 1)

    show(top, 0)


def disassemble(res, start):
    """(address, instruction) of the function symbol starting at start."""
    i = res.syms.addrs.index(start)
    stop = res.syms.addrs[i + 1] if i + 1 < len(res.syms.addrs) else start + 4096
    dis = subprocess.run(
        ["objdump", "-d", "-C", "--no-show-raw-insn",
         f"--start-address={start:#x}", f"--stop-address={stop:#x}", res.exe],
        capture_output=True, text=True).stdout
    return [(int(m.group(1), 16), m.group(2))
            for m in (re.match(r"\s*([0-9a-f]+):\s+(.*)", line) for line in dis.splitlines()) if m]


def annotate(res, stacks, func, total):
    """Leaf samples per instruction of the function(s) matching func."""
    hits = collections.Counter(s[0] - res.base for s in stacks if func in res.name(s[0], True))
    if not hits:
        sys.exit(f"no leaf samples in a function matching {func!r}")
    for start in sorted({res.syms.lookup(a)[1] for a in hits}):
        print(f"\n{res.syms.names[res.syms.addrs.index(start)]}")
        for addr, insn in disassemble(res, start):
            n = hits.get(addr, 0)
            mark = f"{100 * n / total:5.1f}%" if n else "      "
            print(f"{mark}  {addr:x}:  {insn}")


# A 16-byte vector load whose source is a stack slot.
STACK_LOAD = re.compile(r"v?(movups|movupd|movdqu|movaps|movapd|movdqa|lddqu)\s+-?(0x[0-9a-f]+)?\(%r[bs]p\),%xmm")


def loads(res, stacks, named, top, total):
    """The hottest 16-byte loads from stack slots in the top self functions.

    A load that reads bytes stored just before in narrower pieces waits for
    them to reach the cache (a failed store forward), and the timer sample
    lands on it or, once it retires, on the instruction after it; so a load
    is charged its own samples and those of the next instruction, unless
    that one is a stack load itself. Each sample is counted once.
    """
    self_counts, _ = self_and_inclusive(named)
    hits = collections.Counter(s[0] - res.base for s in stacks)
    rows = []
    for name, _ in self_counts.most_common(top):
        for start in [a for a, n in zip(res.syms.addrs, res.syms.names) if n == name]:
            insns = disassemble(res, start)
            for i, (addr, insn) in enumerate(insns):
                if not STACK_LOAD.match(insn):
                    continue
                n = hits.get(addr, 0)
                if i + 1 < len(insns) and not STACK_LOAD.match(insns[i + 1][1]):
                    n += hits.get(insns[i + 1][0], 0)
                if n:
                    rows.append((n, name, addr, insn))
    print(f"\n16-byte stack-slot loads in the top {top} self functions ({total} samples)")
    for n, name, addr, insn in sorted(rows, key=lambda r: -r[0]):
        print(f"{100 * n / total:6.1f}%  {n:7d}  {addr:x}:  {insn:40s}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("file")
    ap.add_argument("--exe", help="the profiled executable (default: the first mapping that is not a shared library)")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--tree", metavar="ROOT")
    ap.add_argument("--min-pct", type=float, default=0.5)
    ap.add_argument("--annotate", metavar="FUNC")
    ap.add_argument("--diff", metavar="B", help="a second sample file (its own executable, from its mappings)")
    ap.add_argument("--loads", metavar="N", type=int, nargs="?", const=20,
                    help="the hottest 16-byte stack-slot loads in the top N (20) self functions")
    ap.add_argument("--layers", action="store_true",
                    help="samples per repo crate instead of per function (with --diff too)")
    args = ap.parse_args()
    if args.loads is not None and args.loads < 1:
        ap.error("--loads N needs N >= 1")

    res, stacks, named = profile(args.file, args.exe)
    total = len(stacks)
    if args.loads is not None:
        return loads(res, stacks, named, args.loads, total)
    if args.annotate:
        return annotate(res, stacks, args.annotate, total)
    if args.tree:
        return tree(named, args.tree, total, args.min_pct)
    views = lambda named: [("layers", layers(named))] if args.layers else \
        list(zip(("self", "inclusive"), self_and_inclusive(named)))
    if args.diff:
        _, b_stacks, b_named = profile(args.diff, None)
        for (title, a), (_, b) in zip(views(named), views(b_named)):
            diff_table(title, a, total, b, len(b_stacks), args.top)
        return
    for title, counts in views(named):
        table(title, counts, total, args.top)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # `hostprof.py ... | head` closed the pipe: nothing left to say.
        # Point stdout away so the interpreter's exit flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
