#!/usr/bin/env python3
"""Print the code size of the hot-path symbols in release binaries.

    symsize.py BINARY...    one row per symbol, one column per binary

Edits in `sim` or `checkpoint` can re-partition codegen units and grow
a hot function without touching it, so a change to either crate reports
these sizes for the parent's binary and its own (ROADMAP, the codegen
rule). The symbols:

    Scheduler::take         sim::event::Scheduler::take, every event's dequeue
    DelayNodeHost::handle   every shaped frame's entry point
    VmHost::handle          every VM host event's entry point

Sizes are `nm -C -S`'s, in hex bytes; `-` marks a symbol the binary
lacks, and a symbol emitted more than once shows each copy's size.
"""
import subprocess
import sys

SYMBOLS = [
    ("Scheduler::take", "sim::event::Scheduler::take"),
    (
        "DelayNodeHost::handle",
        "<checkpoint::delaynode::DelayNodeHost as sim::engine::Component>::handle",
    ),
    ("VmHost::handle", "<vmm::host::VmHost as sim::engine::Component>::handle"),
]


def sizes(binary):
    """Demangled symbol name -> list of sizes, for the names in SYMBOLS."""
    run = subprocess.run(["nm", "-C", "-S", binary], capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"symsize.py: nm failed on {binary}: {run.stderr.strip()}")
    out = run.stdout
    wanted = {name for _, name in SYMBOLS}
    found = {}
    for line in out.splitlines():
        # address, size, type, name (the name may contain spaces).
        parts = line.split(None, 3)
        if len(parts) == 4 and parts[3] in wanted:
            found.setdefault(parts[3], []).append(int(parts[1], 16))
    return found


def main():
    binaries = sys.argv[1:]
    if not binaries or any(b.startswith("-") for b in binaries):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    tables = [sizes(b) for b in binaries]
    width = max(len(label) for label, _ in SYMBOLS)
    print(" ".join([f"{'symbol':<{width}}"] + binaries))
    for label, name in SYMBOLS:
        cells = [",".join(hex(s) for s in t.get(name, [])) or "-" for t in tables]
        print(" ".join([f"{label:<{width}}"] + cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
