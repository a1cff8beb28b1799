#!/usr/bin/env python3
"""Print the public functions nothing references.

    unused.py       one name per line, sorted

A name is printed when it is defined as `pub fn <name>` in a `.rs` file
under `crates/*/src` and appears as a whole word on no other line of any
`.rs` file under `crates/`, `src/`, `tests/`, `examples/` or
`benchmark/src`. A line that defines `pub fn <name>` does not count as a
reference to that name; every other line does, comments included. The
check is textual: a name shared with a used method of another type counts
as used. Run from anywhere inside the repository.
"""
import pathlib
import re
import subprocess
import sys

DEF = re.compile(r"\bpub fn ([A-Za-z_][A-Za-z0-9_]*)")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
SEARCHED = ["crates", "src", "tests", "examples", "benchmark/src"]


def main():
    top = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True, text=True
    ).stdout.strip()
    root = pathlib.Path(top)
    defined = set()
    for f in root.glob("crates/*/src/**/*.rs"):
        defined.update(DEF.findall(f.read_text()))
    referenced = set()
    for d in SEARCHED:
        for f in (root / d).glob("**/*.rs"):
            for line in f.read_text().splitlines():
                referenced.update(set(WORD.findall(line)) - set(DEF.findall(line)))
    for name in sorted(defined - referenced):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
