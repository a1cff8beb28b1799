#!/usr/bin/env python3
"""Count non-test Rust lines per crate.

    loc.py          the working tree's table
    loc.py REV      REV's table beside the working tree's, with the net per crate

A line counts when it is not blank and lies in a `.rs` file under
`crates/<crate>/src`, before the file's first `#[cfg(test)]`. Integration
tests, benches and examples live outside `src/` and are not counted.
Run from anywhere inside the repository.
"""
import argparse
import pathlib
import subprocess
import sys


def count(text):
    """Non-blank lines before the first `#[cfg(test)]`."""
    n = 0
    for line in text.splitlines():
        s = line.strip()
        if s == "#[cfg(test)]":
            break
        if s:
            n += 1
    return n


def crate_of(path):
    """`crates/<crate>/src/...` -> crate, else None."""
    parts = pathlib.PurePosixPath(path).parts
    if len(parts) >= 4 and parts[0] == "crates" and parts[2] == "src" and path.endswith(".rs"):
        return parts[1]
    return None


def tally(files, read):
    totals = {}
    for f in files:
        crate = crate_of(f)
        if crate is not None:
            totals[crate] = totals.get(crate, 0) + count(read(f))
    return totals


def git(root, *args):
    return subprocess.run(
        ["git", "-C", str(root), *args], check=True, capture_output=True, text=True
    ).stdout


def worktree(root):
    files = [p.relative_to(root).as_posix() for p in root.glob("crates/*/src/**/*.rs")]
    return tally(files, lambda f: (root / f).read_text())


def at_rev(root, rev):
    files = git(root, "ls-tree", "-r", "--name-only", rev, "--", "crates").split()
    return tally(files, lambda f: git(root, "show", f"{rev}:{f}"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="revision to compare the working tree against")
    args = ap.parse_args()
    root = pathlib.Path(git(pathlib.Path.cwd(), "rev-parse", "--show-toplevel").strip())
    now = worktree(root)
    if args.rev is None:
        print(f"{'crate':<12}{'lines':>8}")
        for crate in sorted(now):
            print(f"{crate:<12}{now[crate]:>8}")
        print(f"{'total':<12}{sum(now.values()):>8}")
        return 0
    old = at_rev(root, args.rev)
    print(f"{'crate':<12}{args.rev[:12]:>14}{'worktree':>10}{'net':>8}")
    for crate in sorted(set(old) | set(now)):
        a, b = old.get(crate, 0), now.get(crate, 0)
        print(f"{crate:<12}{a:>14}{b:>10}{b - a:>+8}")
    a, b = sum(old.values()), sum(now.values())
    print(f"{'total':<12}{a:>14}{b:>10}{b - a:>+8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
