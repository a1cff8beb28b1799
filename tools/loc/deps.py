#!/usr/bin/env python3
"""Print the declared dependencies no source file uses.

    deps.py         one `<crate> -> <dependency>` per line, sorted

An entry of a `[dependencies]` table in `crates/*/Cargo.toml` is printed
when no `.rs` file under that crate's directory (its `src/`, `tests/`,
and anything else in it) names the dependency as a path, `<name>::`,
with the name's dashes spelled as underscores. The check is textual:
`use <name>::...`, `<name>::Type` and a doc-comment link all count.
Run from anywhere inside the repository.
"""
import pathlib
import re
import subprocess
import sys

SECTION = re.compile(r"^\s*\[([^\]]+)\]\s*$")
ENTRY = re.compile(r"^\s*([A-Za-z0-9_-]+)\s*(?:\.|=)")


def dependencies(manifest):
    """The entry names of the manifest's `[dependencies]` table."""
    names, inside = [], False
    for line in manifest.read_text().splitlines():
        m = SECTION.match(line)
        if m:
            inside = m.group(1).strip() == "dependencies"
            continue
        m = ENTRY.match(line)
        if inside and m:
            names.append(m.group(1))
    return names


def main():
    top = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True, text=True
    ).stdout.strip()
    root = pathlib.Path(top)
    unused = []
    for manifest in sorted(root.glob("crates/*/Cargo.toml")):
        crate = manifest.parent
        text = "\n".join(f.read_text() for f in crate.glob("**/*.rs"))
        package = re.search(r'^\s*name\s*=\s*"([^"]+)"', manifest.read_text(), re.M).group(1)
        for dep in dependencies(manifest):
            path = re.compile(r"\b" + re.escape(dep.replace("-", "_")) + r"::")
            if not path.search(text):
                unused.append(f"{package} -> {dep}")
    for line in sorted(unused):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
