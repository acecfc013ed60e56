#!/usr/bin/env python3
"""Check that the tier-1 suite runs every line of `src/`, but the few
that `ALLOWED` lists with a reason.

    python3 scripts/coverage.py

A stdlib-only line tracer: it installs a `sys.settrace` hook, runs the
tier-1 suite (`pytest tests`) in this process, and prints each executable
line of `src/` that no test reached, as `path:line: text`, then the count.
A line is executable when the compiled module attributes bytecode to it;
it is reached when the tracer sees a `call` or `line` event on it.
`sys.settrace` is used because Python 3.11 has no `sys.monitoring`.

Tests that run code in a child process are not traced: of tier-1, that
is `tests/test_public_api.py::test_only_mc_loads_numpy`. So the lines only
it reaches count as unreached.

An `ALLOWED` entry names an unreached line by its file and its stripped
source text, not its number, so an edit elsewhere in the file keeps it.
The script exits 1 when a line outside `ALLOWED` is unreached or when an
entry is stale (no unreached line has its text), pytest's exit code when
the suite fails, and 0 otherwise. The traced run is slow (minutes, against
well under a minute untraced), so this is not part of tier-1.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (file, stripped source text) -> why no test runs the line
ALLOWED = {
    ("src/chemvm/cstm.py", 'raise ValueError(f"no expansion for {k!r}")'):
        "defensive: every OpKind has an expansion; without the raise a new "
        "kind would lower to no primitives",
    ("src/chemvm/cstm.py", 'raise ValueError(f"unknown primitive code {code!r}")'):
        "defensive: lowering makes only AM, SM, AE and SE; without the raise "
        "another code would run as a step that moves nothing",
    ("src/chemvm/cli.py", "sys.exit(main())"):
        "the `python -m chemvm.cli` entry; tests call `main` itself",
}


def executable_lines(path: Path) -> set[int]:
    """Lines the compiled module attributes bytecode to."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def main() -> int:
    files = {str(p): p for p in sorted(SRC.rglob("*.py"))}
    reached: dict[str, set[int]] = {name: set() for name in files}

    def line_tracer(hits: set[int]):
        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local
        return local

    # one local tracer per file, made up front: a closure that returns itself
    # is a reference cycle, and one made per call would leave garbage that
    # tests asserting on `gc.collect()` would count
    tracers = {name: (hits, line_tracer(hits)) for name, hits in reached.items()}

    def trace(frame, event, arg):
        hits, local = tracers.get(frame.f_code.co_filename, (None, None))
        if hits is None:
            return None                # no line events for frames outside src/
        hits.add(frame.f_lineno)       # the call event, on the def line
        return local

    sys.path.insert(0, str(SRC))
    import pytest                      # imported untraced; chemvm is not yet loaded

    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    total = missed = unlisted = 0
    used = set()
    for name, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - reached[name]):
            missed += 1
            key = (path.relative_to(ROOT).as_posix(), text[line - 1].strip())
            reason = ALLOWED.get(key)
            if reason is None:
                unlisted += 1
            used.add(key)
            print(f"{key[0]}:{line}: {key[1]}"
                  + ("" if reason is None else f"  [allowed: {reason}]"))
    stale = [key for key in ALLOWED if key not in used]
    for file, line_text in stale:
        print(f"{file}: stale allow-list entry, no unreached line reads: {line_text}")
    print(f"{missed} of {total} executable lines of src/ unreached, "
          f"{unlisted} of them not allowed; {len(stale)} stale allow-list entries")
    if status:
        return int(status)
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
