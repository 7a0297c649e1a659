"""Measure line coverage of src/repro with only the standard library.

The CI coverage gate runs under pytest-cov, but the development container
deliberately has no coverage tooling installed; this script exists so the
gate's threshold can be *derived from a measurement* instead of guessed.
It installs a ``sys.settrace``/``threading.settrace`` hook that records
executed lines in ``src/repro``, runs the tier-1 suite in process, then
compares against the set of executable lines extracted from each module's
compiled code objects (``co_lines``), which is the same universe coverage.py
uses for statement coverage.

Caveats (shared with a plain ``pytest --cov`` run): child processes the
suite spawns are not traced, and the tracer adds roughly an order of
magnitude of wall-clock overhead.

Usage::

    PYTHONPATH=src python tools/measure_coverage.py [pytest args...]
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src" / "repro")

executed: dict[str, set[int]] = {}


def _local_trace(frame, event, arg):
    if event == "line":
        executed.setdefault(frame.f_code.co_filename, set()).add(
            frame.f_lineno
        )
    return _local_trace


def _global_trace(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(SRC):
        return _local_trace
    return None


def executable_lines(path: pathlib.Path) -> set[int]:
    """All line numbers carried by the module's code objects."""
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        lines.update(
            line for _, _, line in obj.co_lines() if line is not None
        )
        stack.extend(c for c in obj.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    threading.settrace(_global_trace)
    sys.settrace(_global_trace)
    try:
        rc = pytest.main(argv or ["-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    per_file = {}
    total_exec = total_hit = 0
    for path in sorted(pathlib.Path(SRC).rglob("*.py")):
        lines = executable_lines(path)
        hit = executed.get(str(path), set()) & lines
        total_exec += len(lines)
        total_hit += len(hit)
        per_file[str(path.relative_to(ROOT))] = {
            "executable": len(lines),
            "covered": len(hit),
            "percent": round(100 * len(hit) / len(lines), 1) if lines else 100.0,
        }

    report = {
        "pytest_exit": int(rc),
        "total_executable_lines": total_exec,
        "total_covered_lines": total_hit,
        "percent": round(100 * total_hit / total_exec, 2),
        "files": per_file,
    }
    out = ROOT / "benchmarks" / "results" / "coverage_baseline.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nline coverage of src/repro: {report['percent']}% "
          f"({total_hit}/{total_exec}) -> {out}")
    return int(rc)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
