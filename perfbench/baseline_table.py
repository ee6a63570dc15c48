"""Rebuild the "Measured baseline" table of ROADMAP.md from a traced run.

    python3 perfbench/baseline_table.py                      # the ROADMAP's six rows
    python3 perfbench/baseline_table.py 'G(4,8)' 'curves(d=5)'

Each row builds its ring from an empty ring cache in this process with
the benchmark's tracer installed, then constructs and verifies the full
projector set. "build" is the wall time of `build_space`; the
associativity column sums that axiom's check over every ring validated
during the build. Tracing adds a few percent (README.md). Prints a
Markdown table.
"""

import os
import platform
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_ROWS = ("G(4,8)", "curves(d=5)", "G(4,9)", "curves(d=8)", "G(4,10)", "G(5,10)")


def spec_of(row):
    match = re.fullmatch(r"G\((\d+),(\d+)\)", row)
    if match:
        return {"kind": "grassmannian", "k": int(match[1]), "n": int(match[2])}
    match = re.fullmatch(r"curves\(d=(\d+)\)", row)
    if match:
        return {"kind": "plane_curve_family", "d": int(match[1])}
    raise SystemExit(f"error: row {row!r} is neither G(k,n) nor curves(d=D)")


def seconds(value):
    return f"{value:.2f} s" if value >= 0.1 else f"{value * 1000:.0f} ms"


def main(argv=None):
    rows = (argv if argv is not None else sys.argv[1:]) or DEFAULT_ROWS
    specs = [(row, spec_of(row)) for row in rows]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tracer import Tracer
    from chowkunneth import spaces
    from chowkunneth.kunneth import full_projectors, verify_ck

    print(f"CPython {platform.python_version()}, {os.cpu_count()} CPUs, traced")
    print()
    print("| workload | rank | build | of which associativity check "
          "| rings validated | `full_projectors` | `verify_ck` |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for row, spec in specs:
        spaces._CACHE.clear()
        tracer = Tracer().install()
        try:
            start = time.perf_counter()
            ring = spaces.build_space(spec)
            build = time.perf_counter() - start
            start = time.perf_counter()
            P = full_projectors(ring)
            projectors = time.perf_counter() - start
            start = time.perf_counter()
            verify_ck(P)
            verify = time.perf_counter() - start
        finally:
            tracer.uninstall()
        print(f"| {row} | {len(ring.basis)} | {seconds(build)} "
              f"| {seconds(tracer.counters['check.associativity.s'])} "
              f"| {int(tracer.counters['rings_validated'])} "
              f"| {seconds(projectors)} | {seconds(verify)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
