"""The chowkunneth benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout (the package is imported
from `src/`), checks every output, and prints one JSON object as its
last line: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json;
with `--trace 1` they are its per-layer ones, taken from passes that
alternate with untraced ones (see README.md). Names and units are
those BENCHMARK.json gives.

Workloads: curve_family_ladder (one process per operation) and
equivariant_session (one library process).
"""

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("curve_family_ladder", "equivariant_session")
SETUP_REPEATS = 20
# Each CPU of the host switches between a fast and a slow state on its
# own (README.md). A process stays on the CPU it started on while the
# other one is idle, and would see only that CPU's slow spells; passes
# and set-ups are pinned to the CPUs in turn instead.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

# Spans each workload must reach when traced; one that stays at zero
# calls means the wrappers missed a path.
EXPECTED_SPANS = {
    "curve_family_ladder": ("cli", "graded_ring.tensor_ring", "graded_ring.ring_map",
                            "linalg.rank", "linalg.inverse", "kunneth.verify_ck",
                            "equivariant.bottom_weight_restriction", "serialize.read",
                            "serialize.write", "spaces.build_space"),
    "equivariant_session": ("correspondences.compose", "correspondences.act",
                            "equivariant.compose", "equivariant.pair_poly",
                            "equivariant.lift_projectors", "equivariant.verify_equivariant",
                            "kunneth.verify_ck", "serialize.write", "serialize.read",
                            "graded_ring.ring_map", "graded_ring.check",
                            "schubert.multiply_partitions", "schubert.pieri"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name, workdir, rng, tracer):
    if name == "equivariant_session":
        from session import SessionWorkload

        return SessionWorkload(workdir, rng, tracer)
    from ladders import LadderWorkload

    return LadderWorkload(ROOT, workdir, rng)


def pin(turn):
    """Run this process, and the processes it starts, on CPU `turn` mod n."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def fastest(runs):
    """Each step's fastest time over a list of {step: seconds} runs."""
    best = {}
    for times in runs:
        for name, seconds in times.items():
            best[name] = min(seconds, best.get(name, seconds))
    return best


def run(args, bench, workdir):
    from ladders import CheckFailed, OperationFailed
    from tracer import PER_LAYER, Tracer, add_snapshots, per_layer_metrics

    rng = random.Random(args.seed)
    tracer = Tracer() if args.trace else None
    workload = make_workload(args.workload, workdir, rng, tracer)
    counts = {"attempted": 0, "failed": 0}
    problems = []

    @contextlib.contextmanager
    def tracing(traced):
        """The in-process tracer, installed for a traced pass or set-up
        of the session (ladder processes trace themselves)."""
        if traced and tracer is not None:
            tracer.install()
        try:
            yield
        finally:
            if traced and tracer is not None:
                tracer.uninstall()

    setups = []

    def set_up():
        """One set-up, step by step; under --trace 1 the first one is traced."""
        traced = bool(args.trace) and not setups
        pin(len(setups))
        times = {}
        with tracing(traced):
            for name, run_step in workload.setup_steps(traced):
                start = time.perf_counter()
                run_step()
                times[name] = time.perf_counter() - start
        setups.append(times)

    set_up()
    setup_trace = workload.take_trace() if args.trace else None

    def one_pass(traced):
        """Run every operation, then check the outputs untimed."""
        ops = workload.operations(traced)
        times, outputs = {}, {}
        with tracing(traced):
            for name, run_op, _ in ops:
                counts["attempted"] += 1
                start = time.perf_counter()
                try:
                    outputs[name] = run_op()
                except OperationFailed as exc:
                    counts["failed"] += 1
                    problems.append(str(exc))
                    continue
                times[name] = time.perf_counter() - start
        written = 0
        for name, _, check in ops:
            if name in outputs:
                try:
                    written += check(outputs[name]) or 0
                except CheckFailed as exc:
                    problems.append(f"wrong output: {exc}")
        return {"traced": traced, "times": times, "written": written,
                "trace": workload.take_trace() if traced else None}

    # Whole passes until the next one would end past --seconds; under
    # --trace 1 untraced and traced passes alternate, at least one each.
    # The other set-ups are spread over the run, one each time another
    # 1/SETUP_REPEATS of it has gone by.
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= 1 + args.trace and elapsed + statistics.median(walls) > args.seconds:
            break
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
            set_up()
        traced = bool(args.trace) and len(passes) % 2 == 1
        pin(sum(p["traced"] == traced for p in passes))
        pass_start = time.perf_counter()
        passes.append(one_pass(traced))
        walls.append(time.perf_counter() - pass_start)
    while len(setups) < SETUP_REPEATS:
        set_up()

    try:
        workload.final_checks()
    except CheckFailed as exc:
        problems.append(f"wrong output: {exc}")
    for problem in problems:
        print(problem, file=sys.stderr)

    # The host runs this code in a fast and a slow state (the slow one
    # about 1.7 times slower) that switch within a second (README.md).
    # Each step's fastest time in the run is what it costs in the fast
    # state; a pass or a set-up costs the sum of its steps' fastest times.
    best = fastest(p["times"] for p in passes if not p["traced"])
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        layer_runs = [per_layer_metrics(p["trace"]) for p in traced_passes]
        base = per_layer_metrics(setup_trace)
        values = {name: base[name] + statistics.median(r[name] for r in layer_runs)
                  for name in PER_LAYER}
        traced_best = fastest(p["times"] for p in traced_passes)
        values["trace.overhead"] = sum(traced_best.values()) / sum(best.values())
        coverage(args.workload, setup_trace, [p["trace"] for p in traced_passes],
                 add_snapshots)
        declared = bench["per_layer"]
    else:
        values = {
            "setup_s": sum(fastest(setups).values()),
            "pass_s": sum(best.values()),
            "largest_op_s": best[workload.largest],
            "op_p50_s": statistics.median(best.values()),
            "peak_rss_mb": workload.peak_rss_mb(),
            "doc_bytes": statistics.median(p["written"] for p in passes if not p["traced"]),
        }
        declared = bench["end_to_end"]
    return {
        "correct": not any(p.startswith("wrong output") for p in problems),
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def coverage(workload, setup_trace, pass_traces, add_snapshots):
    """Exit with code 3 when the wrappers missed work: a verify_ck with
    fewer traced compositions than its report implies, or a span the
    workload must reach that no traced call reached."""
    errors = list(setup_trace["coverage_errors"])
    total = setup_trace
    for snap in pass_traces:
        errors += snap["coverage_errors"]
        total = add_snapshots(total, snap)
    errors += [f"no traced call reached {span}" for span in EXPECTED_SPANS[workload]
               if not total["calls"].get(span)]
    if errors:
        for error in errors:
            print(f"coverage: {error}", file=sys.stderr)
        raise SystemExit(3)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "chowkunneth", "__init__.py")):
        print(f"error: no package at {src}/chowkunneth; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    sys.path.insert(0, src)
    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(args, bench, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
