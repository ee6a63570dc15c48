"""Run sets of benchmark runs and hold them against BENCHMARK.json.

    python3 perfbench/compare.py                 # two sets of 10 runs, every workload
    python3 perfbench/compare.py --sets 1 --runs 5 --workloads equivariant_session

Each set runs every chosen workload `--runs` times, each run with its
own seed (set s, run i gets seed 1 + s * runs + i), one run at a time,
with the command and run length of BENCHMARK.json. For every workload
and end-to-end metric it prints each set's median and quartiles and
the spread (q3 - q1) / median. With two sets it also prints the shift
of the second median from the first, in the metric's worse direction.
The comparison passes when every run is correct, every spread and
every shift stays within the metric's bound, and both sets fail the
same share of operations. All runs go to .perfbench_runs/ as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench, workload, seed, trace=0):
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, wall_s=wall)
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def evaluate(bench, sets, workloads):
    ok = True
    for workload in workloads:
        runs = [[r for r in s if r["workload"] == workload] for s in sets]
        shares = []
        for s in runs:
            attempted = sum(r["attempted"] for r in s)
            failed = sum(r["failed"] for r in s)
            shares.append((failed, attempted))
            if not all(r["correct"] for r in s):
                print(f"{workload}: a run reported wrong outputs")
                ok = False
        if len({f / a for f, a in shares}) > 1:
            print(f"{workload}: failed shares differ between sets: {shares}")
            ok = False
        print(f"\n{workload}  (failed/attempted per set: "
              + ", ".join(f"{f}/{a}" for f, a in shares) + ")")
        print(f"  {'metric':14} {'bound':>6}  " + "  ".join(
            f"{'set ' + str(i + 1) + ' median [q1, q3] spread':>44}" for i in range(len(runs)))
            + ("  shift" if len(runs) == 2 else ""))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in s]) for s in runs]
            cells = [f"{st['median']:12.6g} [{st['q1']:10.6g}, {st['q3']:10.6g}] {st['spread']:6.1%}"
                     for st in stats]
            line = f"  {name:14} {bound:6.0%}  " + "  ".join(f"{c:>44}" for c in cells)
            flags = [f"spread>bound(set {i + 1})" for i, st in enumerate(stats)
                     if st["spread"] > bound]
            if len(stats) == 2:
                first, second = stats[0]["median"], stats[1]["median"]
                shift = (second - first) / first if first else 0.0
                if metric["better"] == "higher":
                    shift = -shift
                line += f"  {shift:+6.1%}"
                if shift > bound:
                    flags.append("shift>bound")
            if flags:
                ok = False
                line += "  FAIL " + ",".join(flags)
            print(line)
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    sets = []
    for s in range(args.sets):
        runs = []
        for workload in args.workloads:
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                result = run_once(bench, workload, seed)
                print(f"set {s + 1} {workload} seed {seed}: wall {result['wall_s']:.1f} s "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
                runs.append(result)
        sets.append(runs)

    out_dir = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, time.strftime("compare-%Y%m%dT%H%M%S.json"))
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"python": sys.version.split()[0], "cpus": os.cpu_count(),
                   "bench": bench, "sets": sets}, handle, indent=1)
    ok = evaluate(bench, sets, args.workloads)
    print(f"\nruns saved to {os.path.relpath(out, ROOT)}; {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
