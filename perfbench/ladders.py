"""The command-line workload: a fixed ladder of rings, each operation
a fresh `chowkunneth` process, as a command-line user runs it.

An operation's output is checked when it ends (outside its timing):
exit code 0, every check line passed, the report size and projector
indices the ring's shape predicts. Once per run, after the timed
passes, each rung's ring is rebuilt in this process and compared with
closed formulas (Betti numbers and one characteristic number).
"""

import json
import os
import subprocess
import sys

import oracles
from tracer import add_snapshots, empty_snapshot


class CheckFailed(Exception):
    """An output disagreed with what the benchmark expects."""


class OperationFailed(Exception):
    """The program did not complete an operation."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


class Rung:
    """One ring of a ladder: its space description, the Betti numbers
    expected by formula, and the CLI commands run on it per pass."""

    def __init__(self, name, spec, betti, commands, ring_check, middle_rank=0):
        self.name = name
        self.spec = spec
        self.betti = betti
        self.commands = commands
        self.ring_check = ring_check
        self.middle_rank = middle_rank

    @property
    def rank(self):
        return sum(self.betti.values())

    @property
    def indices(self):
        return oracles.projector_indices(self.betti)


def power_integral(ring, labels, power):
    """Integral of (sum of the given basis classes)^power."""
    base = ring.from_label_dict({label: 1 for label in labels})
    value = ring.unit()
    for _ in range(power):
        value = ring.multiply(value, base)
    return ring.integrate(value)


def plane_curve_rung(d):
    n_param = oracles.plane_curve_params(d)
    degree = oracles.plane_curve_degree(d)

    def ring_check(ring):
        got = power_integral(ring, ["h # 1", "1 # h"], n_param + 1)
        expect(got == degree, f"curve family d={d}: degree {got}, not {degree}")

    return Rung(
        f"curves(d={d})",
        {"kind": "plane_curve_family", "d": d},
        oracles.betti_from_poly(oracles.plane_curve_betti(d)),
        ("projectors",),
        ring_check,
    )


def hypersurface_rung(n, e, middle_rank):
    def ring_check(ring):
        got = power_integral(ring, ["h"], n - 1)
        expect(got == e, f"degree-{e} hypersurface in P^{n}: degree {got}")

    return Rung(
        f"X{e}(P{n})",
        {
            "kind": "ci_model",
            "ambient": {"kind": "projective_space", "n": n},
            "fundamental_class_expr": {"h": str(e)},
            "middle_rank": middle_rank,
        },
        oracles.hypersurface_betti(n, middle_rank),
        ("projectors", "restrict"),
        ring_check,
        middle_rank=middle_rank,
    )


# Every operation is kept short, at most about 0.3 s on the reference
# machine (curves(d=4) 0.55 s): the host's fast spells last about half a
# second, and an operation's fastest time in a run is steady only if the
# operation fits in one (README.md, "Steadiness"). d = 5 and up are
# left out for that reason.
#
# Primitive middle ranks are those of the actual hypersurfaces: cubic
# surface 6, quartic K3 21, cubic threefold 10 (b3), cubic fourfold 22.
CURVE_FAMILY_LADDER = [
    plane_curve_rung(3),
    plane_curve_rung(4),
    hypersurface_rung(3, 3, 6),
    hypersurface_rung(3, 4, 21),
    hypersurface_rung(4, 3, 10),
    hypersurface_rung(5, 3, 22),
]

LARGEST = "curves(d=4) projectors"


class LadderWorkload:
    """Runs each rung's commands in fresh processes. The seed shuffles
    the order of the rungs in every pass; each rung's own commands keep
    their order, since `restrict` reads the file `projectors` wrote."""

    def __init__(self, root, workdir, rng):
        self.rungs = CURVE_FAMILY_LADDER
        self.root = root
        self.workdir = workdir
        self.rng = rng
        self.largest = LARGEST
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.trace_files = []

    # -- processes -------------------------------------------------------------

    def _command(self, argv, traced):
        if traced:
            trace_file = os.path.join(self.workdir, f"trace-{len(self.trace_files)}.json")
            self.trace_files.append(trace_file)
            script = os.path.join(self.root, "perfbench", "traced_cli.py")
            return [sys.executable, script, trace_file, *argv]
        return [sys.executable, "-m", "chowkunneth.cli", *argv]

    def _run(self, argv, traced):
        return subprocess.run(
            self._command(argv, traced),
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            check=False,
        )

    def setup_steps(self, traced):
        """One step: the start-up of a CLI process that builds nothing."""

        def start_up():
            result = self._run(["formulas", "rep", "--g", "2", "--n", "2"], traced)
            expect(result.returncode == 0, f"start-up process failed: {result.stderr}")
            expect(result.stdout.strip() == "dimension = 13", "rep formula output changed")

        return [("start-up", start_up)]

    # -- one pass --------------------------------------------------------------

    def operations(self, traced):
        """(name, run, check) triples of one pass."""
        order = list(self.rungs)
        self.rng.shuffle(order)
        ops = []
        for rung in order:
            path = f"{rung.name}.json".replace("(", "_").replace(")", "").replace(",", "_")
            for command in rung.commands:
                ops.append(self._operation(rung, command, path, traced))
        return ops

    def _operation(self, rung, command, path, traced):
        if command == "projectors":
            argv = ["projectors", "--space", json.dumps(rung.spec), "--verify", "--out", path]
        else:
            argv = ["restrict", path, "--verify"]

        def run():
            result = self._run(argv, traced)
            if result.returncode != 0:
                raise OperationFailed(
                    f"{rung.name} {command}: exit {result.returncode}: {result.stderr[-400:]}"
                )
            return result

        def check(result):
            written = 0
            if command == "projectors":
                written = os.path.getsize(os.path.join(self.workdir, path))
                self._check_projectors(rung, path)
            rank = rung.rank - (rung.middle_rank if command == "restrict" else 0)
            expected = oracles.report_size(len(rung.indices), rank)
            self._check_stdout(rung, command, result.stdout, expected)
            return written

        return f"{rung.name} {command}", run, check

    def _check_stdout(self, rung, command, stdout, expected):
        lines = stdout.strip().splitlines()
        expect(lines, f"{rung.name} {command}: no output")
        expect(
            lines[-1] == f"{expected}/{expected} checks passed",
            f"{rung.name} {command}: {lines[-1]!r}, expected {expected} passing checks",
        )
        expect(
            not any(line.startswith("FAIL") for line in lines),
            f"{rung.name} {command}: a check failed",
        )

    def _check_projectors(self, rung, path):
        with open(os.path.join(self.workdir, path), encoding="utf-8") as handle:
            doc = json.load(handle)
        indices = [member["index"] for member in doc["projectors"]]
        expect(indices == rung.indices, f"{rung.name}: projector indices {indices}")
        checks = doc["report"]["checks"]
        expect(doc["report"]["pass"] and all(e["pass"] for e in checks),
                f"{rung.name}: the saved report has a failing entry")
        expected = oracles.report_size(len(indices), rung.rank)
        expect(len(checks) == expected,
                f"{rung.name}: {len(checks)} report entries, expected {expected}")
        expect(doc["space"] == rung.spec, f"{rung.name}: the document names another space")

    # -- once per run ------------------------------------------------------------

    def final_checks(self):
        """Rebuild every rung's ring in this process and compare its
        shape and one characteristic number with closed formulas."""
        from chowkunneth.spaces import build_space

        for rung in self.rungs:
            ring = build_space(rung.spec)
            betti = {d: r for d, r in ring.betti().items() if r}
            expect(betti == rung.betti, f"{rung.name}: Betti numbers {betti}")
            rung.ring_check(ring)

    def peak_rss_mb(self):
        """Peak resident memory of the largest process run so far."""
        import resource

        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def take_trace(self):
        """The summed snapshots of the traced processes run since the
        last call."""
        total = empty_snapshot()
        for path in self.trace_files:
            with open(path, encoding="utf-8") as handle:
                total = add_snapshots(total, json.load(handle))
            os.remove(path)
        self.trace_files = []
        return total


