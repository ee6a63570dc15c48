"""Spans around the package's public functions, installed from outside.

`Tracer.install()` replaces every public function of each layer module
by a timing wrapper in every namespace of the package that holds it,
so a name imported by name (`kunneth.compose`, `cli.verify_ck`,
`serialize.build_space`) is traced where its caller looks it up. A few
methods that carry a layer's work are wrapped on their classes.
`uninstall()` puts the originals back.

A span's self time is its duration minus the time of the spans nested
in it; its inclusive time is counted only for the outermost span of a
name, so recursion is not counted twice.
"""

import importlib
import inspect
import os
import time
from collections import Counter, defaultdict
from functools import wraps

LAYERS = (
    "schubert",
    "graded_ring",
    "spaces",
    "linalg",
    "correspondences",
    "kunneth",
    "equivariant",
    "serialize",
    "cli",
)

CHECK_NAMES = (
    "basis_shape",
    "grading",
    "unit",
    "graded_commutativity",
    "associativity",
    "integration_support",
    "pairing_nondegeneracy",
)

# Functions that share one span: a document written or read is one span
# however many of these helpers it passes through.
SPAN_OF = {
    "serialize.dumps": "serialize.write",
    "serialize.write_document": "serialize.write",
    "serialize.read_document": "serialize.read",
    "serialize.load_space": "serialize.read",
    "cli.main": "cli",
}
for _kind in ("correspondence", "projector_set", "model", "family", "group"):
    SPAN_OF[f"serialize.{_kind}_document"] = "serialize.write"
    SPAN_OF[f"serialize.{_kind}_from_document"] = "serialize.read"
SPAN_OF["serialize.space_document"] = "serialize.write"

# (module, class, method) -> span name
METHODS = (
    ("graded_ring", "GradedBasisRing", "__init__", "graded_ring.ring"),
    ("graded_ring", "RingMap", "__init__", "graded_ring.ring_map"),
    ("equivariant", "EquivariantCorrespondence", "compose", "equivariant.compose"),
    ("equivariant", "EquivariantCorrespondence", "act", "equivariant.act"),
    ("equivariant", "EquivariantModel", "pair_poly", "equivariant.pair_poly"),
)

# Per-layer metric -> (kind, span or counter). Kinds: calls, s (inclusive
# seconds), self_s, count (a named counter). Units are those BENCHMARK.json
# gives each metric.
PER_LAYER = {
    "schubert.multiply_partitions.calls": ("calls", "schubert.multiply_partitions"),
    "schubert.multiply_partitions.self_s": ("self_s", "schubert.multiply_partitions"),
    "schubert.pieri.calls": ("calls", "schubert.pieri"),
    **{
        f"graded_ring.check.{name}.s": ("count", f"check.{name}.s")
        for name in CHECK_NAMES
    },
    "graded_ring.rings_validated": ("count", "rings_validated"),
    "graded_ring.structure_nonzeros": ("count", "structure_nonzeros"),
    "graded_ring.ring_map.s": ("s", "graded_ring.ring_map"),
    "graded_ring.tensor_ring.self_s": ("self_s", "graded_ring.tensor_ring"),
    "spaces.build_space.calls": ("calls", "spaces.build_space"),
    "spaces.build_space.self_s": ("self_s", "spaces.build_space"),
    "linalg.inverse.calls": ("calls", "linalg.inverse"),
    "linalg.inverse.s": ("s", "linalg.inverse"),
    "linalg.rank.calls": ("calls", "linalg.rank"),
    "linalg.rank.s": ("s", "linalg.rank"),
    "correspondences.compose.calls": ("calls", "correspondences.compose"),
    "correspondences.compose.s": ("s", "correspondences.compose"),
    "correspondences.act.calls": ("calls", "correspondences.act"),
    "correspondences.act.s": ("s", "correspondences.act"),
    "correspondences.diagonal.s": ("s", "correspondences.diagonal"),
    "kunneth.full_projectors.self_s": ("self_s", "kunneth.full_projectors"),
    "kunneth.gram_schmidt_orthogonalize.self_s": (
        "self_s", "kunneth.gram_schmidt_orthogonalize"),
    "kunneth.verify_ck.self_s": ("self_s", "kunneth.verify_ck"),
    "kunneth.checks": ("count", "kunneth.checks"),
    "equivariant.compose.calls": ("calls", "equivariant.compose"),
    "equivariant.compose.s": ("s", "equivariant.compose"),
    "equivariant.pair_poly.calls": ("calls", "equivariant.pair_poly"),
    "equivariant.pair_poly.nonzero": ("count", "pair_poly.nonzero"),
    "equivariant.lift_projectors.s": ("s", "equivariant.lift_projectors"),
    "equivariant.verify_equivariant.self_s": (
        "self_s", "equivariant.verify_equivariant"),
    "serialize.write.s": ("s", "serialize.write"),
    "serialize.read.self_s": ("self_s", "serialize.read"),
    "serialize.bytes_written": ("count", "bytes_written"),
    "cli.self_s": ("self_s", "cli"),
}

class Tracer:
    """In-memory span aggregates: calls, inclusive and self seconds per
    span name, plus named counters."""

    def __init__(self):
        self._patches = []
        self._clear()

    def _clear(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.coverage_errors = []
        self._stack = []
        self._active = Counter()

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        self._active[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self._active[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if not self._active[name]:
            self.incl[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def wrap(self, name, fn, after=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(result, args)
            return result

        return traced

    def snapshot(self):
        """Plain-data copy of the aggregates (for a trace file)."""
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "coverage_errors": list(self.coverage_errors),
        }

    def take(self):
        """The snapshot so far; the aggregates then start from zero."""
        snap = self.snapshot()
        self._clear()
        return snap

    # -- installation ----------------------------------------------------------

    def install(self):
        package = importlib.import_module("chowkunneth")
        modules = {name: importlib.import_module(f"chowkunneth.{name}") for name in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                key = f"{layer}.{attr}"
                wrapper = self._wrapper_for(key, obj)
                for namespace in namespaces:
                    for name, value in list(vars(namespace).items()):
                        if value is obj:
                            self._patch(namespace, name, wrapper)
        for layer, cls_name, method, span in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            after = self._count_pair_poly if span == "equivariant.pair_poly" else None
            self._patch(cls, method, self.wrap(span, original, after))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrapper_for(self, key, fn):
        if key == "graded_ring.run_ring_checks":
            return self._wrap_ring_checks(fn)
        if key == "kunneth.verify_ck":
            return self._wrap_verify_ck(fn)
        after = self._count_bytes if key == "serialize.write_document" else None
        return self.wrap(SPAN_OF.get(key, key), fn, after)

    # -- layer-specific counters -----------------------------------------------

    def _count_pair_poly(self, result, args):
        if result:
            self.counters["pair_poly.nonzero"] += 1

    def _count_bytes(self, result, args):
        self.counters["bytes_written"] += os.path.getsize(args[0])

    def _wrap_ring_checks(self, fn):
        """Time each axiom as the interval the generator runs before
        yielding it, and count the rings and table entries validated."""
        tracer = self

        @wraps(fn)
        def traced(dim, basis, structure, integration):
            checks = fn(dim, basis, structure, integration)
            tracer.counters["rings_validated"] += 1
            tracer.counters["structure_nonzeros"] += sum(len(p) for p in structure.values())
            while True:
                tracer.enter("graded_ring.check")
                try:
                    item = next(checks)
                except StopIteration:
                    tracer.exit()
                    return
                duration = tracer.exit()
                tracer.counters[f"check.{item[0]}.s"] += duration
                yield item

        return traced

    def _wrap_verify_ck(self, fn):
        """verify_ck plus a coverage check: every idempotence and
        orthogonality entry composes once, so a report over |I| members
        must have seen at least |I|^2 traced compositions."""
        tracer = self
        inner = self.wrap("kunneth.verify_ck", fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            before = tracer.calls["correspondences.compose"]
            report = inner(*args, **kwargs)
            members = sum(1 for e in report if e["check"] == "idempotence")
            seen = tracer.calls["correspondences.compose"] - before
            if seen < members * members:
                tracer.coverage_errors.append(
                    f"verify_ck over {members} members saw {seen} compositions"
                )
            tracer.counters["kunneth.checks"] += len(report)
            return report

        return traced


def per_layer_metrics(snapshot):
    """Per-layer metric values from one snapshot (or a sum of them)."""
    tables = {"calls": snapshot["calls"], "s": snapshot["incl"],
              "self_s": snapshot["self_s"], "count": snapshot["counters"]}
    return {
        name: tables[kind].get(key, 0) for name, (kind, key) in PER_LAYER.items()
    }


def add_snapshots(a, b):
    out = {}
    for part in ("calls", "incl", "self_s", "counters"):
        merged = dict(a.get(part, {}))
        for key, value in b.get(part, {}).items():
            merged[key] = merged.get(key, 0) + value
        out[part] = merged
    out["coverage_errors"] = a.get("coverage_errors", []) + b.get("coverage_errors", [])
    return out


def empty_snapshot():
    return {"calls": {}, "incl": {}, "self_s": {}, "counters": {}, "coverage_errors": []}
