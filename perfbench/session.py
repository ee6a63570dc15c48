"""The library workload: one process that keeps its rings between
operations, as a Python user does.

Set-up builds every ring the session uses (ring validation happens
only there). A pass then runs a fixed list of operations: projector
sets and their verification on product rings, lifts into weighted and
trivial-action equivariant models with their verification, bottom-weight
restriction, document writes and reads, and seeded random
correspondences, composed and acted. Outputs are checked after the
pass, outside the operations' timing.
"""

import os
from fractions import Fraction

import oracles
from ladders import expect, power_integral

# Weighted models: P^n under a rank-one torus, truncated at N = 4n.
WEIGHTED_DIMENSIONS = (8, 12, 16, 20)
# Terms in each random correspondence on G(2,4) x G(2,4).
RANDOM_TERMS = 120
LARGEST = "lift weighted P20"
# Grassmannians (k, n) built in set-up; G(3,7) is built only for the
# closed-form checks at the end of a run.
GRASSMANNIANS = {"G24": (2, 4), "G25": (2, 5), "G36": (3, 6)}
CHECKED_GRASSMANNIANS = {**GRASSMANNIANS, "G37": (3, 7)}
PRODUCTS = (("P2", "P2"), ("P1", "G24"), ("G25", "P2"), ("G24", "G24"),
            ("G36", "P1"), ("P2", "P2", "P2"))
# (product, group, group rank) of the trivial-action lifts: a torus or GL.
TRIVIAL = (("G36xP1", "torus", 2), ("G24xG24", "general_linear", 2))
# (n, primitive middle rank) of the cubic hypersurface models in P^n.
HYPERSURFACES = ((3, 6), (4, 10))


class SessionWorkload:
    def __init__(self, workdir, rng, tracer):
        self.workdir = workdir
        self.rng = rng
        self.tracer = tracer
        self.largest = LARGEST
        import chowkunneth

        self.ck = chowkunneth
        self.rings = {}
        # The seed permutes each model's weights and picks their sign.
        # Both leave the weights' symmetric functions, and so the cost of
        # a lift, unchanged, while the model's basis pairing changes.
        self.weights = {}
        for n in WEIGHTED_DIMENSIONS:
            weights = list(range(n + 1))
            rng.shuffle(weights)
            sign = rng.choice((1, -1))
            self.weights[n] = [sign * w for w in weights]
        betti = {"P1": [1, 1], "P2": [1, 1, 1]}
        for key, (k, n) in GRASSMANNIANS.items():
            betti[key] = oracles.gaussian_binomial(n, k)
        self.product_betti = {}
        for names in PRODUCTS:
            poly = [1]
            for n in names:
                poly = oracles.poly_mul(poly, betti[n])
            self.product_betti["x".join(names)] = oracles.betti_from_poly(poly)

    # -- set-up ------------------------------------------------------------------

    def setup_steps(self, traced):
        """(name, run) steps that build every ring and projector set the
        session uses from an empty ring cache, each into `self.rings`;
        later steps use the rings of earlier ones."""
        from chowkunneth import spaces

        cache = getattr(spaces, "_CACHE", None)
        expect(isinstance(cache, dict), "spaces._CACHE is gone: set-up cannot rebuild rings")
        cache.clear()
        ck = self.ck
        rings = self.rings
        steps = []

        def step(key, make):
            def run():
                rings[key] = make()

            steps.append((f"build {key}", run))

        step("P1", lambda: ck.projective_space(1))
        step("P2", lambda: ck.projective_space(2))
        for key, (k, n) in GRASSMANNIANS.items():
            step(key, lambda k=k, n=n: ck.grassmannian(k, n))
        for names in PRODUCTS:
            step("x".join(names), lambda names=names: ck.product_space(*(rings[n] for n in names)))
        for n in WEIGHTED_DIMENSIONS:
            step(f"P{n} set", lambda n=n: ck.full_projectors(ck.projective_space(n)))
        for name, _, _ in TRIVIAL:
            step(f"{name} set", lambda name=name: ck.full_projectors(rings[name]))
        for n, middle in HYPERSURFACES:
            def hypersurface(n=n, middle=middle):
                ring = ck.hypersurface_model(n, 3, middle)
                _, q = ck.kill_primitive_middle(ring)
                return ck.full_projectors(ring), q

            step(f"X3(P{n})", hypersurface)
        return steps

    # -- one pass ----------------------------------------------------------------

    def operations(self, traced):
        """(name, run, check) triples of one pass; `run` results feed
        later operations of the same pass through `state`."""
        ck = self.ck
        state = {}
        ops = []

        for names in PRODUCTS:
            ops.append(self._product_op("x".join(names)))
        for n in WEIGHTED_DIMENSIONS:
            ops.append(self._weighted_op(n, state))
        for name, group_kind, rank in TRIVIAL:
            ops.append(self._trivial_op(name, group_kind, rank, state))
        ops.append(self._restrict_op(state))
        ops.extend(self._document_ops(state))
        ops.append(self._random_op())
        return ops

    def _product_op(self, name):
        ck = self.ck
        ring = self.rings[name]

        def run():
            return ck.verify_ck(ck.full_projectors(ring))

        def check(report):
            _check_report(name, report, self.product_betti[name], len(ring.basis))

        return f"verify_ck {name}", run, check

    def _weighted_op(self, n, state):
        ck = self.ck
        P = self.rings[f"P{n} set"]
        weights = self.weights[n]

        def run():
            model = ck.equivariant_projective_torus(weights, 4 * n)
            family = ck.lift_projectors(P, ck.torus_group(1), 4 * n, model=model)
            state[f"P{n}"] = (P, family)
            return model, ck.verify_equivariant(family)

        def check(out):
            model, report = out
            _check_report(f"weighted P{n}", report, oracles.betti_from_poly([1] * (n + 1)), n + 1)
            negated = [-Fraction(w) for w in weights]
            for j in range(n + 1):
                want = oracles.complete_homogeneous(negated, j)
                got = model.pair_poly(n, j)
                expect(got == ({(j,): want} if want else {}),
                        f"weighted P{n}: pushforward of h^{n + j} is {got}, expected {want} t^{j}")

        return f"lift weighted P{n}", run, check

    def _trivial_op(self, name, group_kind, rank, state):
        ck = self.ck
        P = self.rings[f"{name} set"]
        group = ck.torus_group(rank) if group_kind == "torus" else ck.general_linear_group(rank)

        def run():
            family = ck.lift_projectors(P, group, 4)
            state[name] = (P, family)
            return ck.verify_equivariant(family)

        def check(report):
            _check_report(f"{name} under {group.kind}", report, self.product_betti[name],
                          len(P.ring.basis))

        return f"lift trivial {name} {group.kind}", run, check

    def _restrict_op(self, state):
        ck = self.ck

        def run():
            back = {key: ck.bottom_weight_restriction(family.model, family)
                    for key, (_, family) in state.items()}
            moved = []
            for n, middle in HYPERSURFACES:
                P, q = self.rings[f"X3(P{n})"]
                R = ck.bottom_weight_restriction(q, P)
                moved.append((f"X3(P{n})", R, ck.verify_ck(R),
                              oracles.hypersurface_betti(n, middle), middle))
            return back, moved

        def check(out):
            back, moved = out
            for key, restricted in back.items():
                P = state[key][0]
                expect(restricted == P, f"{key}: restriction does not give back the base set")
            for name, R, report, betti, middle in moved:
                dim = max(betti) // 2
                kept = dict(betti)
                kept[dim] -= middle
                _check_report(f"{name} restricted", report, kept, len(R.ring.basis))

        return "bottom_weight_restriction", run, check

    def _document_ops(self, state):
        ck = self.ck
        serialize = ck.serialize
        paths = {}

        def objects():
            out = {f"{key}.family": family for key, (_, family) in state.items()}
            out.update({f"{name}.set": self.rings[f"{name} set"] for name, _, _ in TRIVIAL})
            return out

        def write():
            written = 0
            for key, obj in objects().items():
                path = os.path.join(self.workdir, f"{key}.json")
                doc = (serialize.family_document(obj) if key.endswith(".family")
                       else serialize.projector_set_document(obj))
                serialize.write_document(path, doc)
                paths[key] = path
                written += os.path.getsize(path)
            return written

        def read():
            out = {}
            for key, path in paths.items():
                doc = serialize.read_document(path)
                out[key] = (serialize.family_from_document(doc, where=path)
                            if key.endswith(".family")
                            else serialize.projector_set_from_document(doc, where=path))
            return out

        def check_read(out):
            originals = objects()
            for key, obj in out.items():
                original = originals[key]
                if key.endswith(".family"):
                    same = (obj.model == original.model
                            and obj.projectors == original.projectors
                            and obj.complete == original.complete
                            and obj.remainder_indices == original.remainder_indices)
                    text = serialize.dumps(serialize.family_document(obj))
                else:
                    same = obj == original
                    text = serialize.dumps(serialize.projector_set_document(obj))
                expect(same, f"{key}: the document read back is a different object")
                with open(paths[key], encoding="utf-8") as handle:
                    expect(handle.read() == text, f"{key}: rewriting changes the bytes")

        return [
            ("documents write", write, lambda written: written),
            ("documents read", read, check_read),
        ]

    def _random_op(self):
        ck = self.ck
        ring = self.rings["G24xG24"]
        f, g, h = (self._random_correspondence(ring) for _ in range(3))
        probes = [ring.basis_vector(i) for i in range(len(ring.basis))]

        def run():
            fg = ck.compose(f, g)
            return {
                "left": ck.compose(fg, h),
                "right": ck.compose(f, ck.compose(g, h)),
                "acted_once": [ck.act(fg, a) for a in probes],
                "acted_twice": [ck.act(g, ck.act(f, a)) for a in probes],
                "diagonal_f": ck.compose(ck.diagonal(ring), f),
            }

        def check(out):
            expect(out["left"] == out["right"], "compose is not associative")
            expect(out["acted_once"] == out["acted_twice"],
                    "act(compose(f, g), a) differs from act(g, act(f, a))")
            expect(out["diagonal_f"] == f, "compose(diagonal, f) differs from f")

        return "random correspondences", run, check

    def _random_correspondence(self, ring):
        """A degree-0 correspondence with RANDOM_TERMS terms at seeded
        complementary basis pairs and small seeded rational coefficients."""
        top = ring.top_degree
        pairs = [(i, j) for i, (_, di) in enumerate(ring.basis)
                 for j, (_, dj) in enumerate(ring.basis) if di + dj == top]
        terms = {}
        for pair in self.rng.sample(pairs, RANDOM_TERMS):
            numerator = self.rng.choice((-1, 1)) * self.rng.randint(1, 5)
            terms[pair] = Fraction(numerator, self.rng.randint(1, 3))
        return self.ck.CorrespondenceClass(ring, ring, 0, terms)

    def take_trace(self):
        return self.tracer.take()

    def final_checks(self):
        """The Grassmannians against closed formulas: Betti numbers are
        Gaussian binomials, and the integral of s1^(k(n-k)) over G(k,n)
        is the hook-length count of standard tableaux of the k x (n-k)
        rectangle (462 for G(3,7))."""
        for key, (k, n) in CHECKED_GRASSMANNIANS.items():
            ring = self.rings.get(key) or self.ck.grassmannian(k, n)
            betti = {d: r for d, r in ring.betti().items() if r}
            want = oracles.betti_from_poly(oracles.gaussian_binomial(n, k))
            expect(betti == want, f"G({k},{n}): Betti numbers {betti}, expected {want}")
            got = power_integral(ring, ["s[1]"], k * (n - k))
            degree = oracles.rectangle_tableaux(k, n - k)
            expect(got == degree, f"G({k},{n}): integral of s1^{k * (n - k)} is {got}, not {degree}")

    def peak_rss_mb(self):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_report(name, report, betti, rank):
    expect(all(e["pass"] for e in report), f"{name}: a verification entry failed")
    members = len(oracles.projector_indices(betti))
    expected = oracles.report_size(members, rank)
    expect(len(report) == expected, f"{name}: {len(report)} report entries, expected {expected}")
    expect(sum(betti.values()) == rank, f"{name}: rank {rank}, Betti numbers say {sum(betti.values())}")
