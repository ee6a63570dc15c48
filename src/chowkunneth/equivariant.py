"""Bounded-degree parameter models for group actions.

A group contributes a graded polynomial parameter ring (one generator
per character or Chern class); the model of an action is the base ring
with coefficients in the parameter ring, with monomials above a chosen
even bound N discarded. A lifted correspondence is an ordinary one
whose terms also carry a parameter monomial: it composes and acts by
the joins of `correspondences`, each monomial an integer code, and is
verified by the report of `kunneth`. Families restrict back to the base
by sending every parameter generator to zero. All verified identities
are exact degreewise up to the bound.
"""

from fractions import Fraction

from .correspondences import CorrespondenceClass, _act, _compose, diagonal
from .errors import (
    InvalidSpec, RingMismatch, SizeLimitExceeded, UnsupportedAction, _require_int, _shown,
)
from .kunneth import ProjectorSet, _action_rows, _components, _report, report_passes
from .linalg import _integer_scaled
from .serialize import fraction_str


# -- groups and parameter rings ---------------------------------------------


class GroupSpec:
    """A multiplicative torus of a given rank, or a general linear
    group of a given size: the 'kind' and 'rank' of a group document,
    checked here."""

    __slots__ = ("kind", "size")

    KINDS = ("multiplicative_torus", "general_linear")

    def __init__(self, kind, size):
        if kind not in self.KINDS:
            raise InvalidSpec(f"'kind': unknown group kind {_shown(kind)}")
        self.kind = kind
        self.size = _require_int(size, "'rank': the group rank", 1)

    def generators(self):
        """Parameter generators as (name, degree) pairs."""
        if self.kind == "multiplicative_torus":
            if self.size == 1:
                return (("t", 2),)
            return tuple((f"t{i}", 2) for i in range(1, self.size + 1))
        return tuple((f"c{i}", 2 * i) for i in range(1, self.size + 1))

    def monomial_count(self, N, cap=None):
        """The number of monomials of degree <= N in the generators,
        without listing them: C(r + N/2, r) for a torus of rank r, and
        for GL(r) the partitions of at most N/2 into parts of at most
        min(r, N/2). Past `cap` the count stops early and returns a
        lower bound above `cap`, so a huge group or bound costs no more
        than a count up to `cap`."""
        half, r = N // 2, self.size
        if self.kind == "multiplicative_torus":
            k = min(r, half)
            count = 1
            for i in range(1, k + 1):
                count = count * (r + half - k + i) // i
                if cap is not None and count > cap:
                    break
            return count
        if cap is not None and half >= cap:
            return half + 1
        # counts[n]: the partitions of n into the parts used so far
        counts = [1] * (half + 1)
        total = half + 1
        for part in range(2, min(r, half) + 1):
            if cap is not None and total > cap:
                break
            for n in range(part, half + 1):
                counts[n] += counts[n - part]
            total = sum(counts)
        return total

    def __eq__(self, other):
        if not isinstance(other, GroupSpec):
            return NotImplemented
        return self.kind == other.kind and self.size == other.size

    def __hash__(self):
        return hash((self.kind, self.size))

    def __repr__(self):
        return f"GroupSpec({self.kind!r}, {self.size})"


def torus_group(rank=1):
    return GroupSpec("multiplicative_torus", rank)


def general_linear_group(n):
    return GroupSpec("general_linear", n)


class TruncatedPolyRing:
    """Polynomial ring on weighted generators with every monomial of
    degree above the bound discarded. Monomials are exponent tuples;
    the basis is ordered by degree, then by exponents largest-first.

    Each monomial m also has the integer code deg(m) B^r + sum_g e_g B^g
    for r generators and B = N/2 + 1 (`code_of`, inverted by `mono_of`).
    Generators have degree >= 2, so no exponent of a product within the
    bound reaches B: code(a) + code(b) is the code of a * b exactly when
    it is below `limit` = (N + 1) B^r, and the unit's code is 0.
    """

    __slots__ = ("gens", "bound", "basis", "code_of", "mono_of", "limit")

    def __init__(self, gens, bound):
        bound = _truncation_bound(bound)
        self.gens = tuple((str(n), _require_int(d, "a parameter generator's degree"))
                          for n, d in gens)
        if any(d < 2 for _, d in self.gens):
            raise ValueError("parameter generators must have degree >= 2")
        self.bound = bound
        # (degree, ((generator, exponent > 0), ...)) for every monomial,
        # each generator extending the ones before it
        sparse = [(0, ())]
        for g, (_, d) in enumerate(self.gens):
            sparse += [(deg + e * d, support + ((g, e),)) for deg, support in sparse
                       for e in range(1, (bound - deg) // d + 1)]
        B, r = bound // 2 + 1, len(self.gens)
        powers = [B**g for g in range(r + 1)]
        monos = []
        for deg, support in sparse:
            exps = [0] * r
            for g, e in support:
                exps[g] = e
            code = deg * powers[r] + sum(e * powers[g] for g, e in support)
            monos.append((deg, [-e for e in exps], tuple(exps), code))
        monos.sort()
        self.basis = tuple((self.mono_label(m), deg) for deg, _, m, _ in monos)
        self.code_of = {m: code for _, _, m, code in monos}
        self.mono_of = {c: m for m, c in self.code_of.items()}
        self.limit = (bound + 1) * powers[r]

    @property
    def unit_mono(self):
        return (0,) * len(self.gens)

    def monomials(self):
        return tuple(self.code_of)

    def mono_degree(self, exps):
        return sum(e * d for e, (_, d) in zip(exps, self.gens))

    def mono_label(self, exps):
        parts = []
        for e, (name, _) in zip(exps, self.gens):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return " ".join(parts) if parts else "1"

    def __eq__(self, other):
        if not isinstance(other, TruncatedPolyRing):
            return NotImplemented
        return self.gens == other.gens and self.bound == other.bound

    def __repr__(self):
        names = ", ".join(n for n, _ in self.gens)
        return f"<TruncatedPolyRing [{names}] bound={self.bound} rank={len(self.basis)}>"


def _truncation_bound(N):
    """N, checked to be an even int >= 0."""
    if _require_int(N, "'N': the truncation bound", 0) % 2:
        raise InvalidSpec(
            f"'N': the truncation bound must be an even integer >= 0, got {_shown(N)}")
    return N


# A parameter ring holds one exponent per generator in each monomial;
# `bg_ring` refuses one that would hold more than this many. A rank-5
# torus at N = 40 holds 53,130 monomials (265,650 exponents) and builds
# in about 0.5 s.
MAX_PARAMETER_EXPONENTS = 1_000_000


def bg_ring(G, N):
    """The parameter ring of the group, truncated at even degree N. Its
    monomials are counted before any generator is listed, and a ring
    past MAX_PARAMETER_EXPONENTS raises SizeLimitExceeded. GL(r) keeps
    c_1 .. c_min(r, N/2), the generators within the bound."""
    N = _truncation_bound(N)
    kept = G.size if G.kind == "multiplicative_torus" else min(G.size, N // 2)
    cap = MAX_PARAMETER_EXPONENTS // max(kept, 1)
    count = G.monomial_count(N, cap)
    if count > cap:
        least = _shown(count) if count > 10**30 else f"at least {count}"
        raise SizeLimitExceeded(
            f"the parameter ring of {G.kind} of rank {_shown(G.size)} truncated at N = "
            f"{_shown(N)} would hold {least} monomials of {_shown(kept)} exponents each, "
            f"past the limit of {MAX_PARAMETER_EXPONENTS} exponents"
        )
    gens = G.generators() if kept == G.size else [(f"c{i}", 2 * i) for i in range(1, kept + 1)]
    return TruncatedPolyRing(gens, N)


# -- action models -----------------------------------------------------------


class EquivariantModel:
    """The base ring with parameter-ring coefficients, truncated.

    Without `weights` the group acts trivially: parameters never mix
    with the base, and base classes pair through the base pairing at
    the unit monomial. With integer `weights` w_1..w_m, a rank-one
    torus acts on the projective space of dimension m - 1 and the
    hyperplane class satisfies product(h + w_i t) = 0, so base classes
    pair polynomially in t. Both weighted tables are closed forms in
    the weights' elementary symmetric functions e_c (Fulton,
    Intersection Theory, 3.2): the pushforward of h^(m-1+s) is s_s t^s,
    with s_0, s_1, ... the coefficients of 1 / product(1 + w_i x), and
    the diagonal is the divided difference of product(h + w_i t).

    Library calls, documents and flags all build a model here, so its
    input rules are checked once: the group's by `GroupSpec`, the
    bound's by `bg_ring`, and the weighted contract (a nonempty list of
    ints, a rank-1 torus, the base P^(m-1)) by the constructor. A broken
    rule raises InvalidSpec naming the document field.
    """

    __slots__ = ("base", "group", "N", "weights", "bg", "_chern", "_segre", "_scaled",
                 "_diagonal")

    def __init__(self, base, group, N, weights=None):
        if weights is not None:
            _check_weighted(base, group, weights)
            weights = tuple(weights)
        self.bg = bg_ring(group, N)
        self.base = base
        self.group = group
        self.N = self.bg.bound
        self.weights = weights
        self._chern = self._segre = self._scaled = self._diagonal = None
        if self.weights is not None:
            e = [1]
            for w in self.weights:
                e = [a + w * b for a, b in zip(e + [0], [0] + e)]
            # e[c] is the c-th elementary symmetric function of the
            # weights; s[r] = -sum e[i] s[r - i] inverts their series,
            # in integers since e[0] = 1
            s = [1]
            for r in range(1, len(self.weights)):
                s.append(-sum(e[i] * s[r - i] for i in range(1, r + 1)))
            self._chern, self._segre = tuple(e), tuple(map(Fraction, s))

    @property
    def dim(self):
        """The base's dimension: lifted members have the degrees of
        base correspondences, and indices range over [0, 2 dim]."""
        return self.base.dim

    # -- the degreewise pairing ------------------------------------------

    def pair_poly(self, j, k):
        """Parameter-valued pairing of base basis classes j and k: the
        equivariant pushforward of their product, as {monomial: coeff},
        truncated at the bound."""
        if self.weights is None:
            v = self.base.pair_basis(j, k)
            return {self.bg.unit_mono: v} if v != 0 else {}
        s = (self.base.basis[j][1] + self.base.basis[k][1]) // 2 - self.dim
        if s < 0 or 2 * s > self.N or not self._segre[s]:
            return {}
        return {(s,): self._segre[s]}

    def _integer_partners(self):
        """(L, rows), built once in the shape of a ring's table: row j
        lists (k, code, L * value) for every monomial of every nonzero
        `pair_poly(j, k)`. A weighted pair depends only on s = (deg e_j +
        deg e_k) / 2 - dim, so one cell `pair_poly(dim, s)` per s in
        [0, min(dim, N / 2)] fills every row; each cell lies in some row,
        so the cells' lcm is the table's L. A trivial model has the base's."""
        if self._scaled is None:
            if self.weights is None:
                self._scaled = self.base._integer_partners()
            else:
                n, code = self.dim, self.bg.code_of
                cells = [self.pair_poly(n, s) for s in range(min(n, self.N // 2) + 1)]
                scale, nums = _integer_scaled(v for c in cells for v in c.values())
                cells = [[(code[m], next(nums)) for m in c] for c in cells]
                half = [d // 2 for _, d in self.base.basis]
                self._scaled = scale, [[(k, m, v) for k, dk in enumerate(half)
                                        if 0 <= (s := dj + dk - n) < len(cells)
                                        for m, v in cells[s]] for dj in half]
        return self._scaled

    def diagonal(self):
        """The model's diagonal: the base diagonal at the unit monomial
        or, with weights, the divided difference of product(h + w_i t),
        the sum over a + b + c = m - 1 of e_c t^c (h^a x h^b); its terms
        are made once per model, valid as they stand."""
        if self._diagonal is None:
            terms = self._divided_difference() if self.weights is not None else {
                (i, j, self.bg.unit_mono): c for (i, j), c in diagonal(self.base).terms.items()}
            self._diagonal = terms
        return EquivariantCorrespondence._trusted(self, self, 0, self._diagonal)

    def _divided_difference(self):
        """The weighted diagonal's terms {(a, b, (c,)): e_c}, without the
        zero e_c and the t^c past the bound: nonzero `Fraction`s of the
        diagonal's degree, valid as they stand."""
        m, top = len(self.weights), self.N // 2
        chern = {c: Fraction(e) for c, e in enumerate(self._chern[:top + 1]) if e}
        return {(a, b, (c,)): chern[c] for a in range(m) for b in range(m - a)
                if (c := m - 1 - a - b) in chern}

    def __eq__(self, other):
        if not isinstance(other, EquivariantModel):
            return NotImplemented
        return self is other or (
            self.base == other.base
            and self.group == other.group
            and self.N == other.N
            and self.weights == other.weights
        )

    def __repr__(self):
        kind = "trivial" if self.weights is None else "projective_torus"
        tail = f" weights={list(self.weights)}" if self.weights else ""
        return (
            f"<EquivariantModel {kind} dim={self.base.dim} "
            f"N={self.N}{tail}>"
        )


def _check_weighted(base, group, weights):
    """The weighted contract: a nonempty list of int weights w_1..w_m,
    acting through a rank-1 multiplicative torus on the base P^(m-1)."""
    from .spaces import projective_space

    if not isinstance(weights, (list, tuple)) or not weights:
        raise InvalidSpec(f"'weights' must be a nonempty list of integers, got {weights!r}")
    for w in weights:
        _require_int(w, "'weights': each weight")
    if group != GroupSpec("multiplicative_torus", 1):
        raise InvalidSpec(f"'weights': a weighted model needs a rank-1 multiplicative torus, "
                          f"got {group.kind} of rank {group.size}")
    m = len(weights)
    if base.dim != m - 1 or base != projective_space(m - 1):
        raise InvalidSpec(f"'weights': {m} weights act on P^{m - 1}, not on the given base "
                          f"of dimension {base.dim}")


def equivariant_trivial_action(X, G, N):
    """The model of an action whose basis classes are all invariant:
    base classes and parameters never mix."""
    return EquivariantModel(X, G, N)


def equivariant_projective_torus(weights, N):
    """A rank-one torus acting on the projective space of a
    representation with the given integer weights. The base is the
    ordinary projective space of dimension len(weights) - 1; the
    parameter t enters the pairing through the relation
    product(h + weight_i * t) = 0."""
    from .spaces import projective_space

    weights = tuple(weights)
    # the model refuses an empty list before it reads the base
    base = projective_space(max(len(weights) - 1, 0))
    return EquivariantModel(base, torus_group(1), N, weights=weights)


# -- parameter-valued correspondences ----------------------------------------


class EquivariantCorrespondence(CorrespondenceClass):
    """Sparse self-correspondence of the model's base with parameter
    monomial coefficients: terms (i, j, monomial) -> coefficient,
    homogeneous of total degree 2*(dim + shift). Source and target are
    the model. Its calculus is that of ordinary correspondences, each
    monomial read as its code in the parameter ring; only the key check,
    labels and restriction are its own. Terms whose monomial overflows
    the bound are dropped on construction (truncation)."""

    __slots__ = ()

    def __init__(self, model, shift, terms):
        super().__init__(model, model, shift, terms)

    def _checked(self, key):
        """The term key (i, j, monomial) checked to have the class's
        degree, read off the monomial's code (code // B^r), or None when
        the monomial has no code: it then overflows the bound."""
        i, j, mono = key
        base, bg = self.source.base, self.source.bg
        code = bg.code_of.get(mono)
        if code is None:
            mono = tuple(mono)
            if len(mono) != len(bg.gens) or min(mono, default=0) < 0:
                raise ValueError(f"{mono} is not a parameter monomial (one exponent >= 0 each)")
            if (code := bg.code_of.get(mono)) is None:
                return None
        total = base.basis[i][1] + base.basis[j][1] + code // (bg.limit // (bg.bound + 1))
        if total != self.degree:
            raise ValueError(
                f"term ({base.basis[i][0]}, {base.basis[j][0]}, "
                f"{bg.mono_label(mono)}) has degree {total}, expected {_shown(self.degree)}"
            )
        return i, j, mono

    @property
    def _limit(self):
        return self.source.bg.limit

    def _coded(self):
        code = self.source.bg.code_of
        return [(i, j, code[m]) for i, j, m in self.terms]

    def _decoded(self, packed, stride, scale):
        mono, width = self.source.bg.mono_of, self._limit
        terms = {}
        for key, v in packed.items():
            if v:
                i, key = divmod(key, stride)
                j, m = divmod(key, width)
                terms[i, j, mono[m]] = Fraction(v, scale)
        return terms

    def label_terms(self):
        """Terms as (source label, target label, monomial label,
        coefficient), in stable (index, index, monomial) order."""
        basis, label = self.source.base.basis, self.source.bg.mono_label
        return [
            (basis[i][0], basis[j][0], label(mono), c)
            for (i, j, mono), c in sorted(self.terms.items())
        ]

    def compose(self, other):
        """Composition with self applied first, monomials overflowing
        the bound dropped; the shifts add, as for ordinary classes."""
        if self.source != other.source:
            raise RingMismatch("correspondences live over different models")
        return _compose(self, other)

    def act(self, alpha):
        """Action on a base class with scalar coefficients, as
        {(index, monomial): coeff}."""
        if alpha.ring != self.source.base:
            raise RingMismatch("class does not live over the model's base")
        mono, width = self.source.bg.mono_of, self._limit
        scale, out = _act(self, alpha)
        image = {}
        for key, v in out.items():
            if v:
                j, m = divmod(key, width)
                image[j, mono[m]] = Fraction(v, scale)
        return image

    def restrict(self):
        """Ordinary correspondence on the base: every parameter
        generator goes to zero, keeping only unit-monomial terms."""
        base, unit = self.source.base, self.source.bg.unit_mono
        terms = {(i, j): c for (i, j, mono), c in self.terms.items() if mono == unit}
        return CorrespondenceClass._trusted(base, base, self.shift, terms)


class EquivariantProjectorFamily(ProjectorSet):
    """Lifted projectors: a projector set whose ring is a truncated
    model and whose members are parameter-valued correspondences."""

    __slots__ = ()

    @property
    def model(self):
        return self.ring

    def restrict(self):
        """Ordinary projector set on the base (parameters to zero)."""
        return ProjectorSet(
            self.model.base,
            {i: p.restrict() for i, p in self.projectors.items()},
            complete=self.complete,
            remainder_indices=self.remainder_indices,
        )


# -- lifting, verification, stabilization ------------------------------------


def unit_lift(model, p):
    """An ordinary self-correspondence of the model's base, lifted with
    unit parameter coefficient."""
    unit = model.bg.unit_mono
    terms = {(i, j, unit): c for (i, j), c in p.terms.items()}
    return EquivariantCorrespondence(model, p.shift, terms)


def lift_projectors(P, G, N, model=None):
    """Lift a projector set into a truncated model.

    Every member lifts with unit parameter coefficient. A weighted
    model accepts only the standard decomposition of its base
    projective space, and replaces member 2k by the terms of the
    model's diagonal with target h^k, a subset of its valid, nonzero
    terms taken as they stand: these stay exactly idempotent, orthogonal
    and complete in the truncation. Only the members it does not replace
    (the zero middle member of an odd-dimensional base) are lifted; any
    other set raises UnsupportedAction. No model means the trivial one.
    """
    if model is None:
        model = equivariant_trivial_action(P.ring, G, N)
    if model.group != G:
        raise RingMismatch("model was built for a different group")
    if model.N != _truncation_bound(N):
        raise RingMismatch("model was built for a different truncation bound")
    if P.ring != model.base:
        raise RingMismatch("projector set does not live over the model's base")
    projs = {}
    if model.weights is not None:
        delta = model.diagonal()
        projs = {i: EquivariantCorrespondence._trusted(model, model, 0, t)
                 for i, t in _components(delta, model.base.basis).items()}
        actual = {i: p for i, p in P.projectors.items() if not p.is_zero()}
        if actual != {i: p.restrict() for i, p in projs.items()}:
            raise UnsupportedAction(
                "a projective-torus model only lifts the standard projector "
                "set of its base projective space"
            )
    for i, p in P.projectors.items():
        if i not in projs:
            projs[i] = unit_lift(model, p)
    return EquivariantProjectorFamily(
        model, projs, complete=P.complete, remainder_indices=P.remainder_indices,
    )


def verify_equivariant(F):
    """Exact verification of a lifted family inside its truncation:
    the report of `verify_ck`, with composition, action and the
    diagonal taken in the model. Graded-action entries are decided by
    the join of `_action_rows`, which reads the model's integer partner
    table: e is expected at the unit monomial on the member's degree and
    zero elsewhere. `act` builds only a failing entry's residual rows,
    which carry the parameter monomial, by (basis index, monomial).

    Idempotence composes each member with itself. Orthogonality composes
    only the pairs with a member that fails a graded-action entry; a
    pair of passing members holds from the action alone. Over the
    truncated parameter ring R_N write the model's pairing as G = J + U,
    with J its unit-monomial part, the base ring's pairing, invertible
    by the base's `pairing_nondegeneracy` check, and U of positive
    parameter degree, hence nilpotent. So G is invertible, with inverse
    the sum over k <= N/2 of (-J^-1 U)^k J^-1, and the action matrix
    A_γ = G C_γ of a member with coefficient matrix C_γ determines it.
    As act(compose(f, g), e) = act(g, act(f, e)), A_{f∘g} = A_f A_g; two
    passing members act as the degree projections E_i and E_j at the
    unit monomial, so A_{p_i∘p_j} = E_i E_j = 0 and p_i∘p_j = 0."""
    model = F.model
    base, bg = model.base, model.bg
    unit = bg.unit_mono

    def residual_rows(p, k, on_degree):
        residual = p.act(base.basis_vector(k))
        if on_degree:
            residual[k, unit] = residual.get((k, unit), 0) - 1
        return [[base.basis[j][0], bg.mono_label(m), fraction_str(c)]
                for (j, m), c in sorted(residual.items()) if c]

    return _report(F, EquivariantCorrespondence.compose, model.diagonal,
                   _action_rows(F, base, residual_rows), orthogonality_from_action=True)


def compare_lifted_coefficients(F1, F2, D):
    """Whether two lifted families agree on every coefficient whose
    parameter monomial has degree at most D, monomials read by label: the
    families may live at different bounds, which keep different generators."""
    if F1.indices() != F2.indices():
        return False

    def filtered(F, p):
        bg = F.model.bg
        return {
            (i, j, bg.mono_label(mono)): c
            for (i, j, mono), c in F.projectors[p].terms.items() if bg.mono_degree(mono) <= D
        }

    return all(filtered(F1, p) == filtered(F2, p) for p in F1.indices())


def stabilization_check(X, G, P, D, N1, N2):
    """Whether P lifts to a verified family at bounds N1 and N2 that is
    independent of the bound in parameter degrees up to D: both lifts
    must pass `verify_equivariant`, and they must agree on every
    coefficient of parameter degree <= D. Requires D <= N1 <= N2."""
    if P.ring != X:
        raise RingMismatch("projector set does not live over the given ring")
    if not 0 <= _require_int(D, "D") <= N1 <= N2:
        raise InvalidSpec(f"the bounds must satisfy 0 <= D <= N1 <= N2, got D = {D}, "
                          f"N1 = {N1}, N2 = {N2}")
    F1 = lift_projectors(P, G, N1)
    F2 = lift_projectors(P, G, N2)
    return (
        report_passes(verify_equivariant(F1))
        and report_passes(verify_equivariant(F2))
        and compare_lifted_coefficients(F1, F2, D)
    )


def bottom_weight_restriction(q, P):
    """Transport a projector set along a graded ring surjection, member
    by member (each factor of each term mapped through q). Completeness
    is kept exactly when the diagonal maps to the target's diagonal.

    For an equivariant family, pass its model as `q`: the surjection is
    then the model's own restriction (every parameter generator to
    zero) and the result is the family's base projector set.
    """
    from .correspondences import map_correspondence
    from .graded_ring import RingMap

    if isinstance(P, EquivariantProjectorFamily):
        if not isinstance(q, EquivariantModel) or q != P.model:
            raise UnsupportedAction(
                "an equivariant family restricts only along its own model's "
                "parameter-annihilation surjection; pass the model itself"
            )
        return P.restrict()
    if not isinstance(q, RingMap):
        raise TypeError("q must be a ring map (or the family's model)")
    if P.ring != q.source:
        raise RingMismatch("projector set does not live over the map's source")
    target = q.target
    projs = {i: map_correspondence(q, q, p) for i, p in P.projectors.items()}
    complete = False
    if P.complete:
        complete = map_correspondence(q, q, diagonal(P.ring)) == diagonal(target)
    return ProjectorSet(
        target, projs, complete=complete,
        remainder_indices=P.remainder_indices,
    )
