"""Constructors for cohomology rings of standard varieties.

Each constructor assembles exact structure constants (integer tables
for projective spaces and Grassmannians) and hands them to
GradedBasisRing, whose axiom checks re-validate every table after
construction. Constructed rings carry a serializable `space`
description, and construction is cached on that description, so equal
descriptions yield the same ring object. Each builder predicts the
rank of its ring before it allocates any of it, and refuses a ring past
`MAX_RING_RANK` with `SizeLimitExceeded`.

Also houses the primitive-killing surjection used by bottom-weight
restriction, and re-exports the closed-form dimension formulas of
`formulas`.
"""

import json
from fractions import Fraction
from itertools import count
from math import comb, prod

from . import linalg
from .errors import (
    DegeneratePairing, InvalidSpec, NonLefschetzRange, NotRingMap, SizeLimitExceeded,
    _require_int, _shown,
)
from .formulas import barth_range, fano_delta, fano_delta_notes, rep_variety_dim
from .graded_ring import (
    ClassVector, GradedBasisRing, RingMap, _combine, _IntegerTable, _product, tensor_ring,
)
from .serialize import _prefixed, _require, parse_fraction

_CACHE = {}

# The largest rank a space description may ask for. A ring's axiom
# checks grow about with the cube of its rank: G(5,11) (rank 462) builds
# in about 2.5 s, G(6,12) (rank 924) in 17-21 s and 289 MB.
MAX_RING_RANK = 1000


def _require_rank(what, rank, exact=True):
    """Refuse `what` with SizeLimitExceeded if `rank`, the rank its
    builder predicts before allocating any of it (a lower bound unless
    `exact`), is past MAX_RING_RANK. The message shows the rank by
    `_shown`; the fields that `what` prints passed `build_space`'s JSON
    check, so none of them is an int too long to print."""
    if rank > MAX_RING_RANK:
        shown = _shown(rank) if exact or rank > 10**30 else f"at least {rank}"
        raise SizeLimitExceeded(
            f"{what} would have rank {shown}, past the limit of {MAX_RING_RANK}"
        )


def canonical_spec_key(spec):
    """The cache key of a space description, which must be JSON data."""
    try:
        return json.dumps(spec, sort_keys=True, ensure_ascii=False)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"space description must be JSON data: {exc}") from exc


def build_space(spec):
    """Build (with caching) the ring described by a space description."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidSpec("space description must be an object with a 'kind' field")
    kind = spec["kind"]
    builders = {
        "projective_space": _build_projective,
        "grassmannian": _build_grassmannian,
        "product": _build_product,
        "ci_model": _build_ci_model,
        "blowup": _build_blowup,
        "plane_curve_family": _build_plane_curve_family,
    }
    try:
        key = canonical_spec_key(spec)
        if key not in _CACHE:
            if not isinstance(kind, str) or kind not in builders:
                raise InvalidSpec(f"unknown space kind {kind!r}")
            _CACHE[key] = builders[kind](spec)
        return _CACHE[key]
    except RecursionError as exc:  # the innermost build turns it into InvalidSpec
        raise InvalidSpec("space description is nested too deeply to build") from exc


def _int_field(spec, field, minimum):
    kind = spec["kind"]
    return _require_int(_require(spec, field, kind), f"{kind}: field {field!r}", minimum)


def _exact(value):
    """A helper's coefficients, in the same nesting of objects (with
    string keys) and lists, each exact rational in canonical form; the
    builder refuses whatever else they hold."""
    if isinstance(value, dict):
        return {str(k): _exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    try:
        return str(parse_fraction(value))
    except InvalidSpec:
        return value


def _space_of(value, what):
    """The description of a ring argument, or the argument itself when
    it is already a description."""
    if isinstance(value, GradedBasisRing):
        if not isinstance(value.space, dict):
            raise InvalidSpec(f"{what} must carry a space description")
        return value.space
    return value


# -- projective space ---------------------------------------------------------


def projective_space(n):
    return build_space({"kind": "projective_space", "n": n})


def _build_projective(spec):
    n = _int_field(spec, "n", 0)
    _require_rank(f"P^{n}", n + 1)
    basis = [("1", 0)]
    for k in range(1, n + 1):
        basis.append(("h" if k == 1 else f"h^{k}", 2 * k))
    structure = _IntegerTable(((i, j), {i + j: 1}) for i in range(n + 1) for j in range(n + 1 - i))
    return GradedBasisRing(n, basis, structure, {n: 1}, space=spec)


# -- grassmannian -------------------------------------------------------------


def grassmannian(k, n):
    return build_space({"kind": "grassmannian", "k": k, "n": n})


def _build_grassmannian(spec):
    from . import schubert

    k = _int_field(spec, "k", 1)
    n = _int_field(spec, "n", 2)
    if not 0 < k < n:
        raise InvalidSpec("grassmannian requires 0 < k < n")
    small = n <= MAX_RING_RANK  # else C(n, k) >= n is past the limit already
    _require_rank(f"G({k},{n})", comb(n, k) if small else n, exact=small)
    cols = n - k
    parts = schubert.partitions_in_box(k, cols)
    index = {lam: i for i, lam in enumerate(parts)}
    basis = [(schubert.partition_label(lam), 2 * sum(lam)) for lam in parts]
    table = schubert.product_table(k, cols)
    structure = _IntegerTable(((index[lam], index[mu]), {index[nu]: c for nu, c in prod.items()})
                              for (lam, mu), prod in table.items() if prod)
    box = tuple([cols] * k)
    return GradedBasisRing(k * cols, basis, structure, {index[box]: 1}, space=spec)


# -- products -----------------------------------------------------------------


def product_space(*factors):
    return build_space({"kind": "product",
                        "factors": [_space_of(f, "product factors") for f in factors]})


def _build_product(spec):
    raw = spec.get("factors")
    if not isinstance(raw, list) or not raw:
        raise InvalidSpec("product: 'factors' must be a nonempty list")
    factors = [build_space(s) for s in raw]
    _require_rank(f"a product of {len(factors)} factors", prod(len(f.basis) for f in factors))
    return tensor_ring(factors, space=spec)


# -- complete-intersection (Lefschetz truncation) model -----------------------


def ci_model(ambient, xi, middle_rank, middle_pairing=None):
    """Ring of a complete intersection cut out of `ambient` by a class
    with fundamental class `xi`, with `middle_rank` abstract primitive
    middle classes (see the builder for the full contract)."""
    spec = {
        "kind": "ci_model",
        "ambient": _space_of(ambient, "ci_model ambient"),
        "fundamental_class_expr": _exact(xi.label_dict() if isinstance(xi, ClassVector) else xi),
        "middle_rank": middle_rank,
    }
    if middle_pairing is not None:
        spec["middle_pairing"] = _exact(middle_pairing)
    return build_space(spec)


def hypersurface_model(n, d, middle_rank):
    """Degree-d hypersurface in P^n as a ci_model."""
    return ci_model({"kind": "projective_space", "n": n}, {"h": d}, middle_rank)


def _default_middle_pairing(rank, odd):
    z, one = Fraction(0), Fraction(1)
    if not odd:
        return [[one if i == j else z for j in range(rank)] for i in range(rank)]
    if rank % 2:
        raise DegeneratePairing(
            "an antisymmetric middle pairing needs even rank; got rank "
            f"{rank} with no pairing supplied"
        )
    m = [[z] * rank for _ in range(rank)]
    for i in range(rank // 2):
        m[2 * i][2 * i + 1] = one
        m[2 * i + 1][2 * i] = -one
    return m


def _build_ci_model(spec, space=None):
    """The ci_model ring of `spec`, described by `space` when given
    (a plane curve family is a ci_model under its own description)."""
    amb = build_space(_require(spec, "ambient", "ci_model"))
    if any(deg % 2 for _, deg in amb.basis):
        raise InvalidSpec("ci_model ambient must have even cohomology only")
    with _prefixed("ci_model fundamental_class_expr"):
        xi = amb.from_label_dict(_require(spec, "fundamental_class_expr", "ci_model"))
    if xi.is_zero() or xi.degree % 2 or xi.degree == 0:
        raise InvalidSpec(
            "ci_model fundamental_class_expr must be homogeneous of positive even degree"
        )
    s = xi.degree // 2
    d = amb.dim - s
    if d < 1:
        raise InvalidSpec("ci_model requires ambient dimension > codimension")
    top = 2 * d
    k_prim = _int_field(spec, "middle_rank", 0)
    # the ambient classes through degree d, the duals of those below it,
    # and the primitives
    _require_rank("the ci_model", sum(amb.rank(t) for t in range(d + 1))
                  + sum(amb.rank(t) for t in range(d)) + k_prim)

    # The xi-twisted pairing: twisted[(i, j)] = integral of e_i * e_j * xi
    # over the ambient, for every pair of complementary degree in X.
    amb_deg = [t for _, t in amb.basis]
    xi_value = {k: sum(c * amb.pair_basis(k, x) for x, c in xi.coeffs.items())
                for k in amb.degree_indices(top)}
    twisted = {}
    for (i, j), prod in amb.structure.items():
        if amb_deg[i] + amb_deg[j] == top:
            val = sum(c * xi_value[k] for k, c in prod.items())
            if val:
                twisted[(i, j)] = val

    # Lefschetz-range check: restriction must stay injective at and below
    # the middle, i.e. the xi-twisted ambient pairing has full row rank.
    for t in range(0, d + 1):
        rows = amb.degree_indices(t)
        if not rows:
            continue
        cols = amb.degree_indices(top - t)
        m = linalg.mat([[twisted.get((i, j), Fraction(0)) for j in cols] for i in rows])
        if linalg.rank(m) != len(rows):
            raise NonLefschetzRange(
                f"xi-twisted ambient pairing drops rank in degree {t}"
            )

    odd_middle = bool(d % 2)
    if "middle_pairing" in spec:
        rawp = spec["middle_pairing"]
        if (
            not isinstance(rawp, list)
            or len(rawp) != k_prim
            or any(not isinstance(r, list) or len(r) != k_prim for r in rawp)
        ):
            raise InvalidSpec("middle_pairing must be a middle_rank x middle_rank matrix")
        prim_pairing = [[parse_fraction(v, "middle_pairing") for v in row] for row in rawp]
        for i in range(k_prim):
            for j in range(k_prim):
                want = -prim_pairing[j][i] if odd_middle else prim_pairing[j][i]
                if prim_pairing[i][j] != want:
                    kind = "antisymmetric" if odd_middle else "symmetric"
                    raise InvalidSpec(f"middle_pairing must be {kind}")
        if k_prim and linalg.inverse(linalg.mat(prim_pairing)) is None:
            raise DegeneratePairing("supplied middle pairing is singular")
    else:
        prim_pairing = _default_middle_pairing(k_prim, odd_middle)

    # Basis layout: ambient classes survive through degree d (labels kept),
    # primitives sit in the middle, degrees above d are duals of the
    # complementary ambient classes (label = ambient label + "*").
    basis, amb_to_x, dual_to_x, prims = [], {}, {}, []
    for t in range(0, top + 1):
        if t <= d:
            for i in amb.degree_indices(t):
                amb_to_x[i] = len(basis)
                basis.append((amb.basis[i][0], t))
        if t == d:
            for p in range(k_prim):
                prims.append(len(basis))
                basis.append((f"m{p + 1}", d))
        if t > d:
            for i in amb.degree_indices(top - t):
                dual_to_x[i] = len(basis)
                basis.append((amb.basis[i][0] + "*", t))
    (amb_unit,) = amb.degree_indices(0)
    unit, point_index = amb_to_x[amb_unit], dual_to_x[amb_unit]

    # The restriction of each ambient class: itself through degree d, and
    # above d the sum over i of twisted(i, k) (e_i)*.
    restricted = [{amb_to_x[k]: 1} if t <= d else
                  {dual_to_x[i]: c for i in amb.degree_indices(top - t)
                   if (c := twisted.get((i, k)))}
                  for k, t in enumerate(amb_deg)]

    # The table from the ambient one: restricted classes multiply as their
    # ambient classes do, e_v * (e_w)* is the sum over u of (the e_w term
    # of e_u * e_v) (e_u)*, in both orders, primitives pair to the point,
    # and every other mixed product vanishes (primitives against
    # positive-degree classes, dual against dual past the top degree).
    structure = {}
    for (u, v), prod in amb.structure.items():
        if amb_deg[u] <= d and amb_deg[v] <= d and (out := _combine(prod, restricted)):
            structure[amb_to_x[u], amb_to_x[v]] = out
        for w, c in prod.items():
            if w in dual_to_x:
                a, b = amb_to_x[v], dual_to_x[w]
                structure.setdefault((a, b), {})[dual_to_x[u]] = c
                structure.setdefault((b, a), {})[dual_to_x[u]] = c
    for p, a in enumerate(prims):
        structure[unit, a] = structure[a, unit] = {a: 1}
        for q, b in enumerate(prims):
            if prim_pairing[p][q]:
                structure[a, b] = {point_index: prim_pairing[p][q]}

    ring = GradedBasisRing(
        d, basis, structure, {point_index: 1}, space=spec if space is None else space,
        parts={"primitive_indices": tuple(prims)},
    )
    # The one part recorded after construction: the map's target is the ring.
    ring.parts["restrict_map"] = RingMap(amb, ring, [
        ClassVector(ring, t, restricted[k]) for k, t in enumerate(amb_deg)])
    return ring


# -- blow-ups -----------------------------------------------------------------


def blowup(base, center, codim, pushforward, normal_chern=None):
    """Blow-up of `base` along `center` of codimension `codim`.

    `pushforward` maps every center basis label to the label-coefficient
    dict of its image class in the base (degree shifted up by 2*codim).
    `normal_chern` maps j (as int or str) to the label-coefficient dict
    of the j-th Chern class of the center's normal bundle, a center
    class of degree 2*j. Its keys must lie in 1..codim; c_1..c_{codim-1}
    are required, plus c_codim when codim >= 3, and every entry given is
    checked, whether or not the formula reads it. A codimension-1
    blow-up is its base, once the description passes the same checks.
    """
    spec = {
        "kind": "blowup",
        "base": _space_of(base, "blowup base"),
        "center": _space_of(center, "blowup center"),
        "codim": codim,
        "center_pushforward_expr": _exact(pushforward),
        "normal_chern": _exact(normal_chern or {}),
    }
    return build_space(spec)


def _build_blowup(spec):
    """The blow-up ring h(X) + h(Z)(-1) + ... + h(Z)(-(c-1)) (Manin,
    1968), with Keel's products (Fulton, Intersection Theory, 6.7), read
    off the base and center structure tables."""
    base = build_space(_require(spec, "base", "blowup"))
    center = build_space(_require(spec, "center", "blowup"))
    c = _int_field(spec, "codim", 1)
    if any(deg % 2 for _, deg in base.basis) or any(deg % 2 for _, deg in center.basis):
        raise InvalidSpec("blowup requires base and center with even cohomology only")
    d = base.dim
    if center.dim != d - c:
        raise InvalidSpec(
            f"center dimension {center.dim} incompatible with codimension {c} in dimension {d}"
        )
    _require_rank("the blow-up", len(base.basis) + (c - 1) * len(center.basis))

    raw_push = spec.get("center_pushforward_expr")
    if not isinstance(raw_push, dict):
        raise InvalidSpec(
            "blowup: 'center_pushforward_expr' must map center labels to base classes"
        )
    push = []  # push[z] = i_* e_z over base indices
    for zl, zdeg in center.basis:
        if zl not in raw_push:
            raise InvalidSpec(f"blowup: pushforward missing center class {zl!r}")
        with _prefixed(f"pushforward of {zl!r}"):
            img = base.from_label_dict(raw_push[zl])
        if img.degree != zdeg + 2 * c:
            raise InvalidSpec(
                f"blowup: pushforward of {zl!r} must have degree {zdeg + 2 * c}"
            )
        push.append(img.coeffs)
    extra = set(raw_push) - {l for l, _ in center.basis}
    if extra:
        raise InvalidSpec(f"blowup: pushforward names unknown center classes {sorted(extra)}")

    raw_chern = spec.get("normal_chern") or {}
    if not isinstance(raw_chern, dict):
        raise InvalidSpec("blowup: 'normal_chern' must map j to center classes")
    keys = [str(j) for j in range(1, c + 1)]
    stray = sorted(str(j) for j in raw_chern if str(j) not in keys)
    if stray:
        raise InvalidSpec(f"blowup: normal_chern keys {stray} are not among 1..{c}")
    chern = {}  # chern[j] = c_j(N) over center indices
    for j in range(1, c + 1):
        rawj = raw_chern.get(str(j), raw_chern.get(j))
        if rawj is not None:
            with _prefixed(f"normal_chern c_{j}"):
                chern[j] = center.from_label_dict(rawj, 2 * j).coeffs
        elif j < c or c >= 3:
            raise InvalidSpec(f"blowup: normal_chern missing c_{j}")

    # i^* by pairing adjunction against the center's own duality: the
    # coefficient of the dual of e_z in i^* e_b is the integral of e_b * i_* e_z.
    pulled = []
    for b, (_, t) in enumerate(base.basis):
        rows = center.degree_indices(2 * center.dim - t)
        duals = [v.coeffs for v in center.dual_basis(2 * center.dim - t)] if rows else []
        paired = {r: sum(s * base.pair_basis(b, k) for k, s in push[z].items())
                  for r, z in enumerate(rows)}
        pulled.append(_combine(paired, duals))
    # The pushforward of a subvariety makes that adjoint a unital ring
    # map; with it, the projection formula i_*(i^*a * z) = a * i_*z holds
    # too, since both sides pair alike with every base class.
    try:
        RingMap(base, center, [ClassVector(center, t, pulled[b])
                                for b, (_, t) in enumerate(base.basis)])
    except NotRingMap as exc:
        raise InvalidSpec(
            f"blowup: 'center_pushforward_expr' is not a pushforward: the pullback "
            f"adjoint to it is not a ring map ({exc})"
        ) from exc
    if c == 1:
        return base

    # Basis: per degree, base classes (power 0), then the exceptional
    # classes e_z E^j by power j; pos[(j, i)] is the blow-up index. The
    # mark is the first of E, E2, E3, ... under which no exceptional
    # label repeats a base label, as it would in an iterated blow-up.
    tags = sorted([(t, 0, b) for b, (_, t) in enumerate(base.basis)]
                  + [(t + 2 * j, j, z) for j in range(1, c)
                     for z, (_, t) in enumerate(center.basis)])
    pos = {(j, i): x for x, (_, j, i) in enumerate(tags)}

    def exceptional(mark, j, z):
        return f"{center.basis[z][0]} {mark}" + (f"^{j}" if j > 1 else "")

    taken = {label for label, _ in base.basis}
    mark = next(m for m in (f"E{n}" if n > 1 else "E" for n in count(1))
                if all(exceptional(m, j, z) not in taken for _, j, z in tags if j))
    basis = [(exceptional(mark, j, i) if j else base.basis[i][0], t) for t, j, i in tags]

    def push_fn(v, p):
        """j_*(g^* v * zeta^p) over the blow-up basis, for a center class
        v: e_z E^(p+1) up to sign below the codimension, and otherwise
        reduced by i_* and the relation sum c_i(N) zeta^(c-i) = 0."""
        if not v:
            return {}
        if p <= c - 2:
            return {pos[(p + 1, z)]: (-1) ** p * s for z, s in v.items()}
        out = {}
        if p == c - 1:
            out = {pos[(0, k)]: s for k, s in _combine(v, push).items()}
        for i in range(1, min(c, p) + 1):
            for x, s in push_fn(_product(center.structure, v, chern[i]), p - i).items():
                out[x] = out.get(x, 0) - s
        return {x: s for x, s in out.items() if s}

    structure = {}
    for a, (ta, ja, ia) in enumerate(tags):
        for b, (tb, jb, ib) in enumerate(tags):
            if ta + tb > 2 * d:
                break  # tags are sorted by degree
            if not ja and not jb:
                out = {pos[(0, k)]: s for k, s in base.structure.get((ia, ib), {}).items()}
            elif not ja or not jb:
                # e_b * e_z E^j = (i^* e_b * e_z) E^j
                i, (j, z) = (ia, (jb, ib)) if not ja else (ib, (ja, ia))
                out = {pos[(j, k)]: s
                       for k, s in _product(center.structure, pulled[i], {z: 1}).items()}
            else:
                # e_z E^j * e_w E^k = (-1)^(j+k-1) j_*(g^*(e_z e_w) zeta^(j+k-1))
                sign = (-1) ** (ja + jb - 1)
                out = {x: sign * s for x, s in
                       push_fn(center.structure.get((ia, ib), {}), ja + jb - 1).items()}
            if out:
                structure[(a, b)] = out

    integration = {pos[(0, b)]: s for b, s in base.integration.items()}
    return GradedBasisRing(d, basis, structure, integration, space=spec,
                           parts={"base": base, "center": center})


# -- universal plane curve ----------------------------------------------------


def plane_curve_family(d, middle_rank=0):
    return build_space({"kind": "plane_curve_family", "d": d, "middle_rank": middle_rank})


def _build_plane_curve_family(spec):
    d = _int_field(spec, "d", 1)
    middle_rank = _int_field(spec, "middle_rank", 0) if "middle_rank" in spec else 0
    n_param = d * (d + 3) // 2
    # P^2 x P^N holds three classes in each degree but the first two, so
    # the ci_model's classes through its middle and their duals are 3N
    _require_rank(f"the plane curve family of degree {d}", 3 * n_param + middle_rank)
    ambient_spec = {
        "kind": "product",
        "factors": [
            {"kind": "projective_space", "n": 2},
            {"kind": "projective_space", "n": n_param},
        ],
    }
    ci_spec = {
        "kind": "ci_model",
        "ambient": ambient_spec,
        "fundamental_class_expr": {"h # 1": str(d), "1 # h": "1"},
        "middle_rank": middle_rank,
    }
    return _build_ci_model(ci_spec, space=spec)


# -- primitive-killing surjection ---------------------------------------------


def kill_primitive_middle(ring):
    """The surjection collapsing a ci_model's primitive middle classes.

    Returns (target ring, map). For rings without primitive middle
    classes the map is the identity. The map is multiplicative away
    from pairs of killed classes (their products hit the point class,
    which survives); projector transport along it is re-verified by the
    caller, which is the operative correctness check.
    """
    prim = ring.parts.get("primitive_indices", ())
    if not prim:
        return ring, RingMap(ring, ring, [ring.basis_vector(i) for i in range(len(ring.basis))])
    spec = dict(ring.space)
    if spec.get("kind") not in ("ci_model", "plane_curve_family"):
        raise InvalidSpec("kill_primitive_middle needs a ci_model-backed ring")
    spec["middle_rank"] = 0
    spec.pop("middle_pairing", None)
    target = build_space(spec)
    # The target's basis is the ring's without the primitives, in order.
    kept = iter(range(len(target.basis)))
    images = [target.zero(deg) if i in prim else target.basis_vector(next(kept))
              for i, (_, deg) in enumerate(ring.basis)]
    q = RingMap(ring, target, images, require_surjective=True, strict=False)
    return target, q
