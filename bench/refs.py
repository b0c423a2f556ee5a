"""References that every benchmark op is checked against.

Nothing here imports compvar.  Each reference is a closed form, an identity
the mathematics forces, or a brute-force count made by this file's own
enumerator, so a wrong answer from compvar cannot also be the expected one.

Algebras are named ``k`` (the base field), ``dual`` (k[x]/(x^2), basis 1, x),
``twoloop`` (k<x,y>/(x,y)^2, basis 1, x, y) and ``a2`` (the path algebra of
1 -> 2, basis 1, e2, a).  Products compose like functions: ``a*e2 = 0`` and
``e2*a = a``.
"""

from __future__ import annotations

import itertools

from exact import inverse, matmul, rank

# Products of the non-identity basis elements, 1-based in the basis order
# above: (j, k) -> {l: c} means b_j * b_k = sum c * b_l.  Missing pairs are 0.
PRODUCTS = {
    "k": {},
    "dual": {},
    "twoloop": {},
    "a2": {(1, 1): {1: 1}, (1, 2): {2: 1}},
}


# -- closed forms ------------------------------------------------------------

def ext_simple(algebra: str, n: int, i: int = 1, j: int = 1) -> int:
    """dim Ext^n(S_i, S_j) for n >= 0.

    Over k[x]/(x^2) the minimal resolution of S has one copy of A in every
    degree and zero maps into S, so every Ext is 1.  Over k<x,y>/(x,y)^2 the
    n-th syzygy of S is S^(2^n).  The path algebra of 1 -> 2 is hereditary:
    0 -> P_2 -> P_1 -> S_1 -> 0 gives Ext^1(S_1, S_2) = 1 and nothing else
    above degree 0."""
    if n == 0:
        return 1 if i == j else 0
    if algebra == "dual":
        return 1
    if algebra == "twoloop":
        return 2 ** n
    if algebra == "a2":
        return 1 if (n, i, j) == (1, 1, 2) else 0
    raise ValueError(f"no closed form for {algebra}")


def self_ext(algebra: str, n: int, counts: dict) -> int:
    """dim Ext^n(M, M), n >= 1, for M a sum of simples and (over the dual
    numbers only) copies of A.  ``counts`` maps 'S', 'S1', 'S2', 'A' to
    multiplicities.  A is projective, and over the self-injective dual
    numbers also injective, so it contributes nothing in degree n >= 1;
    the simples contribute bi-additively."""
    if algebra in ("dual", "twoloop"):
        s = counts.get("S", 0)
        return s * s * ext_simple(algebra, n)
    if algebra == "a2":
        s1, s2 = counts.get("S1", 0), counts.get("S2", 0)
        return sum(x * y * ext_simple("a2", n, i, j)
                   for i, x in ((1, s1), (2, s2)) for j, y in ((1, s1), (2, s2)))
    raise ValueError(f"no closed form for {algebra}")


def end_dim(algebra: str, counts: dict) -> int:
    """dim End(M) for the modules ``self_ext`` takes.  Simples are pairwise
    orthogonal with one-dimensional endomorphisms.  Over k[x]/(x^2),
    Hom(S,A) and Hom(A,S) are lines (A has a one-dimensional socle and top)
    and End(A) = A is a plane; bi-additivity does the rest."""
    if algebra == "dual":
        a, b = counts.get("S", 0), counts.get("A", 0)
        return a * a + 2 * a * b + 2 * b * b
    return sum(c * c for c in counts.values())


# Hand-computed invariants of the unit complexes that point-sparse scales.
#
# L_1 = A --x--> A --x--> A over A = k[x]/(x^2), dims (2, 2, 2).  Chain
# endomorphisms are (a_2, a_1, a_0) in A^3 with x a_i = a_{i-1} x, i.e. equal
# constant terms: dim 4, so the orbit has dimension 12 - 4 = 8.  Shift-one
# maps (f_2, f_1) in A^2 with x f_2 = -f_1 x modulo the boundaries
# (c x, c' x) leave Hom_K(X, X[1]) of dimension 3 - 2 = 1.  Theorem 7 gives
# equality on complexes of projectives, so dim T_X = 8 + 1 = 9.
L_UNIT = {"tangent_dim": 9, "orbit_dim": 8, "stabilizer_lie_dim": 4,
          "derived_hom_dim": 1}

# P = P_2 --> P_1 over the path algebra of 1 -> 2, dims (1, 2), the inclusion
# of the radical.  Chain endomorphisms are scalars on each term that agree
# along the nonzero map: dim 1, orbit 1 + 4 - 1 = 4.  P resolves S_1 and the
# algebra is hereditary, so Hom_K(P, P[1]) = Ext^1(S_1, S_1) = 0.
P_UNIT = {"tangent_dim": 4, "orbit_dim": 4, "stabilizer_lie_dim": 1,
          "derived_hom_dim": 0}


def scaled(unit: dict, n: int) -> dict:
    """Every dimension reported for X^(+n) is n^2 times that of X: the
    tangent, orbit and Hom systems split into n^2 copies of the blocks of X."""
    return {k: n * n * v for k, v in unit.items()}


# -- the finite-field census ------------------------------------------------

def gl_order(q: int, d: int) -> int:
    out = 1
    for k in range(d):
        out *= q ** d - q ** k
    return out


def group_order(q: int, dims) -> int:
    out = 1
    for d in dims:
        out *= gl_order(q, d)
    return out


def rank_vectors(dims) -> list:
    """Rank vectors (r_1 .. r_m), top first, of complexes of vector spaces
    with the given dimensions: these index the orbits over the base field."""
    dims = list(dims)
    out = []
    ranges = [range(min(dims[k], dims[k + 1]) + 1) for k in range(len(dims) - 1)]
    for rs in itertools.product(*ranges):
        if all(rs[k] + rs[k + 1] <= dims[k + 1] for k in range(len(rs) - 1)):
            out.append(rs)
    return out


def homology_from_ranks(dims, rs) -> list:
    dims = list(dims)
    return [dims[t] - (rs[t] if t < len(rs) else 0) - (rs[t - 1] if t else 0)
            for t in range(len(dims))]


def base_field_census(dims) -> dict:
    """Orbit and rigid-class counts over the base field.  A complex of vector
    spaces is the sum of its homology, so X is rigid exactly when no two
    adjacent degrees both carry homology."""
    vecs = rank_vectors(dims)
    rigid = 0
    for rs in vecs:
        h = homology_from_ranks(dims, rs)
        if not any(h[t] and h[t + 1] for t in range(len(h) - 1)):
            rigid += 1
    return {"orbit_count": len(vecs), "rigid_class_count": rigid}


def _all_matrices(q: int, r: int, c: int):
    for flat in itertools.product(range(q), repeat=r * c):
        yield tuple(tuple(flat[i * c:(i + 1) * c]) for i in range(r))


def _module_ok(algebra: str, acts, q: int) -> bool:
    d = len(acts[0]) if acts else 0
    for j in range(len(acts)):
        for k in range(len(acts)):
            want = [[0] * d for _ in range(d)]
            for l, c in PRODUCTS[algebra].get((j + 1, k + 1), {}).items():
                want = [[(w + c * v) % q for w, v in zip(wr, vr)]
                        for wr, vr in zip(want, acts[l - 1])]
            if matmul(acts[j], acts[k], q) != want:
                return False
    return True


def modules_of_dim(algebra: str, s: int, q: int, d: int) -> list:
    """Every module structure on F_q^d: tuples of s-1 action matrices."""
    return [acts for acts in itertools.product(list(_all_matrices(q, d, d)),
                                               repeat=s - 1)
            if _module_ok(algebra, acts, q)]


def enumerate_points(algebra: str, s: int, q: int, dims) -> list:
    """All points (modules top first, differentials top first) with
    A-linear differentials whose consecutive composites vanish."""
    dims = list(dims)
    per_degree = [modules_of_dim(algebra, s, q, d) for d in dims]
    points = []
    for mods in itertools.product(*per_degree):
        choices = [[dm for dm in _all_matrices(q, dims[k + 1], dims[k])
                    if all(matmul(dm, a, q) == matmul(b, dm, q)
                           for a, b in zip(mods[k], mods[k + 1]))]
                   for k in range(len(dims) - 1)]
        for diffs in itertools.product(*choices):
            if not any(any(map(any, matmul(diffs[k + 1], diffs[k], q)))
                       for k in range(len(diffs) - 1)):
                points.append((mods, diffs))
    return points


def _invertibles(q: int, d: int) -> list:
    out = []
    for m in _all_matrices(q, d, d):
        if rank(m, q) == d:
            out.append((m, inverse(m, q)))
    return out


def _freeze(m) -> tuple:
    return tuple(tuple(r) for r in m)


def orbit_sizes(algebra: str, s: int, q: int, dims) -> list:
    """Sizes of the G-orbits on the point set, by applying every group
    element: modules by conjugation, differentials by g_below d g_above^-1."""
    points = enumerate_points(algebra, s, q, dims)
    index = {p: i for i, p in enumerate(points)}
    group = list(itertools.product(*[_invertibles(q, d) for d in dims]))
    seen = [False] * len(points)
    sizes = []
    for i, (mods, diffs) in enumerate(points):
        if seen[i]:
            continue
        orbit = set()
        for g in group:
            new_mods = tuple(
                tuple(_freeze(matmul(matmul(gk, a, q), gi, q)) for a in acts)
                for (gk, gi), acts in zip(g, mods))
            new_diffs = tuple(
                _freeze(matmul(matmul(g[k + 1][0], dm, q), g[k][1], q))
                for k, dm in enumerate(diffs))
            orbit.add(index[(new_mods, new_diffs)])
        for j in orbit:
            seen[j] = True
        sizes.append(len(orbit))
    return sorted(sizes)


def census(algebra: str, s: int, q: int, dims) -> dict:
    """Everything a rigid-scan report is checked against."""
    out = {"point_count": len(enumerate_points(algebra, s, q, dims)),
           "group_order": group_order(q, dims)}
    if algebra == "k":
        out.update(base_field_census(dims))
    elif algebra == "dual" and len(dims) == 1:
        out["orbit_count"] = dims[0] // 2 + 1
    else:
        sizes = orbit_sizes(algebra, s, q, dims)
        out["orbit_count"] = len(sizes)
        out["class_sizes"] = sizes
    return out

