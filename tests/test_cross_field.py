"""Cross-field oracle: the Q and F_p branches of every kernel, against each
other, through every layer above them.

A point whose entries are integers, and whose conditions hold over Z, is a
point over every F_p too, and each of its linear systems over F_p is the
reduction mod p of its system over Q.  Reducing mod p can only lose rank,
so for every prime p:

- ``tangent_dim`` over F_p is at least its value over Q (a kernel);
- ``orbit_dim`` over F_p is at most its value over Q (a column space);
- ``dim Hom_A(M, N)`` and the chain-map dimension over F_p are at least
  their values over Q (kernels).

The points are direct sums of indecomposable modules, and of minimal
complexes with pairs P --c--> P, moved by random integer matrices with
integral inverses.  A pair with c = 2 or 3 is contractible over Q and not
mod c, and a module whose arrow acts by 2 splits mod 2, so dimensions do
move at small p.  For p = 2^31 - 1 no minor of
these small systems vanishes mod p on the fixed draws, so every dimension
agrees with its value over Q.
"""

from __future__ import annotations

import random

import pytest

from compvar.algebra import QuiverPresentation, path_algebra
from compvar.complexes import chain_map_space, make_complex
from compvar.fields import GF, QQ
from compvar.linalg import Matrix
from compvar.modules import ModuleRep, hom_space
from compvar.tangent import tangent_and_orbit

MERSENNE = 2 ** 31 - 1

# One-vertex and two-vertex quivers; their bases are (1, x), (1, x, y) and
# (1, e2, a).
QUIVERS = {
    "dual": QuiverPresentation(1, ((0, 0, "x"),), ((((0, 0), 1),),), 2),
    "twoloop": QuiverPresentation(
        1, ((0, 0, "x"), (0, 0, "y")),
        ((((0, 0), 1),), (((1, 1), 1),), (((0, 1), 1),), (((1, 0), 1),)), 2),
    "a2": QuiverPresentation(2, ((0, 1, "a"),), (), 2),
}

# Modules: their dimension and the integer matrices of the basis elements
# after the identity.  "A(2)" and "P1(2)" are A and P1 with the arrow
# acting by 2: isomorphic to them over Q, split mod 2.
BLOCKS = {
    "dual": {"S": (1, [[[0]]]), "A": (2, [[[0, 0], [1, 0]]]),
             "A(2)": (2, [[[0, 0], [2, 0]]])},
    "twoloop": {"S": (1, [[[0]], [[0]]])},
    "a2": {"S1": (1, [[[0]], [[0]]]), "S2": (1, [[[1]], [[0]]]),
           "P1": (2, [[[0, 0], [0, 1]], [[0, 0], [1, 0]]]),
           "P1(2)": (2, [[[0, 0], [0, 1]], [[0, 0], [2, 0]]])},
}

# Minimal two-term complexes over dual and a2: top module, bottom module,
# differential, and the projective P of the pairs P --c--> P.
MINIMAL = {
    "dual": ("A", "A", [[0, 0], [1, 0]], "A"),
    "a2": ("S2", "P1", [[0], [1]], "P1"),
}


def _identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(a: list, b: list) -> list:
    ncols = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(ncols)]
            for row in a]


def _block_diag(blocks: list) -> list:
    n = sum(len(b) for b in blocks)
    m = sum(len(b[0]) if b else 0 for b in blocks)
    out, r, c = [[0] * m for _ in range(n)], 0, 0
    for b in blocks:
        for i, row in enumerate(b):
            out[r + i][c:c + len(row)] = row
        r, c = r + len(b), c + (len(b[0]) if b else 0)
    return out


def _unimodular(rng: random.Random, n: int) -> tuple:
    """``(g, g^-1)``: unit lower times unit upper triangular, off-diagonal
    entries in {-1, 0, 1}, and its inverse in the reverse order."""
    lower, upper = _identity(n), _identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = rng.choice((-1, 0, 1))
            upper[j][i] = rng.choice((-1, 0, 1))
    return _matmul(lower, upper), _matmul(_unit_inverse(upper, upper=True),
                                          _unit_inverse(lower, upper=False))


def _unit_inverse(t: list, upper: bool) -> list:
    """The inverse of a unit triangular integer matrix, by substitution."""
    n = len(t)
    inv = _identity(n)
    order = range(n - 1, -1, -1) if upper else range(n)
    for col in range(n):
        for i in order:
            others = range(i + 1, n) if upper else range(i)
            inv[i][col] = int(i == col) - sum(t[i][k] * inv[k][col] for k in others)
    return inv


def _module(algebra: str, names: list) -> tuple:
    parts = [BLOCKS[algebra][name] for name in names]
    nacts = len(QUIVERS[algebra].arrows) + QUIVERS[algebra].vertices - 1
    return (sum(d for d, _ in parts),
            [_block_diag([acts[j] for _, acts in parts]) for j in range(nacts)])


def _draw(rng: random.Random) -> tuple:
    """``(algebra, terms, diffs)`` of an integer point, bottom degree first:
    a stalk of a module sum, or a minimal complex plus pairs P --c--> P
    with c in {1, 2, 3}, moved by a unimodular base change in every
    degree."""
    algebra = rng.choice(sorted(QUIVERS))
    if algebra == "twoloop" or rng.random() < 0.4:
        names = [rng.choice(sorted(BLOCKS[algebra])) for _ in range(rng.randint(1, 3))]
        terms, diffs = [_module(algebra, names)], []
    else:
        top, bottom, diff, proj = MINIMAL[algebra]
        scalars = [rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(0, 2))]
        pdim = BLOCKS[algebra][proj][0]
        terms = [_module(algebra, [bottom] + [proj] * len(scalars)),
                 _module(algebra, [top] + [proj] * len(scalars))]
        diffs = [_block_diag([diff] + [[[c * v for v in row] for row in _identity(pdim)]
                                       for c in scalars])]
    gs = [_unimodular(rng, d) for d, _ in terms]
    terms = [(d, [_matmul(_matmul(g, a), gi) for a in acts])
             for (d, acts), (g, gi) in zip(terms, gs)]
    diffs = [_matmul(_matmul(gs[t][0], dm), gs[t + 1][1]) for t, dm in enumerate(diffs)]
    return algebra, terms, diffs


def _point(field, draw):
    """The drawn point over ``field``; its entries are reduced mod p."""
    algebra, terms, diffs = draw
    alg = path_algebra(QUIVERS[algebra], field)
    mods = [ModuleRep(alg, d, (Matrix.identity(field, d),)
                      + tuple(Matrix.from_rows(field, a) for a in acts))
            for d, acts in terms]
    return make_complex(alg, 0, mods, [Matrix.from_rows(field, dm) for dm in diffs])


def _dims(x) -> dict:
    """Every dimension compared: tangent and orbit, Hom_A between each
    ordered pair of terms, and chain maps X -> X of shifts 0 and 1."""
    _, tspace, orbit, _ = tangent_and_orbit(x)
    dims = {"tangent": tspace.dim, "orbit": orbit.dim}
    for i in x.degrees():
        for j in x.degrees():
            dims[f"hom {i} {j}"] = hom_space(x.term(i), x.term(j)).dim
    for n in (0, 1):
        dims[f"chain maps {n}"] = chain_map_space(x, x, n).dim
    return dims


DRAWS = [_draw(random.Random(4100 + seed)) for seed in range(20)]


@pytest.mark.parametrize("index", range(len(DRAWS)))
def test_reduction_mod_p_only_loses_rank(index):
    over_q = _dims(_point(QQ, DRAWS[index]))
    for p in (2, 3, 5):
        over_p = _dims(_point(GF(p), DRAWS[index]))
        assert over_p["orbit"] <= over_q["orbit"], p
        for key in over_q:
            if key != "orbit":
                assert over_p[key] >= over_q[key], (p, key)
    assert _dims(_point(GF(MERSENNE), DRAWS[index])) == over_q


def test_draws_cover_every_shape():
    """The fixed draws hold stalks and two-term complexes over each
    algebra, with pairs, and draws on which reduction mod 2 moves the
    tangent, orbit, Hom_A and chain-map dimensions."""
    shapes = {(algebra, len(terms)) for algebra, terms, _ in DRAWS}
    assert {("dual", 1), ("dual", 2), ("a2", 1), ("a2", 2), ("twoloop", 1)} <= shapes
    assert any(len(diffs) and len(diffs[0]) > 2 for _, _, diffs in DRAWS)
    moved = set()
    for draw in DRAWS:
        over_2, over_q = _dims(_point(GF(2), draw)), _dims(_point(QQ, draw))
        moved |= {key.split()[0] for key in over_q if over_2[key] != over_q[key]}
    assert moved == {"tangent", "orbit", "hom", "chain"}
