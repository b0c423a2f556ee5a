"""Write the inputs of the heavy golden reports to ``tests/heavy/``.

Every input comes from a fixed seed, so running this again rewrites the
same files::

    PYTHONPATH=src python tests/heavy_inputs.py
    PYTHONPATH=src python tests/test_golden_reports.py

The first command writes the algebra and complex files; the second writes
every golden report, the heavy ones included.  Each complex is a direct sum
of modules or small complexes over an algebra read from its file.  All but
the ``A_5`` stalks are moved by a seeded base change in every degree, so
that their systems are not the 0/1 patterns of the small fixtures; moved,
the ``A_5`` tangent system fills in and takes minutes.

- ``strip-dual-2`` and ``strip-dual-3``: ``(A --x--> A) + (A --1--> A)^k``
  over the dual numbers, k = 2 and 3;
- ``strip-a2-4``: ``(P2 -> P1) + (P1 --1--> P1)^4`` over ``1 -> 2``;
- ``a5-q`` and ``a5-f101``: the stalk of ``A + S1 + ... + S5`` over the
  linearly oriented ``A_5`` (dimension 15), over Q and over F_101, in
  block form;
- ``dual-sum``: the stalk of ``A + S^2`` over the dual numbers;
- ``a3-q`` and ``a3-f101``: the stalk of ``A + S1 + S2 + S3`` over the
  linearly oriented ``A_3``, over Q and over F_101, moved.

The strip inputs use base changes with determinant a power of 2, so their
entries hold non-integer rationals, and so does the kept complex of
``strip-a2-4``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from compvar.complexes import (GroupElement, act, direct_sum, make_complex,
                               stalk)
from compvar.linalg import Matrix
from compvar.modules import (direct_sum_modules, hom_matrices,
                             indecomposable_projectives, regular_module,
                             simple_modules)
from compvar.schemas import complex_to_json, parse_algebra

ROOT = Path(__file__).resolve().parent.parent
HEAVY = Path(__file__).resolve().parent / "heavy"
Q_DUAL = "fixtures/algebra_q_dual_numbers_quiver.json"
Q_A2 = "fixtures/algebra_q_a2_quiver.json"


def an_json(n: int, field: dict) -> dict:
    """The path algebra of 1 -> 2 -> ... -> n, no relations."""
    return {"field": field,
            "quiver": {"vertices": n,
                       "arrows": [[i, i + 1, f"a{i}"] for i in range(1, n)],
                       "relations": [], "nilpotency_bound": n}}


def base_change(field, rng: random.Random, n: int, scale: bool) -> Matrix:
    """A unit lower triangular times a diagonal times a unit upper
    triangular matrix, off-diagonal entries in {-1, 0, 1}; the diagonal
    holds 1s, or with ``scale`` 1s and 2s."""
    lower = [[int(i == j) for j in range(n)] for i in range(n)]
    upper = [row[:] for row in lower]
    diag = [[(rng.choice((1, 2)) if scale else 1) * int(i == j)
             for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = rng.choice((-1, 0, 1))
            upper[j][i] = rng.choice((-1, 0, 1))
    return (Matrix.from_rows(field, lower) @ Matrix.from_rows(field, diag)
            @ Matrix.from_rows(field, upper))


def moved(x, seed: int, scale: bool = False):
    rng = random.Random(seed)
    return act(GroupElement(tuple(
        (i, base_change(x.field, rng, x.dim_at(i), scale))
        for i in x.degrees())), x)


def strip_input(algebra, top, bottom, diff, proj, k: int, seed: int):
    """``(top --diff--> bottom) + (proj --1--> proj)^k``, moved."""
    field = algebra.field
    x = make_complex(algebra, 0, (bottom, top), (diff,))
    pair = make_complex(algebra, 0, (proj, proj),
                        (Matrix.identity(field, proj.dim),))
    for _ in range(k):
        x = direct_sum(x, pair)
    return moved(x, seed, scale=True)


def inputs() -> dict:
    """File stem -> JSON document, for every heavy input."""
    docs = {f"a{n}-{stem}": an_json(n, field) for n in (3, 5)
            for stem, field in (("q", {"type": "Q"}),
                                ("f101", {"type": "Fp", "p": 101}))}
    dual = parse_algebra(json.loads((ROOT / Q_DUAL).read_text()))
    a2 = parse_algebra(json.loads((ROOT / Q_A2).read_text()))

    reg = regular_module(dual)
    x_map = dual.right_mult_matrix(dual.basis_vec(1))
    docs["strip-dual-2"] = strip_input(dual, reg, reg, x_map, reg, 2, seed=2)
    docs["strip-dual-3"] = strip_input(dual, reg, reg, x_map, reg, 3, seed=3)
    p1, p2 = (m for m, _ in indecomposable_projectives(a2))
    docs["strip-a2-4"] = strip_input(a2, p2, p1, hom_matrices(p2, p1)[0],
                                     p1, 4, seed=4)
    s = simple_modules(dual)[0]
    docs["dual-sum"] = moved(stalk(direct_sum_modules([reg, s, s])[0]), seed=5)
    for stem in ("a3-q", "a3-f101", "a5-q", "a5-f101"):
        an = parse_algebra(docs[stem])
        m = direct_sum_modules([regular_module(an)] + simple_modules(an))[0]
        docs[f"{stem}-stalk"] = (moved(stalk(m), seed=7)
                                 if stem.startswith("a3") else stalk(m))
    return {stem: doc if isinstance(doc, dict) else complex_to_json(doc)
            for stem, doc in docs.items()}


if __name__ == "__main__":
    HEAVY.mkdir(exist_ok=True)
    docs = inputs()
    for stem, doc in docs.items():
        (HEAVY / f"{stem}.json").write_text(json.dumps(doc) + "\n",
                                            encoding="utf-8")
    print(f"wrote {len(docs)} heavy inputs to {HEAVY}")
