"""Seeded inputs and op lists for the three benchmark workloads.

An op is one ``compvar`` command line (without ``--json``) plus the expected
values its JSON report must show.  A workload's run is a fixed number of
rounds; each round holds the same input classes in the same proportions, in
a seeded order, and every input file is generated here from the seed.

The proportions keep each reported percentile inside one input class.  A
round has 20 ops in tiers of increasing cost: 7 cheap ops of mixed classes
(positions 0-35% of the sorted op times), 6 ops of one "median" class
(35-65%, so p50 sits in its middle), 6 "tail" ops whose two costliest are
of one class (65-95%, so p90 sits among those two) and one heavy op
(95-100%).
The heavy op cycles through the heavy classes from round to round.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import refs
from exact import block_diag, identity, inverse, matmul, rank

# Quiver presentations, in the JSON form compvar reads.
QUIVERS = {
    "k": {"vertices": 1, "arrows": [], "relations": [], "nilpotency_bound": 1},
    "dual": {"vertices": 1, "arrows": [[1, 1, "x"]],
             "relations": [[["x*x", 1]]], "nilpotency_bound": 2},
    "twoloop": {"vertices": 1, "arrows": [[1, 1, "x"], [1, 1, "y"]],
                "relations": [[["x*x", 1]], [["y*y", 1]], [["x*y", 1]],
                              [["y*x", 1]]],
                "nilpotency_bound": 2},
    "a2": {"vertices": 2, "arrows": [[1, 2, "a"]], "relations": [],
           "nilpotency_bound": 2},
}
BASIS_DIM = {"k": 1, "dual": 2, "twoloop": 3, "a2": 3}

# Indecomposable modules as their non-identity action matrices, in the
# basis order of refs.py (dual: x; twoloop: x, y; a2: e2, a).
BLOCKS = {
    "k": {"S": (1, [])},
    "dual": {"S": (1, [[[0]]]),
             "A": (2, [[[0, 0], [1, 0]]])},
    "twoloop": {"S": (1, [[[0]], [[0]]])},
    "a2": {"S1": (1, [[[0]], [[0]]]),
           "S2": (1, [[[1]], [[0]]]),
           "P1": (2, [[[0, 0], [0, 1]], [[0, 0], [1, 0]]])},
}
BLOCKS["a2"]["P2"] = BLOCKS["a2"]["S2"]


def module(algebra: str, counts) -> tuple:
    """Direct sum of indecomposables, given as a dict or (name, count)
    pairs: ``(dim, [action matrices])``."""
    pairs = counts.items() if isinstance(counts, dict) else counts
    parts = [BLOCKS[algebra][name] for name, c in pairs for _ in range(c)]
    dim = sum(d for d, _ in parts)
    acts = [block_diag([p[1][j] for p in parts])
            for j in range(BASIS_DIM[algebra] - 1)]
    return dim, acts


def unimodular(rng: random.Random, n: int) -> tuple:
    """Random integer base change with an integral inverse: (g, g^-1)."""
    lower = identity(n)
    upper = identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = rng.choice((-1, 0, 1))
            upper[j][i] = rng.choice((-1, 0, 1))
    g = matmul(lower, upper)
    ginv = [[int(v) for v in row] for row in inverse(g)]
    return g, ginv


def base_change(rng: random.Random, terms: list, diffs: list) -> tuple:
    """Move a complex (terms and differentials listed top first) by a
    random unimodular matrix in every degree."""
    gs = [unimodular(rng, d) for d, _ in terms]
    new_terms = [(d, [matmul(matmul(g, a), gi) for a in acts])
                 for (d, acts), (g, gi) in zip(terms, gs)]
    new_diffs = [matmul(matmul(gs[k + 1][0], dm), gs[k][1])
                 for k, dm in enumerate(diffs)]
    return new_terms, new_diffs


def _scalar(v, p):
    return v % p if p else str(v)


def _matrix_json(m, p):
    return [[_scalar(v, p) for v in row] for row in m]


def complex_json(terms: list, diffs: list, p) -> dict:
    return {
        "m": len(terms) - 1,
        "dims": [d for d, _ in terms],
        "modules": [[_matrix_json(identity(d), p)]
                    + [_matrix_json(a, p) for a in acts] for d, acts in terms],
        "differentials": [_matrix_json(dm, p) for dm in diffs],
    }


def algebra_json(algebra: str, p) -> dict:
    quiver = json.loads(json.dumps(QUIVERS[algebra]))
    for rel in quiver["relations"]:
        for term in rel:
            term[1] = _scalar(term[1], p)
    return {"field": {"type": "Q"} if p is None else {"type": "Fp", "p": p},
            "quiver": quiver}


@dataclass
class Op:
    """One CLI call and the values its report must carry.  ``expect`` maps
    report fields to their values (or is a function returning that map, for
    references worth computing only once the op has run); ``extra`` returns
    further disagreements found in the report."""

    label: str
    argv: list
    expect: object
    extra: object = None

    def check(self, report: dict) -> list:
        expect = self.expect() if callable(self.expect) else self.expect
        bad = [f"{k}: got {report.get(k)!r}, expected {v!r}"
               for k, v in expect.items() if report.get(k) != v]
        if self.extra is not None:
            bad.extend(self.extra(report))
        return bad


class Inputs:
    """Writes the JSON input files of one run under ``root``."""

    def __init__(self, root: str):
        self.root = root
        self.count = 0
        self.alg = {}
        self.census_refs = {}
        os.makedirs(root, exist_ok=True)

    def write(self, stem: str, doc: dict) -> str:
        self.count += 1
        path = os.path.join(self.root, f"{self.count:04d}-{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def algebras(self, keys) -> dict:
        """Write each (algebra, p) file once; returns key -> path."""
        if not self.alg:
            self.alg = {key: self.write(f"alg-{key[0]}-{key[1] or 'Q'}",
                                        algebra_json(*key)) for key in keys}
        return self.alg


def _quotient_ok(report: dict, bound_key: str) -> list:
    """Identities every tangent report satisfies."""
    bad = []
    if report["tangent_dim"] - report["orbit_dim"] != report["quotient"]:
        bad.append("tangent_dim - orbit_dim != quotient")
    if report["quotient"] > report[bound_key]:
        bad.append(f"quotient exceeds {bound_key}")
    return bad


def round_entries(table: list, index: int) -> list:
    """The table rows used in round ``index``: every row of the lighter
    tiers and one heavy row, taken in turn."""
    heavy = [row for row in table if row[0] == "heavy"]
    return ([row for row in table if row[0] != "heavy"]
            + [heavy[index % len(heavy)]])


# -- point-sparse --------------------------------------------------------------

def _lx(rng: random.Random, n: int, p) -> tuple:
    """L_n: A^n --x--> A^n --x--> A^n, each block of x scaled by a unit."""
    cs = [rng.choice((1, -1, 2, -2)) if p is None else rng.randrange(1, p)
          for _ in range(2 * n)]
    term = module("dual", {"A": n})
    diffs = [block_diag([[[0, 0], [c, 0]] for c in cs[k * n:(k + 1) * n]])
             for k in range(2)]
    return [term, term, term], diffs


def _pp(rng: random.Random, n: int, p) -> tuple:
    """(P_2 -> P_1)^n over the path algebra of 1 -> 2."""
    cs = [rng.choice((1, -1, 2, -2)) if p is None else rng.randrange(1, p)
          for _ in range(n)]
    terms = [module("a2", {"P2": n}), module("a2", {"P1": n})]
    return terms, [block_diag([[[0], [c]] for c in cs])]


def _point_op(inputs, rng, family, n, p, command) -> Op:
    algebra, build, unit, name = {
        "L": ("dual", _lx, refs.L_UNIT, "L"),
        "P": ("a2", _pp, refs.P_UNIT, "P2P1^"),
    }[family]
    terms, diffs = build(rng, n, p)
    path = inputs.write(f"{name}{n}", complex_json(terms, diffs, p))
    want = refs.scaled(unit, n)
    expect = {"tangent_dim": want["tangent_dim"],
              "orbit_dim": want["orbit_dim"],
              "quotient": want["tangent_dim"] - want["orbit_dim"],
              "dims": [d for d, _ in terms]}
    if command == "theorem7":
        expect.update(derived_hom_dim=want["derived_hom_dim"],
                      verdict="equality")
    else:
        expect["stabilizer_lie_dim"] = want["stabilizer_lie_dim"]
    label = f"{command} {name}{n} {'Q' if p is None else 'F' + str(p)}"
    return Op(label, [command, "--algebra", inputs.alg[(algebra, p)],
                      "--complex", path], expect)


# (tier, count per round, family, n, field, command)
POINT_SPARSE = [
    ("cheap", 1, "L", 1, None, "theorem7"),
    ("cheap", 1, "L", 1, 101, "tangent"),
    ("cheap", 1, "L", 2, 101, "theorem7"),
    ("cheap", 1, "L", 2, 101, "tangent"),
    ("cheap", 1, "P", 1, None, "theorem7"),
    ("cheap", 1, "P", 3, 101, "tangent"),
    ("cheap", 1, "P", 2, None, "theorem7"),
    ("median", 6, "L", 3, 101, "theorem7"),
    ("tail", 4, "L", 2, None, "theorem7"),
    ("tail", 2, "L", 2, None, "tangent"),
    ("heavy", 1, "P", 3, None, "theorem7"),
    ("heavy", 1, "L", 3, None, "theorem7"),
]


def point_sparse(inputs: Inputs, rng: random.Random, index: int) -> list:
    inputs.algebras((a, p) for a in ("dual", "a2") for p in (None, 101))
    return [_point_op(inputs, rng, fam, n, p, cmd)
            for _, count, fam, n, p, cmd in round_entries(POINT_SPARSE, index)
            for _ in range(count)]


# -- derived-dense ---------------------------------------------------------------

def _counts_label(counts: dict) -> str:
    return "+".join(f"{k}{c}" for k, c in counts.items() if c)


def _stalk(inputs, rng, algebra, counts) -> tuple:
    term = module(algebra, counts)
    terms, _ = base_change(rng, [term], [])
    return inputs.write(f"{algebra}-{_counts_label(counts)}",
                        complex_json(terms, [], None)), term[0]


def _derived_hom_op(inputs, rng, algebra, counts, shift) -> Op:
    path, dim = _stalk(inputs, rng, algebra, counts)
    want = refs.self_ext(algebra, shift, counts)

    def extra(report):
        if report["chain_map_dim"] - report["nullhomotopic_dim"] != want:
            return ["chain maps modulo null-homotopic maps != derived hom"]
        return []

    return Op(f"derived-hom {algebra} {_counts_label(counts)} n={shift}",
              ["derived-hom", "--algebra", inputs.alg[(algebra, None)],
               "--complex", path, "--shift", str(shift)],
              {"derived_hom_dim": want, "dims": [dim], "other_dims": [dim],
               "shift": shift}, extra)


def _stalk_tangent_expect(algebra, counts, dim) -> dict:
    return {"orbit_dim": dim * dim - refs.end_dim(algebra, counts)}


def _theorem7_op(inputs, rng, algebra, counts) -> Op:
    path, dim = _stalk(inputs, rng, algebra, counts)
    expect = _stalk_tangent_expect(algebra, counts, dim)
    expect.update(derived_hom_dim=refs.self_ext(algebra, 1, counts),
                  verdict="embedding", dims=[dim])
    return Op(f"theorem7 {algebra} {_counts_label(counts)}",
              ["theorem7", "--algebra", inputs.alg[(algebra, None)],
               "--complex", path],
              expect, lambda r: _quotient_ok(r, "derived_hom_dim"))


def _voigt_op(inputs, rng, algebra, counts) -> Op:
    path, dim = _stalk(inputs, rng, algebra, counts)
    expect = _stalk_tangent_expect(algebra, counts, dim)
    expect.update(ext1_dim=refs.self_ext(algebra, 1, counts),
                  module_dim=dim, degree=0)

    def extra(report):
        bad = _quotient_ok(report, "ext1_dim")
        if report["equality"] != (report["quotient"] == report["ext1_dim"]):
            bad.append("equality flag disagrees with quotient and ext1_dim")
        return bad

    return Op(f"voigt {algebra} {_counts_label(counts)}",
              ["voigt", "--algebra", inputs.alg[(algebra, None)], "--complex", path],
              expect, extra)


# Minimal complexes of projectives in degrees 1 and 0: top term, bottom
# term, differential, the projective P of a contractible summand
# P --id--> P, and the homology (top first).
MINIMAL = {
    "dual": ("A", "A", [[0, 0], [1, 0]], "A", [1, 1]),
    "a2": ("P2", "P1", [[0], [1]], "P1", [0, 1]),
}


def _strip_op(inputs, rng, algebra, k) -> Op:
    """X = M + (P --id--> P)^k, moved by a base change; the splitter must
    keep M and strip the contractible part."""
    top, bottom, diff, proj, homology = MINIMAL[algebra]
    pdim = BLOCKS[algebra][proj][0]
    terms = [module(algebra, [(top, 1), (proj, k)]),
             module(algebra, [(bottom, 1), (proj, k)])]
    dm = block_diag([diff] + [identity(pdim)] * k)
    terms, diffs = base_change(rng, terms, [dm])
    path = inputs.write(f"strip-{algebra}-{k}", complex_json(terms, diffs, None))
    kept = [BLOCKS[algebra][top][0], BLOCKS[algebra][bottom][0]]
    return Op(f"strip-acyclic {algebra} +C^{k}",
              ["strip-acyclic", "--algebra", inputs.alg[(algebra, None)],
               "--complex", path],
              {"kept_dims": kept, "stripped_dims": [k * pdim] * 2,
               "stripped_acyclic": True, "homology_dims": homology,
               "dims": [d for d, _ in terms]},
              lambda r: _kept_complex_ok(r["kept_complex"], kept, homology))


def _kept_complex_ok(doc: dict, dims: list, homology: list) -> list:
    """The kept complex must be a complex with the minimal part's dims and
    homology, computed here from its matrices."""
    if doc["dims"] != dims:
        return [f"kept complex dims {doc['dims']} != {dims}"]
    diffs = [[[Fraction(v) for v in row] for row in m]
             for m in doc["differentials"]]
    for k in range(len(diffs) - 1):
        if any(any(row) for row in matmul(diffs[k + 1], diffs[k])):
            return ["kept complex has a nonzero composite"]
    if refs.homology_from_ranks(dims, [rank(m) for m in diffs]) != homology:
        return ["kept complex has the wrong homology"]
    return []


# (tier, count per round, kind, algebra, module counts or k, shift)
DERIVED_DENSE = [
    ("cheap", 1, "voigt", "twoloop", {"S": 3}, None),
    ("cheap", 1, "voigt", "dual", {"S": 1, "A": 1}, None),
    ("cheap", 1, "voigt", "a2", {"S1": 1, "S2": 2}, None),
    ("cheap", 1, "theorem7", "a2", {"S1": 1, "S2": 1}, None),
    ("cheap", 1, "theorem7", "dual", {"S": 1, "A": 1}, None),
    ("cheap", 1, "derived-hom", "dual", {"S": 1, "A": 1}, 2),
    ("cheap", 1, "strip", "a2", 1, None),
    ("median", 6, "derived-hom", "a2", {"S1": 2, "S2": 2}, 1),
    ("tail", 3, "derived-hom", "dual", {"S": 2, "A": 1}, 1),
    ("tail", 1, "derived-hom", "dual", {"S": 2, "A": 1}, 2),
    ("tail", 2, "derived-hom", "dual", {"S": 2, "A": 1}, 3),
    ("heavy", 1, "strip", "dual", 1, None),
    ("heavy", 1, "derived-hom", "twoloop", {"S": 1}, 1),
]


def derived_dense(inputs: Inputs, rng: random.Random, index: int) -> list:
    inputs.algebras((a, None) for a in ("dual", "twoloop", "a2"))
    ops = []
    for _, count, kind, algebra, arg, shift in round_entries(DERIVED_DENSE,
                                                             index):
        for _ in range(count):
            if kind == "derived-hom":
                ops.append(_derived_hom_op(inputs, rng, algebra, arg, shift))
            elif kind == "theorem7":
                ops.append(_theorem7_op(inputs, rng, algebra, arg))
            elif kind == "voigt":
                ops.append(_voigt_op(inputs, rng, algebra, arg))
            else:
                ops.append(_strip_op(inputs, rng, algebra, arg))
    return ops


# -- census-fq ----------------------------------------------------------------------

# (tier, count per round, algebra, p, dims top first)
CENSUS_FQ = [
    ("cheap", 1, "k", 2, (2, 2)),
    ("cheap", 1, "k", 3, (2, 1)),
    ("cheap", 1, "dual", 2, (2, 1)),
    ("cheap", 1, "dual", 3, (2,)),
    ("cheap", 1, "a2", 2, (1, 1)),
    ("cheap", 1, "a2", 3, (1, 1)),
    ("cheap", 1, "k", 2, (1, 2, 1)),
    ("median", 6, "k", 2, (2, 2, 1)),
    ("tail", 2, "a2", 2, (2, 1)),
    ("tail", 2, "a2", 2, (1, 2)),
    ("tail", 2, "dual", 2, (2, 2)),
    ("heavy", 1, "k", 3, (2, 2)),
    ("heavy", 1, "a2", 3, (2,)),
]


def _census_op(inputs, algebra, p, dims, seed, cache) -> Op:
    def want():
        key = (algebra, p, dims)
        if key not in cache:
            cache[key] = refs.census(algebra, BASIS_DIM[algebra], p, dims)
        return cache[key]

    def expect():
        ref = want()
        out = {k: ref[k] for k in ("point_count", "orbit_count",
                                   "group_order", "rigid_class_count")
               if k in ref}
        out.update(group_checked=True, dims=list(dims))
        return out

    def extra(report):
        bad = []
        sizes = report["class_sizes"]
        if sum(sizes) != report["point_count"]:
            bad.append("class sizes do not add up to the point count")
        if "class_sizes" in want() and sorted(sizes) != want()["class_sizes"]:
            bad.append("class sizes differ from the brute-force orbits")
        if not set(report["rigid_classes"]) <= set(
                report["almost_projective_classes"]):
            bad.append("a rigid class is not almost projective")
        return bad

    label = f"rigid-scan {algebra} F{p} {','.join(map(str, dims))}"
    return Op(label, ["rigid-scan", "--algebra", inputs.alg[(algebra, p)],
                      "--dims", ",".join(map(str, dims)),
                      "--seed", str(seed)], expect, extra)


def census_fq(inputs: Inputs, rng: random.Random, index: int) -> list:
    inputs.algebras((a, p) for a in ("k", "dual", "a2") for p in (2, 3))
    cache = inputs.census_refs
    return [_census_op(inputs, a, p, dims, rng.randrange(1000), cache)
            for _, count, a, p, dims in round_entries(CENSUS_FQ, index)
            for _ in range(count)]


WORKLOADS = {
    "point-sparse": (point_sparse, POINT_SPARSE),
    "derived-dense": (derived_dense, DERIVED_DENSE),
    "census-fq": (census_fq, CENSUS_FQ),
}


def round_size(name: str) -> int:
    return sum(entry[1] for entry in round_entries(WORKLOADS[name][1], 0))


def build_round(name: str, inputs: Inputs, rng: random.Random,
                index: int) -> list:
    """Round ``index`` of a run: its ops in a seeded order."""
    ops = WORKLOADS[name][0](inputs, rng, index)
    rng.shuffle(ops)
    return ops
