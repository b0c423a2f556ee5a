"""Exact linear algebra: frozen examples, randomized invariants, the
elimination core against the sweep it replaced, and a sympy oracle."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from compvar.errors import ShapeMismatch
from compvar.fields import GF, QQ, Field
from compvar.linalg import (Blocks, LinearSolver, Matrix, Subspace,
                            _eliminate, linear_system, row_values, stored_row,
                            vec_combination)

F2 = GF(2)
F5 = GF(5)


def rand_matrix(field: Field, nrows: int, ncols: int, rng: random.Random) -> Matrix:
    if field.is_rational:
        entries = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nrows * ncols)]
    else:
        entries = [rng.randrange(field.p) for _ in range(nrows * ncols)]
    return Matrix.from_flat(field, nrows, ncols, [field.coerce(e) for e in entries])


def _matrix(field: Field, ncols: int, rows: list) -> Matrix:
    """The matrix whose rows hold the nonzero canonical values ``rows``."""
    return Matrix(field, len(rows), ncols, [stored_row(field, r) for r in rows])


# -- frozen examples ---------------------------------------------------------

def test_rref_identity_fixed_point():
    m = Matrix.identity(QQ, 2)
    red, pivots = m.rref()
    assert red == m
    assert pivots == (0, 1)


def test_rref_rank_one_over_q():
    m = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
    red, pivots = m.rref()
    assert pivots == (0,)
    assert red.data == ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(0)))
    assert m.rank() == 1


def test_rref_full_rank_over_f2():
    m = Matrix.from_rows(F2, [[1, 1], [1, 0]])
    assert m.rank() == 2
    assert m.inverse() is not None


def test_kernel_examples():
    assert Matrix.zeros(QQ, 2, 2).kernel().dim == 2
    assert Matrix.identity(QQ, 3).kernel().dim == 0
    k = Matrix.from_rows(QQ, [[1, 1], [1, 1]]).kernel()
    assert k.dim == 1
    assert k.contains((Fraction(1), Fraction(-1)))


def test_solve_examples():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    x = m.solve((Fraction(5), Fraction(11)))
    assert x is not None
    assert m.mat_vec(x) == (Fraction(5), Fraction(11))
    # inconsistent system
    sing = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
    assert sing.solve((Fraction(0), Fraction(1))) is None
    # underdetermined: particular solution has free variables zero
    wide = Matrix.from_rows(QQ, [[1, 1, 1]])
    assert wide.solve((Fraction(3),)) == (Fraction(3), Fraction(0), Fraction(0))


def test_solver_is_linear_on_consistent_rhs():
    m = Matrix.from_rows(QQ, [[1, 0], [0, 1], [1, 1]])
    solver = LinearSolver(m)
    b1 = (Fraction(1), Fraction(2), Fraction(3))
    b2 = (Fraction(0), Fraction(1), Fraction(1))
    x1, x2 = solver.solve(b1), solver.solve(b2)
    both = solver.solve(tuple(a + b for a, b in zip(b1, b2)))
    assert both == tuple(a + b for a, b in zip(x1, x2))


def test_inverse_round_trip_over_f5():
    m = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert inv is not None
    assert (m @ inv).is_identity()
    assert (inv @ m).is_identity()


def test_subspace_membership_and_ops():
    u = Subspace.from_vectors(QQ, 3, [(1, 0, 1), (0, 1, 1)])
    v = Subspace.from_vectors(QQ, 3, [(1, 1, 2)])
    assert u.dim == 2 and v.dim == 1
    assert u.contains((Fraction(1), Fraction(1), Fraction(2)))
    assert u.contains_subspace(v)
    assert u.sum(v).dim == 2
    assert u.intersection(v) == v
    w = Subspace.from_vectors(QQ, 3, [(0, 0, 1)])
    assert u.intersection(w).dim == 0
    assert u.sum(w).dim == 3


def test_subspace_canonical_equality():
    a = Subspace.from_vectors(QQ, 2, [(2, 4)])
    b = Subspace.from_vectors(QQ, 2, [(1, 2), (3, 6)])
    assert a == b


def test_quotient_and_section():
    u = Subspace.from_vectors(QQ, 3, [(1, 0, 2)])
    q = u.quotient_matrix()
    assert q.shape == (2, 3)
    for v in u.basis:
        assert not any(q.mat_vec(v))
    s = u.section_matrix()
    assert (q @ s).is_identity()


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_subspace_pivots_are_stored_once(field):
    rng = random.Random(7)
    n = 6
    spans = [Subspace.zero(field, n),
             Subspace.from_vectors(field, n, [[int(i == j) for j in range(n)]
                                              for i in range(n)])]
    for k in (1, 3, 5):
        spans.append(Subspace.from_vectors(
            field, n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]))
    spans.append(spans[2].intersection(spans[3]))
    for s in spans:
        scan = tuple(next(j for j, x in enumerate(row) if x) for row in s.basis)
        assert s.pivots() == scan
        assert s.pivots() is s.pivots()
    assert spans[0].pivots() == () and spans[1].pivots() == tuple(range(n))


def test_zero_dimensional_edges():
    m = Matrix.zeros(QQ, 0, 3)
    assert m.rank() == 0
    assert m.kernel().dim == 3
    n = Matrix.zeros(QQ, 3, 0)
    assert n.kernel().dim == 0
    assert (m @ n).shape == (0, 0)
    assert n.solve((0, 0, 0)) == ()


def test_shape_errors():
    with pytest.raises(ShapeMismatch):
        Matrix.from_rows(QQ, [[1, 2], [3]])
    with pytest.raises(ShapeMismatch):
        Matrix.identity(QQ, 2) @ Matrix.identity(QQ, 3)


# -- randomized invariants ---------------------------------------------------

@pytest.mark.parametrize("field", [QQ, F2, F5])
def test_rank_invariants_randomized(field):
    rng = random.Random(1001)
    for _ in range(40):
        nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
        m = rand_matrix(field, nrows, ncols, rng)
        r = m.rank()
        assert r == m.transpose().rank()
        assert r + m.kernel().dim == ncols
        red, pivots = m.rref()
        assert red.rref()[0] == red
        assert len(pivots) == r
        assert m.column_space().dim == r


@pytest.mark.parametrize("field", [QQ, F5])
def test_subspace_dimension_formula_randomized(field):
    rng = random.Random(1002)
    for _ in range(30):
        ambient = rng.randint(1, 6)
        u = rand_matrix(field, rng.randint(0, 4), ambient, rng).row_space()
        v = rand_matrix(field, rng.randint(0, 4), ambient, rng).row_space()
        assert u.sum(v).dim + u.intersection(v).dim == u.dim + v.dim
        assert u.sum(v).contains_subspace(u)
        assert u.contains_subspace(u.intersection(v))


def test_kernel_vectors_annihilate_randomized():
    rng = random.Random(1003)
    for _ in range(30):
        m = rand_matrix(QQ, rng.randint(1, 5), rng.randint(1, 5), rng)
        for v in m.kernel().basis:
            assert not any(m.mat_vec(v))


def test_solve_round_trip_randomized_over_f5():
    rng = random.Random(1004)
    for _ in range(30):
        m = rand_matrix(F5, rng.randint(1, 5), rng.randint(1, 5), rng)
        x0 = tuple(rng.randrange(5) for _ in range(m.ncols))
        b = m.mat_vec(x0)
        x = m.solve(b)
        assert x is not None and m.mat_vec(x) == b


# -- the linear-system builder -------------------------------------------------

def test_linear_system_frozen_example():
    # X is 1 x 2; X @ R with R = [[0, 1], [0, 0]] is (0, X[0, 0])
    r = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    m = linear_system(QQ, [(1, 2)], [(1, 2, [(1, None, 0, r)])])
    assert m == Matrix.from_rows(QQ, [[0, 0], [1, 0]])
    # t a - a t on 1 x 1 unknowns cancels; the zero row is kept
    a = Matrix.from_rows(F5, [[3]])
    m = linear_system(F5, [(1, 1)], [(1, 1, [(1, None, 0, a), (-1, a, 0, None)])])
    assert m == Matrix.zeros(F5, 1, 1)


def test_linear_system_rejects_mismatched_terms():
    with pytest.raises(ShapeMismatch):
        linear_system(QQ, [(2, 3)], [(2, 2, [(1, None, 0, None)])])
    with pytest.raises(ShapeMismatch):
        linear_system(QQ, [(2, 3)], [(2, 2, [(1, Matrix.identity(QQ, 2), 0,
                                               Matrix.zeros(QQ, 2, 2))])])


def _random_equations(field, shapes, rng, seen):
    equations = []
    for _ in range(rng.randint(0, 4)):
        nr, nc = rng.randint(0, 3), rng.randint(0, 3)
        terms = []
        for _ in range(rng.randint(0, 3) if shapes else 0):
            k = rng.randrange(len(shapes))
            xr, xc = shapes[k]
            left = right = None
            if nr != xr or rng.random() < 0.5:
                left = rand_matrix(field, nr, xr, rng)
            else:
                seen["none"] += 1
            if nc != xc or rng.random() < 0.5:
                right = rand_matrix(field, xc, nc, rng)
            else:
                seen["none"] += 1
            c = rng.choice([1, -1, 2, Fraction(-2, 3)])
            terms.append((c, left, k, right))
        seen["empty"] += not terms
        equations.append((nr, nc, terms))
    return equations


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_linear_system_matches_direct_products(field):
    """M vec(X) = vec(sum c L X_k R) for every equation, with the sums
    computed by matrix multiplication."""
    rng = random.Random(2000 + field.characteristic)
    seen = {"none": 0, "empty": 0, "zero_size": 0}
    for _ in range(60):
        shapes = [(rng.randint(0, 3), rng.randint(0, 3))
                  for _ in range(rng.randint(0, 3))]
        seen["zero_size"] += any(r * c == 0 for r, c in shapes)
        equations = _random_equations(field, shapes, rng, seen)
        xs = [rand_matrix(field, r, c, rng) for r, c in shapes]
        m = linear_system(field, shapes, equations)
        assert m.shape == (sum(r * c for r, c, _ in equations),
                           sum(r * c for r, c in shapes))
        expected = []
        for nr, nc, terms in equations:
            total = Matrix.zeros(field, nr, nc)
            for c, left, k, right in terms:
                xr, xc = shapes[k]
                left = left if left is not None else Matrix.identity(field, xr)
                right = right if right is not None else Matrix.identity(field, xc)
                total = total + (left @ xs[k] @ right).scale(c)
            expected.extend(total.flat())
        vec = tuple(e for x in xs for e in x.flat())
        assert m.mat_vec(vec) == tuple(expected)
        assert all(v == field.coerce(v) and type(v) is type(field.zero())
                   for row in m.data for v in row)
    assert min(seen.values()) > 0


# -- block layouts ---------------------------------------------------------------

def _random_blocks(field: Field, rng: random.Random, low: int = 0) -> Blocks:
    n = rng.randint(1, 4)
    keys = tuple(rng.sample([("delta", 1, 0), ("sigma", 2), 3, 0, "t"], n))
    return Blocks(field, keys,
                  tuple((rng.randint(low, 3), rng.randint(low, 3)) for _ in keys))


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_blocks_unflatten_inverts_flatten(field):
    rng = random.Random(31 + field.characteristic)
    for _ in range(30):
        layout = _random_blocks(field, rng)
        blocks = {key: rand_matrix(field, r, c, rng)
                  for key, (r, c) in zip(layout.keys, layout.shapes)}
        vec = layout.flatten(blocks)
        assert len(vec) == layout.ambient_dim
        assert layout.unflatten(vec) == blocks
        assert list(layout.unflatten(vec)) == list(layout.keys)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_blocks_absent_keys_flatten_to_zeros(field):
    rng = random.Random(41 + field.characteristic)
    for _ in range(30):
        layout = _random_blocks(field, rng)
        assert layout.flatten({}) == (field.zero(),) * layout.ambient_dim
        kept = {key: rand_matrix(field, r, c, rng)
                for key, (r, c) in zip(layout.keys, layout.shapes)
                if rng.random() < 0.5}
        full = {key: kept.get(key, Matrix.zeros(field, r, c))
                for key, (r, c) in zip(layout.keys, layout.shapes)}
        assert layout.flatten(kept) == layout.flatten(full)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_blocks_columns_match_linear_system(field):
    """A single entry of block k at (i, j) lands in the column that
    linear_system gives X_k[i, j]: the equation e_i^T X_k e_j reads it."""
    rng = random.Random(51 + field.characteristic)
    one = field.one()
    for _ in range(40):
        layout = _random_blocks(field, rng, low=1)
        k = rng.randrange(len(layout.keys))
        key, (r, c) = layout.keys[k], layout.shapes[k]
        i, j = rng.randrange(r), rng.randrange(c)
        value = _random_entry(field, rng)
        block = _matrix(field, c,
                        [{j: field.coerce(value)} if a == i else {} for a in range(r)])
        vec = layout.flatten({key: block})
        cols = [col for col, x in enumerate(vec) if x]
        assert len(cols) == 1 and vec[cols[0]] == field.coerce(value)
        assert layout.index[key] == k
        left = _matrix(field, r, [{i: one}])
        right = _matrix(field, 1, [{0: one} if b == j else {} for b in range(c)])
        row = linear_system(field, layout.shapes, [(1, 1, [(1, left, k, right)])])
        assert row.data == (tuple(one if col == cols[0] else field.zero()
                                  for col in range(layout.ambient_dim)),)


# -- oracle: sympy DomainMatrix ------------------------------------------------

ORACLE_FIELDS = [QQ, GF(2), GF(3), GF(101)]


def _oracle():
    """(DomainMatrix, sympy domain constructor) for our fields."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix, lambda field: sympy.QQ if field.p is None else sympy.GF(field.p)


def _to_dm(m: Matrix):
    dm_cls, domain = _oracle()
    k = domain(m.field)
    if m.field.p is None:
        rows = [[k(x.numerator, x.denominator) for x in r] for r in m.data]
    else:
        rows = [[k(x) for x in r] for r in m.data]
    return dm_cls(rows, m.shape, k)


def _from_dm(field: Field, dm) -> tuple:
    if field.p is None:
        return tuple(tuple(Fraction(int(x.numerator), int(x.denominator)) for x in r)
                     for r in dm.to_list())
    return tuple(tuple(int(x) % field.p for x in r) for r in dm.to_list())


def _random_entry(field: Field, rng: random.Random):
    if field.p is None:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return rng.randrange(1, field.p)


def _sparse_matrix(field: Field, nrows: int, ncols: int, rng: random.Random) -> Matrix:
    """At most 5% of the entries nonzero."""
    rows = [[field.zero()] * ncols for _ in range(nrows)]
    for _ in range(rng.randint(1, max(1, nrows * ncols // 20))):
        rows[rng.randrange(nrows)][rng.randrange(ncols)] = _random_entry(field, rng)
    return Matrix.from_rows(field, rows)


def _oracle_cases(field: Field, seed: int) -> list:
    rng = random.Random(seed)
    cases = [
        Matrix.zeros(field, 0, 4),
        Matrix.zeros(field, 4, 0),
        Matrix.zeros(field, 3, 3),
        Matrix.from_rows(field, [[1, 2, 0], [1, 2, 0], [0, 0, 1]]),   # duplicate rows
        Matrix.from_rows(field, [[1, 0, 2], [0, 0, 0], [0, 1, 1]]),   # zero row between pivots
    ]
    for _ in range(8):
        cases.append(_sparse_matrix(field, rng.randint(10, 30), rng.randint(10, 30), rng))
    for _ in range(12):
        n = rng.randint(1, 7)
        shape = (n, n) if rng.random() < 0.5 else (rng.randint(1, 7), n)
        cases.append(rand_matrix(field, *shape, rng))
    return cases


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_elimination_matches_sympy(field):
    """Rank, RREF, pivots, kernel, solvability and inverse agree with sympy."""
    dm_cls, _ = _oracle()
    rng = random.Random(3000 + field.characteristic)
    for m in _oracle_cases(field, 3100 + field.characteristic):
        dm = _to_dm(m)
        red, pivots = m.rref()
        want_red, want_pivots = dm.rref()
        assert m.rank() == dm.rank() == len(pivots)
        assert pivots == tuple(want_pivots)
        assert red.data == _from_dm(field, want_red)
        kernel = m.kernel()
        null = dm.nullspace()
        assert kernel.dim == null.shape[0] == m.ncols - m.rank()
        if kernel.dim:
            assert kernel.basis == _from_dm(field, null.rref()[0])
        for consistent in (True, False):
            if consistent:
                b = m.mat_vec(tuple(_random_entry(field, rng) for _ in range(m.ncols)))
            else:
                b = tuple(_random_entry(field, rng) for _ in range(m.nrows))
            aug = Matrix.hstack([m, Matrix.from_rows(field, [[x] for x in b])])
            solvable = _to_dm(aug).rank() == dm.rank()
            x = m.solve(b)
            assert (x is not None) == solvable
            if x is not None:
                assert m.mat_vec(x) == tuple(b)
        if m.nrows == m.ncols:
            inv = m.inverse()
            if dm.rank() < m.nrows:
                assert inv is None
            else:
                assert inv.data == _from_dm(field, dm.inv())


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_subspace_ops_match_sympy(field):
    """Sum and intersection dimensions (and the canonical sum basis) agree
    with sympy ranks, on sparse and dense spans and the edge cases."""
    dm_cls, _ = _oracle()
    rng = random.Random(3200 + field.characteristic)
    for _ in range(25):
        ambient = rng.randint(1, 24)
        make = _sparse_matrix if rng.random() < 0.5 else rand_matrix
        u_rows = make(field, rng.randint(1, 8), ambient, rng)
        w_rows = make(field, rng.randint(1, 8), ambient, rng)
        if rng.random() < 0.2:
            w_rows = Matrix.vstack([u_rows, Matrix.zeros(field, 1, ambient)])
        u, w = u_rows.row_space(), w_rows.row_space()
        stacked = _to_dm(Matrix.vstack([u_rows, w_rows]))
        assert u.dim == _to_dm(u_rows).rank() and w.dim == _to_dm(w_rows).rank()
        total = u.sum(w)
        assert total.dim == stacked.rank()
        assert total.basis == _from_dm(field, stacked.rref()[0])[:total.dim]
        meet = u.intersection(w)
        assert meet.dim == u.dim + w.dim - stacked.rank()
        assert u.contains_subspace(meet) and w.contains_subspace(meet)
        assert meet == Subspace.from_vectors(field, ambient, meet.basis)


def _sympy_coordinates(rows: Matrix, v: tuple):
    """Coordinates of v in the reduced echelon basis of the row space of
    ``rows``, from a sympy solve, or None when v is outside that space."""
    field = rows.field
    red, pivots = _to_dm(rows).rref()
    dim = len(pivots)
    if dim == 0:
        return None if any(v) else ()
    basis = _from_dm(field, red)[:dim]
    aug = Matrix.from_rows(field, [[b[j] for b in basis] + [v[j]]
                                   for j in range(rows.ncols)])
    solved, aug_pivots = _to_dm(aug).rref()
    if dim in aug_pivots:
        return None
    return tuple(r[dim] for r in _from_dm(field, solved)[:dim])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_coordinates_match_sympy(field):
    """``coordinates`` agrees with a sympy solve against the echelon basis
    for vectors in the span and outside it, on the oracle cases, the zero
    subspace and the full space; ``coordinate_matrix`` reads them column
    by column."""
    rng = random.Random(3300 + field.characteristic)
    cases = _oracle_cases(field, 3400 + field.characteristic)
    cases += [Matrix.zeros(field, 2, 5), Matrix.identity(field, 5),
              rand_matrix(field, 5, 5, rng)]
    outside = 0
    for m in cases:
        space = m.row_space()
        n = space.ambient
        inside = (field.zero(),) * n
        if m.nrows:
            coeffs = Matrix.from_rows(field, [[_random_entry(field, rng)
                                               for _ in range(m.nrows)]])
            inside = _from_dm(field, _to_dm(coeffs) * _to_dm(m))[0]
        other = tuple(_random_entry(field, rng) for _ in range(n))
        assert space.coordinates(inside) == _sympy_coordinates(m, inside) is not None
        want = _sympy_coordinates(m, other)
        assert space.coordinates(other) == want
        outside += want is None
        assert (want is None) != space.contains(other)
        if want is not None:
            assert space.column_matrix().mat_vec(want) == other
        cols = Matrix.from_rows(field, [inside, other] if n else []).transpose()
        coords = space.coordinate_matrix(cols)
        assert (coords is None) == (want is None)
        if coords is not None:
            assert space.column_matrix() @ coords == cols
    assert outside > 5
    full = Matrix.identity(field, 4).row_space()
    v = tuple(_random_entry(field, rng) for _ in range(4))
    assert full.coordinates(v) == v
    assert Subspace.zero(field, 4).coordinates(v) is None
    assert Subspace.zero(field, 4).coordinates((field.zero(),) * 4) == ()


def _sympy_residue(rows: Matrix, v: tuple) -> tuple:
    """The vector congruent to v modulo the row space of ``rows`` that
    vanishes at the sympy pivot columns: v minus v[c] times the sympy RREF
    row with pivot c."""
    field = rows.field
    red, pivots = _to_dm(rows).rref()
    out = _to_dm(Matrix.from_rows(field, [v]))
    for row, c in zip(_from_dm(field, red), pivots):
        out = out - _to_dm(Matrix.from_rows(field, [row])) * out.to_list()[0][c]
    return _from_dm(field, out)[0]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_reduction_matches_sympy(field):
    """``contains_subspace``, ``contains``, ``reduce`` and ``coordinates``
    agree with sympy ranks and solves on random subspaces, including the
    zero and full spaces and subspaces that are not contained."""
    rng = random.Random(3500 + field.characteristic)
    verdicts = set()
    for _ in range(30):
        ambient = rng.randint(1, 16)
        make = _sparse_matrix if rng.random() < 0.5 else rand_matrix
        u_rows = rng.choice([make(field, rng.randint(1, 8), ambient, rng),
                             Matrix.zeros(field, 1, ambient),
                             Matrix.identity(field, ambient)])
        coeffs = rand_matrix(field, rng.randint(1, 4), u_rows.nrows, rng)
        w_rows = rng.choice([make(field, rng.randint(1, 8), ambient, rng),
                             coeffs @ u_rows,
                             Matrix.zeros(field, 1, ambient),
                             Matrix.identity(field, ambient)])
        u, w = u_rows.row_space(), w_rows.row_space()
        u_rank = _to_dm(u_rows).rank()
        contained = _to_dm(Matrix.vstack([u_rows, w_rows])).rank() == u_rank
        assert u.contains_subspace(w) == contained
        verdicts.add(contained)
        for v in (coeffs @ u_rows).data + w_rows.data:
            inside = _to_dm(Matrix.vstack([u_rows, Matrix.from_rows(field, [v])])).rank() == u_rank
            assert u.contains(v) == inside
            assert u.reduce(v) == _sympy_residue(u_rows, v)
            assert any(u.reduce(v)) != inside
            assert u.coordinates(v) == _sympy_coordinates(u_rows, v)
    assert verdicts == {True, False}
    u = Matrix.identity(field, 3).row_space()
    with pytest.raises(ShapeMismatch):
        u.contains_subspace(Subspace.zero(field, 4))
    with pytest.raises(ShapeMismatch):
        u.reduce((field.one(),) * 4)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_hash_is_kept_and_ignores_the_stored_form(field):
    """A dense literal, sparse rows with their columns inserted in either
    order and a product with the same entries are equal and hash alike;
    the hash is kept once taken."""
    two, one = field.coerce(2), field.one()
    dense = Matrix.from_rows(field, [[0, 2, 1], [1, 0, 0]])
    forward = _matrix(field, 3, [{1: two, 2: one}, {0: one}])
    backward = _matrix(field, 3, [{2: one, 1: two}, {0: one}])
    product = (Matrix.from_rows(field, [[0, 1], [1, 0]])
               @ Matrix.from_rows(field, [[1, 0, 0], [0, 2, 1]]))
    for m in (forward, backward, product):
        assert m == dense and hash(m) == hash(dense)
        assert m._hash == hash(m)
    assert Matrix.from_rows(field, [[0, 2, 0], [1, 0, 0]]) != dense


def test_builders_and_views_match_lists_of_lists(hypothesis):
    """Each builder stores the canonical sparse rows of a plain
    list-of-lists reference, and each dense view reads the reference back,
    over Q and F_p, on shapes with no rows or no columns too."""
    from hypothesis import strategies as st

    def check(m, ref, ncols):
        assert (m.nrows, m.ncols) == (len(ref), ncols)
        assert m.rows == [stored_row(m.field, {j: x for j, x in enumerate(row) if x})
                          for row in ref]
        assert m.data == tuple(map(tuple, ref))
        assert m.flat() == tuple(x for row in ref for x in row)
        assert all(m.col(j) == tuple(row[j] for row in ref) for j in range(ncols))

    @st.composite
    def grids(draw):
        field = draw(st.sampled_from([QQ, F2, F5]))
        if field.p is None:
            value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
        else:
            value = st.integers(0, field.p - 1)
        r, c, k = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
        return field, c, k, [[[draw(value) for _ in range(n)] for _ in range(m)]
                             for m, n in ((r, c), (r, k), (k, c))]

    @hypothesis.given(grids())
    def run(drawn):
        field, c, k, (a, b, d) = drawn
        r, z = len(a), field.zero()
        ma, mb, md = (Matrix.from_flat(field, len(g), n, [x for row in g for x in row])
                      for g, n in ((a, c), (b, k), (d, c)))
        check(ma, a, c)
        check(ma.transpose(), [[row[j] for row in a] for j in range(c)], r)
        check(Matrix.hstack([ma, mb]), [ra + rb for ra, rb in zip(a, b)], c + k)
        check(Matrix.vstack([ma, md]), a + d, c)
        check(Matrix.block([[ma, mb], [md, Matrix.zeros(field, k, k)]]),
              [ra + rb for ra, rb in zip(a, b)] + [rd + [z] * k for rd in d], c + k)
        check(Matrix.block_diag(field, [ma, md]),
              [ra + [z] * c for ra in a] + [[z] * c + rd for rd in d], 2 * c)
        check(Matrix.identity(field, r),
              [[field.one() if i == j else z for j in range(r)] for i in range(r)], r)
        check(Matrix.zeros(field, r, c), [[z] * c for _ in range(r)], c)

    run()


# -- oracle: the sweep the elimination core replaced ---------------------------

def _sweep(rows: list, p, stop: int) -> list:
    """Oracle: Gauss-Jordan elimination as ``_eliminate`` did it before it
    kept a column index.  For each pivot it rescans the leading column of
    every row past the pivot rows and looks the pivot column up in every
    row, so its cost is rows x rank.  Same pivot rule: the leftmost column,
    from the first row at or past the pivot rows that holds it."""
    n = len(rows)
    lead = [min(row) for row in rows]
    pivots = []
    for r in range(n):
        c = min(lead[r:])
        if c >= stop:
            break
        k = lead.index(c, r)
        rows[r], rows[k] = rows[k], rows[r]
        lead[k] = lead[r]
        prow = rows[r]
        pv = prow[c]
        if pv != 1:
            inv = 1 / pv if p is None else pow(pv, -1, p)
            for j, x in prow.items():
                prow[j] = x * inv if p is None else x * inv % p
        items = list(prow.items())
        for i in range(n):
            row = rows[i]
            f = row.get(c)
            if f is None or i == r:
                continue
            for j, b in items:
                v = row.get(j, 0) - f * b
                if p is not None:
                    v %= p
                if v:
                    row[j] = v
                else:
                    del row[j]
            if i > r:
                lead[i] = min(row, default=stop)
        pivots.append(c)
    return pivots


def _sweep_solver(m: Matrix) -> tuple:
    """``(pivots, transform)`` of ``LinearSolver(m)``, eliminated by the
    sweep: the transform's rows past the rank are rows the sweep left."""
    n, field = m.ncols, m.field
    rows = [{**row_values(field, row), n + i: field.one()} for i, row in enumerate(m.rows)]
    pivots = _sweep(rows, field.p, n)
    return tuple(pivots), _matrix(field, m.nrows,
                                  [{j - n: x for j, x in row.items() if j >= n}
                                   for row in rows])


def _assert_same_as_sweep(m: Matrix, stops):
    """Pivots and every row, in order, of the core and of the sweep agree on
    the nonzero rows of m for each stop, and so does ``LinearSolver``."""
    field = m.field
    for stop in stops:
        core = [(dict(v), d) for v, d in m.rows if v]
        nums, dens = [v for v, _ in core], [d for _, d in core]
        sweep = [dict(row_values(field, row)) for row in core]
        assert _eliminate(nums, dens, field.p, stop) == _sweep(sweep, field.p, stop)
        assert [row_values(field, row) for row in zip(nums, dens)] == sweep
    solver = LinearSolver(m)
    assert (solver.pivots, solver.transform) == _sweep_solver(m)


def _sweep_cases(field: Field, seed: int) -> list:
    rng = random.Random(seed)
    low_rank = rand_matrix(field, 9, 3, rng) @ rand_matrix(field, 3, 8, rng)
    sparse = _sparse_matrix(field, 30, 25, rng)
    return [
        Matrix.zeros(field, 3, 4),
        Matrix.identity(field, 4),
        # zero and duplicate rows between and below the pivot rows
        Matrix.from_rows(field, [[0, 0, 1], [0, 0, 0], [1, 1, 0], [0, 0, 0], [1, 1, 0]]),
        Matrix.from_rows(field, [[0, 1, 1], [0, 1, 1], [1, 0, 1], [0, 1, 1]]),
        # every pivot row comes from the bottom: a swap at each pivot
        Matrix.from_rows(field, [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1]]),
        # sparse rows, then the same rows in reverse order
        sparse,
        Matrix(field, sparse.nrows, sparse.ncols, sparse.rows[::-1]),
        # dense: full fill, and rows past the rank cancelling to zero
        rand_matrix(field, 12, 12, rng),
        rand_matrix(field, 6, 15, rng),
        rand_matrix(field, 15, 6, rng),
        low_rank,
        Matrix.vstack([low_rank, low_rank]),
    ]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_eliminate_matches_the_sweep(field):
    """The column-indexed core makes the sweep's pivots, swaps and rows on
    zero and duplicate rows, forced swaps, dense fill and every stop."""
    for m in _sweep_cases(field, 3600 + field.characteristic):
        _assert_same_as_sweep(m, range(m.ncols + 1))


def test_eliminate_matches_the_sweep_on_drawn_systems(hypothesis):
    """Drawn fields, shapes, rows (some repeated) and stops."""
    from hypothesis import strategies as st

    @st.composite
    def systems(draw):
        field = draw(st.sampled_from(ORACLE_FIELDS))
        ncols = draw(st.integers(1, 10))
        if field.p is None:  # small values, and denominators up to 10^6
            value = st.one_of(
                st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
                st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool),
                          st.integers(1, 10**6)))
        else:
            value = st.integers(1, field.p - 1)
        row = st.dictionaries(st.integers(0, ncols - 1), value,
                              max_size=draw(st.integers(1, ncols)))
        rows = draw(st.lists(row, max_size=10))
        if rows:
            rows += [dict(r) for r in draw(st.lists(st.sampled_from(rows), max_size=3))]
            rows = draw(st.permutations(rows))
        return _matrix(field, ncols, rows), draw(st.integers(0, ncols))

    @hypothesis.given(systems())
    def check(system):
        m, stop = system
        _assert_same_as_sweep(m, [stop])

    check()


def test_kernel_matches_the_two_step_construction(hypothesis):
    """Oracle: the kernel as the span of the rows of the quotient map of the
    row space, which eliminates twice.  Drawn over Q, F_2 and F_101, with
    zero rows, no columns, full rank and dependent rows."""
    from hypothesis import strategies as st

    @st.composite
    def matrices(draw):
        field = draw(st.sampled_from([QQ, F2, GF(101)]))
        ncols = draw(st.integers(0, 8))
        if field.p is None:
            value = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
        else:
            value = st.integers(1, field.p - 1)
        row = st.lists(st.one_of(st.just(0), value), min_size=ncols,
                       max_size=ncols).map(lambda r: {j: x for j, x in enumerate(r) if x})
        rows = draw(st.lists(row, max_size=8))
        kind = draw(st.sampled_from(["drawn", "dependent", "full"]))
        if kind == "full":  # unit upper triangular, rows permuted
            rows = [{i: field.one(), **{j: x for j, x in r.items() if j > i}}
                    for i, r in enumerate(draw(st.lists(row, min_size=ncols,
                                                        max_size=ncols)))]
            rows = draw(st.permutations(rows))
        m = _matrix(field, ncols, rows)
        if kind == "dependent" and rows:
            mix = _matrix(field, len(rows), draw(st.lists(
                st.dictionaries(st.integers(0, len(rows) - 1), value, max_size=3),
                min_size=1, max_size=4)))
            m = Matrix.vstack([m, mix @ m])
        return m

    @hypothesis.given(matrices())
    def check(m):
        quotient = m.row_space().quotient_matrix()
        want = Subspace._span(m.field, m.ncols, [(dict(v), d) for v, d in quotient.rows])
        got = m.kernel()
        assert got == want and list(got.by_pivot) == list(want.by_pivot)
        assert (m @ got.column_matrix()).is_zero()

    check()


# -- oracle: plain Fraction arithmetic for the kernels over Q -------------------

def _q_values(st):
    """Zero, small signed values drawn from a few (so that sums cancel to
    zero), and values with numerators and denominators up to 10^6."""
    small = st.sampled_from([Fraction(s * n, d) for s in (1, -1)
                             for n, d in ((1, 1), (1, 2), (3, 1), (2, 3), (7, 10**6))])
    wide = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
    return st.one_of(st.just(Fraction(0)), small, small, wide)


def _ref_combination(n: int, terms) -> list:
    out = [Fraction(0)] * n
    for c, v in terms:
        for k in range(n):
            out[k] += c * v[k]
    return out


def _ref_product(a: list, b: list, ncols: int) -> list:
    return [_ref_combination(ncols, zip(row, b)) for row in a]


def _ref_residue(basis: tuple, v: tuple) -> list:
    """v reduced by each canonical basis row in turn, at its pivot."""
    r = list(v)
    for row in basis:
        c = next(j for j, x in enumerate(row) if x)
        f = r[c]
        r = [x - f * y for x, y in zip(r, row)]
    return r


def _ref_linear_system(shapes, equations) -> list:
    """Entry (a, b) of an equation gets c * L[a, i] * R[j, b] in the column
    of X_k[i, j] for each term, read off the matrices entry by entry."""
    offsets = [sum(r * c for r, c in shapes[:k]) for k in range(len(shapes))]
    ncols = sum(r * c for r, c in shapes)
    rows = []
    for nr, nc, terms in equations:
        block = [[Fraction(0)] * ncols for _ in range(nr * nc)]
        for c, left, k, right in terms:
            xr, xc = shapes[k]
            for a in range(nr):
                for b in range(nc):
                    for i in range(xr):
                        for j in range(xc):
                            block[a * nc + b][offsets[k] + i * xc + j] += (
                                c * left.data[a][i] * right.data[j][b])
        rows += block
    return rows


def _all_fractions_equal(got, want) -> bool:
    got, want = list(got), list(want)
    return (len(got) == len(want) and all(type(x) is Fraction for x in got)
            and got == want)


def test_q_kernels_match_plain_fraction_arithmetic(hypothesis):
    """Products, matrix-vector products, vector combinations, reduction,
    membership, coordinates and ``linear_system`` over Q, computed on
    integer rows, give the entries that plain Fraction arithmetic gives,
    each one a canonical Fraction; drawn sums do cancel to zero."""
    from hypothesis import strategies as st
    value = _q_values(st)
    one_to = {n: st.integers(1, n) for n in (2, 3, 4)}
    pick = st.integers(0, 2)
    seen = {"cancel": 0, "inside": 0, "outside": 0}

    def cancels(terms) -> bool:
        return any(t for t in terms) and sum(terms, Fraction(0)) == 0

    @st.composite
    def cases(draw):
        r, n, c = (draw(one_to[4]) for _ in range(3))

        def rows(nrows, ncols):
            return [[draw(value) for _ in range(ncols)] for _ in range(nrows)]

        # b repeats its rows, and a's second half negates some of its first
        # half's entries, so that the product's sums can cancel
        a, b = rows(r, n), rows(n, c)
        b += b
        a = [row + [[x, -x, draw(value)][draw(pick)] for x in row] for row in a]
        coeffs = [draw(value) for _ in range(len(b))]
        x = [draw(value) for _ in range(c)]
        vectors = rows(draw(one_to[4]) - 1, c)
        shapes = [(draw(one_to[2]), draw(one_to[2])) for _ in range(2)]
        equations = []
        for _ in range(draw(one_to[2])):
            nr, nc = draw(one_to[2]), draw(one_to[2])
            terms = []
            for _ in range(draw(one_to[3])):
                k = draw(one_to[2]) - 1
                xr, xc = shapes[k]
                terms.append((draw(value), Matrix.from_rows(QQ, rows(nr, xr)), k,
                              Matrix.from_rows(QQ, rows(xc, nc))))
            equations.append((nr, nc, terms))
        return a, b, coeffs, x, vectors, shapes, equations

    @hypothesis.given(cases())
    def check(case):
        a, b, coeffs, x, vectors, shapes, equations = case
        ncols = len(b[0])
        ma, mb = Matrix.from_rows(QQ, a), Matrix.from_rows(QQ, b)
        want = _ref_product(a, b, ncols)
        got = ma @ mb
        assert got.shape == (len(a), ncols)
        assert all(_all_fractions_equal(g, w) for g, w in zip(got.data, want))
        assert _all_fractions_equal(mb.mat_vec(tuple(x)),
                                    [sum((y * z for y, z in zip(row, x)), Fraction(0))
                                     for row in b])
        assert _all_fractions_equal(vec_combination(QQ, ncols, zip(coeffs, b)),
                                    _ref_combination(ncols, zip(coeffs, b)))
        seen["cancel"] += any(cancels([y * row[j] for y, row in zip(arow, b)])
                              for arow in a for j in range(ncols))
        span = Subspace.from_vectors(QQ, ncols, vectors)
        member = tuple(_ref_combination(ncols, zip(coeffs, vectors)))
        for v in (member, tuple(b[0])):
            residue = _ref_residue(span.basis, v)
            inside = not any(residue)
            seen["inside" if inside else "outside"] += 1
            assert _all_fractions_equal(span.reduce(v), residue)
            assert span.contains(v) == inside
            coords = span.coordinates(v)
            if inside:
                assert _all_fractions_equal(coords, [v[c] for c in span.pivots()])
                assert tuple(_ref_combination(ncols, zip(coords, span.basis))) == v
            else:
                assert coords is None
        system = linear_system(QQ, shapes, equations)
        assert all(_all_fractions_equal(g, w) for g, w in
                   zip(system.data, _ref_linear_system(shapes, equations)))
        assert system.nrows == sum(nr * nc for nr, nc, _ in equations)

    check()
    assert min(seen.values()) > 0


@pytest.mark.parametrize("field", [GF(101), QQ], ids=str)
def test_elimination_cost_follows_the_fill(field):
    """``rank()`` of a 20,000 x 20,000 bidiagonal system whose rows and
    columns are permuted alike.  A pivot updates only the rows holding its
    column, so this stays well inside the bound; a sweep over every row for
    each pivot takes tens of seconds."""
    n = 20_000
    perm = list(range(n))
    random.Random(3700).shuffle(perm)
    one, minus = field.one(), field.neg(field.one())
    rows = [{}] * n
    for i in range(n):
        rows[perm[i]] = {perm[i]: one, perm[i + 1]: minus} if i + 1 < n else {perm[i]: one}
    m = _matrix(field, n, rows)
    start = time.perf_counter()
    assert m.rank() == n
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("field", [GF(101), QQ], ids=str)
def test_elimination_of_a_chain_is_not_quadratic(field):
    """``rank()`` of a 3,000 x 3,000 bidiagonal system, entries (i, i) and
    (i, i + 1), whose rows alone are shuffled.  Each pivot row chains into
    the next, so clearing each pivot column from every pivot row above it
    at once is quadratic (about 2 s): the first row fills with every later
    column.  Clearing the rows past the pivot on the way down, and the
    rows above it on the way back, is not."""
    n = 3_000
    perm = list(range(n))
    random.Random(3700).shuffle(perm)
    one, minus = field.one(), field.neg(field.one())
    rows = [{}] * n
    for i in range(n):
        rows[perm[i]] = {i: one, i + 1: minus} if i + 1 < n else {i: one}
    m = _matrix(field, n, rows)
    start = time.perf_counter()
    assert m.rank() == n
    assert time.perf_counter() - start < 0.5
