"""Algebras from structure constants and quiver presentations."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from compvar.algebra import (FDAlgebra, QuiverPresentation, _concat, _enumerate_paths,
                             algebra_from_constants, center, opposite_algebra,
                             path_algebra, radical, validate_algebra)
from compvar.errors import (BudgetExceeded, MissingIdempotents, ShapeMismatch,
                            UnsupportedCharacteristic, ValidationFailure)
from compvar.fields import GF, QQ
from compvar.linalg import (LinearSolver, Matrix, Subspace, row_values, row_vector,
                            stored_row, vec_combination, vector_row)
from compvar.samples import (a2_algebra, base_field_algebra, dual_numbers,
                             two_loop_truncated)

F2 = GF(2)
F5 = GF(5)


def dual_numbers_table(field):
    """K[x]/(x^2) given directly by structure constants (x*x = 0)."""
    return algebra_from_constants(field, 2, ("1", "x"), {(1, 1, 0): 0})


# -- structure-constant construction ----------------------------------------

def test_dual_numbers_table_validates():
    a = dual_numbers_table(QQ)
    assert validate_algebra(a) is None
    x = a.basis_vec(1)
    assert a.mul_vec(x, x) == a.zero_vec()
    assert a.mul_vec(a.unit_vec(), x) == x
    assert a.is_commutative()


def test_broken_associativity_is_caught():
    # x*x = 1 over Q would make x a unit; combined with a truncated table
    # this breaks associativity and must be refused with a witness
    with pytest.raises(ValidationFailure) as exc:
        algebra_from_constants(QQ, 3, ("1", "x", "y"),
                               {(1, 1, 2): 1, (1, 2, 0): 1})
    assert exc.value.witness[0] == "associativity"


def _dense(a, row):
    """The coordinate vector of a row of the table of a."""
    return row_vector(a.field, a.dim, row)


def _sparse(field, vec):
    """The stored row of a coordinate vector."""
    return vector_row(field, len(vec), vec)


def _first_nonassociative_triple(a):
    """Witness from products of coordinate vectors over all basis triples."""
    for j in range(a.dim):
        for k in range(a.dim):
            for l in range(a.dim):
                if a.mul_vec(_dense(a, a.products[j][k]), a.basis_vec(l)) != \
                        a.mul_vec(a.basis_vec(j), _dense(a, a.products[k][l])):
                    return ("associativity", j, k, l)
    return None


def _rebased(alg, rows):
    """alg in the basis 1, rows[0], rows[1], ... (coordinate vectors)."""
    field = alg.field
    basis = [alg.unit_vec()] + [tuple(map(field.coerce, r)) for r in rows]
    solver = LinearSolver(Matrix.from_rows(field, basis).transpose())
    return FDAlgebra(field, alg.dim, alg.labels, tuple(
        tuple(_sparse(field, solver.solve(alg.mul_vec(u, v))) for v in basis)
        for u in basis))


@pytest.mark.parametrize("field", [QQ, F5])
def test_associativity_witness_matches_vector_products(field):
    # change one non-unit structure constant at a time by 1/3 and compare
    # the witness with the first failing triple of the plain definition,
    # also in a basis where the constants are dense (fractions over Q,
    # sums that wrap around over F_5)
    for build in (a2_algebra, two_loop_truncated):
        for alg in (build(field), _rebased(build(field), [(2, 3, 1), (4, 1, 3)])):
            assert validate_algebra(alg) is None
            table = [[_dense(alg, cell) for cell in row] for row in alg.products]
            for j in range(1, alg.dim):
                for k in range(1, alg.dim):
                    for l in range(alg.dim):
                        cell = table[j][k]
                        changed = field.coerce(cell[l] + Fraction(1, 3))
                        table[j][k] = cell[:l] + (changed,) + cell[l + 1:]
                        broken = FDAlgebra(field, alg.dim, alg.labels, tuple(
                            tuple(_sparse(field, v) for v in row) for row in table))
                        table[j][k] = cell
                        assert validate_algebra(broken) == \
                            _first_nonassociative_triple(broken)


def test_identity_contradiction_is_caught():
    with pytest.raises(ValidationFailure):
        algebra_from_constants(QQ, 2, ("1", "x"), {(0, 1, 1): 7})


@pytest.mark.parametrize("key", [(1, 1, -1), (1, 1, 2), (2, 1, 1), (1, -1, 0)])
def test_constant_index_outside_the_basis_is_refused(key):
    # a negative index used to wrap around (x*x = x), and a large one
    # raised a bare IndexError
    with pytest.raises(ShapeMismatch):
        algebra_from_constants(QQ, 2, ("1", "x"), {key: 1})


def test_equality_and_hash_ignore_the_order_of_row_keys():
    alg = _rebased(a2_algebra(QQ), [(2, 3, 1), (4, 1, 3)])
    field = alg.field
    assert any(len(row_values(field, cell)) > 1 for row in alg.products for cell in row)
    reordered = FDAlgebra(field, alg.dim, alg.labels, tuple(
        tuple(stored_row(field, dict(reversed(row_values(field, cell).items())))
              for cell in row) for row in alg.products))
    assert reordered == alg and hash(reordered) == hash(alg)


# -- quiver construction ------------------------------------------------------

def test_base_field_algebra():
    a = base_field_algebra(QQ)
    assert a.dim == 1
    assert a.labels == ("1",)
    assert a.primitive_idempotents() == (a.unit_vec(),)
    assert radical(a).dim == 0


def test_dual_numbers_quiver_matches_table():
    a = dual_numbers(QQ)
    b = dual_numbers_table(QQ)
    assert a.dim == b.dim == 2
    assert a.products == b.products
    assert a.labels == ("1", "x")
    assert radical(a).basis == ((Fraction(0), Fraction(1)),)


def test_a2_dimension_and_labels():
    a = a2_algebra(QQ)
    assert a.dim == 3
    assert a.labels == ("1", "e2", "a")
    assert validate_algebra(a) is None
    # e1 = 1 - e2 and e2 are orthogonal idempotents summing to 1
    e1, e2 = a.primitive_idempotents()
    assert a.mul_vec(e1, e1) == e1
    assert a.mul_vec(e2, e2) == e2
    assert a.mul_vec(e1, e2) == a.zero_vec()
    # arrow composes like a function: a * e1 = a (source), e2 * a = a (target)
    arrow = a.basis_vec(2)
    assert a.mul_vec(arrow, e1) == arrow
    assert a.mul_vec(e2, arrow) == arrow
    assert a.mul_vec(arrow, e2) == a.zero_vec()
    assert a.mul_vec(arrow, arrow) == a.zero_vec()


def test_two_loop_truncated_dimension():
    a = two_loop_truncated(QQ)
    assert a.dim == 3
    assert radical(a).dim == 2
    r = radical(a)
    for u in r.basis:
        for v in r.basis:
            assert a.mul_vec(u, v) == a.zero_vec()


def test_longer_relation_path_algebra():
    # 1 -a-> 2 -b-> 3 with the composite killed: dim = 3 vertices + 2 arrows
    q = QuiverPresentation(3, ((0, 1, "a"), (1, 2, "b")),
                           ((((0, 1), 1),),), 3)
    a = path_algebra(q, QQ)
    assert a.dim == 5
    assert radical(a).dim == 2
    # without the relation the composite survives
    q2 = QuiverPresentation(3, ((0, 1, "a"), (1, 2, "b")), (), 3)
    a2 = path_algebra(q2, QQ)
    assert a2.dim == 6


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_multi_vertex_basis_is_identity_first(field):
    # cyclic quiver 1 -> 2 -> 3 -> 4 -> 1 with two length-two paths killed
    arrows = ((0, 1, "a"), (1, 2, "b"), (2, 3, "c"), (3, 0, "d"))
    q = QuiverPresentation(4, arrows, ((((0, 1), 1),), (((2, 3), 1),)), 4)
    a = path_algebra(q, field)
    assert a.labels[:4] == ("1", "e2", "e3", "e4")
    one, minus = field.one(), field.neg(field.one())
    # e1 = 1 - e2 - e3 - e4, the other vertices and paths are basis vectors
    assert a.idempotents[0] == (one, minus, minus, minus) + a.zero_vec()[4:]
    assert a.idempotents[1:] == tuple(a.basis_vec(i) for i in (1, 2, 3))
    assert a.radical_vectors == tuple(a.basis_vec(i) for i in range(4, a.dim))
    assert vec_combination(field, a.dim, ((one, e) for e in a.idempotents)) == a.unit_vec()
    for i, e in enumerate(a.idempotents):
        for j, f in enumerate(a.idempotents):
            assert a.mul_vec(e, f) == (e if i == j else a.zero_vec())


def test_hash_is_kept_and_follows_equality():
    a, b = dual_numbers(QQ), dual_numbers_table(QQ)
    assert a == b and hash(a) == hash(b)
    assert a._memo["hash"] == hash(a)


def test_noncomposable_relation_is_rejected():
    with pytest.raises(ValidationFailure):
        QuiverPresentation(2, ((0, 1, "a"),), ((((0, 0), 1),),), 3)


# -- center -------------------------------------------------------------------

def test_center_examples():
    assert center(base_field_algebra(QQ)).dim == 1
    assert center(dual_numbers(QQ)).dim == 2  # commutative
    c = center(a2_algebra(QQ))
    assert c.dim == 1
    # the center of the A2 algebra is spanned by the identity
    assert c.contains(a2_algebra(QQ).unit_vec())


def test_center_is_unital_commutative_subalgebra():
    for alg in (a2_algebra(QQ), dual_numbers(F5), two_loop_truncated(QQ)):
        c = center(alg)
        assert c.contains(alg.unit_vec())
        for u in c.basis:
            for v in c.basis:
                assert c.contains(alg.mul_vec(u, v))
                assert alg.mul_vec(u, v) == alg.mul_vec(v, u)


# -- radical -------------------------------------------------------------------

def test_radical_examples():
    assert radical(dual_numbers(QQ)).dim == 1
    r = radical(a2_algebra(QQ))
    assert r.dim == 1
    assert r.contains(a2_algebra(QQ).basis_vec(2))  # the arrow


def test_trace_form_agrees_with_structural_radical_over_q():
    for build in (dual_numbers, a2_algebra, two_loop_truncated):
        alg = build(QQ)
        stripped = FDAlgebra(alg.field, alg.dim, alg.labels, alg.products)
        assert radical(stripped) == radical(alg)
        rows = [(2, 3, 1), (4, 1, 3)][:alg.dim - 1]
        assert radical(_rebased(alg, [r[:alg.dim] for r in rows])).dim == \
            radical(alg).dim


def test_trace_form_characteristic_guard():
    alg = dual_numbers_table(F2)  # no structural radical, p = 2 = dim
    with pytest.raises(UnsupportedCharacteristic):
        radical(alg)
    # but the quiver-constructed version knows its radical structurally
    assert radical(dual_numbers(F2)).dim == 1


def test_radical_of_semisimple_f5():
    alg = base_field_algebra(F5)
    assert radical(alg).dim == 0


# -- opposite ------------------------------------------------------------------

def test_opposite_involution_and_validity():
    for build in (dual_numbers, a2_algebra):
        alg = build(QQ)
        op = opposite_algebra(alg)
        assert validate_algebra(op) is None
        assert opposite_algebra(op).products == alg.products
        assert center(op) == center(alg)
        assert radical(op) == radical(alg)


def test_opposite_of_commutative_is_identical():
    alg = dual_numbers(QQ)
    assert opposite_algebra(alg).products == alg.products


def test_missing_idempotents_error():
    alg = dual_numbers_table(QQ)
    with pytest.raises(MissingIdempotents):
        alg.primitive_idempotents()


# -- path algebras against the two-branch construction --------------------------

def _two_branch_path_algebra(q, field):
    """Reference: the quiver algebra as built before its table came from
    ``algebra_from_constants``.  It fills the whole table over the surviving
    paths first; one vertex keeps that table, several change to the
    identity-first basis by a bilinear change of coordinates."""
    ordered, index, ends = _enumerate_paths(q)
    npaths, bound = len(ordered), q.nilpotency_bound

    def path_len(key):
        return 0 if key[0] == "e" else len(key)

    def axis(n, i):
        return tuple(field.one() if l == i else field.zero() for l in range(n))

    span_vectors = []
    for rel in q.relations:
        rel_src, rel_tgt = q._path_ends(rel[0][0])
        min_len = min(len(path) for path, _ in rel)
        for w in ordered:
            for u in ordered:
                if (ends[w][1] != rel_src or ends[u][0] != rel_tgt
                        or path_len(w) + min_len + path_len(u) >= bound):
                    continue
                vec = [field.zero()] * npaths
                for path, coeff in rel:
                    if path_len(w) + len(path) + path_len(u) < bound:
                        key = (path if w[0] == "e" else w + path) + (() if u[0] == "e" else u)
                        vec[index[key]] = field.add(vec[index[key]], field.coerce(coeff))
                span_vectors.append(tuple(vec))
    rel_span = Subspace.from_vectors(field, npaths, span_vectors)
    basis_keys = [k for i, k in enumerate(ordered) if i not in set(rel_span.pivots())]
    nb = len(basis_keys)

    def reduce_path_product(k1, k2):
        cat = _concat(ends, k2, k1)
        vec = axis(npaths, index[cat]) if cat is not None and path_len(cat) < bound \
            else (field.zero(),) * npaths
        vec = rel_span.reduce(vec)
        return tuple(vec[index[k]] for k in basis_keys)

    raw = [[reduce_path_product(k1, k2) for k2 in basis_keys] for k1 in basis_keys]

    def bilinear(x, y):
        return vec_combination(field, nb, ((xj * yk, raw[j][k])
                                           for j, xj in enumerate(x) if xj
                                           for k, yk in enumerate(y) if yk))

    def key_label(key):
        return f"e{key[1] + 1}" if key[0] == "e" else "*".join(q.arrows[a][2] for a in key)

    if q.vertices == 1:
        labels = ["1"] + [key_label(k) for k in basis_keys[1:]]
        products, idempotents = raw, (axis(nb, 0),)
        radical_vectors = tuple(axis(nb, i) for i in range(1, nb))
    else:
        key_pos = {k: i for i, k in enumerate(basis_keys)}
        trivial_pos = [key_pos[("e", v)] for v in range(q.vertices)]
        rest_pos = [i for i, k in enumerate(basis_keys) if k[0] != "e"]
        one_vec = tuple(field.one() if i in trivial_pos else field.zero() for i in range(nb))
        new_basis = [one_vec] + [axis(nb, i) for i in trivial_pos[1:] + rest_pos]
        labels = (["1"] + [f"e{v + 1}" for v in range(1, q.vertices)]
                  + [key_label(basis_keys[i]) for i in rest_pos])

        def new_coords(x):
            first = x[trivial_pos[0]]
            return ((first,) + tuple(field.sub(x[i], first) for i in trivial_pos[1:])
                    + tuple(x[i] for i in rest_pos))

        products = [[new_coords(bilinear(bj, bk)) for bk in new_basis] for bj in new_basis]
        idempotents = tuple(new_coords(axis(nb, i)) for i in trivial_pos)
        radical_vectors = tuple(new_coords(axis(nb, i)) for i in rest_pos)
    alg = FDAlgebra(field, nb, tuple(labels),
                    tuple(tuple(_sparse(field, v) for v in row) for row in products),
                    idempotents=idempotents, radical_vectors=radical_vectors)
    witness = validate_algebra(alg)
    if witness is not None:
        raise ValidationFailure(f"constructed algebra invalid: {witness}")
    return alg


def test_path_algebra_matches_the_two_branch_construction(hypothesis):
    """Drawn quivers of up to 3 vertices and 3 arrows, bounds up to 3, with
    monomial and binomial relations between parallel paths: one table
    builder gives the labels, table, idempotents and radical basis of the
    two-branch construction, or both refuse the input."""
    st = hypothesis.strategies
    coeffs = st.sampled_from([1, -1, 2, 3])

    @st.composite
    def presentations(draw):
        n = draw(st.integers(1, 3))
        vertex = st.integers(0, n - 1)
        arrows = tuple((s, t, f"a{i}") for i, (s, t) in
                       enumerate(draw(st.lists(st.tuples(vertex, vertex), max_size=3))))
        paths = [p for length in (2, 3)
                 for p in itertools.product(range(len(arrows)), repeat=length)
                 if all(arrows[a][1] == arrows[b][0] for a, b in zip(p, p[1:]))]
        relations = []
        for _ in range(draw(st.integers(0, 3)) if paths else 0):
            first = draw(st.sampled_from(paths))
            rel = [(first, draw(coeffs))]
            parallel = [p for p in paths if p != first
                        and (arrows[p[0]][0], arrows[p[-1]][1])
                        == (arrows[first[0]][0], arrows[first[-1]][1])]
            if parallel and draw(st.booleans()):  # binomial
                rel.append((draw(st.sampled_from(parallel)), draw(coeffs)))
            relations.append(tuple(rel))
        return QuiverPresentation(n, arrows, tuple(relations), draw(st.integers(1, 3)))

    @hypothesis.given(presentations(), st.sampled_from([QQ, F2, F5]))
    def check(q, field):
        try:
            expected = _two_branch_path_algebra(q, field)
        except (BudgetExceeded, ValidationFailure) as exc:
            with pytest.raises(type(exc)):
                path_algebra(q, field)
            return
        got = path_algebra(q, field)
        assert got.labels == expected.labels
        assert got.products == expected.products
        assert got.idempotents == expected.idempotents
        assert got.radical_vectors == expected.radical_vectors

    check()
