"""Derived homs, endomorphism algebras, idempotent lifting, splitter."""

import random
from dataclasses import replace

import pytest

from compvar.algebra import (FDAlgebra, algebra_from_constants, center, radical,
                            validate_algebra)
from compvar.complexes import (MAX_TOWER_STEPS, ChainMap, GroupElement, act,
                               chain_map_from_components, direct_sum,
                               homology_dims, homotopy_hom,
                               identity_chain_map, is_acyclic, make_complex,
                               mapping_cone, projective_extension, stalk)
from compvar.derived import (acyclic_splitter, derived_hom, derived_hom_dim,
                             end_algebra, lift_idempotent)
from compvar.errors import NotAlmostProjective, ValidationFailure
from compvar.fields import GF, QQ
from compvar.linalg import LinearSolver, Matrix, Subspace, vector_row
from compvar.modules import (direct_sum_modules, ext1_dim_oracle,
                             indecomposable_projectives, regular_module,
                             simple_modules)
from compvar.samples import (a2_algebra, axa_complex, contractible_pair,
                             dual_numbers, p2_to_p1_complex, simple_over_dual,
                             two_loop_truncated)

from conftest import row_space


# -- derived hom dimensions ------------------------------------------------------


def test_projective_source_matches_homotopy_hom():
    x = axa_complex(QQ)
    assert derived_hom_dim(x, x, 1) == homotopy_hom(x, x, 1).hom_dim == 1
    assert derived_hom_dim(x, x, 0) == 2


def test_self_extensions_of_simple():
    s = stalk(simple_over_dual(QQ), 0)
    m = simple_over_dual(QQ)
    assert derived_hom_dim(s, s, 0) == 1
    assert derived_hom_dim(s, s, 1) == 1
    assert derived_hom_dim(s, s, 1) == ext1_dim_oracle(m, m)
    assert derived_hom_dim(s, s, 2) == 1  # periodic resolution
    assert derived_hom_dim(s, s, -1) == 0


def test_projective_stalk_has_no_shifted_homs():
    a = dual_numbers(QQ)
    x = stalk(regular_module(a), 0)
    assert derived_hom_dim(x, x, 1) == 0
    assert derived_hom_dim(x, x, 0) == 2


def test_hereditary_ext_orientation():
    a = a2_algebra(QQ)
    s1, s2 = (stalk(m, 0) for m in simple_modules(a))
    assert derived_hom_dim(s1, s2, 1) == 1
    assert derived_hom_dim(s2, s1, 1) == 0


def test_replacement_invariance():
    s = stalk(simple_over_dual(QQ), 0)
    ext, _ = projective_extension(s, steps=1)
    for n in (0, 1):
        assert derived_hom_dim(ext, s, n) == derived_hom_dim(s, s, n)


def test_action_invariance():
    s = stalk(simple_over_dual(QQ), 0)
    ext, _ = projective_extension(s, steps=1)  # dims (1, 2), almost projective
    g = GroupElement(((0, Matrix.from_rows(QQ, [[1, 1], [0, 1]])),))
    moved = act(g, ext)
    for n in (0, 1):
        assert derived_hom_dim(moved, s, n) == derived_hom_dim(ext, s, n)
        assert derived_hom_dim(ext, act(g, ext), n) == derived_hom_dim(ext, ext, n)


def test_requires_almost_projective():
    a = dual_numbers(QQ)
    bad = make_complex(a, 0, (simple_over_dual(QQ), regular_module(a)),
                       (Matrix.zeros(QQ, 1, 2),))
    with pytest.raises(NotAlmostProjective):
        derived_hom_dim(bad, bad, 1)


def test_replacement_makes_one_cover_per_tower_step(monkeypatch):
    import compvar.modules as modules_module
    covered = []
    cover = modules_module.projective_cover

    def counting(m):
        covered.append(m)
        return cover(m)

    # a module keeps its cover, which modules.projective_cover computes
    monkeypatch.setattr(modules_module, "projective_cover", counting)
    s = stalk(simple_over_dual(QQ), 0)
    p, hom = derived_hom(s, s, 3)
    assert hom.hom_dim == 1
    # the tower runs from degree 0 until its kernel term passes degree 4
    steps = 5
    assert p.dims() == (2,) * steps
    # every kernel equals the input simple, so the whole tower reuses the
    # one cover that classified the input, and the truncated tower's terms
    # are covers' projectives, projective without a cover of their own
    assert covered == [s.terms[0]]


def test_periodic_tower_covers_each_value_once(monkeypatch):
    import compvar.modules as modules_module
    covered = []
    cover = modules_module.projective_cover
    monkeypatch.setattr(modules_module, "projective_cover",
                        lambda m: (covered.append(m), cover(m))[1])
    s = stalk(simple_over_dual(QQ), 0)
    n = 120
    p, hom = derived_hom(s, s, n)
    assert hom.hom_dim == 1
    # the tower takes n + 2 steps, under the bound, and every step meets
    # the simple again as its kernel
    assert len(p.terms) == n + 2 <= MAX_TOWER_STEPS
    assert len(set(covered)) == len(covered) == 1


def test_derived_hom_is_invariant_under_the_group_action(hypothesis):
    """dim Hom(g.X, X[n]) = dim Hom(X, X[n]) for drawn stalks X of a simple,
    an indecomposable projective or their sum, drawn g and n = 0..3."""
    from hypothesis import strategies as st

    modules = []
    for build in (dual_numbers, a2_algebra, two_loop_truncated):
        a = build(QQ)
        projectives = [p for p, _ in indecomposable_projectives(a)]
        for s in simple_modules(a):
            modules.append(s)
            modules += [direct_sum_modules([s, p])[0] for p in projectives]
        modules += projectives

    @st.composite
    def cases(draw):
        m = draw(st.sampled_from(modules))
        entries = st.lists(st.integers(-2, 2), min_size=m.dim, max_size=m.dim)
        g = Matrix.from_rows(QQ, draw(st.lists(entries, min_size=m.dim,
                                               max_size=m.dim)))
        hypothesis.assume(g.is_invertible())
        return stalk(m, 0), GroupElement(((0, g),)), draw(st.integers(0, 3))

    @hypothesis.settings(max_examples=40)
    @hypothesis.given(cases())
    def check(case):
        x, g, n = case
        assert derived_hom_dim(act(g, x), x, n) == derived_hom_dim(x, x, n)

    check()


def test_finite_tower_is_not_refused_at_a_huge_shift():
    # the tower bound counts the steps taken: S1 over A2 needs one
    s1, _ = simple_modules(a2_algebra(QQ))
    assert derived_hom_dim(stalk(s1, 0), stalk(s1, 0), 10 ** 9) == 0


# -- endomorphism algebras ----------------------------------------------------------


def test_end_algebra_of_regular_stalk():
    a = dual_numbers(QQ)
    pkg = end_algebra(stalk(regular_module(a), 0))
    assert pkg.bhat.dim == 2
    assert pkg.H.dim == 0
    assert pkg.bhat.is_commutative()
    assert pkg.radical.dim == 1
    assert center(pkg.bhat).dim == 2


def test_end_algebra_of_two_term_complex():
    pkg = end_algebra(axa_complex(QQ))
    assert pkg.bhat.dim == 3
    assert pkg.H.dim == 1
    # the null-homotopic ideal sits inside the radical: nothing to split off
    assert pkg.radical.contains_subspace(pkg.H)
    for i, bm in enumerate(pkg.basis_maps):
        assert bm.validate() is None
        assert pkg.realize(pkg.bhat.basis_vec(i)).comps == bm.comps


def test_end_algebra_of_contractible_complex():
    a = dual_numbers(QQ)
    cone = mapping_cone(identity_chain_map(stalk(regular_module(a), 0)))
    pkg = end_algebra(cone)
    assert pkg.bhat.dim == 2
    assert pkg.H.dim == 2  # everything is null-homotopic, even the identity


def test_end_algebra_rejects_zero_complex():
    from compvar.modules import zero_module
    a = dual_numbers(QQ)
    with pytest.raises(ValidationFailure):
        end_algebra(stalk(zero_module(a), 0))


def test_splitter_keeps_the_zero_complex():
    from compvar.modules import zero_module
    a = dual_numbers(QQ)
    x = stalk(zero_module(a), 0)
    res = acyclic_splitter(x)
    assert res.xe == x and res.xcomp.total_dim() == 0
    assert res.ideal_dim == 0
    for f in (res.e, res.inclusion, res.projection):
        assert f.validate() is None


def test_end_algebra_computes_homology_once_per_degree(monkeypatch):
    import compvar.derived as derived_module
    calls = []
    homology = derived_module.homology
    monkeypatch.setattr(derived_module, "homology",
                        lambda x, i: (calls.append(i), homology(x, i))[1])
    x = direct_sum(axa_complex(QQ), contractible_pair(QQ))
    pkg = end_algebra(x)
    assert pkg.H.dim > 1  # several null-homotopic basis maps to check
    assert sorted(calls) == sorted(set(calls)) == list(x.degrees())


def test_end_algebra_refuses_a_composite_outside_the_space(monkeypatch):
    then = ChainMap.then
    # not QQ[x]/(x^2)-linear on the regular module, so not a chain map
    junk = Matrix.from_rows(QQ, [[1, 0], [0, 0]])

    def off_the_space(f, g):
        return then(f, g).add(ChainMap(f.source, g.target, 0, ((0, junk),)))

    monkeypatch.setattr(ChainMap, "then", off_the_space)
    with pytest.raises(ValidationFailure, match="composite outside"):
        end_algebra(axa_complex(QQ))


def test_end_algebra_refuses_a_null_homotopic_map_outside_the_space(monkeypatch):
    import compvar.derived as derived_module
    hom = derived_module.homotopy_hom

    def everything_null(x, y, n):
        h = hom(x, y, n)
        whole = row_space(Matrix.identity(x.field, h.space.ambient_dim))
        return replace(h, nullhomotopic=whole)

    monkeypatch.setattr(derived_module, "homotopy_hom", everything_null)
    with pytest.raises(ValidationFailure, match="null-homotopic map outside"):
        end_algebra(axa_complex(QQ))


def _moved(x, seed):
    """x moved by random invertible matrices with entries in [-2, 2]."""
    rng = random.Random(seed)
    comps = []
    for i in x.degrees():
        while True:
            d = x.dim_at(i)
            g = Matrix.from_rows(x.field, [[rng.randint(-2, 2) for _ in range(d)]
                                           for _ in range(d)])
            if g.is_invertible():
                break
        comps.append((i, g))
    return act(GroupElement(tuple(comps)), x)


def _greedy_end_algebra(x):
    """Structure-constant rows and null-homotopic ideal of End(x) in the basis
    chosen greedily (the identity, then each echelon row of the chain-map
    space outside the span so far), with coordinates from a solver."""
    field = x.field
    hom = homotopy_hom(x, x, 0)
    cms = hom.space
    chosen = [cms.flatten(identity_chain_map(x))]
    for v in cms.subspace.basis:
        if not Subspace.from_vectors(field, cms.ambient_dim, chosen).contains(v):
            chosen.append(v)
    maps = [cms.unflatten(v) for v in chosen]
    solver = LinearSolver(Matrix.from_rows(field, chosen).transpose())
    products = tuple(tuple(vector_row(field, len(chosen), solver.solve(cms.flatten(f.then(g))))
                           for g in maps)
                     for f in maps)
    ideal = Subspace.from_vectors(field, len(chosen),
                                  [solver.solve(v) for v in hom.nullhomotopic.basis])
    return products, ideal


@pytest.mark.parametrize("field", [QQ, GF(3), GF(101)], ids=str)
@pytest.mark.parametrize("k", [1, 2])
def test_end_algebra_matches_the_greedy_basis(field, k, monkeypatch):
    """End(axa + (A --1--> A)^k), moved by a base change: the closed-form
    identity-first basis gives the greedy basis's tables exactly."""
    import compvar.derived as derived_module
    if field.p == 3:  # the trace-form radical needs p > dim End(x)
        monkeypatch.setattr(derived_module, "algebra_radical", lambda a: None)
    x = axa_complex(field)
    for _ in range(k):
        x = direct_sum(x, contractible_pair(field))
    x = _moved(x, seed=k)
    pkg = end_algebra(x)
    products, ideal = _greedy_end_algebra(x)
    assert pkg.bhat.products == products
    assert pkg.H == ideal
    if field.p != 3:
        assert pkg.radical == radical(FDAlgebra(field, pkg.bhat.dim, pkg.bhat.labels,
                                                products))
    assert pkg.H.dim > 1 and pkg.bhat.dim > 2 * k


def _constants_end_table(x):
    """End(x) in the identity-first basis built from a dense constant map:
    the coordinates of every composite of basis maps as canonical scalars,
    checked by ``coordinates``, through ``algebra_from_constants``, which
    runs the associativity triples."""
    field = x.field
    cms = homotopy_hom(x, x, 0).space
    space = cms.subspace
    id_vec = cms.flatten(identity_chain_map(x))
    c = space.coordinates(id_vec)
    kstar = max(k for k, ck in enumerate(c) if ck)
    vectors = [id_vec] + [v for k, v in enumerate(space.basis) if k != kstar]
    maps = [cms.unflatten(v) for v in vectors]

    def coords(v):
        a = space.coordinates(v)
        assert a is not None
        t = field.mul(a[kstar], field.inv(c[kstar]))
        return (t,) + tuple(field.sub(a[k], field.mul(t, c[k]))
                            for k in range(space.dim) if k != kstar)

    constants = {(j, k, l): cl for j, f in enumerate(maps)
                 for k, g in enumerate(maps)
                 for l, cl in enumerate(coords(cms.flatten(f.then(g))))}
    return algebra_from_constants(field, space.dim, None, constants)


def test_end_table_matches_the_constant_map_oracle(hypothesis):
    """Drawn moved sums of a minimal complex and contractible pairs over the
    dual numbers and over 1 -> 2, over Q and F_101: the table End(x) builds
    on stored rows is the table of the dense constant map, row for row, and
    it passes ``validate_algebra``."""
    from hypothesis import strategies as st

    def pieces(field):
        dual = axa_complex(field)
        minimal = p2_to_p1_complex(field)
        p1, p2 = (p for p, _ in indecomposable_projectives(minimal.algebra))
        pairs = [make_complex(minimal.algebra, 0, (p, p),
                              (Matrix.identity(field, p.dim),)) for p in (p1, p2)]
        return {"dual": (dual, [contractible_pair(field)]), "a2": (minimal, pairs)}

    by_field = {str(field): pieces(field) for field in (QQ, GF(101))}

    @st.composite
    def cases(draw):
        field = draw(st.sampled_from(sorted(by_field)))
        minimal, pairs = by_field[field][draw(st.sampled_from(["dual", "a2"]))]
        x = minimal if draw(st.booleans()) else stalk(minimal.term(0), 0)
        for pair in draw(st.lists(st.sampled_from(pairs), max_size=2)):
            x = direct_sum(x, pair)
        return _moved(x, seed=draw(st.integers(0, 99)))

    @hypothesis.settings(max_examples=12)
    @hypothesis.given(cases())
    def check(x):
        bhat = end_algebra(x).bhat
        assert bhat.products == _constants_end_table(x).products
        assert validate_algebra(bhat) is None

    check()


def _unimodular(rng: random.Random, n: int) -> Matrix:
    """An integer matrix with an integral inverse: a unit lower triangular
    times a unit upper triangular matrix, off-diagonal entries in {-1, 0, 1}."""
    lower = [[int(i == j) for j in range(n)] for i in range(n)]
    upper = [row[:] for row in lower]
    for i in range(n):
        for j in range(i):
            lower[i][j] = rng.choice((-1, 0, 1))
            upper[j][i] = rng.choice((-1, 0, 1))
    return Matrix.from_rows(QQ, lower) @ Matrix.from_rows(QQ, upper)


def test_chain_maps_of_a_base_changed_strip_input_stay_fast():
    """(P2 -> P1) + (P1 --1--> P1)^3 over a2, moved by a seeded unimodular
    base change: the entries of the chain-map system grow during
    elimination, which integer rows keep cheap."""
    import time
    x = p2_to_p1_complex(QQ)
    p1 = indecomposable_projectives(x.algebra)[0][0]
    pair = make_complex(x.algebra, 0, (p1, p1), (Matrix.identity(QQ, p1.dim),))
    for _ in range(3):
        x = direct_sum(x, pair)
    rng = random.Random(1)
    x = act(GroupElement(tuple((i, _unimodular(rng, x.dim_at(i)))
                               for i in x.degrees())), x)
    start = time.perf_counter()
    hom = homotopy_hom(x, x, 0)
    assert time.perf_counter() - start < 1
    assert hom.chainmaps.dim == 13
    assert hom.hom_dim == 1


# -- idempotent lifting ----------------------------------------------------------------


def test_lift_unit_plus_nilpotent():
    a = dual_numbers(QQ)
    n = Subspace.from_vectors(QQ, 2, [(QQ.zero(), QQ.one())])
    one = a.basis_vec(0)
    x = a.basis_vec(1)
    ebar = (QQ.one(), QQ.one())  # 1 + x
    assert lift_idempotent(a, ebar, n) == one
    assert lift_idempotent(a, one, n) == one
    assert lift_idempotent(a, x, n) == a.zero_vec()


def test_lift_rejects_non_idempotent():
    a = dual_numbers(QQ)
    zero_ideal = Subspace.zero(QQ, 2)
    with pytest.raises(ValidationFailure):
        lift_idempotent(a, (QQ.one(), QQ.one()), zero_ideal)


def test_lift_in_quiver_algebra():
    a = a2_algebra(QQ)
    from compvar.algebra import radical
    j = radical(a)
    # e2 + arrow is idempotent mod the radical; its lift is exactly e2
    ebar = tuple(QQ.coerce(c) for c in (0, 1, 1))
    lifted = lift_idempotent(a, ebar, j)
    assert a.mul_vec(lifted, lifted) == lifted
    assert j.contains(tuple(QQ.sub(u, v) for u, v in zip(lifted, ebar)))


# -- acyclic splitter -------------------------------------------------------------------


def test_splitter_keeps_minimal_complex():
    x = axa_complex(QQ)
    res = acyclic_splitter(x)
    assert res.ideal_dim == 0
    assert res.xcomp.total_dim() == 0
    assert res.xe == x
    for i in x.degrees():
        assert res.e.component(i).is_identity()


def test_splitter_on_projective_stalk():
    a = dual_numbers(QQ)
    res = acyclic_splitter(stalk(regular_module(a), 0))
    assert res.ideal_dim == 0
    assert res.xe.dims() == (2,)


def test_splitter_recovers_summand():
    from compvar.complexes import complexes_isomorphic
    y = stalk(simple_over_dual(QQ), 0)
    a = dual_numbers(QQ)
    cone = mapping_cone(identity_chain_map(stalk(regular_module(a), 0)))
    x = direct_sum(y, cone)
    assert x.dims() == (2, 3)
    res = acyclic_splitter(x)
    assert is_acyclic(res.xcomp)
    assert res.xcomp.dims() == (2, 2)
    assert homology_dims(res.xe) == homology_dims(x)
    assert res.xe.dims() == (0, 1)
    verdict = complexes_isomorphic(with_window(res.xe, y), y, seed=9)
    assert verdict.found


def with_window(x, reference):
    """Re-window a complex to match a reference's degree range for direct
    comparisons (pads/trims zero slots only)."""
    from compvar.complexes import ComplexPoint
    from compvar.modules import zero_module
    terms, diffs = [], []
    for i in range(reference.bottom, reference.top + 1):
        terms.append(x.term(i))
    for i in range(reference.bottom + 1, reference.top + 1):
        diffs.append(x.diff(i))
    for i in range(x.bottom, x.top + 1):
        if (i < reference.bottom or i > reference.top) and x.dim_at(i):
            raise AssertionError("window mismatch loses data")
    return ComplexPoint(x.algebra, reference.bottom, tuple(terms), tuple(diffs))


def test_splitter_on_fully_contractible():
    x = mapping_cone(identity_chain_map(axa_complex(QQ)))
    res = acyclic_splitter(x)
    assert res.xe.total_dim() == 0
    assert res.xcomp.total_dim() == x.total_dim()
    assert is_acyclic(res.xcomp)


def test_splitter_composites_are_homotopy_inverse():
    y = stalk(simple_over_dual(QQ), 0)
    a = dual_numbers(QQ)
    cone = mapping_cone(identity_chain_map(stalk(regular_module(a), 0)))
    x = direct_sum(y, cone)
    res = acyclic_splitter(x)
    # projection then inclusion is the idempotent e; e differs from the
    # identity by a null-homotopic map
    pkg_hom = homotopy_hom(x, x, 0)
    e_flat = pkg_hom.space.flatten(res.e)
    id_flat = pkg_hom.space.flatten(identity_chain_map(x))
    diff = tuple(QQ.sub(u, v) for u, v in zip(id_flat, e_flat))
    assert pkg_hom.nullhomotopic.contains(diff)
    comp = res.inclusion.then(res.projection)
    for i in res.xe.degrees():
        assert comp.component(i).is_identity()


# -- semisplit extensions ------------------------------------------------------------------


def test_semisplit_dimension():
    """Degreewise-split extensions of X by X modulo equivalence are the
    homotopy classes of shift-1 chain maps."""
    x = axa_complex(QQ)
    assert homotopy_hom(x, x, 1).hom_dim == 1
    assert homotopy_hom(x, x, 1).hom_dim == derived_hom_dim(x, x, 1)


def test_verdier_xi_boundary_is_nullhomotopic():
    """The sigma blocks of a degreewise-split extension assemble into its
    connecting map, a validated shift-1 chain map X -> X[1]."""
    x = axa_complex(QQ)
    xi = chain_map_from_components(x, x, 1, {1: x.diff(1)})
    assert xi.validate() is None
    h = homotopy_hom(x, x, 1)
    # sigma = t d - d t with t = (id, 0) gives a null-homotopic connecting map
    t_boundary = chain_map_from_components(x, x, 1, {1: -x.diff(1)})
    assert h.nullhomotopic.contains(h.space.flatten(t_boundary))
    assert h.nullhomotopic.contains(h.space.flatten(xi))
