"""Module representations: hom spaces, covers, projectivity, extensions."""

from __future__ import annotations

import gc
import random
import weakref
from fractions import Fraction

import pytest

from compvar.errors import ValidationFailure
from compvar.fields import GF, QQ
from compvar.linalg import Matrix, Subspace
from compvar.modules import (ModuleRep, conjugate_module, direct_sum_modules,
                             ext1_dim_oracle, hom_matrices, hom_space,
                             indecomposable_projectives, is_isomorphic_modules,
                             is_projective, make_module, projective_cover,
                             quotient_module, radical_submodule, regular_module,
                             simple_modules, submodule, top_multiplicities,
                             validate_module, zero_module)
from compvar.samples import (a2_algebra, base_field_algebra, dual_numbers,
                             two_loop_truncated)

F3 = GF(3)


def simple_over_dual(field=QQ):
    """The unique simple K[x]/(x^2)-module: x acts by zero on K."""
    a = dual_numbers(field)
    return make_module(a, [[[1]], [[0]]])


def rand_invertible(field, n, rng):
    while True:
        if field.is_rational:
            m = Matrix.from_rows(field, [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                                         for _ in range(n)])
        else:
            m = Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(n)]
                                         for _ in range(n)])
        if m.is_invertible():
            return m


# -- validation ----------------------------------------------------------------

def test_regular_module_validates():
    for build in (dual_numbers, a2_algebra):
        reg = regular_module(build(QQ))
        assert validate_module(reg) is None


def test_invalid_action_is_rejected():
    a = dual_numbers(QQ)
    # x acting as the identity contradicts x^2 = 0
    with pytest.raises(ValidationFailure) as exc:
        make_module(a, [[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    assert exc.value.witness[0] == "alpha"


def test_module_witness_still_names_the_first_broken_relation():
    # pairs with j = 0 or k = 0 are not checked (the unit laws make them
    # hold), so the witnesses are the ones a check of every pair gives
    t = two_loop_truncated(QQ)  # basis 1, x, y with xy = 0
    e21, e12 = [[0, 0], [1, 0]], [[0, 1], [0, 0]]
    assert validate_module(make_module(t, [[[1, 0], [0, 1]], e21, e21])) is None
    broken = ModuleRep(t, 2, tuple(Matrix.from_rows(QQ, m)
                                   for m in ([[1, 0], [0, 1]], e21, e12)))
    assert validate_module(broken) == ("alpha", 1, 2)
    a = dual_numbers(QQ)
    scaled = ModuleRep(a, 1, tuple(Matrix.from_rows(QQ, m) for m in ([[2]], [[0]])))
    assert validate_module(scaled) == ("identity",)


def test_simple_over_dual_numbers():
    s = simple_over_dual()
    assert s.dim == 1
    assert validate_module(s) is None


# -- hom spaces ------------------------------------------------------------------

def test_hom_dims_over_dual_numbers():
    a = dual_numbers(QQ)
    reg = regular_module(a)
    s = simple_over_dual()
    assert hom_space(reg, reg).dim == 2      # End(A) = A
    assert hom_space(s, s).dim == 1
    assert hom_space(s, reg).dim == 1        # image must be the socle
    assert hom_space(reg, s).dim == 1


def test_hom_matrices_are_a_linear():
    a = a2_algebra(QQ)
    reg = regular_module(a)
    for f in hom_matrices(reg, reg):
        for j in range(a.dim):
            assert f @ reg.action[j] == reg.action[j] @ f


def test_hom_a2_projectives():
    a = a2_algebra(QQ)
    (p1, _), (p2, _) = indecomposable_projectives(a)
    assert p1.dim == 2 and p2.dim == 1
    assert hom_space(p1, p2).dim == 0
    assert hom_space(p2, p1).dim == 1
    assert hom_space(p1, p1).dim == 1
    assert hom_space(p2, p2).dim == 1


# -- isomorphism search -----------------------------------------------------------

def test_module_isomorphic_to_itself():
    reg = regular_module(dual_numbers(QQ))
    res = is_isomorphic_modules(reg, reg, seed=7)
    assert res.found and res.certain
    assert res.witness.is_invertible()


def test_dimension_mismatch_is_proven_negative():
    a = dual_numbers(QQ)
    res = is_isomorphic_modules(regular_module(a), simple_over_dual())
    assert not res.found and res.certain


def test_conjugate_recovered_over_f3_and_q():
    rng = random.Random(42)
    for field in (QQ, F3):
        a = dual_numbers(field)
        reg = regular_module(a)
        g = rand_invertible(field, 2, rng)
        twisted = conjugate_module(reg, g)
        assert validate_module(twisted) is None
        res = is_isomorphic_modules(reg, twisted, seed=1)
        assert res.found and res.certain
        f = res.witness
        for j in range(a.dim):
            assert f @ reg.action[j] == twisted.action[j] @ f


def test_nonisomorphic_same_dimension():
    a = a2_algebra(QQ)
    s1, s2 = simple_modules(a)
    res = is_isomorphic_modules(s1, s2, seed=3)
    assert not res.found
    # over F2 the search is exhaustive, hence a proven negative
    b = a2_algebra(GF(2))
    t1, t2 = simple_modules(b)
    res2 = is_isomorphic_modules(t1, t2, seed=3)
    assert not res2.found and res2.certain


# -- tops, radicals, covers --------------------------------------------------------

def test_radical_submodule_of_regular():
    a = dual_numbers(QQ)
    reg = regular_module(a)
    radm = radical_submodule(reg)
    assert radm.dim == 1
    s = simple_over_dual()
    assert radical_submodule(s).dim == 0


def test_top_multiplicities():
    a = a2_algebra(QQ)
    reg = regular_module(a)
    assert top_multiplicities(reg) == (1, 1)
    s1, s2 = simple_modules(a)
    assert top_multiplicities(s1) == (1, 0)
    assert top_multiplicities(s2) == (0, 1)
    both, _, _ = direct_sum_modules([s1, s1, s2])
    assert top_multiplicities(both) == (2, 1)


def test_projective_cover_of_simple():
    a = dual_numbers(QQ)
    s = simple_over_dual()
    cover = projective_cover(s)
    assert cover.projective.dim == 2           # the regular module
    assert cover.pi.rank() == 1
    assert cover.summand_indices == (0,)


def test_projective_cover_of_projective_is_iso():
    a = a2_algebra(QQ)
    reg = regular_module(a)
    cover = projective_cover(reg)
    assert cover.projective.dim == reg.dim
    assert cover.pi.is_invertible()


def test_cover_of_zero_module():
    cover = projective_cover(zero_module(dual_numbers(QQ)))
    assert cover.projective.dim == 0


# -- projectivity --------------------------------------------------------------------

def test_projectivity_examples():
    a = dual_numbers(QQ)
    assert is_projective(regular_module(a))
    assert not is_projective(simple_over_dual())
    b = a2_algebra(QQ)
    (p1, _), (p2, _) = indecomposable_projectives(b)
    assert is_projective(p1) and is_projective(p2)
    s1, s2 = simple_modules(b)
    assert not is_projective(s1)
    assert is_projective(s2)                   # S_2 = P_2 is simple projective
    both, _, _ = direct_sum_modules([p1, p2])
    assert is_projective(both)
    mixed, _, _ = direct_sum_modules([p1, s1])
    assert not is_projective(mixed)


def test_projectivity_for_semisimple_base():
    a = base_field_algebra(QQ)
    m = make_module(a, [Matrix.identity(QQ, 3)])
    assert is_projective(m)


def split_cover(m):
    """Reference criterion: M is projective iff its cover pi has a section,
    found by solving sum x_i (pi @ s_i) = id over a basis s_i of Hom(M, P)."""
    if m.dim == 0:
        return True
    cover = projective_cover(m)
    cols = [(cover.pi @ s).flat() for s in hom_matrices(m, cover.projective)]
    if not cols:
        return False
    target = Matrix.identity(m.field, m.dim).flat()
    system = Matrix.from_rows(m.field, cols).transpose()
    return system.solve(target) is not None


@pytest.mark.parametrize("field", [QQ, GF(2), F3], ids=str)
def test_projectivity_matches_split_cover_criterion(field):
    rng = random.Random(11)
    verdicts = set()
    for make in (dual_numbers, a2_algebra):
        a = make(field)
        basic = [p for p, _ in indecomposable_projectives(a)] + simple_modules(a)
        sums = [direct_sum_modules([x, y])[0] for x in basic for y in basic]
        for m in basic + sums:
            for n in (m, conjugate_module(m, rand_invertible(field, m.dim, rng))):
                verdicts.add(is_projective(n))
                assert is_projective(n) == split_cover(n)
    assert verdicts == {True, False}


def test_radical_and_projectives_are_computed_once_per_algebra(monkeypatch):
    import compvar.algebra as algebra_module
    checked = []
    check = algebra_module._check_radical
    monkeypatch.setattr(algebra_module, "_check_radical",
                        lambda a, rad: (checked.append(a), check(a, rad)))
    a = dual_numbers(F3)
    simple = make_module(a, [[[1]], [[0]]])
    assert not is_projective(simple)
    assert len(checked) == 1 and checked[0] is a
    assert not is_projective(simple)
    assert len(checked) == 1
    fresh = dual_numbers(F3)
    assert fresh == a and fresh is not a
    assert not is_projective(make_module(fresh, [[[1]], [[0]]]))
    assert len(checked) == 2 and checked[1] is fresh


def test_kept_cover_makes_no_reference_cycle():
    # with the cycle collector off, only reference counting can free the
    # module: its kept cover must not point back at it
    gc.disable()
    try:
        m = direct_sum_modules([simple_over_dual(), regular_module(dual_numbers(QQ))])[0]
        assert not is_projective(m) and ext1_dim_oracle(m, m) == 1
        p = m.cover.projective
        assert is_projective(p)
        # a cover's projective needs no cover to be classified; fill it here
        # so that both kept covers are checked for cycles
        assert is_projective(p.cover.projective)
        assert "cover" in vars(m) and "cover" in vars(p)
        refs = weakref.ref(m), weakref.ref(p)
        del m, p
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_a_covers_projective_is_classified_without_a_cover(monkeypatch):
    import compvar.modules as modules_module
    s1, s2 = simple_modules(a2_algebra(QQ))
    p = direct_sum_modules([s1, s2])[0].cover.projective
    covered = []
    cover = modules_module.projective_cover
    monkeypatch.setattr(modules_module, "projective_cover",
                        lambda m: (covered.append(m), cover(m))[1])
    assert p.dim == 3 and is_projective(p)
    assert covered == [] and "cover" not in vars(p)


def test_each_module_is_covered_once(monkeypatch):
    import compvar.modules as modules_module
    covered = []
    cover = modules_module.projective_cover
    monkeypatch.setattr(modules_module, "projective_cover",
                        lambda m: (covered.append(m), cover(m))[1])
    m = simple_over_dual()
    for _ in range(2):
        assert not is_projective(m)
        assert ext1_dim_oracle(m, m) == 1
        assert m.cover is m.cover
    assert covered == [m]


# -- Ext^1 oracle ----------------------------------------------------------------------

def test_ext_vanishes_on_projectives():
    a = dual_numbers(QQ)
    reg = regular_module(a)
    s = simple_over_dual()
    assert ext1_dim_oracle(reg, reg) == 0
    assert ext1_dim_oracle(reg, s) == 0


def test_ext_of_simple_over_dual_numbers():
    s = simple_over_dual()
    assert ext1_dim_oracle(s, s) == 1


def test_ext_orientation_over_a2():
    """Exactly one of Ext^1(S1,S2), Ext^1(S2,S1) is 1: the arrow points
    from the vertex of S1 to the vertex of S2."""
    a = a2_algebra(QQ)
    s1, s2 = simple_modules(a)
    e12 = ext1_dim_oracle(s1, s2)
    e21 = ext1_dim_oracle(s2, s1)
    assert (e12, e21) == (1, 0)
    assert ext1_dim_oracle(s1, s1) == 0
    assert ext1_dim_oracle(s2, s2) == 0


def test_ext_additive_over_direct_sums():
    a = a2_algebra(QQ)
    s1, s2 = simple_modules(a)
    both, _, _ = direct_sum_modules([s1, s2])
    assert ext1_dim_oracle(both, both) == 1
    rng = random.Random(5)
    g = rand_invertible(QQ, both.dim, rng)
    twisted = conjugate_module(both, g)
    assert ext1_dim_oracle(twisted, twisted) == 1


# -- submodule / quotient plumbing ----------------------------------------------------

def test_submodule_and_quotient_round_trip():
    a = dual_numbers(QQ)
    reg = regular_module(a)
    radm = radical_submodule(reg)
    sub, inc = submodule(reg, radm)
    assert sub.dim == 1
    assert validate_module(sub) is None
    quo, proj = quotient_module(reg, radm)
    assert quo.dim == 1
    assert validate_module(quo) is None
    # the quotient of A by its radical is the simple module
    assert is_isomorphic_modules(quo, simple_over_dual()).found


def test_submodule_rejects_non_invariant_subspace():
    a = dual_numbers(QQ)
    reg = regular_module(a)
    bad = Subspace.from_vectors(QQ, 2, [(1, 0)])  # spanned by 1, not invariant
    with pytest.raises(ValidationFailure):
        submodule(reg, bad)


# -- kept verdicts ----------------------------------------------------------------------

def test_submodule_keeps_only_a_good_verdict_already_taken():
    a = dual_numbers(QQ)
    reg = regular_module(a)  # a fresh instance: no verdict taken yet
    radm = radical_submodule(reg)
    sub, _ = submodule(reg, radm)
    assert "_witness" not in vars(sub)
    assert validate_module(reg) is None
    kept, _ = submodule(reg, radm)
    assert vars(kept)["_witness"] is None
    # x acting as 1 on K breaks x^2 = 0: its verdict is a witness, which a
    # submodule does not inherit as good
    bad = ModuleRep(a, 1, (Matrix.identity(QQ, 1), Matrix.identity(QQ, 1)))
    assert validate_module(bad) is not None
    whole, _ = submodule(bad, Subspace.from_vectors(QQ, 1, [(1,)]))
    assert "_witness" not in vars(whole)
    assert validate_module(whole) is not None


def _flipped(pi: Matrix) -> Matrix:
    """pi with 1 added to its last entry."""
    rows = [list(r) for r in pi.data]
    rows[-1][-1] += 1
    return Matrix.from_rows(pi.field, rows)


@pytest.mark.parametrize("build", ["simple", "sum"])
def test_cover_check_refuses_a_flipped_entry(build):
    from dataclasses import replace

    from compvar.modules import _check_cover
    s = simple_over_dual()
    m = s if build == "simple" else direct_sum_modules([s, s])[0]
    cover = m.cover
    assert "_witness" in vars(cover.projective)  # kept, so a_0 is skipped
    with pytest.raises(ValidationFailure, match="not A-linear|not surjective"):
        _check_cover(m, replace(cover, pi=_flipped(cover.pi)))


def test_tower_refuses_a_cover_whose_pi_changed_after_its_check(monkeypatch):
    """The simple keeps a cover whose pi gains a nonzero x-column after
    its check: that pi is not A-linear, and the tower step finds that its
    kernel is no submodule."""
    import compvar.modules as modules_module
    from compvar.complexes import replace_by_projective, stalk
    check = modules_module._check_cover

    def flip_after_check(m, cover):
        check(m, cover)
        object.__setattr__(cover, "pi", _flipped(cover.pi))

    monkeypatch.setattr(modules_module, "_check_cover", flip_after_check)
    with pytest.raises(ValidationFailure, match="not invariant"):
        replace_by_projective(stalk(simple_over_dual(), 0), top_degree=2)
