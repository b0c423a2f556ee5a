"""Complexes, chain maps, homotopy homs, cones, group action, replacement."""

import random

import pytest

from compvar.complexes import (ChainMap, GroupElement, act,
                               chain_map_from_components, chain_map_space,
                               classify, complexes_isomorphic, direct_sum,
                               homology, homology_dims, homotopy_hom,
                               identity_chain_map, is_acyclic, make_complex,
                               mapping_cone, projective_extension,
                               replace_by_projective, shift, stalk,
                               validate_point, with_bottom_zero)
from compvar.errors import NotProjectiveComplex, ValidationFailure
from compvar.fields import GF, QQ
from compvar.linalg import Matrix
from compvar.modules import (ext1_dim_oracle, regular_module, simple_modules,
                             zero_module)
from compvar.samples import (a2_algebra, a2_simple_stalks, axa_complex,
                             contractible_pair, dual_numbers,
                             p2_to_p1_complex, simple_over_dual)

from conftest import row_space


# -- basic structure -----------------------------------------------------------


def test_axa_complex_shape_and_validation():
    x = axa_complex(QQ)
    assert x.bottom == 0 and x.top == 1
    assert x.dims() == (2, 2)
    assert validate_point(x) is None
    assert x.euler_characteristic() == 0
    assert x.left_degree() == 1
    assert not x.is_zero()


def test_axa_homology_dims():
    x = axa_complex(QQ)
    assert homology_dims(x) == (1, 1)
    assert not is_acyclic(x)
    assert is_acyclic(contractible_pair(QQ))


def test_broken_differential_square_witness():
    a = dual_numbers(QQ)
    reg = regular_module(a)
    ident = Matrix.identity(QQ, 2)
    with pytest.raises(ValidationFailure) as info:
        make_complex(a, 0, (reg, reg, reg), (ident, ident))
    assert info.value.witness[0] == "gamma"


def test_a_point_is_checked_once(monkeypatch):
    """make_complex checks the point; validate_point and the tangent
    space then read the witness kept on it, the (gamma) one included."""
    from compvar import complexes
    from compvar.tangent import tangent_space
    x, calls, check = axa_complex(QQ), [], complexes._point_witness
    monkeypatch.setattr(complexes, "_point_witness",
                        lambda x: calls.append(x) or check(x))
    y = make_complex(x.algebra, 0, x.terms, x.diffs)
    assert validate_point(y) is None and len(calls) == 1
    tangent_space(y)
    assert len(calls) == 1
    reg, ident = regular_module(x.algebra), Matrix.identity(QQ, 2)
    broken = complexes.ComplexPoint(x.algebra, 0, (reg, reg, reg), (ident, ident))
    assert validate_point(broken) == validate_point(broken) == ("gamma", 2)
    with pytest.raises(ValidationFailure, match="gamma"):
        tangent_space(broken)
    assert len(calls) == 2


def test_non_linear_differential_witness():
    a = dual_numbers(QQ)
    reg = regular_module(a)
    bad = Matrix.from_rows(QQ, [[0, 0], [0, 1]])  # not right multiplication
    with pytest.raises(ValidationFailure) as info:
        make_complex(a, 0, (reg, reg), (bad,))
    assert info.value.witness[0] == "beta"


def test_zero_complex_and_out_of_range_access():
    a = dual_numbers(QQ)
    z = stalk(zero_module(a), 0)
    assert z.is_zero()
    assert z.left_degree() is None
    assert z.dim_at(5) == 0
    assert z.diff(3).shape == (0, 0)
    x = axa_complex(QQ)
    assert x.diff(5).is_zero()
    assert x.term(-2).dim == 0


def test_shift_window_and_signs():
    x = axa_complex(QQ)
    y = shift(x, 1)
    assert y.bottom == 1 and y.top == 2
    assert y.diff(2) == -x.diff(1)
    assert shift(y, -1) == x
    assert shift(x, 2).diff(3) == x.diff(1)


def test_with_bottom_zero_pads_and_trims():
    x = axa_complex(QQ)
    up = shift(x, 2)
    padded = with_bottom_zero(up)
    assert padded.bottom == 0 and padded.top == 3
    assert padded.dims() == (2, 2, 0, 0)
    assert homology_dims(padded) == (1, 1, 0, 0)
    trimmed = with_bottom_zero(shift(padded, -0))
    assert trimmed == padded
    with pytest.raises(ValidationFailure):
        with_bottom_zero(shift(x, -1))


def test_direct_sum_windows():
    x = axa_complex(QQ)
    s = stalk(simple_over_dual(QQ), 3)
    total = direct_sum(x, s)
    assert total.bottom == 0 and total.top == 3
    assert total.dims() == (1, 0, 2, 2)
    assert validate_point(total) is None
    assert homology_dims(total) == (1, 0, 1, 1)


# -- chain maps ------------------------------------------------------------------


def test_identity_and_composition():
    x = axa_complex(QQ)
    one = identity_chain_map(x)
    assert one.validate() is None
    assert one.then(one).component(1) == Matrix.identity(QQ, 2)
    f = chain_map_from_components(x, x, 1, {1: x.diff(1)})
    assert f.validate() is None
    g = f.then(f)
    assert g.shift == 2
    assert g.is_zero()  # multiplication by x twice


def test_chain_map_square_violation_detected():
    x = axa_complex(QQ)
    with pytest.raises(ValidationFailure) as info:
        chain_map_from_components(x, x, 0, {1: Matrix.identity(QQ, 2)})
    assert info.value.witness[0] == "square"


def test_chain_map_space_flatten_round_trip():
    x = axa_complex(QQ)
    space = chain_map_space(x, x, 0)
    assert (space.layout.keys, space.layout.shapes) == ((1, 0), ((2, 2), (2, 2)))
    assert space.ambient_dim == 8
    for vec in space.subspace.basis:
        f = space.unflatten(vec)
        assert f.validate() is None
        assert space.flatten(f) == vec


def test_self_maps_of_two_term_complex():
    # chain endomorphisms of (A -x-> A): f1 = f0 + (scalar)*x, so dim 3;
    # boundaries are the simultaneous multiplications by multiples of x.
    x = axa_complex(QQ)
    h = homotopy_hom(x, x, 0)
    assert h.chainmaps.dim == 3
    assert h.nullhomotopic.dim == 1
    assert h.hom_dim == 2


def test_shifted_hom_example():
    # maps (A -x-> A) -> itself shifted by one: a single component out of
    # the top degree, two dimensions of chain maps, one boundary.
    for field in (QQ, GF(5)):
        x = axa_complex(field)
        h = homotopy_hom(x, x, 1)
        assert h.chainmaps.dim == 2
        assert h.nullhomotopic.dim == 1
        assert h.hom_dim == 1


def test_hom_between_simple_stalks():
    s1, s2 = a2_simple_stalks(QQ)
    assert homotopy_hom(s1, s1, 0).hom_dim == 1
    assert homotopy_hom(s1, s2, 0).hom_dim == 0
    assert homotopy_hom(s2, s1, 1).hom_dim == 0  # no room for a component


# -- cones -------------------------------------------------------------------------


def test_cone_of_identity_is_acyclic():
    for x in (axa_complex(QQ), p2_to_p1_complex(QQ)):
        cone = mapping_cone(identity_chain_map(x))
        assert validate_point(cone) is None
        assert is_acyclic(cone)


def test_cone_of_zero_is_shifted_sum():
    x = axa_complex(QQ)
    s = stalk(simple_over_dual(QQ), 0)
    zero = ChainMap(x, s, 0, ())
    assert zero.validate() is None
    cone = mapping_cone(zero)
    assert cone == direct_sum(shift(x, 1), s)


def test_cone_of_stalk_identity():
    s = stalk(simple_over_dual(QQ), 0)
    cone = mapping_cone(identity_chain_map(s))
    assert cone.dims() == (1, 1)
    assert cone.diff(1) == Matrix.from_rows(QQ, [[-1]])
    assert is_acyclic(cone)


# -- group action -------------------------------------------------------------------


def _random_group_element(field, x, seed):
    rng = random.Random(seed)
    comps = []
    for i in x.degrees():
        d = x.dim_at(i)
        if d == 0:
            continue
        while True:
            m = Matrix.from_rows(field, [[field.coerce(rng.randint(-3, 3))
                                          for _ in range(d)] for _ in range(d)])
            if m.is_invertible():
                comps.append((i, m))
                break
    return GroupElement(tuple(comps))


@pytest.mark.parametrize("field,seed", [(QQ, 7), (GF(3), 8)])
def test_action_preserves_conditions_and_homology(field, seed):
    x = axa_complex(field)
    g = _random_group_element(field, x, seed)
    y = act(g, x)
    assert validate_point(y) is None
    assert homology_dims(y) == homology_dims(x)
    back = act(g.inverse(), y)
    assert back == x


def test_action_is_compatible_with_composition():
    x = axa_complex(QQ)
    g = _random_group_element(QQ, x, 21)
    h = _random_group_element(QQ, x, 22)
    gh = GroupElement(tuple(
        (i, g.component(i, x.dim_at(i), QQ) @ h.component(i, x.dim_at(i), QQ))
        for i in x.degrees() if x.dim_at(i)))
    assert act(gh, x) == act(g, act(h, x))


# -- isomorphism search ----------------------------------------------------------------


def test_isomorphic_after_action():
    for field, seed in ((QQ, 31), (GF(3), 32)):
        x = axa_complex(field)
        g = _random_group_element(field, x, seed)
        y = act(g, x)
        found = complexes_isomorphic(x, y, seed=5)
        assert found.found
        w = found.witness
        assert w.validate() is None
        gw = GroupElement(tuple((i, w.component(i)) for i in x.degrees()))
        assert act(gw, x) == y


def test_isomorphism_rejects_different_homology():
    a = dual_numbers(QQ)
    reg = regular_module(a)
    x = axa_complex(QQ)
    y = make_complex(a, 0, (reg, reg), (Matrix.zeros(QQ, 2, 2),))
    verdict = complexes_isomorphic(x, y)
    assert not verdict.found and verdict.certain


def test_isomorphism_rejects_different_dims():
    x = axa_complex(QQ)
    s = stalk(simple_over_dual(QQ), 0)
    verdict = complexes_isomorphic(x, s)
    assert not verdict.found and verdict.certain


def test_isomorphism_self():
    x = axa_complex(QQ)
    verdict = complexes_isomorphic(x, x, seed=3)
    assert verdict.found
    assert verdict.witness.validate() is None


def test_exhaustive_negative_over_f2():
    # same dims, same homology dims, but non-isomorphic: the two-term zero
    # complex with modules S (+) S versus the regular stalk placed beside a
    # shifted pair; exhaustive search proves the negative over GF(2).
    a = dual_numbers(GF(2))
    s = simple_over_dual(GF(2))
    from compvar.modules import direct_sum_modules
    ss, _, _ = direct_sum_modules([s, s])
    x = make_complex(a, 0, (ss, ss), (Matrix.zeros(GF(2), 2, 2),))
    y = make_complex(a, 0, (regular_module(a), regular_module(a)),
                     (Matrix.zeros(GF(2), 2, 2),))
    assert homology_dims(x) == homology_dims(y)
    verdict = complexes_isomorphic(x, y, seed=1)
    assert not verdict.found
    assert verdict.certain  # coefficient space small enough to enumerate


# -- classification ---------------------------------------------------------------------


def test_classify_projective_patterns():
    assert classify(axa_complex(QQ)).is_projective_complex
    s = stalk(simple_over_dual(QQ), 0)
    cs = classify(s)
    assert not cs.is_projective_complex and cs.is_almost_projective
    a = dual_numbers(QQ)
    reg = regular_module(a)
    simple = simple_over_dual(QQ)
    top_simple = make_complex(a, 0, (reg, simple), (Matrix.zeros(QQ, 2, 1),))
    ct = classify(top_simple)
    assert ct.left_degree == 1
    assert not ct.is_projective_complex and ct.is_almost_projective
    bottom_simple = make_complex(a, 0, (simple, reg), (Matrix.zeros(QQ, 1, 2),))
    cb = classify(bottom_simple)
    assert not cb.is_almost_projective
    z = stalk(zero_module(a), 0)
    assert classify(z).is_projective_complex


def test_classification_is_kept_on_the_point(monkeypatch):
    import compvar.complexes as complexes_module
    seen = []
    compute = complexes_module._classify
    monkeypatch.setattr(complexes_module, "_classify",
                        lambda x: (seen.append(x), compute(x))[1])
    s = stalk(simple_over_dual(QQ), 0)
    assert classify(s) is classify(s)
    assert seen == [s]
    # the memo is not part of the value: an equal point compares and hashes
    # equal, and is classified on its own
    fresh = stalk(simple_over_dual(QQ), 0)
    assert fresh == s and hash(fresh) == hash(s)
    assert classify(fresh) == classify(s) and len(seen) == 2


def test_points_sharing_terms_cover_each_term_once(monkeypatch):
    import compvar.modules as modules_module
    covered = []
    cover = modules_module.projective_cover
    monkeypatch.setattr(modules_module, "projective_cover",
                        lambda m: (covered.append(m), cover(m))[1])
    a = dual_numbers(QQ)
    reg, simple = regular_module(a), simple_over_dual(QQ)
    zero = Matrix.zeros(QQ, 2, 1)
    x = make_complex(a, 0, (reg, simple), (zero,))
    y = make_complex(a, 2, (reg, simple), (zero,))
    assert classify(x).projective_terms == classify(y).projective_terms == (False, True)
    assert len(covered) == 2
    assert covered[0] is simple and covered[1] is reg
    # the cover is not part of the value: an equal module compares and
    # hashes equal, and is decided on its own
    fresh = simple_over_dual(QQ)
    assert fresh == simple and hash(fresh) == hash(simple)
    assert "cover" in vars(simple) and "cover" not in vars(fresh)
    assert make_complex(a, 0, (reg, fresh), (zero,)) == x
    assert not classify(stalk(fresh, 0)).is_projective_complex
    assert len(covered) == 3 and covered[2] is fresh


# -- projective replacement ---------------------------------------------------------------


def test_extension_of_simple_stalk():
    s = stalk(simple_over_dual(QQ), 0)
    ext, f = projective_extension(s, steps=1)
    assert ext.dims() == (1, 2)
    assert f.validate() is None
    assert is_acyclic(mapping_cone(f))
    ext3, f3 = projective_extension(s, steps=3)
    assert ext3.dims() == (1, 2, 2, 2)
    assert f3.validate() is None


def test_extension_fixpoint_on_projective():
    x = axa_complex(QQ)
    same, f = projective_extension(x, steps=4)
    assert same == x
    assert f.component(0) == Matrix.identity(QQ, 2)


def test_replace_simple_stalk_dual_numbers():
    s = stalk(simple_over_dual(QQ), 0)
    p = replace_by_projective(s, top_degree=2)
    assert classify(p).is_projective_complex
    assert p.dims() == (2, 2, 2)
    # maps into the stalk recover Hom and the self-extensions
    assert homotopy_hom(p, s, 0).hom_dim == 1
    assert homotopy_hom(p, s, 1).hom_dim == 1
    assert homotopy_hom(p, s, 1).hom_dim == ext1_dim_oracle(
        simple_over_dual(QQ), simple_over_dual(QQ))


def test_replace_refuses_complex_that_is_not_almost_projective(monkeypatch):
    import compvar.complexes as complexes_module

    def no_tower(x):
        raise AssertionError("a tower step was built")

    monkeypatch.setattr(complexes_module, "_extend_once", no_tower)
    a = dual_numbers(QQ)
    simple = simple_over_dual(QQ)
    # the non-projective simple sits below the leftmost nonzero degree
    bad = make_complex(a, 0, (simple, regular_module(a)),
                       (Matrix.zeros(QQ, 1, 2),))
    with pytest.raises(NotProjectiveComplex):
        replace_by_projective(bad, top_degree=3)


def test_tower_validation_grows_linearly(monkeypatch):
    import compvar.complexes as complexes_module
    import compvar.modules as modules_module
    calls = []
    validate = modules_module.validate_module

    def counting(m):
        calls.append(m)
        return validate(m)

    monkeypatch.setattr(modules_module, "validate_module", counting)
    monkeypatch.setattr(complexes_module, "validate_module", counting)
    counts = {}
    for steps in (16, 32):
        s = stalk(simple_over_dual(QQ), 0)  # no cover kept from the last run
        calls.clear()
        assert len(replace_by_projective(s, top_degree=steps - 1).terms) == steps
        counts[steps] = len(calls)
    # each step checks the three degrees it changes, however high it sits:
    # its window point validates their three terms; its canonical map has
    # only its squares checked, so it asks for no verdict
    assert counts[32] - counts[16] == 3 * 16


def test_tower_step_builds_no_more_as_the_tower_grows(monkeypatch):
    # a step's quasi-isomorphism is needed only on its window; building it
    # on every degree below made the tower quadratic in its length
    identity = Matrix.identity
    calls = []
    monkeypatch.setattr(Matrix, "identity", staticmethod(
        lambda field, n: (calls.append(n), identity(field, n))[1]))
    s = stalk(simple_over_dual(QQ), 0)
    counts = {}
    for steps in (8, 16, 32, 48):  # the first run also covers the simple
        calls.clear()
        assert len(replace_by_projective(s, top_degree=steps - 1).terms) == steps
        counts[steps] = len(calls)
    assert counts[48] - counts[32] == counts[32] - counts[16]


def test_tower_step_checks_its_kernel_inclusion(monkeypatch):
    import compvar.complexes as complexes_module
    submodule = complexes_module.submodule
    calls = []

    def whole_cover_on_third_step(m, space):
        calls.append(space)
        if len(calls) == 3:  # the whole cover instead of the kernel of pi
            space = row_space(Matrix.identity(m.field, m.dim))
        return submodule(m, space)

    monkeypatch.setattr(complexes_module, "submodule", whole_cover_on_third_step)
    with pytest.raises(ValidationFailure):
        replace_by_projective(stalk(simple_over_dual(QQ), 0), top_degree=5)
    assert len(calls) == 3


def test_first_tower_step_checks_the_square_of_its_kernel(monkeypatch):
    # the first step's window has no composite of differentials to check,
    # so only the square pi . k = 0 of its canonical map refuses a kernel
    # inclusion that pi does not kill
    import compvar.complexes as complexes_module
    submodule = complexes_module.submodule

    def whole_cover(m, space):
        return submodule(m, row_space(Matrix.identity(m.field, m.dim)))

    monkeypatch.setattr(complexes_module, "submodule", whole_cover)
    with pytest.raises(ValidationFailure, match="square"):
        replace_by_projective(stalk(simple_over_dual(QQ), 0), top_degree=5)


def test_replacement_truncation_is_stable():
    s = stalk(simple_over_dual(QQ), 0)
    for n in (0, 1, 2):
        dims = []
        for extra in (0, 1):
            top = max(0 + n + 1, 0) + extra
            p = replace_by_projective(s, top_degree=top)
            dims.append(homotopy_hom(p, s, n).hom_dim)
        assert dims[0] == dims[1]
        assert dims[0] == 1  # periodic self-extensions of the simple


def test_replace_hereditary_example():
    a = a2_algebra(QQ)
    s1, s2 = simple_modules(a)
    p = replace_by_projective(stalk(s1, 0), top_degree=3)
    assert classify(p).is_projective_complex
    assert p.dims() == (1, 2)
    assert homology_dims(p) == (0, 1)
    assert homotopy_hom(p, stalk(s2, 0), 1).hom_dim == 1
    assert homotopy_hom(p, stalk(s1, 0), 1).hom_dim == 0
    # the second simple is already projective, so it replaces to itself
    q = replace_by_projective(stalk(s2, 0), top_degree=3)
    assert q == stalk(s2, 0)
