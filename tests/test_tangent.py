"""Tangent spaces, orbit tangent spaces, extensions, eta, verdicts."""

import json
import random
from pathlib import Path

import pytest

from compvar.complexes import (GroupElement, act, chain_map_space, direct_sum,
                               homotopy_hom, make_complex, stalk)
from compvar.derived import derived_hom_dim
from compvar.errors import (NotAlmostProjective, NotProjectiveComplex,
                            ShapeMismatch, ValidationFailure)
from compvar.fields import GF, QQ
from compvar.linalg import Blocks, Matrix, Subspace, linear_system, row_values
from compvar.modules import (conjugate_module, direct_sum_modules,
                             indecomposable_projectives, make_module,
                             regular_module, simple_modules)
from compvar.samples import (a2_algebra, axa_complex, base_field_algebra,
                             dual_numbers, simple_over_dual,
                             two_loop_truncated)
from compvar.tangent import (TangentVector, chi, chi_splitting, eta,
                             eta_kernel, is_rigid, corollary8_check,
                             orbit_tangent, orbit_tangent_basis,
                             quotient_dim, tangent_and_orbit, tangent_layout,
                             tangent_space, tangent_space_basis,
                             tangent_system_matrix, tangent_vector,
                             verify_theorem7, voigt_check,
                             zero_tangent_vector)


def line_complex(field, value):
    """d = (1, 1) over the base field, differential [value]."""
    a = base_field_algebra(field)
    m = make_module(a, [Matrix.identity(field, 1)])
    return make_complex(a, 0, (m, m),
                        (Matrix.from_rows(field, [[value]]),))


# -- tangent space dimensions -----------------------------------------------------


def test_line_zero_differential():
    x = line_complex(QQ, 0)
    layout, space = tangent_space(x)
    assert layout.ambient_dim == 1  # one sigma; delta(1) = 0 is no coordinate
    assert space.dim == 1
    orbit, stab = orbit_tangent_basis(x)
    assert orbit.dim == 0
    assert stab == 2
    assert quotient_dim(x) == 1


def test_line_unit_differential():
    x = line_complex(QQ, 1)
    _, space = tangent_space(x)
    assert space.dim == 1
    orbit, stab = orbit_tangent_basis(x)
    assert orbit.dim == 1
    assert stab == 1
    assert quotient_dim(x) == 0


def test_stalk_of_simple_tangent():
    s = stalk(simple_over_dual(QQ), 0)
    layout, space = tangent_space(s)
    assert layout.ambient_dim == 1  # delta(x), 1x1; delta(1) = 0 is no coordinate
    assert space.dim == 1           # delta(x) free
    orbit, stab = orbit_tangent_basis(s)
    assert orbit.dim == 0
    assert stab == 1
    assert quotient_dim(s) == 1


def test_two_term_complex_tangent_oracle():
    # hand-solved: deltas contribute 2 free parameters per degree, the
    # sigma block loses two parameters to condition (b)
    x = axa_complex(QQ)
    _, space = tangent_space(x)
    assert space.dim == 6
    orbit, stab = orbit_tangent_basis(x)
    assert orbit.dim == 5
    assert stab == 3
    assert stab == chain_map_space(x, x, 0).dim  # stabilizer = chain endos
    assert quotient_dim(x) == 1


def test_projective_stalk_is_rigid_point():
    a = dual_numbers(QQ)
    x = stalk(regular_module(a), 0)
    _, space = tangent_space(x)
    assert space.dim == 2
    orbit, stab = orbit_tangent_basis(x)
    assert orbit.dim == 2
    assert quotient_dim(x) == 0


def full_layout(x):
    """The coordinates with delta_i(1) kept: all s blocks delta_i(a_j) per
    degree (descending), then the sigmas."""
    keys, shapes = [], []
    for i in range(x.top, x.bottom - 1, -1):
        if x.dim_at(i):
            keys += [("delta", i, j) for j in range(x.algebra.dim)]
            shapes += [(x.dim_at(i), x.dim_at(i))] * x.algebra.dim
    for i in range(x.top, x.bottom, -1):
        if x.dim_at(i - 1) and x.dim_at(i):
            keys.append(("sigma", i))
            shapes.append((x.dim_at(i - 1), x.dim_at(i)))
    return Blocks(x.field, tuple(keys), tuple(shapes))


def full_tangent_system(x):
    """Oracle: (full layout, the whole linearized system in it), with (a)
    for all s^2 pairs (j, k) per degree, (b) for all s basis elements per
    pair of degrees, and (c), including the delta_i(1) unknowns and the
    equations that ``tangent_system_matrix`` leaves to the unit laws."""
    s = x.algebra.dim
    layout = full_layout(x)
    unk = layout.index
    equations = []
    for i in x.degrees():
        d = x.dim_at(i)
        if d:
            acts = x.term(i).action
            for j in range(s):
                for k in range(s):
                    terms = [(1, None, unk["delta", i, j], acts[k]),
                             (1, acts[j], unk["delta", i, k], None)]
                    terms += [(-c, None, unk["delta", i, l], None)
                              for l, c in row_values(x.field,
                                                     x.algebra.products[j][k]).items()]
                    equations.append((d, d, terms))
    for i in range(x.bottom + 1, x.top + 1):
        if x.dim_at(i - 1) and x.dim_at(i):
            di, sig = x.diff(i), unk["sigma", i]
            for j in range(s):
                equations.append((x.dim_at(i - 1), x.dim_at(i), [
                    (1, None, sig, x.term(i).action[j]),
                    (1, di, unk["delta", i, j], None),
                    (-1, None, unk["delta", i - 1, j], di),
                    (-1, x.term(i - 1).action[j], sig, None)]))
    for i in range(x.bottom + 2, x.top + 1):
        if x.dim_at(i) and x.dim_at(i - 1) and x.dim_at(i - 2):
            equations.append((x.dim_at(i - 2), x.dim_at(i), [
                (1, None, unk["sigma", i - 1], x.diff(i)),
                (1, x.diff(i - 1), unk["sigma", i], None)]))
    return layout, linear_system(x.field, layout.shapes, equations)


def assert_full_kernel_is(x, space):
    """Every vector in the kernel of the full system has zero delta_i(1)
    blocks, and with those blocks dropped that kernel is ``space``."""
    layout, full = full_tangent_system(x)
    target, dropped = tangent_layout(x), []
    for vec in full.kernel().basis:
        blocks = layout.unflatten(vec)
        assert all(m.is_zero() for key, m in blocks.items()
                   if key[0] == "delta" and key[2] == 0)
        dropped.append(target.flatten(blocks))
    assert Subspace.from_vectors(x.field, target.ambient_dim, dropped) == space
    return full


def unit_law_cases(field):
    """Stalks of the indecomposable projectives and the simples, the simples
    plus the regular module, and the complexes A --*a_j--> A (and
    A --> A --> A where a_j^2 = 0) over the dual numbers, the path algebra
    of 1 -> 2 and k<x,y>/(x,y)^2."""
    points = []
    for build in (dual_numbers, a2_algebra, two_loop_truncated):
        a = build(field)
        reg = regular_module(a)
        simples = simple_modules(a)
        points += [stalk(p, 1) for p, _ in indecomposable_projectives(a)]
        points += [stalk(m, 0) for m in simples]
        points.append(stalk(direct_sum_modules(simples + [reg])[0], 2))
        for j in range(1, a.dim):
            r = a.right_mult_matrix(a.basis_vec(j))
            points.append(make_complex(a, 0, (reg, reg), (r,)))
            if (r @ r).is_zero():
                points.append(make_complex(a, 0, (reg, reg, reg), (r, r)))
    return points


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_unit_law_equations_leave_the_tangent_space_unchanged(field):
    for x in unit_law_cases(field):
        layout, space = tangent_space(x)
        full = assert_full_kernel_is(x, space)
        assert tangent_system_matrix(x, layout).nrows < full.nrows


def test_drawn_stalks_have_the_tangent_space_of_the_whole_system(hypothesis):
    """Conjugates g.M of sums of simples and indecomposable projectives,
    placed in degree 0..2, over Q and F_3."""
    from hypothesis import strategies as st

    modules = []
    for field in (QQ, GF(3)):
        for build in (dual_numbers, a2_algebra, two_loop_truncated):
            a = build(field)
            parts = simple_modules(a) + [p for p, _ in indecomposable_projectives(a)]
            modules += parts + [direct_sum_modules([m, n])[0]
                                for m in parts for n in parts]

    @st.composite
    def cases(draw):
        m = draw(st.sampled_from(modules))
        entries = st.lists(st.integers(-2, 2), min_size=m.dim, max_size=m.dim)
        g = Matrix.from_rows(m.field, draw(st.lists(entries, min_size=m.dim,
                                                    max_size=m.dim)))
        hypothesis.assume(g.is_invertible())
        return stalk(conjugate_module(m, g), draw(st.integers(0, 2)))

    @hypothesis.settings(max_examples=60)
    @hypothesis.given(cases())
    def check(x):
        _, space = tangent_space(x)
        assert_full_kernel_is(x, space)

    check()


def test_every_tangent_basis_vector_satisfies_invariants():
    for x in (axa_complex(QQ), line_complex(QQ, 0),
              stalk(simple_over_dual(QQ), 0)):
        layout, space = tangent_space(x)
        for vec in space.basis:
            v = TangentVector(x, layout.unflatten(vec))
            assert layout.flatten(v.blocks) == vec
            chi(x, v)  # raises if any invariant fails


# -- chi ----------------------------------------------------------------------------


def test_chi_of_zero_is_block_diagonal():
    x = axa_complex(QQ)
    z, inc, proj = chi(x, zero_tangent_vector(x))
    assert z == direct_sum(x, x)
    assert inc.validate() is None
    assert proj.validate() is None


def test_chi_rejects_non_tangent_data():
    x = axa_complex(QQ)
    with pytest.raises(ValidationFailure):
        bad = tangent_vector(
            x, {1: tuple(Matrix.identity(QQ, 2) for _ in range(2))}, {})
        chi(x, bad)  # delta along the identity must vanish


def test_tangent_vector_refuses_blocks_outside_the_window():
    """On axa (degrees 0..1) a sigma at the bottom degree and a delta at a
    degree past the top are no tangent coordinates; given with entries,
    each is refused by its key, and given empty, it is a zero block."""
    x = axa_complex(QQ)
    one, zero = Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 2)
    with pytest.raises(ShapeMismatch, match="outside the tangent coordinates"):
        tangent_vector(x, {7: (zero, one)}, {0: one, 5: one})
    with pytest.raises(ShapeMismatch, match=r"^block \('sigma', 0\) lies outside"):
        tangent_vector(x, {}, {0: one})
    with pytest.raises(ShapeMismatch, match=r"^block \('delta', 7, 1\) lies outside"):
        tangent_vector(x, {7: (zero, one)}, {})
    empty = Matrix.zeros(QQ, 0, 0)
    assert tangent_vector(x, {7: (empty, empty)}, {0: Matrix.zeros(QQ, 0, 2)}).is_zero()
    assert not tangent_vector(x, {}, {1: x.diff(1)}).is_zero()


def test_chi_dims_and_exactness():
    x = axa_complex(QQ)
    layout, space = tangent_space(x)
    v = TangentVector(x, layout.unflatten(space.basis[0]))
    z, inc, proj = chi(x, v)
    assert z.dims() == (4, 4)
    for i in x.degrees():
        assert inc.component(i).rank() == 2
        assert proj.component(i).rank() == 2
        assert (proj.component(i) @ inc.component(i)).is_zero()


def _submatrix(m: Matrix, rows, cols) -> Matrix:
    return Matrix.from_rows(m.field, [[m.data[i][j] for j in cols] for i in rows])


def test_chi_is_linear_in_v():
    x = axa_complex(QQ)
    layout, space = tangent_space(x)
    v1 = TangentVector(x, layout.unflatten(space.basis[0]))
    v2 = TangentVector(x, layout.unflatten(space.basis[-1]))
    z_sum, _, _ = chi(x, v1.add(v2))
    z1, _, _ = chi(x, v1)
    z2, _, _ = chi(x, v2)
    rows, cols = range(0, 2), range(2, 4)
    for i in x.degrees():
        for j in range(x.algebra.dim):
            block_sum = _submatrix(z_sum.term(i).action[j], rows, cols)
            b1 = _submatrix(z1.term(i).action[j], rows, cols)
            b2 = _submatrix(z2.term(i).action[j], rows, cols)
            assert block_sum == b1 + b2


def test_chi_splitting_detects_orbit_membership():
    x = axa_complex(QQ)
    layout, space = tangent_space(x)
    orbit, _ = orbit_tangent_basis(x)
    found_inside = found_outside = 0
    for vec in space.basis:
        v = TangentVector(x, layout.unflatten(vec))
        ts = chi_splitting(x, v)
        if orbit.contains(vec):
            found_inside += 1
            assert ts is not None
            z, inc, proj = chi(x, v)
            section = {i: Matrix.vstack([ts[i], Matrix.identity(QQ, x.dim_at(i))])
                       for i in x.degrees()}
            from compvar.complexes import chain_map_from_components
            s_map = chain_map_from_components(x, z, 0, section)
            comp = s_map.then(proj)
            for i in x.degrees():
                assert comp.component(i).is_identity()
        else:
            found_outside += 1
            assert ts is None
    assert found_inside > 0 and found_outside > 0


def test_orbit_vectors_split_and_basis_vectors_flagged():
    for vec_field in (QQ, GF(3)):
        x = axa_complex(vec_field)
        orbit, _ = orbit_tangent_basis(x)
        layout = tangent_layout(x)
        for vec in orbit.basis:
            assert chi_splitting(x, TangentVector(x, layout.unflatten(vec))) is not None


# -- eta ------------------------------------------------------------------------------


def test_eta_on_pure_sigma_vector():
    x = axa_complex(QQ)
    v = tangent_vector(x, {}, {1: x.diff(1)})
    sp = eta(x, v)
    assert sp.component(1) == x.diff(1)


def test_eta_kills_orbit_vectors():
    x = axa_complex(QQ)
    layout = tangent_layout(x)
    orbit, _ = orbit_tangent_basis(x)
    h = homotopy_hom(x, x, 1)
    for vec in orbit.basis:
        sp = eta(x, TangentVector(x, layout.unflatten(vec)))
        assert h.nullhomotopic.contains(h.space.flatten(sp))


def test_eta_kernel_equals_orbit_space():
    for x in (axa_complex(QQ), line_complex(QQ, 0), line_complex(QQ, 1)):
        layout, kernel, image_dim = eta_kernel(x)
        orbit, _ = orbit_tangent_basis(x)
        assert kernel.contains_subspace(orbit)
        assert orbit.contains_subspace(kernel)
        assert image_dim == homotopy_hom(x, x, 1).hom_dim


def test_eta_requires_projective_terms():
    s = stalk(simple_over_dual(QQ), 0)
    with pytest.raises(NotProjectiveComplex):
        eta(s, zero_tangent_vector(s))


# -- verdicts -------------------------------------------------------------------------


def test_theorem7_equality_cases():
    for x, expected_quotient in ((axa_complex(QQ), 1),
                                 (line_complex(QQ, 0), 1),
                                 (line_complex(QQ, 1), 0)):
        report = verify_theorem7(x)
        assert report["verdict"] == "equality"
        assert report["quotient"] == expected_quotient
        assert report["quotient"] == report["derived_hom_dim"]


def test_theorem7_projective_stalk():
    a = dual_numbers(QQ)
    report = verify_theorem7(stalk(regular_module(a), 0))
    assert report == {"tangent_dim": 2, "orbit_dim": 2, "quotient": 0,
                      "derived_hom_dim": 0, "verdict": "equality"}


def test_theorem7_embedding_cases():
    s = stalk(simple_over_dual(QQ), 0)
    report = verify_theorem7(s)
    assert report["verdict"] == "embedding"
    assert report["quotient"] <= report["derived_hom_dim"]
    assert report["quotient"] == 1 and report["derived_hom_dim"] == 1


def test_theorem7_classifies_its_point_once(monkeypatch):
    import compvar.complexes as complexes_module
    seen = []
    compute = complexes_module._classify
    monkeypatch.setattr(complexes_module, "_classify",
                        lambda x: (seen.append(x), compute(x))[1])
    s = stalk(simple_over_dual(QQ), 0)
    assert verify_theorem7(s)["verdict"] == "embedding"
    # verify_theorem7, derived_hom and replace_by_projective all ask
    assert sum(1 for x in seen if x is s) == 1


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_theorem7_on_l4(field):
    """L_4 = A^4 --x--> A^4 --x--> A^4 over A = k[x]/(x^2), x acting
    block-diagonally: its tangent system is 384 x 320 with 0.42% nonzeros."""
    a = dual_numbers(field)
    term = direct_sum_modules([regular_module(a)] * 4)[0]
    x = Matrix.block_diag(field, [a.right_mult_matrix(a.basis_vec(1))] * 4)
    complex_ = make_complex(a, 0, (term, term, term), (x, x))
    assert tangent_system_matrix(complex_, tangent_layout(complex_)).shape == (384, 320)
    assert verify_theorem7(complex_) == {
        "tangent_dim": 144, "orbit_dim": 128, "quotient": 16,
        "derived_hom_dim": 16, "verdict": "equality"}


def test_theorem7_rejects_bad_shape():
    a = dual_numbers(QQ)
    bad = make_complex(a, 0, (simple_over_dual(QQ), regular_module(a)),
                       (Matrix.zeros(QQ, 1, 2),))
    with pytest.raises(NotAlmostProjective):
        verify_theorem7(bad)


def test_rigidity_and_open_orbit():
    assert is_rigid(line_complex(QQ, 1))
    assert corollary8_check(line_complex(QQ, 1))
    assert not is_rigid(line_complex(QQ, 0))
    assert corollary8_check(line_complex(QQ, 0))  # vacuous for non-rigid
    a = dual_numbers(QQ)
    assert is_rigid(stalk(regular_module(a), 0))
    assert corollary8_check(stalk(regular_module(a), 0))


def regular_plus_simple(field):
    """A + S over the dual numbers: as a stalk, ambient 9, tangent 5, an
    embedding verdict."""
    return direct_sum_modules([regular_module(dual_numbers(field)),
                               simple_over_dual(field)])[0]


@pytest.fixture
def escaping_orbit(monkeypatch):
    """An orbit map with one extra column outside the tangent space."""
    import compvar.tangent as tangent_module
    build = tangent_module.orbit_map_matrix

    def escaping(x, layout):
        _, tspace = tangent_space(x)
        n = layout.ambient_dim
        units = (tuple(int(j == k) for j in range(n)) for k in range(n))
        outside = next(e for e in units if not tspace.contains(e))
        column = Matrix.from_rows(x.field, [[c] for c in outside])
        return Matrix.hstack([build(x, layout), column])

    monkeypatch.setattr(tangent_module, "orbit_map_matrix", escaping)


@pytest.mark.parametrize("check", [
    lambda: verify_theorem7(axa_complex(QQ)),
    lambda: verify_theorem7(stalk(regular_plus_simple(QQ), 0)),
    lambda: quotient_dim(stalk(regular_module(dual_numbers(GF(101))), 0)),
    lambda: corollary8_check(stalk(regular_module(dual_numbers(QQ)), 0)),
    lambda: voigt_check(regular_plus_simple(QQ)),
], ids=["theorem7", "theorem7-embedding", "quotient_dim", "corollary8", "voigt"])
def test_every_quotient_certifies_the_orbit(escaping_orbit, check):
    with pytest.raises(ValidationFailure, match="escape the tangent space"):
        check()


def test_theorem7_cli_reports_an_escaping_orbit(escaping_orbit, tmp_path, capsys):
    # an embedding verdict: a quotient made too small would still pass it
    from compvar.cli import main
    from compvar.schemas import complex_to_json
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    path = tmp_path / "regular_plus_simple.json"
    path.write_text(json.dumps(complex_to_json(stalk(regular_plus_simple(QQ), 0))))
    code = main(["theorem7",
                 "--algebra", str(fixtures / "algebra_q_dual_numbers_quiver.json"),
                 "--complex", str(path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: validation failed")
    assert "escape the tangent space" in lines[0]


# -- identities: the stabilizer and the census ambient ------------------------------


def fixture_points():
    """The valid complex fixtures, each with its algebra."""
    from compvar.schemas import load_json, parse_algebra, parse_complex
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    points = []
    for algebra, complex_ in (("algebra_q_dual_numbers_quiver.json", "complex_axa_q.json"),
                              ("algebra_q_a2_quiver.json", "complex_p2_p1_a2.json"),
                              ("algebra_q_dual_numbers_quiver.json", "complex_stalk_simple_q.json"),
                              ("algebra_q_dual_numbers_quiver.json", "complex_stalk_regular_q.json")):
        a = parse_algebra(load_json(str(fixtures / algebra)))
        points.append(parse_complex(load_json(str(fixtures / complex_)), a))
    return points


def enumerated_points():
    """Every point of the small windows over F_2 and F_3."""
    from compvar.scan import ScanBudget, enumerate_points
    points = []
    for field in (GF(2), GF(3)):
        for build in (dual_numbers, a2_algebra, two_loop_truncated):
            for dims in ((1,), (1, 1), (2, 1), (1, 0, 1)):
                points += enumerate_points(build(field), dims, ScanBudget(10 ** 6))
    return points


def test_stabilizer_is_the_chain_endomorphisms_and_the_census_shares_the_ambient():
    """The stabilizer of X in the Lie algebra of G is End_{C(A)}(X), so
    orbit_dim = sum d_i^2 - dim End_{C(A)}(X); the census counts exactly
    the tangent coordinates."""
    from compvar.scan import free_coordinate_count
    points = fixture_points() + enumerated_points()
    for x in points:
        layout, _, orbit, stab = tangent_and_orbit(x)
        endos = chain_map_space(x, x, 0).dim
        assert stab == endos
        assert orbit.dim == sum(d * d for d in x.dims()) - endos
        assert free_coordinate_count(x.algebra, x.dims()) == layout.ambient_dim
    assert len(points) > 100


# -- group action invariance ------------------------------------------------------------


def test_dimensions_invariant_under_action():
    rng = random.Random(99)
    x = axa_complex(QQ)
    comps = []
    for i in x.degrees():
        while True:
            g = Matrix.from_rows(QQ, [[QQ.coerce(rng.randint(-2, 2))
                                       for _ in range(2)] for _ in range(2)])
            if g.is_invertible():
                comps.append((i, g))
                break
    y = act(GroupElement(tuple(comps)), x)
    _, tx = tangent_space(x)
    _, ty = tangent_space(y)
    assert tx.dim == ty.dim
    ox, sx = orbit_tangent_basis(x)
    oy, sy = orbit_tangent_basis(y)
    assert (ox.dim, sx) == (oy.dim, sy)
    assert quotient_dim(x) == quotient_dim(y)
    assert derived_hom_dim(x, x, 1) == derived_hom_dim(y, y, 1)


# -- module-level check -------------------------------------------------------------------


def test_voigt_regular_module():
    a = dual_numbers(QQ)
    report = voigt_check(regular_module(a))
    assert report["quotient"] == 0
    assert report["ext1_dim"] == 0
    assert report["equality"]


def test_voigt_simple_module():
    report = voigt_check(simple_over_dual(QQ))
    assert report["quotient"] == 1
    assert report["ext1_dim"] == 1
    assert report["equality"]


def test_voigt_semisimple_sum_over_path_algebra():
    a = a2_algebra(QQ)
    s1, s2 = simple_modules(a)
    total, _, _ = direct_sum_modules([s1, s2])
    report = voigt_check(total)
    assert report["ext1_dim"] == 1
    assert report["quotient"] == 1
    assert report["equality"]


def test_voigt_respects_degree_placement():
    r0 = voigt_check(simple_over_dual(QQ), degree=0)
    r2 = voigt_check(simple_over_dual(QQ), degree=2)
    assert r0["quotient"] == r2["quotient"]
    assert r2["degree"] == 2


def test_tangent_basis_api():
    x = axa_complex(QQ)
    basis = tangent_space_basis(x)
    assert len(basis) == 6
    assert all(not v.is_zero() for v in basis)
