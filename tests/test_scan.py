"""Enumeration and census layer, checked against hand-enumerated cases."""

import dataclasses
import itertools
import time
from pathlib import Path

import pytest

from compvar import scan
from compvar.algebra import algebra_from_constants
from compvar.cli import main as cli_main
from compvar.complexes import (ComplexPoint, GroupElement, act, classify,
                               stalk, validate_point)
from compvar.errors import (BudgetExceeded, UnsupportedCharacteristic,
                            ValidationFailure)
from compvar.fields import GF, Field
from compvar.linalg import Matrix
from compvar.modules import ModuleRep, regular_module, validate_module
from compvar.samples import (a2_algebra, base_field_algebra, dual_numbers,
                             two_loop_truncated)
from compvar.scan import (OrbitCensus, ScanBudget, _closure_partition,
                          _group_generators, _iso_partition, enumerate_group,
                          enumerate_points, free_coordinate_count,
                          general_linear_order, group_order, orbit_census,
                          rigid_census)

F2 = GF(2)
Q = Field(None)


def small_budget(**kw):
    args = dict(max_points=10 ** 4, seed=7)
    args.update(kw)
    return ScanBudget(**args)


# -- budgets and guards ----------------------------------------------------

def test_budget_bounds_must_be_positive():
    with pytest.raises(ValidationFailure):
        ScanBudget(max_points=0)
    with pytest.raises(ValidationFailure):
        ScanBudget(max_points=-1)
    # the group order no longer has a budget of its own
    assert [f.name for f in dataclasses.fields(ScanBudget)] == ["max_points", "seed"]


def test_enumeration_rejects_rational_field():
    a = base_field_algebra(Q)
    with pytest.raises(UnsupportedCharacteristic):
        enumerate_points(a, (1, 1), small_budget())


def test_budget_exceeded_carries_exact_count():
    a = dual_numbers(F2)
    # unpinned d=(2,2): 2*4 module coords + 4 differential coords = 12
    assert free_coordinate_count(a, (2, 2)) == 12
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_points(a, (2, 2), small_budget(max_points=100))
    assert exc.value.count == 2 ** 12


def test_budget_exceeded_on_huge_grid_leaves_count_out():
    a = dual_numbers(F2)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_points(a, (70, 70), small_budget())
    assert exc.value.count is None
    assert "2^14700 candidate points" in str(exc.value)


def test_group_order_refuses_huge_windows_before_building():
    a = base_field_algebra(F2)
    assert group_order(F2, (64,)).bit_length() <= 4096
    with pytest.raises(BudgetExceeded):
        group_order(F2, (65,))
    with pytest.raises(BudgetExceeded):
        enumerate_points(a, (99999999,), small_budget())


def test_free_coordinate_count_pinned_drops_module_entries():
    a = dual_numbers(F2)
    assert free_coordinate_count(a, (2, 2), pinned=True) == 4
    assert free_coordinate_count(a, (1,), pinned=False) == 1
    assert free_coordinate_count(a, (1,), pinned=True) == 0


# -- point enumeration -----------------------------------------------------

def test_base_field_line_points():
    a = base_field_algebra(F2)
    pts = enumerate_points(a, (1, 1), small_budget())
    assert len(pts) == 2
    assert [p.diff(1).data for p in pts] == [((0,),), ((1,),)]
    for p in pts:
        assert validate_point(p) is None
        assert p.dims() == (1, 1)


@pytest.mark.parametrize("p", [2, 3])
def test_module_candidates_pass_a_fresh_validation(p):
    """Candidates keep the verdict of the prefix checks; a fresh module on
    the same matrices reaches that verdict again."""
    for build in (dual_numbers, a2_algebra, two_loop_truncated):
        a = build(GF(p))
        for d in (1, 2):
            candidates = scan._module_candidates(a, d)
            assert candidates
            for m in candidates:
                assert validate_module(m) is None
                assert validate_module(ModuleRep(a, d, m.action)) is None


def test_enumeration_is_deterministic():
    a = dual_numbers(F2)
    reg = regular_module(a)
    b = small_budget()
    first = enumerate_points(a, (2, 2), b, pinned_modules=(reg, reg))
    second = enumerate_points(a, (2, 2), b, pinned_modules=(reg, reg))
    assert first == second


def test_dual_numbers_single_degree_has_one_point():
    # x must act nilpotently on a 1-dimensional space, so only the simple
    a = dual_numbers(F2)
    pts = enumerate_points(a, (1,), small_budget())
    assert len(pts) == 1
    assert pts[0].term(0).action[1] == Matrix.zeros(F2, 1, 1)


def test_zero_dimension_vector_gives_zero_point():
    a = base_field_algebra(F2)
    pts = enumerate_points(a, (0, 0), small_budget())
    assert len(pts) == 1
    assert pts[0].total_dim() == 0


def test_pinned_regular_modules_give_module_maps():
    a = dual_numbers(F2)
    reg = regular_module(a)
    pts = enumerate_points(a, (2, 2), small_budget(),
                           pinned_modules=(reg, reg))
    # differentials are exactly the right multiplications by the 4 elements
    assert len(pts) == 4
    mults = {a.right_mult_matrix(v).data
             for v in ((0, 0), (1, 0), (0, 1), (1, 1))}
    assert {p.diff(1).data for p in pts} == mults


def test_pinned_modules_validated():
    a = dual_numbers(F2)
    reg = regular_module(a)
    with pytest.raises(ValidationFailure):
        enumerate_points(a, (2, 2), small_budget(), pinned_modules=(reg,))
    with pytest.raises(ValidationFailure):
        enumerate_points(a, (1, 2), small_budget(), pinned_modules=(reg, reg))


# -- the acting group ------------------------------------------------------

def test_general_linear_orders():
    assert general_linear_order(2, 0) == 1
    assert general_linear_order(2, 1) == 1
    assert general_linear_order(2, 2) == 6
    assert general_linear_order(3, 2) == 48
    assert group_order(F2, (2, 2)) == 36
    assert group_order(F2, (1, 1)) == 1


def test_enumerate_group_members_are_invertible():
    els = enumerate_group(F2, (2,), small_budget())
    assert len(els) == 6
    assert all(g.component(1, 2, F2).is_invertible() for g in els)
    with pytest.raises(BudgetExceeded):
        enumerate_group(GF(5), (3, 3), small_budget(max_points=100))


@pytest.mark.parametrize("p, d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                  (5, 1), (5, 2)])
def test_group_generators_generate_the_general_linear_group(p, d):
    field = GF(p)
    gens = _group_generators(field, (d,))
    for g, ginv in gens:
        assert g.comps[0][0] == 0
        assert g.comps[0][1] @ ginv.comps[0][1] == Matrix.identity(field, d)
    found, frontier = {Matrix.identity(field, d)}, [Matrix.identity(field, d)]
    while frontier:
        m = frontier.pop()
        for g, _ in gens:
            image = g.comps[0][1] @ m
            if image not in found:
                found.add(image)
                frontier.append(image)
    assert len(found) == general_linear_order(p, d)


def test_group_generators_move_one_degree_each():
    # F_3, dims (2, 1, 0): two transvections and one diag(w) in degree 2,
    # one diag(w) in degree 1, nothing in degree 0
    gens = _group_generators(GF(3), (2, 1, 0))
    assert [g.comps[0][0] for g, _ in gens] == [2, 2, 2, 1]
    assert all(len(g.comps) == 1 for g, _ in gens)


# -- orbit census ----------------------------------------------------------

def _orbit_partition(points, group) -> list:
    """Oracle: i ~ j iff some element of the whole group carries point i to
    point j on the nose."""
    n = len(points)
    assigned = [None] * n
    classes = []
    inverse = {m: None for g in group for _, m in g.comps}
    inverse = {m: m.inverse() for m in inverse}
    acting = [(g, GroupElement(tuple((d, inverse[m]) for d, m in g.comps)))
              for g in group]
    for i in range(n):
        if assigned[i] is not None:
            continue
        images = {act(g, points[i], _inverse=ginv) for g, ginv in acting}
        members = [j for j in range(n)
                   if assigned[j] is None and points[j] in images]
        label = len(classes)
        for j in members:
            assigned[j] = label
        classes.append(tuple(members))
    return classes


def test_base_field_line_census_two_orbits():
    a = base_field_algebra(F2)
    b = small_budget()
    pts = enumerate_points(a, (1, 1), b)
    census = orbit_census(pts, a, (1, 1), b)
    assert census.class_count == 2
    assert census.classes == ((0,), (1,))
    assert census.group_order == 1


def test_pinned_dual_census_three_orbits():
    a = dual_numbers(F2)
    reg = regular_module(a)
    b = small_budget()
    pts = enumerate_points(a, (2, 2), b, pinned_modules=(reg, reg))
    census = orbit_census(pts, a, (2, 2), b)
    assert census.point_count == 4
    assert census.class_count == 3
    assert census.group_order == 36
    sizes = sorted(len(c) for c in census.classes)
    # zero map, multiplication by x, and the two unit multiplications
    assert sizes == [1, 1, 2]


def test_census_rejects_foreign_points():
    a = base_field_algebra(F2)
    b = small_budget()
    pts = enumerate_points(a, (1, 1), b)
    with pytest.raises(ValidationFailure):
        orbit_census(pts, dual_numbers(F2), (1, 1), b)
    with pytest.raises(ValidationFailure):
        orbit_census(pts, a, (1, 1, 1), b)


def test_census_refuses_an_incomplete_point_list():
    a = dual_numbers(GF(3))
    b = small_budget()
    pts = enumerate_points(a, (2, 1), b)
    orbits = orbit_census(pts, a, (2, 1), b).classes
    gens = _group_generators(a.field, (2, 1))
    # a point that is not fixed by G is reached from the rest of its orbit
    for missing in (j for c in orbits if len(c) > 1 for j in c):
        with pytest.raises(ValidationFailure, match="enumeration is incomplete"):
            _closure_partition(pts[:missing] + pts[missing + 1:], gens)
    with pytest.raises(ValidationFailure, match="enumeration is incomplete"):
        orbit_census(pts[:missing] + pts[missing + 1:], a, (2, 1), b)
    # a pinned list is only part of the variety: a step that leaves its
    # modules is skipped, but one that keeps them must stay in the list.
    # Over F_2 the transvection that is right multiplication by 1 + x
    # carries the unit 1 to 1 + x and keeps the regular module.
    f2 = dual_numbers(F2)
    reg = regular_module(f2)
    pinned = enumerate_points(f2, (2, 2), b, pinned_modules=(reg, reg))
    unit = next(c for c in orbit_census(pinned, f2, (2, 2), b).classes if len(c) > 1)
    for missing in unit:
        with pytest.raises(ValidationFailure, match="enumeration is incomplete"):
            orbit_census(pinned[:missing] + pinned[missing + 1:], f2, (2, 2), b)


def test_census_of_a_group_larger_than_the_point_budget(monkeypatch):
    # |G| = |GL_3(F_3)| * |GL_1(F_3)| = 22,464 tops max_points: the orbits
    # are still walked as closures, the zero map and the 26 surjections,
    # with one group action per point that does not start its class
    a = base_field_algebra(GF(3))
    calls = []

    def counted(g, x, _inverse=None):
        calls.append(g)
        return act(g, x, _inverse=_inverse)

    monkeypatch.setattr(scan, "act", counted)
    report = rigid_census(a, (3, 1), ScanBudget())
    assert report.census.group_order == 22464
    assert [len(c) for c in report.census.classes] == [1, 26]
    assert len(calls) == 25


def test_pinned_closures_are_merged_by_the_search():
    # regular dual numbers over F_3: the units a + bx with a != 0 are one
    # orbit, but diag(w, 1) leaves the regular module, so the walk inside
    # the list only reaches the units with the same a; the search joins them
    a = dual_numbers(GF(3))
    reg = regular_module(a)
    b = small_budget()
    pts = enumerate_points(a, (2, 2), b, pinned_modules=(reg, reg))
    closures, skipped = _closure_partition(pts, _group_generators(a.field, (2, 2)))
    census = orbit_census(pts, a, (2, 2), b)
    assert skipped and len(closures) > census.class_count
    assert [len(c) for c in census.classes] == [1, 2, 6]
    assert list(census.classes) == _orbit_partition(
        pts, enumerate_group(a.field, (2, 2), b))
    for c in closures:  # every closure lies in one class
        assert any(set(c) <= set(k) for k in census.classes)


@pytest.mark.parametrize("drop", range(6))
def test_pinned_census_without_a_generator_is_still_the_orbits(monkeypatch, drop):
    # a closure under fewer generators splits more; the search still
    # finds the orbits, as the whole group gives them
    a = dual_numbers(GF(3))
    reg = regular_module(a)
    b = small_budget()
    pts = enumerate_points(a, (2, 2), b, pinned_modules=(reg, reg))
    gens = _group_generators(a.field, (2, 2))
    assert len(gens) == 6
    monkeypatch.setattr(scan, "_group_generators",
                        lambda field, dims: gens[:drop] + gens[drop + 1:])
    census = orbit_census(pts, a, (2, 2), b)
    assert list(census.classes) == _orbit_partition(
        pts, enumerate_group(a.field, (2, 2), b))


def test_census_rejects_a_closure_step_without_a_witness(monkeypatch):
    # dual numbers over F_2, dims (2, 1): the two transvections of degree 1
    # are the only generators; each step is made with the other one
    a = dual_numbers(F2)
    b = small_budget()
    pts = enumerate_points(a, (2, 1), b)
    gens = _group_generators(a.field, (2, 1))
    assert len(gens) == 2
    other = {g: gens[1 - k] for k, (g, _) in enumerate(gens)}

    def wrong_act(g, x, _inverse=None):
        h, hinv = other[g]
        return act(h, x, _inverse=hinv)

    monkeypatch.setattr(scan, "act", wrong_act)
    with pytest.raises(ValidationFailure, match="not a chain isomorphism"):
        orbit_census(pts, a, (2, 1), b)


@pytest.mark.parametrize("wrong", ["shifted", "stuck"])
def test_census_rejects_a_wrong_packed_step(monkeypatch, wrong):
    # a packed image that is new is checked against the point act builds; one
    # already in the orbit (here: the point itself) splits the orbit, and
    # the representatives are then found isomorphic
    a = dual_numbers(GF(3))
    b = small_budget()
    pts = enumerate_points(a, (2, 1), b)
    step = scan._flat_step

    def wrong_step(key, updates, p):
        if wrong == "stuck":
            return key
        image = step(key, updates, p)
        return image[:-1] + ((image[-1] + 1) % p,)

    monkeypatch.setattr(scan, "_flat_step", wrong_step)
    match = {"shifted": "differs from the group action",
             "stuck": "isomorphic points"}[wrong]
    with pytest.raises(ValidationFailure, match=match):
        orbit_census(pts, a, (2, 1), b)


@pytest.mark.parametrize("make, p, dims", [(dual_numbers, 2, (2, 1)),
                                           (base_field_algebra, 3, (2, 2))])
def test_closure_acts_once_per_new_point(monkeypatch, make, p, dims):
    a = make(GF(p))
    b = small_budget()
    pts = enumerate_points(a, dims, b)
    calls = []

    def counted(g, x, _inverse=None):
        calls.append(g)
        return act(g, x, _inverse=_inverse)

    monkeypatch.setattr(scan, "act", counted)
    census = orbit_census(pts, a, dims, b)
    assert census.class_count > 1
    assert len(calls) == len(pts) - census.class_count


def test_closure_under_drawn_generators_stays_in_the_orbits(hypothesis):
    """A closure under part of the generators splits orbits but never
    joins two; ``orbit_census`` then either still finds the orbits or
    refuses the split through its isomorphism searches."""
    from hypothesis import strategies as st

    budget = small_budget()
    cases = [(make, p, dims) for make in (base_field_algebra, dual_numbers, a2_algebra)
             for p in (2, 3) for dims in ((2,), (1, 1), (2, 1), (1, 2), (1, 1, 1))
             if p ** free_coordinate_count(make(GF(p)), dims) <= budget.max_points]
    known = {}

    def case(make, p, dims):  # points, generators, orbits, oracle labels
        if (make, p, dims) not in known:
            a = make(GF(p))
            points = enumerate_points(a, dims, budget)
            gens = _group_generators(a.field, dims)
            label = {j: c for c, orbit in enumerate(_orbit_partition(
                points, enumerate_group(a.field, dims, budget))) for j in orbit}
            census = orbit_census(points, a, dims, budget)
            known[make, p, dims] = a, points, gens, census.classes, label
        return known[make, p, dims]

    @hypothesis.settings(max_examples=60)
    @hypothesis.given(st.sampled_from(cases), st.data())
    def check(drawn, data):
        a, points, gens, orbits, label = case(*drawn)
        if not gens:
            return
        subset = data.draw(st.lists(st.sampled_from(gens), min_size=1,
                                    max_size=len(gens), unique_by=id))
        for c in _closure_partition(points, subset)[0]:
            assert len({label[j] for j in c}) == 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scan, "_group_generators", lambda field, dims: subset)
            try:
                census = orbit_census(points, a, drawn[2], budget)
            except ValidationFailure:
                return
        assert census.classes == orbits

    check()


def test_census_rejects_generators_that_miss_part_of_the_group(monkeypatch):
    a = dual_numbers(F2)
    b = small_budget()
    pts = enumerate_points(a, (2, 1), b)
    gens = _group_generators(a.field, (2, 1))
    monkeypatch.setattr(scan, "_group_generators", lambda field, dims: gens[1:])
    with pytest.raises(ValidationFailure, match="isomorphic points"):
        orbit_census(pts, a, (2, 1), b)


def test_closure_checks_each_generator_against_its_inverse():
    a = dual_numbers(F2)
    pts = enumerate_points(a, (2, 1), small_budget())
    (g, ginv), (h, _) = _group_generators(a.field, (2, 1))
    with pytest.raises(ValidationFailure, match="not inverted"):
        _closure_partition(pts, [(g, h)])
    both = GroupElement(g.comps + ((0, Matrix.identity(F2, 1)),))
    with pytest.raises(ValidationFailure, match="exactly one degree"):
        _closure_partition(pts, [(both, ginv)])
    # packed keys name points only within one variety
    others = enumerate_points(a, (1, 2), small_budget())
    with pytest.raises(ValidationFailure, match="different varieties"):
        _closure_partition(pts + others, [(g, ginv)])


# -- rigid census ------------------------------------------------------------

def test_base_field_line_rigid_census():
    a = base_field_algebra(F2)
    report = rigid_census(a, (1, 1), small_budget())
    assert report.census.class_count == 2
    # every term over the base field is projective
    assert report.almost_projective_classes == (0, 1)
    # only the contractible class (identity differential) is rigid
    assert report.rigid_classes == (1,)
    assert report.rigid_class_count == 1


def test_dual_simple_stalk_not_rigid():
    a = dual_numbers(F2)
    report = rigid_census(a, (1,), small_budget())
    assert report.census.class_count == 1
    assert report.rigid_classes == ()


def test_pinned_dual_rigid_census():
    a = dual_numbers(F2)
    reg = regular_module(a)
    report = rigid_census(a, (2, 2), small_budget(),
                          pinned_modules=(reg, reg))
    census = report.census
    assert census.class_count == 3
    # all terms are the regular module, hence projective
    assert report.almost_projective_classes == (0, 1, 2)
    assert report.rigid_class_count == 1
    rigid_rep = census.representatives[report.rigid_classes[0]]
    assert rigid_rep.diff(1).is_invertible()
    # the class of multiplication by x is almost projective but not rigid
    x_mat = a.right_mult_matrix(a.basis_vec(1))
    x_cls = next(c for c, rep in enumerate(census.representatives)
                 if rep.diff(1) == x_mat)
    assert x_cls not in report.rigid_classes


def test_stalk_of_regular_module_rigid():
    a = dual_numbers(F2)
    reg = regular_module(a)
    report = rigid_census(a, (2,), small_budget(), pinned_modules=(reg,))
    assert report.census.class_count == 1
    assert report.rigid_classes == (0,)
    rep = report.census.representatives[0]
    assert classify(rep).is_projective_complex
    assert rep == stalk(reg, 0)


# -- enumeration and partition against the grid walk -------------------------

def grid_points(algebra, dims, pinned_modules=None):
    """Reference enumeration: walk every coordinate of the grid in order
    (module actions, then differentials, last coordinate fastest) and keep
    the candidates that satisfy (alpha), (beta) and (gamma)."""
    field = algebra.field
    elements = field.elements()
    s = algebra.dim
    if pinned_modules is not None:
        per_degree = [[m] for m in pinned_modules]
    else:
        per_degree = []
        for d in dims:
            mods = []
            for combo in itertools.product(elements, repeat=(s - 1) * d * d):
                actions = [Matrix.identity(field, d)] + [
                    Matrix.from_flat(field, d, d, combo[j * d * d:(j + 1) * d * d])
                    for j in range(s - 1)]
                m = ModuleRep(algebra, d, tuple(actions))
                if validate_module(m) is None:
                    mods.append(m)
            per_degree.append(mods)
    shapes = [(dims[k + 1], dims[k]) for k in range(len(dims) - 1)]
    points = []
    for choice in itertools.product(*per_degree):
        for combo in itertools.product(elements,
                                       repeat=sum(r * c for r, c in shapes)):
            blocks, pos = [], 0
            for r, c in shapes:
                blocks.append(Matrix.from_flat(field, r, c, combo[pos:pos + r * c]))
                pos += r * c
            x = ComplexPoint(algebra, 0, tuple(reversed(choice)),
                             tuple(reversed(blocks)))
            if validate_point(x) is None:
                points.append(x)
    return points


def split_cubic(field):
    """K[u]/(u^3 - u) from structure constants on the basis (1, u, u^2):
    the product u * u lands on a basis element after both factors."""
    return algebra_from_constants(
        field, 3, ("1", "u", "u2"),
        {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1, (2, 2, 2): 1})


CENSUS_CASES = [(make, p, dims, None)
                for make in (base_field_algebra, dual_numbers, a2_algebra)
                for p in (2, 3)
                for dims in ((2, 1), (1, 2), (2, 2), (1, 2, 1))]
CENSUS_CASES += [(dual_numbers, 3, (2, 2), "regular"),
                 (split_cubic, 2, (2, 1), None),
                 (split_cubic, 2, (1, 2), None)]


@pytest.mark.parametrize("make, p, dims, pin", CENSUS_CASES)
def test_enumeration_and_partition_match_the_grid_walk(make, p, dims, pin):
    a = make(GF(p))
    budget = small_budget()
    pinned = (regular_module(a),) * len(dims) if pin else None
    if p ** free_coordinate_count(a, dims, pinned is not None) > budget.max_points:
        with pytest.raises(BudgetExceeded):
            enumerate_points(a, dims, budget, pinned)
        return
    points = enumerate_points(a, dims, budget, pinned)
    assert points == grid_points(a, dims, pinned)
    orbits = _orbit_partition(points, enumerate_group(a.field, dims, budget))
    closures, skipped = _closure_partition(points, _group_generators(a.field, dims))
    census = orbit_census(points, a, dims, budget)
    assert _iso_partition(points, budget.seed) == orbits == list(census.classes)
    # an unpinned list holds whole orbits; a pinned one may split them
    assert skipped == (pinned is not None)
    assert closures == orbits if pinned is None else all(
        any(set(c) <= set(o) for o in orbits) for c in closures)


def test_large_single_degree_rigid_scan_is_fast(capsys):
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "algebra_f2.json"
    start = time.perf_counter()
    assert cli_main(["rigid-scan", "--algebra", str(fixture), "--dims", "16"]) == 0
    assert time.perf_counter() - start < 5
