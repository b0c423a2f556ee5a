"""Acceptance suite: one test per headline guarantee of the package.

Every check is exact (no tolerances).  Each test prints a single PASS line
with the evidence counts; a failing criterion fails its test.
"""

import random

import pytest

from compvar.algebra import center
from compvar.complexes import (GroupElement, act, classify,
                               complexes_isomorphic, direct_sum, homology,
                               homology_dims, identity_chain_map, is_acyclic,
                               make_complex, mapping_cone, shift, stalk,
                               validate_point, chain_map_from_components)
from compvar.derived import acyclic_splitter, derived_hom_dim, end_algebra
from compvar.fields import GF, QQ
from compvar.linalg import Matrix
from compvar.modules import (direct_sum_modules, ext1_dim_oracle,
                             hom_matrices, hom_space, indecomposable_projectives,
                             is_projective, make_module, regular_module,
                             simple_modules)
from compvar.samples import (a2_algebra, axa_complex, base_field_algebra,
                             contractible_pair, dual_numbers,
                             p2_to_p1_complex, regular_stalk,
                             simple_over_dual, two_loop_truncated)
from compvar.scan import (ScanBudget, enumerate_group, enumerate_points,
                          orbit_census, rigid_census)
from compvar.tangent import (TangentVector, chi, chi_splitting,
                             corollary8_check, eta_kernel, orbit_tangent,
                             tangent_space, verify_theorem7, voigt_check)


def _random_group_element(field, x, rng):
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


def _line(algebra, module, entries):
    """Complex with identical terms and the given differential matrices,
    listed top-down."""
    terms = tuple(module for _ in range(len(entries) + 1))
    diffs = tuple(reversed([Matrix.from_rows(algebra.field, e)
                            for e in entries]))
    return make_complex(algebra, 0, terms, diffs)


def _projective_fixtures():
    """Projective complexes over Q, Q[x]/(x^2), and the path algebra of
    1 -> 2, all with total dimension at most 8."""
    cases = []
    k = base_field_algebra(QQ)
    kreg = regular_module(k)
    cases.append(stalk(kreg, 0))
    cases.append(_line(k, kreg, [[[0]]]))
    cases.append(_line(k, kreg, [[[1]]]))
    cases.append(_line(k, kreg, [[[1]], [[0]]]))

    a = dual_numbers(QQ)
    areg = regular_module(a)
    rx = a.right_mult_matrix(a.basis_vec(1))
    cases.append(regular_stalk(a, 0))
    cases.append(axa_complex(QQ))
    cases.append(contractible_pair(QQ))
    cases.append(make_complex(a, 0, (areg, areg),
                              (Matrix.zeros(QQ, 2, 2),)))
    cases.append(make_complex(a, 0, (areg, areg, areg), (rx, rx)))

    a2 = a2_algebra(QQ)
    cases.append(p2_to_p1_complex(QQ))
    cases.append(regular_stalk(a2, 0))
    return cases


def _almost_projective_fixtures():
    """Almost projective complexes whose top term is not projective."""
    cases = []
    for field in (QQ, GF(5)):
        a = dual_numbers(field)
        s = simple_over_dual(field) if field == QQ else None
        if s is None:
            s = make_module(a, [Matrix.identity(field, 1),
                                Matrix.zeros(field, 1, 1)])
        reg = regular_module(a)
        soc = hom_matrices(s, reg)
        assert len(soc) == 1
        cases.append(stalk(s, 0))
        cases.append(stalk(s, 1))
        cases.append(make_complex(a, 0, (reg, s), (soc[0],)))
        cases.append(make_complex(a, 0, (reg, s),
                                  (Matrix.zeros(field, 2, 1),)))
    a = dual_numbers(QQ)
    s = simple_over_dual(QQ)
    two = direct_sum_modules([s, s])[0]
    cases.append(stalk(two, 0))
    cases.append(direct_sum(stalk(s, 1), regular_stalk(a, 0)))
    a2 = a2_algebra(QQ)
    nonproj = [m for m in simple_modules(a2) if not is_projective(m)]
    cases.extend(stalk(m, 0) for m in nonproj)
    t = two_loop_truncated(QQ)
    treg = regular_module(t)
    tsimple = make_module(t, [Matrix.identity(QQ, 1)]
                          + [Matrix.zeros(QQ, 1, 1)] * 2)
    cases.append(stalk(tsimple, 0))
    cases.append(make_complex(t, 0, (treg, tsimple),
                              (hom_matrices(tsimple, treg)[0],)))
    return cases


def test_criterion_1_tangent_quotient_equals_derived_hom_on_projectives():
    rng = random.Random(101)
    cases = list(_projective_fixtures())
    for base in cases[:5]:
        g = _random_group_element(base.field, base, rng)
        cases.append(act(g, base))
    assert len(cases) >= 10
    for x in cases:
        assert sum(x.dims()) <= 8
        assert classify(x).is_projective_complex
        report = verify_theorem7(x)
        assert report["verdict"] == "equality"
        assert report["tangent_dim"] - report["orbit_dim"] == \
            report["derived_hom_dim"]
    print(f"\nPASS criterion 1: tangent quotient = dim Hom(X,X[1]) on "
          f"{len(cases)} projective complexes (exact)")


def test_criterion_2_embedding_bound_on_almost_projectives():
    rng = random.Random(202)
    cases = list(_almost_projective_fixtures())
    for base in cases[:3]:
        g = _random_group_element(base.field, base, rng)
        cases.append(act(g, base))
    assert len(cases) >= 10
    for x in cases:
        cls = classify(x)
        assert cls.is_almost_projective and not cls.is_projective_complex
        report = verify_theorem7(x)
        assert report["verdict"] == "embedding"
        assert report["quotient"] <= report["derived_hom_dim"]
    print(f"\nPASS criterion 2: tangent quotient <= dim Hom(X,X[1]) on "
          f"{len(cases)} almost projective complexes")


def test_criterion_3_module_variety_quotient_bounded_by_ext():
    a = dual_numbers(QQ)
    a2 = a2_algebra(QQ)
    t = two_loop_truncated(QQ)
    a3 = dual_numbers(GF(3))
    s3 = make_module(a3, [Matrix.identity(GF(3), 1),
                          Matrix.zeros(GF(3), 1, 1)])
    p1, p2 = [p for p, _ in indecomposable_projectives(a2)]
    modules = [simple_over_dual(QQ), regular_module(a),
               p1, p2, regular_module(a2), regular_module(t), s3,
               direct_sum_modules(list(simple_modules(a2)))[0]]
    modules += list(simple_modules(a2))
    modules += simple_modules(t)
    checked = equalities = 0
    for m in modules:
        report = voigt_check(m)   # raises if quotient > ext
        assert report["quotient"] <= report["ext1_dim"]
        checked += 1
        if report["equality"]:
            equalities += 1
    # curated equalities
    simple_report = voigt_check(simple_over_dual(QQ))
    assert simple_report["quotient"] == simple_report["ext1_dim"] == 1
    for proj in (regular_module(a), p1, p2, regular_module(a2)):
        report = voigt_check(proj)
        assert report["quotient"] == report["ext1_dim"] == 0
        assert report["equality"]
    print(f"\nPASS criterion 3: module tangent quotient <= dim Ext^1 on "
          f"{checked} modules ({equalities} with equality, curated cases "
          f"exact)")


def test_criterion_4_eta_kernel_equals_orbit_tangent():
    cases = _projective_fixtures()
    for x in cases:
        layout, kernel, image_dim = eta_kernel(x)
        layout2, orbit, _stab = orbit_tangent(x)
        assert layout.keys == layout2.keys
        assert kernel.contains_subspace(orbit)
        assert orbit.contains_subspace(kernel)
        assert kernel == orbit
        assert image_dim == derived_hom_dim(x, x, 1)
    print(f"\nPASS criterion 4: ker(eta) = orbit tangent space "
          f"(both inclusions) on {len(cases)} projective complexes")


def test_criterion_5_chi_extensions_split_exactly_on_orbit_vectors():
    rng = random.Random(505)
    fixtures = [axa_complex(QQ), axa_complex(GF(3)), contractible_pair(QQ),
                p2_to_p1_complex(QQ), stalk(simple_over_dual(QQ), 0)]
    total = split_count = 0
    for x in fixtures:
        layout, tspace = tangent_space(x)
        _, orbit, _ = orbit_tangent(x)
        for _ in range(20):
            coeffs = [x.field.coerce(rng.randint(-3, 3))
                      for _ in range(tspace.dim)]
            flat = [x.field.zero()] * layout.ambient_dim
            for c, b in zip(coeffs, tspace.basis):
                flat = [x.field.add(u, x.field.mul(c, w))
                        for u, w in zip(flat, b)]
            flat = tuple(flat)
            if total % 2 == 1 and not orbit.is_zero():
                # v minus its residue mod the orbit is an orbit member
                flat = tuple(x.field.sub(u, w)
                             for u, w in zip(flat, orbit.reduce(flat)))
            v = TangentVector(x, layout.unflatten(flat))
            z, inc, proj = chi(x, v)
            assert validate_point(z) is None
            assert z.dims() == tuple(2 * d for d in x.dims())
            assert inc.validate() is None and proj.validate() is None
            assert inc.then(proj).is_zero()
            in_orbit = orbit.contains(flat)
            section = chi_splitting(x, v)
            assert (section is not None) == in_orbit
            if section is not None:
                split_count += 1
            total += 1
    assert total == 100
    assert 0 < split_count < total
    print(f"\nPASS criterion 5: chi built {total} validating double "
          f"complexes; section exists iff tangent vector is an orbit "
          f"direction ({split_count} split)")


def test_criterion_6_finite_field_censuses():
    budget = ScanBudget(max_points=10 ** 4, seed=3)
    f2 = base_field_algebra(GF(2))
    f2d = dual_numbers(GF(2))
    reg = regular_module(f2d)

    # headline instance: two orbits, one rigid class
    line = rigid_census(f2, (1, 1), budget)
    assert line.census.class_count == 2
    assert line.rigid_class_count == 1

    instances = [
        (f2, (1, 1), None),
        (f2, (2,), None),
        (f2, (1, 1, 1), None),
        (f2d, (1,), None),
        (f2d, (2, 2), (reg, reg)),
        (f2d, (2,), (reg,)),
    ]
    rigid_total = 0
    for algebra, dims, pinned in instances:
        report = rigid_census(algebra, dims, budget, pinned_modules=pinned)
        census = report.census
        assert census.point_count <= budget.max_points
        # Observation 1: every class is the part of one orbit of the whole
        # group that lies in the point list
        points = enumerate_points(algebra, dims, budget, pinned)
        group = enumerate_group(algebra.field, dims, budget)
        assert len(group) == census.group_order
        for members, rep in zip(census.classes, census.representatives):
            orbit = {act(g, rep) for g in group}
            assert members == tuple(j for j, x in enumerate(points) if x in orbit)
        for c in report.rigid_classes:
            assert corollary8_check(census.representatives[c])
            rigid_total += 1
    # hand-enumerated class structure for the pinned instance
    pinned_report = rigid_census(f2d, (2, 2), budget,
                                 pinned_modules=(reg, reg))
    assert pinned_report.census.point_count == 4
    assert pinned_report.census.class_count == 3
    assert pinned_report.rigid_class_count == 1
    print(f"\nPASS criterion 6: censuses over F2 and F2[x]/(x^2) "
          f"({len(instances)} instances, each checked against the whole "
          f"group, {rigid_total} rigid classes all with open "
          f"orbits; d=(1,1) gives 2 orbits / 1 rigid class)")


def test_criterion_7_acyclic_splitter_strips_contractible_summands():
    a = dual_numbers(QQ)
    a2 = a2_algebra(QQ)
    k = base_field_algebra(QQ)
    contractible_a2 = make_complex(
        a2, 0, (regular_module(a2), regular_module(a2)),
        (Matrix.identity(QQ, 3),))
    contractible_k = _line(k, regular_module(k), [[[1]]])
    with_summand = [
        (axa_complex(QQ), contractible_pair(QQ)),
        (regular_stalk(a, 0), contractible_pair(QQ)),
        (stalk(simple_over_dual(QQ), 0), contractible_pair(QQ)),
        (axa_complex(QQ), shift(contractible_pair(QQ), 1)),
        (p2_to_p1_complex(QQ), contractible_a2),
        (stalk(regular_module(k), 0), contractible_k),
    ]
    for y, c in with_summand:
        assert is_acyclic(c)
        x = direct_sum(y, c)
        result = acyclic_splitter(x)
        assert is_acyclic(result.xcomp)
        lo = min(result.xe.bottom, y.bottom)
        hi = max(result.xe.top, y.top)
        assert all(homology(result.xe, i).dim == homology(y, i).dim
                   for i in range(lo, hi + 1))
        assert complexes_isomorphic(result.xe, y, seed=9).found
    minimal = [axa_complex(QQ), regular_stalk(a, 0),
               stalk(simple_over_dual(QQ), 0), p2_to_p1_complex(QQ)]
    for x in minimal:
        result = acyclic_splitter(x)
        assert result.xe == x
        assert result.xcomp.total_dim() == 0
        assert result.e == identity_chain_map(x)
    print(f"\nPASS criterion 7: splitter removed the contractible summand "
          f"in {len(with_summand)} fixtures and kept {len(minimal)} "
          f"minimal complexes whole (e = 1)")


def test_criterion_8_center_dimension_matches_endomorphism_algebra():
    a2 = a2_algebra(QQ)
    reg = regular_module(a2)
    candidates = [m for m in simple_modules(a2)
                  if hom_space(m, reg).dim == 0]
    assert len(candidates) == 1
    m = candidates[0]
    assert not is_projective(m)
    assert hom_space(m, reg).dim == 0          # Hom(M, A) = 0, confirmed
    am = direct_sum_modules([reg, m])[0]
    package = end_algebra(stalk(am, 0))
    b = package.bhat
    assert b.dim == 5
    assert package.H.dim == 0
    dim_center_a = center(a2).dim
    dim_center_b = center(b).dim
    assert dim_center_a == dim_center_b == 1
    print(f"\nPASS criterion 8: dim Z(A) = dim Z(End(A + M)) = "
          f"{dim_center_a} with Hom(M, A) = 0 over the 1 -> 2 path algebra")


def test_criterion_9_infrastructure_invariants_randomized():
    rng = random.Random(909)
    cases = 0

    # exact rank-nullity on random matrices over Q, F2, F5
    for _ in range(80):
        field = (QQ, GF(2), GF(5))[rng.randrange(3)]
        nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
        m = Matrix.from_rows(field, [[field.coerce(rng.randint(-4, 4))
                                      for _ in range(ncols)]
                                     for _ in range(nrows)]) \
            if nrows else Matrix.zeros(field, 0, ncols)
        assert m.rank() + m.kernel().dim == ncols
        assert m.rank() == m.transpose().rank()
        cases += 1

    pool = [axa_complex(QQ), axa_complex(GF(3)), contractible_pair(QQ),
            p2_to_p1_complex(QQ), stalk(simple_over_dual(QQ), 0),
            _line(dual_numbers(QQ), regular_module(dual_numbers(QQ)),
                  [[[0, 0], [1, 0]], [[0, 0], [1, 0]]])]

    # the group action preserves the variety and every computed dimension
    for i in range(60):
        x = pool[rng.randrange(len(pool))]
        g = _random_group_element(x.field, x, rng)
        y = act(g, x)
        assert validate_point(y) is None
        assert y.dims() == x.dims()
        assert homology_dims(y) == homology_dims(x)
        assert y.euler_characteristic() == x.euler_characteristic()
        alternating = sum((-1) ** (d % 2) * homology(x, d).dim
                          for d in x.degrees())
        assert alternating == x.euler_characteristic()
        if i % 6 == 0:
            _, tx = tangent_space(x)
            _, ty = tangent_space(y)
            _, ox, sx = orbit_tangent(x)
            _, oy, sy = orbit_tangent(y)
            assert (tx.dim, ox.dim, sx) == (ty.dim, oy.dim, sy)
        cases += 1

    # differentials square to zero and Euler characteristic is additive
    for _ in range(60):
        x = pool[rng.randrange(len(pool))]
        partners = [p for p in pool if p.algebra == x.algebra]
        y = partners[rng.randrange(len(partners))]
        s = direct_sum(x, y)
        assert validate_point(s) is None
        assert s.euler_characteristic() == \
            x.euler_characteristic() + y.euler_characteristic()
        cone = mapping_cone(chain_map_from_components(
            x, x, 0, {i: Matrix.zeros(x.field, x.dim_at(i), x.dim_at(i))
                      for i in x.degrees()}))
        assert validate_point(cone) is None
        assert cone.euler_characteristic() == 0
        cone_id = mapping_cone(identity_chain_map(x))
        assert validate_point(cone_id) is None
        assert is_acyclic(cone_id)
        cases += 1

    assert cases == 200
    print(f"\nPASS criterion 9: {cases} randomized infrastructure checks "
          f"(rank-nullity, action invariance, d^2 = 0, Euler "
          f"characteristic), zero failures")
