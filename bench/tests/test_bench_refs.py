"""The references against tiny cases worked by hand."""

import ast
import os
import random

import pytest

import exact
import refs
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", ["refs.py", "exact.py"])
def test_references_import_nothing_from_compvar(name):
    with open(os.path.join(BENCH, name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not any(m.split(".")[0] == "compvar" for m in imported)


def test_ext_of_simples():
    assert [refs.ext_simple("dual", n) for n in range(4)] == [1, 1, 1, 1]
    assert [refs.ext_simple("twoloop", n) for n in range(4)] == [1, 2, 4, 8]
    assert refs.ext_simple("a2", 1, 1, 2) == 1
    assert refs.ext_simple("a2", 1, 2, 1) == 0
    assert refs.ext_simple("a2", 2, 1, 2) == 0
    assert refs.ext_simple("a2", 0, 1, 2) == 0


def test_self_ext_is_bi_additive():
    # S+S+A over the dual numbers: four copies of Ext(S,S), nothing from A
    assert refs.self_ext("dual", 3, {"S": 2, "A": 1}) == 4
    assert refs.self_ext("twoloop", 1, {"S": 2}) == 8
    # S1+S1+S2+S2: Ext^1(S1,S2) = 1 counted 2*2 times
    assert refs.self_ext("a2", 1, {"S1": 2, "S2": 2}) == 4
    assert refs.self_ext("a2", 2, {"S1": 2, "S2": 2}) == 0


def test_endomorphism_dimensions():
    # End(S+A) over k[x]/(x^2): Hom(S,S), Hom(S,A), Hom(A,S) are lines and
    # End(A) = A is a plane
    assert refs.end_dim("dual", {"S": 1, "A": 1}) == 5
    assert refs.end_dim("a2", {"S1": 2, "S2": 1}) == 5


def test_scaled_unit_complexes():
    assert refs.scaled(refs.L_UNIT, 2) == {"tangent_dim": 36, "orbit_dim": 32,
                                           "stabilizer_lie_dim": 16,
                                           "derived_hom_dim": 4}
    # orbit = sum of d_i^2 minus the chain endomorphisms
    assert refs.L_UNIT["orbit_dim"] == 3 * 4 - refs.L_UNIT["stabilizer_lie_dim"]
    assert refs.P_UNIT["orbit_dim"] == 1 + 4 - refs.P_UNIT["stabilizer_lie_dim"]


def test_group_orders():
    assert refs.gl_order(2, 2) == 6
    assert refs.gl_order(3, 2) == 48
    assert refs.group_order(2, (2, 2)) == 36


def test_base_field_orbits_and_rigid_classes():
    # ranks (r1, r2) with r1 + r2 <= 1: (0,0), (1,0), (0,1); only the
    # first leaves homology in adjacent degrees
    assert refs.base_field_census((1, 1, 1)) == {"orbit_count": 3,
                                                 "rigid_class_count": 2}
    # one map of rank 0, 1 or 2; only the isomorphism is rigid
    assert refs.base_field_census((2, 2)) == {"orbit_count": 3,
                                              "rigid_class_count": 1}


def test_point_counts():
    # square-zero 2x2 matrices over F_2: zero and three rank-one ones
    assert len(refs.enumerate_points("dual", 2, 2, (2,))) == 4
    # a map F_2 -> F_2 of complexes of vector spaces: two choices
    assert len(refs.enumerate_points("k", 1, 2, (1, 1))) == 2
    # over 1 -> 2 in dimension 2: e2 = 0 or 1 (one point each), or one of
    # six rank-one idempotents with a in Hom(V_1, V_2) (two choices)
    assert len(refs.enumerate_points("a2", 3, 2, (2,))) == 14


def test_brute_force_orbits():
    # S1+S1, S2+S2 (fixed points), S1+S2 and P1 (six points each)
    assert refs.orbit_sizes("a2", 3, 2, (2,)) == [1, 1, 6, 6]
    # zero and the 21 nonzero square-zero 3x3 matrices over F_2
    assert refs.orbit_sizes("dual", 2, 2, (3,)) == [1, 21]
    assert refs.census("dual", 2, 2, (3,))["orbit_count"] == 2


def test_exact_helpers():
    assert exact.rank([[1, 2], [2, 4]]) == 1
    assert exact.rank([[1, 1], [1, 0]], 2) == 2
    assert exact.inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    g, ginv = workloads.unimodular(random.Random(3), 5)
    assert exact.matmul(g, ginv) == exact.identity(5)


def test_checks_reject_wrong_reports(tmp_path):
    inputs = workloads.Inputs(str(tmp_path))
    inputs.alg = {("dual", None): "alg.json"}
    op = workloads._point_op(inputs, random.Random(1), "L", 2, None, "theorem7")
    good = {"tangent_dim": 36, "orbit_dim": 32, "quotient": 4,
            "derived_hom_dim": 4, "verdict": "equality", "dims": [4, 4, 4]}
    assert op.check(good) == []
    assert op.check(dict(good, derived_hom_dim=3))


def test_kept_complex_check():
    good = {"dims": [2, 2], "differentials": [[["0", "0"], ["1", "0"]]]}
    assert workloads._kept_complex_ok(good, [2, 2], [1, 1]) == []
    assert workloads._kept_complex_ok(good, [2, 2], [0, 0])
