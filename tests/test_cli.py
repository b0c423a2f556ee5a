"""JSON schemas and the command-line surface, exercised in-process."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from compvar import cli
from compvar.cli import main
from compvar.complexes import make_complex, stalk
from compvar.errors import (SchemaError, UnsupportedCharacteristic,
                            ValidationFailure)
from compvar.fields import GF, QQ
from compvar.linalg import Matrix
from compvar.modules import direct_sum_modules, regular_module
from compvar.samples import (a2_algebra, axa_complex, base_field_algebra,
                             dual_numbers, simple_over_dual)
from compvar.schemas import (algebra_to_json, complex_to_json, load_json,
                             parse_algebra, parse_complex, parse_complex_file)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


# -- schema round trips ------------------------------------------------------

def test_algebra_table_round_trip():
    for a in (dual_numbers(QQ), a2_algebra(QQ), base_field_algebra(GF(2)),
              dual_numbers(GF(5))):
        assert parse_algebra(algebra_to_json(a)) == a


def test_quiver_fixture_matches_table_fixture_semantics():
    table = parse_algebra(load_json(fx("algebra_q_dual_numbers.json")))
    quiver = parse_algebra(load_json(fx("algebra_q_dual_numbers_quiver.json")))
    assert table == quiver == dual_numbers(QQ)


def test_a2_quiver_fixture():
    a = parse_algebra(load_json(fx("algebra_q_a2_quiver.json")))
    assert a == a2_algebra(QQ)
    assert a.dim == 3


def test_quiver_relation_paths_compose_right_to_left():
    # arrows a: 1->2, b: 2->3; "b*a" is the length-2 path traversing a first
    obj = {"field": {"type": "Q"},
           "quiver": {"vertices": 3,
                      "arrows": [[1, 2, "a"], [2, 3, "b"]],
                      "relations": [[["b*a", "1"]]],
                      "nilpotency_bound": 2}}
    a = parse_algebra(obj)
    # basis: three vertex idempotents (one absorbed into 1) and two arrows
    assert a.dim == 5


def test_complex_round_trip():
    for x in (axa_complex(QQ), stalk(simple_over_dual(QQ), 0),
              axa_complex(GF(3))):
        parsed = parse_complex(complex_to_json(x), x.algebra)
        assert parsed == x


def test_complex_round_trip_is_json_fixpoint():
    x = axa_complex(QQ)
    once = complex_to_json(x)
    again = complex_to_json(parse_complex(once, x.algebra))
    assert once == again


def test_pin_file_parses_without_differentials():
    a = dual_numbers(GF(2))
    pin = parse_complex_file(fx("pin_regular_f2_dual.json"), a,
                             require_differentials=False)
    assert pin.dims() == (2, 2)
    assert pin.diff(1).is_zero()
    assert pin.term(0) == regular_module(a)
    with pytest.raises(SchemaError):
        parse_complex_file(fx("pin_regular_f2_dual.json"), a)


def test_broken_gamma_names_condition_and_degree():
    a = dual_numbers(QQ)
    with pytest.raises(ValidationFailure) as exc:
        parse_complex_file(fx("complex_broken_gamma_q.json"), a)
    assert "(γ) at i=2" in str(exc.value)


def test_schema_errors():
    a = dual_numbers(QQ)
    with pytest.raises(SchemaError):
        parse_complex({"m": 1, "dims": [2]}, a)
    with pytest.raises(SchemaError):
        parse_algebra({"field": {"type": "R"}, "dim": 1,
                       "identity_index": 1, "constants": []})
    with pytest.raises(SchemaError):
        parse_algebra({"field": {"type": "Q"}, "dim": 2,
                       "identity_index": 2, "constants": []})
    with pytest.raises(UnsupportedCharacteristic):
        parse_algebra({"field": {"type": "Fp", "p": 6}, "dim": 1,
                       "identity_index": 1, "constants": []})


def test_scalar_forms():
    a = dual_numbers(QQ)
    obj = complex_to_json(stalk(simple_over_dual(QQ), 0))
    # integers are accepted over Q as exact values
    obj["modules"][0][0] = [[1]]
    parsed = parse_complex(obj, a)
    assert parsed == stalk(simple_over_dual(QQ), 0)
    obj["modules"][0][0] = [[0.5]]
    with pytest.raises(SchemaError):
        parse_complex(obj, a)


def test_malformed_scalar_names_its_entry():
    a = dual_numbers(QQ)
    obj = complex_to_json(axa_complex(QQ))
    obj["modules"][1][1][1][0] = "1/0"
    with pytest.raises(SchemaError, match=r"^complex\.modules\[1\]\[1\]\[1\]\[0\]: "
                       r"bad rational scalar '1/0'$"):
        parse_complex(obj, a)
    obj = complex_to_json(axa_complex(QQ))
    obj["differentials"][0][0][1] = 0.5
    with pytest.raises(SchemaError, match=r"^complex\.differentials\[0\]\[0\]\[1\]: "
                       r"rational scalars are 'num/den' strings or integers, "
                       r"got 0\.5$"):
        parse_complex(obj, a)
    obj = complex_to_json(axa_complex(GF(3)))
    obj["modules"][0][1][0][1] = "1"
    with pytest.raises(SchemaError, match=r"^complex\.modules\[0\]\[1\]\[0\]\[1\]: "
                       r"scalars over F3 are integers, got '1'$"):
        parse_complex(obj, dual_numbers(GF(3)))


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_parsed_equal_terms_are_one_instance(field):
    # L_3 = A^3 --x--> A^3 --x--> A^3 over the dual numbers
    a = dual_numbers(field)
    term = direct_sum_modules([regular_module(a)] * 3)[0]
    x = Matrix.block_diag(field, [a.right_mult_matrix(a.basis_vec(1))] * 3)
    obj = complex_to_json(make_complex(a, 0, (term, term, term), (x, x)))
    parsed = parse_complex(obj, a)
    assert parsed.term(0) is parsed.term(1) is parsed.term(2)
    p2p1 = parse_complex(load_json(fx("complex_p2_p1_a2.json")),
                         parse_algebra(load_json(fx("algebra_q_a2_quiver.json"))))
    assert p2p1.term(0) is not p2p1.term(1)


# -- CLI exit codes ------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_validate_fixture_ok(capsys):
    code = run_cli("validate",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", fx("complex_axa_q.json"))
    assert code == 0
    out = capsys.readouterr().out
    assert "(α), (β), (γ) hold" in out


def test_validate_zero_complex(tmp_path, capsys):
    zero = {"m": 0, "dims": [0], "modules": [[[], []]],
            "differentials": []}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(zero))
    code = run_cli("validate",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", str(path))
    assert code == 0


@pytest.mark.parametrize("m", [0, 1])
def test_strip_acyclic_keeps_the_zero_complex(m, tmp_path, capsys):
    zero = {"m": m, "dims": [0] * (m + 1), "modules": [[[], []]] * (m + 1),
            "differentials": [[]] * m}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(zero))
    code = run_cli("strip-acyclic",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", str(path), "--json")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kept_dims"] == report["stripped_dims"] == [0] * (m + 1)
    assert report["stripped_acyclic"] is True
    assert report["split_ideal_dim"] == 0
    assert report["kept_complex"] == zero


def test_validate_broken_gamma_exits_1(capsys):
    code = run_cli("validate",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", fx("complex_broken_gamma_q.json"))
    assert code == 1
    assert "(γ) at i=2" in capsys.readouterr().err


def test_missing_file_exits_4(capsys):
    code = run_cli("validate", "--algebra", fx("no_such_file.json"),
                   "--complex", fx("complex_axa_q.json"))
    assert code == 4


def test_malformed_json_exits_4_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 1,,}')
    code = run_cli("validate",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", str(bad))
    assert code == 4
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("entry", ["1.0", "1e0", "1_0", " 1", "1 ", "1/2.0", "0x10",
                                   "1/+2", "--1", "", "/2", "\u0661", "1e10000000",
                                   "1e300000000"])
def test_q_scalar_outside_the_grammar_exits_4_naming_the_entry(entry, tmp_path, capsys):
    """A Q scalar string is [+-]?[0-9]+(/[0-9]+)?; anything else, an
    exponent that would take seconds to expand among them, is refused
    before any arithmetic."""
    doc = json.loads(Path(fx("complex_axa_q.json")).read_text())
    doc["modules"][1][1][1][0] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = run_cli("validate", "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", str(bad))
    assert time.perf_counter() - start < 1
    assert code == 4
    assert capsys.readouterr().err.splitlines() == [
        f"error: complex.modules[1][1][1][0]: bad rational scalar {entry!r}"]


@pytest.mark.parametrize("field, entry", [
    (field, entry) for field in (QQ, GF(101)) for entry in (False, True, 0.0, 1.5)
] + [(GF(101), "0")], ids=str)
def test_non_integer_module_entry_exits_4_naming_the_entry(field, entry,
                                                           tmp_path, capsys):
    """Only an exact zero (the int 0, and "0" over Q) skips the scalar
    parser: booleans, floats and "0" over F_p are refused by name."""
    alg, cx = tmp_path / "alg.json", tmp_path / "cx.json"
    alg.write_text(json.dumps(algebra_to_json(dual_numbers(field))))
    doc = complex_to_json(axa_complex(field))
    doc["modules"][1][1][0][1] = entry  # a zero entry of x's action
    cx.write_text(json.dumps(doc))
    assert run_cli("validate", "--algebra", str(alg), "--complex", str(cx)) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: complex.modules[1][1][0][1]: ")
    assert lines[0].endswith(f"got {entry!r}")


def test_q_scalar_grammar_accepts_signs_and_leading_zeros():
    a = dual_numbers(QQ)
    obj = complex_to_json(axa_complex(QQ))
    obj["modules"][0][1][1][0] = "+007/7"
    obj["modules"][0][1][0][0] = "-0/5"
    obj["differentials"][0][1][0] = "+1"
    assert parse_complex(obj, a) == axa_complex(QQ)


@pytest.mark.parametrize("text", ["1" * 5001, "[" * 200000])
def test_json_past_the_decoder_limits_exits_4(text, tmp_path, capsys):
    """An integer literal past Python's 4,300-digit limit raises ValueError
    and deep nesting RecursionError inside the decoder; both are malformed
    input, not a failed validation."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = run_cli("validate", "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", str(bad))
    assert code == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: unreadable JSON: ")


def test_composite_characteristic_exits_2(tmp_path, capsys):
    alg = tmp_path / "f9.json"
    alg.write_text(json.dumps({"field": {"type": "Fp", "p": 9}, "dim": 1,
                               "identity_index": 1, "constants": []}))
    code = run_cli("validate", "--algebra", str(alg),
                   "--complex", fx("complex_axa_q.json"))
    assert code == 2


def test_budget_exits_3(capsys):
    code = run_cli("census",
                   "--algebra", fx("algebra_f2_dual_numbers.json"),
                   "--dims", "2,2", "--max-points", "100")
    assert code == 3


@pytest.mark.parametrize("command", ["census", "rigid-scan"])
@pytest.mark.parametrize("algebra, dims", [
    ("algebra_f2_dual_numbers.json", "70,70"),
    ("algebra_f2_dual_numbers.json", "99999999,99999999"),
    ("algebra_f2.json", "300"),
    ("algebra_f2.json", "99999999"),
])
def test_huge_census_inputs_exit_3_at_once(command, algebra, dims, capsys):
    start = time.perf_counter()
    code = run_cli(command, "--algebra", fx(algebra), "--dims", dims)
    elapsed = time.perf_counter() - start
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: budget exceeded")
    assert elapsed < 1.0


def test_memory_error_exits_3_with_one_error_line(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "census", exhausted)
    code = run_cli("census", "--algebra", fx("algebra_f2.json"), "--dims", "1")
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: budget exceeded: out of memory"]


def test_census_of_one_large_degree_is_fast(capsys):
    # one generator per entry off the diagonal: each is the identity with
    # one entry changed, and the walk reads only that entry
    start = time.perf_counter()
    code = run_cli("census", "--algebra", fx("algebra_f2.json"), "--dims", "48",
                   "--json")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out)["orbit_count"] == 1
    assert elapsed < 1.0


TWO_LOOPS = {"vertices": 1, "arrows": [[1, 1, "x"], [1, 1, "y"]],
             "relations": []}


@pytest.mark.parametrize("algebra", [
    {"quiver": dict(TWO_LOOPS, nilpotency_bound=8)},   # 255 paths
    {"quiver": dict(TWO_LOOPS, nilpotency_bound=40)},  # 2^40 - 1 paths
    {"dim": 1000000, "identity_index": 1, "constants": []},
])
def test_oversized_algebras_exit_3_at_once(tmp_path, algebra):
    # in a child process with bounded memory: before the parse was bounded,
    # these ran for seconds or grew until the process was killed
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(dict(algebra, field={"type": "Fp", "p": 2})))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run(
        [sys.executable, "-m", "compvar.cli", "census", "--algebra",
         str(path), "--dims", "1"], capture_output=True, text=True,
        env=env, preexec_fn=limit_memory, timeout=10)
    assert done.returncode == 3
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: budget exceeded")
    assert "64" in lines[0]


def test_unbounded_replacement_tower_exits_3(capsys):
    # the simple over dual numbers has an infinite projective resolution
    start = time.perf_counter()
    code = run_cli("derived-hom",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", fx("complex_stalk_simple_q.json"),
                   "--shift", "1000000000")
    elapsed = time.perf_counter() - start
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: budget exceeded")
    assert elapsed < 10.0


def test_projective_complex_answers_any_shift(capsys):
    code = run_cli("derived-hom",
                   "--algebra", fx("algebra_q_a2_quiver.json"),
                   "--complex", fx("complex_p2_p1_a2.json"),
                   "--shift", "1000000000", "--json")
    assert code == 0
    assert json.loads(capsys.readouterr().out)["derived_hom_dim"] == 0


def test_tangent_command_builds_the_tangent_system_once(monkeypatch, capsys):
    import compvar.tangent as tangent_module
    built = []
    build = tangent_module.tangent_system_matrix
    monkeypatch.setattr(tangent_module, "tangent_system_matrix",
                        lambda x, layout: (built.append(x), build(x, layout))[1])
    code = run_cli("tangent",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", fx("complex_axa_q.json"), "--json")
    assert code == 0
    assert json.loads(capsys.readouterr().out)["tangent_dim"] == 6
    assert len(built) == 1


def test_theorem7_covers_and_homs_each_term_value_once(monkeypatch, capsys):
    import compvar.complexes as complexes_module
    import compvar.modules as modules_module
    covered, homs = [], []
    cover, hom = modules_module.projective_cover, modules_module.hom_matrices
    monkeypatch.setattr(modules_module, "projective_cover",
                        lambda m: (covered.append(m), cover(m))[1])
    monkeypatch.setattr(complexes_module, "hom_matrices",
                        lambda m, n: (homs.append((m, n)), hom(m, n))[1])
    code = run_cli("theorem7",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", fx("complex_axa_q.json"), "--json")
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "equality"
    # both terms are the regular module: one instance, one cover, and one
    # Hom_A(X_i, X_i) for the homotopies of Hom(X, X[1])
    assert len(covered) == 1
    assert len(homs) == 1 and homs[0][0] is homs[0][1] is covered[0]


def test_bad_usage_exits_4(capsys):
    assert run_cli("census", "--algebra", fx("algebra_f2.json")) == 4
    assert run_cli("census", "--algebra", fx("algebra_f2.json"),
                   "--dims", "one,two") == 4
    capsys.readouterr()
    # a budget is a positive integer, and the group has no budget of its own
    census = ("census", "--algebra", fx("algebra_f2.json"))
    point = ("--algebra", fx("algebra_q_dual_numbers_quiver.json"),
             "--complex", fx("complex_stalk_simple_q.json"))
    for argv in (
            census + ("--dims", "1,1", "--max-points", "0"),
            census + ("--dims", "1,1", "--max-points", "-5"),
            census + ("--dims", "1,1", "--max-points", "many"),
            census + ("--dims", "1,1", "--max-group-elements", "100"),
            # integers are ASCII digits only: no '_', no other scripts,
            # no spaces, and no sign on a dimension or a budget
            census + ("--dims", "1,1", "--max-points", "\u0661\u0660"),
            census + ("--dims", "1,1", "--max-points", "+10"),
            census + ("--dims", "\u0661,\u0661"),
            census + ("--dims", "-1"),
            census + ("--dims", "1, 1"),
            census + ("--dims", ""),
            census + ("--dims", "1,1", "--seed", "1_2"),
            ("derived-hom",) + point + ("--shift", "1_0"),
            ("derived-hom",) + point + ("--shift", "\u0662"),
            ("derived-hom",) + point + ("--shift", " 1"),
            ("derived-hom",) + point + ("--shift", "+"),
            ("voigt",) + point + ("--degree", "\u0662")):
        assert run_cli(*argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


def test_signed_integer_options_keep_their_sign(capsys):
    point = ("--algebra", fx("algebra_q_dual_numbers_quiver.json"),
             "--complex", fx("complex_axa_q.json"), "--json")
    for text, shift in (("-1", -1), ("+2", 2), ("0", 0)):
        assert run_cli("derived-hom", *point, "--shift", text, "--seed", text) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["shift"] == report["seed"] == shift


def test_parser_is_built_once_and_reused(capsys):
    from compvar.cli import build_parser
    assert build_parser() is build_parser()
    assert run_cli("validate",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", fx("complex_axa_q.json")) == 0
    # the shared parser still rejects bad usage after a successful run
    assert run_cli("validate", "--algebra", fx("algebra_f2.json")) == 4
    assert run_cli("census", "--algebra", fx("algebra_f2.json")) == 4
    assert run_cli("validate",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", fx("complex_axa_q.json")) == 0
    capsys.readouterr()


# -- CLI reports -----------------------------------------------------------------

def test_theorem7_json_report(capsys):
    code = run_cli("theorem7",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", fx("complex_axa_q.json"), "--json")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tangent_dim"] == 6
    assert report["orbit_dim"] == 5
    assert report["quotient"] == 1
    assert report["derived_hom_dim"] == 1
    assert report["verdict"] == "equality"
    assert report["version"]
    assert report["seed"] == 0
    assert set(report["inputs"]) == {"algebra", "complex"}
    assert len(report["inputs"]["complex"]["sha256"]) == 64


def test_theorem7_text_mirrors_notation(capsys):
    run_cli("theorem7",
            "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
            "--complex", fx("complex_axa_q.json"))
    out = capsys.readouterr().out
    assert "T_X(Comp^A_d)" in out
    assert "T_X(G.X)" in out
    assert "Hom_{D^b}(X,X[1])" in out


def test_reports_stable_across_reruns(capsys):
    args = ("rigid-scan", "--algebra", fx("algebra_f2.json"),
            "--dims", "1,1", "--seed", "11", "--json")
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert report["orbit_count"] == 2
    assert report["rigid_class_count"] == 1
    assert report["group_checked"] is True
    assert report["label"] == "finite-field census"


def test_census_pinned_report(capsys):
    code = run_cli("census",
                   "--algebra", fx("algebra_f2_dual_numbers.json"),
                   "--dims", "2,2", "--pin", fx("pin_regular_f2_dual.json"),
                   "--json")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["point_count"] == 4
    assert report["orbit_count"] == 3
    assert report["group_order"] == 36
    assert report["group_checked"] is True
    assert report["pinned"] is True


def test_census_pinned_beyond_the_old_group_gate(tmp_path, capsys):
    # regular dual numbers over F_3 in three degrees: |G| = 110,592, and the
    # classes still come from the group under the default budgets
    a = dual_numbers(GF(3))
    reg = regular_module(a)
    zero = Matrix.zeros(a.field, 2, 2)
    algebra, pin = tmp_path / "algebra.json", tmp_path / "pin.json"
    algebra.write_text(json.dumps(algebra_to_json(a)))
    pin.write_text(json.dumps(complex_to_json(
        make_complex(a, 0, (reg,) * 3, (zero, zero)))))
    code = run_cli("census", "--algebra", str(algebra), "--dims", "2,2,2",
                   "--pin", str(pin), "--json")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["point_count"] == 21
    assert report["class_sizes"] == [1, 2, 6, 2, 4, 6]
    assert report["group_order"] == 110592
    assert report["group_checked"] is True


def test_report_dir_written(tmp_path, capsys):
    code = run_cli("tangent",
                   "--algebra", fx("algebra_q_dual_numbers.json"),
                   "--complex", fx("complex_axa_q.json"),
                   "--report-dir", str(tmp_path / "reports"))
    assert code == 0
    payload = json.loads((tmp_path / "reports" / "tangent-report.json")
                         .read_text())
    assert payload["tangent_dim"] == 6
    assert payload["orbit_dim"] == 5
    assert payload["stabilizer_lie_dim"] == 3


def test_derived_hom_other_complex(capsys):
    code = run_cli("derived-hom",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", fx("complex_stalk_simple_q.json"),
                   "--other", fx("complex_stalk_regular_q.json"),
                   "--shift", "0", "--json")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    # Hom(S, A) = soc(A) is one-dimensional over the dual numbers
    assert report["derived_hom_dim"] == 1
    assert report["shift"] == 0


def test_strip_acyclic_reports_split(capsys):
    code = run_cli("strip-acyclic",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", fx("complex_axa_q.json"), "--json")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kept_dims"] == [2, 2]
    assert report["stripped_dims"] == [0, 0]
    assert report["stripped_acyclic"] is True
    # the kept complex serializes back to the input point
    a = dual_numbers(QQ)
    assert parse_complex(report["kept_complex"], a) == axa_complex(QQ)


def test_voigt_simple_module_equality(capsys):
    code = run_cli("voigt",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", fx("complex_stalk_simple_q.json"), "--json")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quotient"] == 1
    assert report["ext1_dim"] == 1
    assert report["verdict"] == "equality"


def test_voigt_projective_module(capsys):
    code = run_cli("voigt",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", fx("complex_stalk_regular_q.json"), "--json")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quotient"] == 0
    assert report["ext1_dim"] == 0


def test_voigt_rejects_longer_complex(capsys):
    code = run_cli("voigt",
                   "--algebra", fx("algebra_q_dual_numbers_quiver.json"),
                   "--complex", fx("complex_axa_q.json"))
    assert code == 1


def test_p2_p1_fixture_theorem7(capsys):
    code = run_cli("theorem7",
                   "--algebra", fx("algebra_q_a2_quiver.json"),
                   "--complex", fx("complex_p2_p1_a2.json"), "--json")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "equality"
    assert report["quotient"] == report["derived_hom_dim"]
