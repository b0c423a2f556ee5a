"""Golden JSON reports: every subcommand on the fixtures, byte for byte.

Each case runs ``compvar <subcommand> ... --json`` in-process from the
repository root with relative ``fixtures/...`` paths (the paths are part of
the report) and compares stdout with ``tests/golden/<name>.json``.

A deliberate change to a report regenerates the files with
``PYTHONPATH=src python tests/test_golden_reports.py``; review the diff.
The ``heavy-`` cases read larger inputs from ``tests/heavy/``, which
``tests/heavy_inputs.py`` writes from fixed seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from compvar.cli import main
from compvar.complexes import stalk
from compvar.modules import direct_sum_modules, regular_module, simple_modules
from compvar.schemas import complex_to_json, load_json, parse_algebra

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

Q_DUAL = "fixtures/algebra_q_dual_numbers_quiver.json"
Q_DUAL_TABLE = "fixtures/algebra_q_dual_numbers.json"
Q_A2 = "fixtures/algebra_q_a2_quiver.json"
F2 = "fixtures/algebra_f2.json"
F2_DUAL = "fixtures/algebra_f2_dual_numbers.json"
AXA = "fixtures/complex_axa_q.json"
P2P1 = "fixtures/complex_p2_p1_a2.json"
SIMPLE = "fixtures/complex_stalk_simple_q.json"
REGULAR = "fixtures/complex_stalk_regular_q.json"
PIN = "fixtures/pin_regular_f2_dual.json"
HEAVY = "tests/heavy/"

# (algebra, complex, short name) for every valid complex fixture
POINTS = [
    (Q_DUAL, AXA, "axa"),
    (Q_A2, P2P1, "p2p1"),
    (Q_DUAL, SIMPLE, "simple"),
    (Q_DUAL, REGULAR, "regular"),
]


def _cases() -> dict:
    cases = {}
    for alg, cx, short in POINTS:
        for cmd in ("validate", "tangent", "theorem7", "strip-acyclic"):
            cases[f"{cmd}-{short}"] = [cmd, "--algebra", alg, "--complex", cx]
        for n in (0, 1, 2):
            cases[f"derived-hom-{short}-shift{n}"] = [
                "derived-hom", "--algebra", alg, "--complex", cx,
                "--shift", str(n)]
    cases["validate-axa-table"] = ["validate", "--algebra", Q_DUAL_TABLE,
                                   "--complex", AXA]
    cases["derived-hom-simple-regular-shift0"] = [
        "derived-hom", "--algebra", Q_DUAL, "--complex", SIMPLE,
        "--other", REGULAR, "--shift", "0"]
    cases["derived-hom-regular-simple-shift1"] = [
        "derived-hom", "--algebra", Q_DUAL, "--complex", REGULAR,
        "--other", SIMPLE, "--shift", "1"]
    for short, cx in (("simple", SIMPLE), ("regular", REGULAR)):
        cases[f"voigt-{short}"] = ["voigt", "--algebra", Q_DUAL,
                                   "--complex", cx]
        cases[f"voigt-{short}-degree2"] = ["voigt", "--algebra", Q_DUAL,
                                           "--complex", cx, "--degree", "2"]
    for cmd in ("census", "rigid-scan"):
        cases[f"{cmd}-f2-1-1"] = [cmd, "--algebra", F2, "--dims", "1,1",
                                  "--seed", "3"]
        cases[f"{cmd}-f2-2-1-0"] = [cmd, "--algebra", F2, "--dims", "2,1,0"]
        cases[f"{cmd}-f2dual-1-1"] = [cmd, "--algebra", F2_DUAL,
                                      "--dims", "1,1"]
        cases[f"{cmd}-f2dual-2-1"] = [cmd, "--algebra", F2_DUAL,
                                      "--dims", "2,1"]
        cases[f"{cmd}-f2dual-pinned"] = [cmd, "--algebra", F2_DUAL,
                                         "--dims", "2,2", "--pin", PIN]
    cases["rigid-scan-f2dual-2-2-2"] = ["rigid-scan", "--algebra", F2_DUAL,
                                        "--dims", "2,2,2",
                                        "--max-points", "2000000"]
    for short, alg in (("dual-2", Q_DUAL), ("dual-3", Q_DUAL), ("a2-4", Q_A2)):
        cases[f"strip-acyclic-heavy-{short}"] = [
            "strip-acyclic", "--algebra", alg,
            "--complex", f"{HEAVY}strip-{short}.json"]
    for short in ("a3-q", "a3-f101", "a5-q", "a5-f101"):
        cases[f"theorem7-heavy-{short}"] = [
            "theorem7", "--algebra", f"{HEAVY}{short}.json",
            "--complex", f"{HEAVY}{short}-stalk.json"]
    for n in (0, 1, 2):
        cases[f"derived-hom-heavy-dual-sum-shift{n}"] = [
            "derived-hom", "--algebra", Q_DUAL,
            "--complex", f"{HEAVY}dual-sum.json", "--shift", str(n)]
    return cases


CASES = _cases()


def _run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv) + ["--json"])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = _run(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("short", ["a3-q", "a3-f101"])
def test_moved_stalk_reports_the_numbers_of_its_block_form(short, tmp_path,
                                                           monkeypatch):
    """theorem7 on the stalk of A + S1 + S2 + S3 over A_3 in block form
    gives the dimensions and verdict pinned for its moved copy."""
    monkeypatch.chdir(ROOT)
    algebra = f"{HEAVY}{short}.json"
    a3 = parse_algebra(load_json(algebra))
    m = direct_sum_modules([regular_module(a3)] + simple_modules(a3))[0]
    block = tmp_path / "block.json"
    block.write_text(json.dumps(complex_to_json(stalk(m))), encoding="utf-8")
    code, out = _run(["theorem7", "--algebra", algebra, "--complex", str(block)])
    assert code == 0
    keys = ("dims", "tangent_dim", "orbit_dim", "quotient", "derived_hom_dim",
            "verdict")
    moved = json.loads((GOLDEN / f"theorem7-heavy-{short}.json").read_text())
    assert [json.loads(out)[k] for k in keys] == [moved[k] for k in keys] \
        == [[9], 70, 66, 4, 4, "embedding"]


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.json").write_text(out, encoding="utf-8")
    print(f"wrote {len(CASES)} golden reports to {GOLDEN}")
