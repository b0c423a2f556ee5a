"""The traced run: wrapping, imported names, static methods, repeatability."""

import importlib
import random
import sys

import pytest

import run
import trace_layers
import workloads


@pytest.fixture
def cli():
    return importlib.import_module("compvar.cli")


@pytest.fixture
def tracer(cli):
    t = trace_layers.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_call_through_imported_name_is_counted(tracer):
    complexes = sys.modules["compvar.complexes"]
    samples = importlib.import_module("compvar.samples")
    fields = sys.modules["compvar.fields"]
    tracer.begin_op(0)
    complexes.classify(samples.axa_complex(fields.QQ))
    # classify calls is_projective through the name complexes imported
    assert tracer.counts["modules.is_projective.calls"] == 2
    assert tracer.counts["modules.is_projective.distinct"] == 1
    assert tracer.counts["complexes.classify.calls"] == 1


def test_from_vectors_stays_static(tracer):
    linalg = sys.modules["compvar.linalg"]
    fields = sys.modules["compvar.fields"]
    assert isinstance(linalg.Subspace.__dict__["from_vectors"], staticmethod)
    space = linalg.Subspace.from_vectors(fields.QQ, 2, ((1, 0), (2, 0)))
    again = space.from_vectors(fields.QQ, 2, (v for v in [(0, 1)]))
    assert (space.dim, again.dim) == (1, 1)
    assert tracer.counts["linalg.subspace.calls"] == 2
    assert tracer.counts["linalg.subspace.cells"] == 2 * 2 + 1 * 2


def test_uninstall_restores_originals(cli):
    linalg = sys.modules["compvar.linalg"]
    complexes = sys.modules["compvar.complexes"]
    before = (linalg.Subspace.__dict__["from_vectors"], linalg.Matrix.rref,
              complexes.is_projective, cli.main)
    t = trace_layers.Tracer()
    t.install()
    assert complexes.is_projective is not before[2]
    t.uninstall()
    after = (linalg.Subspace.__dict__["from_vectors"], linalg.Matrix.rref,
             complexes.is_projective, cli.main)
    assert after == before


def _traced_counts(cli, tmp_path, name):
    inputs = workloads.Inputs(str(tmp_path / name))
    ops = workloads.build_round("census-fq", inputs, random.Random(7), 0)
    ops = [op for op in ops if "F2" in op.label][:6]
    t = trace_layers.Tracer()
    t.install()
    try:
        for index, op in enumerate(ops):
            t.begin_op(index)
            _, code, _ = run.run_op(cli, op)
            assert code == 0
    finally:
        t.uninstall()
    return {k: m["value"] for k, m in t.metrics().items() if m["unit"] != "s"}


def test_two_traced_runs_give_identical_counts(cli, tmp_path):
    first = _traced_counts(cli, tmp_path, "a")
    second = _traced_counts(cli, tmp_path, "b")
    assert first == second
    assert first["scan.candidates"] > 0 and first["complexes.act.calls"] > 0
    assert set(first) | {k for k, (u, _) in trace_layers.PER_LAYER.items()
                         if u == "s"} == set(trace_layers.PER_LAYER)
