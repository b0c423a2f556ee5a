"""Shared fixtures: hypothesis under one derandomized profile."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def hypothesis():
    """The hypothesis package with the ``compvar`` profile loaded: a fixed
    derandomized draw, no example database and no deadline, so every run
    checks the same examples.  Skips the test when hypothesis is missing."""
    hypothesis = pytest.importorskip("hypothesis")
    hypothesis.settings.register_profile(
        "compvar", derandomize=True, database=None, deadline=None,
        max_examples=200)
    hypothesis.settings.load_profile("compvar")
    return hypothesis


def row_space(m):
    """The span of the rows of the matrix m, as a Subspace."""
    from compvar.linalg import Subspace
    return Subspace._span(m.field, m.ncols, [(dict(v), d) for v, d in m.rows])
