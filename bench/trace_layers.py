"""Per-layer tracing of a benchmark run, from outside the program.

``Tracer.install`` wraps public functions and methods of the ``compvar``
modules for the length of a run.  A module-level function is rebound in
every ``compvar.*`` namespace that holds it, so a call made through another
module's imported name (``complexes`` calls ``is_projective`` from
``modules``) is seen too; a method is replaced on its class, keeping static
methods static.  ``uninstall`` puts every original back.

A span wrapper times the call and keeps a stack, so each span's self time
is its duration minus that of the wrapped calls inside it.  A count wrapper
only counts; it is used on calls too small and frequent to time.  Span
totals are kept in memory per (op, span) and written once at the end: a
census run makes about 1.9 million spans, too many to keep one by one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span key).  Keys group by layer, the text before the
# first dot; keys that no per-layer metric names still count towards their
# layer's self time.
SPANS = [
    ("linalg", "Matrix.rref", "linalg.rref"),
    ("linalg", "Subspace.from_vectors", "linalg.subspace"),
    ("linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("linalg", "Matrix.from_rows", "linalg.build"),
    ("linalg", "Matrix.from_flat", "linalg.build"),
    ("linalg", "Matrix.inverse", "linalg.inverse"),
    ("linalg", "Matrix.kernel", "linalg.kernel"),
    ("linalg", "Matrix.solve", "linalg.solve"),
    ("linalg", "LinearSolver.__init__", "linalg.solver"),
    ("linalg", "LinearSolver.solve", "linalg.solver"),
    ("linalg", "Subspace.sum", "linalg.subspace_ops"),
    ("linalg", "Subspace.intersection", "linalg.subspace_ops"),
    ("algebra", "path_algebra", "algebra.path_algebra"),
    ("algebra", "algebra_from_constants", "algebra.from_constants"),
    ("algebra", "validate_algebra", "algebra.validate"),
    ("algebra", "center", "algebra.center"),
    ("algebra", "radical", "algebra.radical"),
    ("modules", "is_projective", "modules.is_projective"),
    ("modules", "projective_cover", "modules.projective_cover"),
    ("modules", "hom_space", "modules.hom_space"),
    ("modules", "validate_module", "modules.validate"),
    ("modules", "submodule", "modules.submodule"),
    ("modules", "quotient_module", "modules.quotient"),
    ("modules", "conjugate_module", "modules.conjugate"),
    ("modules", "radical_submodule", "modules.radical"),
    ("modules", "indecomposable_projectives", "modules.projectives"),
    ("modules", "simple_modules", "modules.simples"),
    ("modules", "ext1_dim_oracle", "modules.ext1"),
    ("modules", "search_invertible_combination", "modules.search"),
    ("complexes", "classify", "complexes.classify"),
    ("complexes", "chain_map_space", "complexes.chain_map_space"),
    ("complexes", "homotopy_hom", "complexes.homotopy_hom"),
    ("complexes", "replace_by_projective", "complexes.replace_by_projective"),
    ("complexes", "complexes_isomorphic", "complexes.isomorphic"),
    ("complexes", "act", "complexes.act"),
    ("complexes", "validate_point", "complexes.validate_point"),
    ("complexes", "homology", "complexes.homology"),
    ("complexes", "mapping_cone", "complexes.mapping_cone"),
    ("complexes", "projective_extension", "complexes.projective_extension"),
    ("tangent", "tangent_system_matrix", "tangent.system"),
    ("tangent", "orbit_map_matrix", "tangent.orbit_map"),
    ("tangent", "tangent_space", "tangent.tangent_space"),
    ("tangent", "orbit_tangent_basis", "tangent.orbit_tangent"),
    ("tangent", "orbit_tangent", "tangent.orbit_tangent"),
    ("tangent", "quotient_dim", "tangent.quotient_dim"),
    ("tangent", "verify_theorem7", "tangent.theorem7"),
    ("tangent", "is_rigid", "tangent.is_rigid"),
    ("tangent", "corollary8_check", "tangent.corollary8"),
    ("tangent", "voigt_check", "tangent.voigt"),
    ("derived", "derived_hom", "derived.derived_hom"),
    ("derived", "derived_hom_dim", "derived.derived_hom_dim"),
    ("derived", "end_algebra", "derived.end_algebra"),
    ("derived", "acyclic_splitter", "derived.acyclic_splitter"),
    ("derived", "lift_idempotent", "derived.lift_idempotent"),
    ("scan", "enumerate_points", "scan.enumerate"),
    ("scan", "orbit_census", "scan.census"),
    ("scan", "rigid_census", "scan.rigidity"),
    ("scan", "enumerate_group", "scan.group"),
    ("schemas", "parse_algebra", "schemas.parse"),
    ("schemas", "parse_complex", "schemas.parse"),
    ("schemas", "complex_to_json", "schemas.write"),
    ("cli", "main", "cli"),
]

# (module, attribute, counter): calls are counted, not timed.
COUNTS = [
    ("fields", "Field.coerce", "fields.coerce.calls"),
    ("algebra", "FDAlgebra.mul_vec", "algebra.mul_vec.calls"),
    ("complexes", "ChainMapSpace.unflatten", None),
]

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "linalg.rref.calls": ("count", "lower"),
    "linalg.rref.cells": ("count", "lower"),
    "linalg.rref.nonzeros": ("count", "lower"),
    "linalg.rref.density": ("ratio", "lower"),
    "linalg.rref.self_s": ("s", "lower"),
    "linalg.subspace.calls": ("count", "lower"),
    "linalg.subspace.cells": ("count", "lower"),
    "linalg.subspace.self_s": ("s", "lower"),
    "linalg.matmul.calls": ("count", "lower"),
    "linalg.matmul.mults": ("count", "lower"),
    "linalg.matmul.self_s": ("s", "lower"),
    "linalg.build.self_s": ("s", "lower"),
    "linalg.self_s": ("s", "lower"),
    "fields.coerce.calls": ("count", "lower"),
    "algebra.path_algebra.calls": ("count", "lower"),
    "algebra.path_algebra.self_s": ("s", "lower"),
    "algebra.mul_vec.calls": ("count", "lower"),
    "algebra.self_s": ("s", "lower"),
    "modules.is_projective.calls": ("count", "lower"),
    "modules.is_projective.distinct": ("count", "lower"),
    "modules.is_projective.repeat": ("ratio", "lower"),
    "modules.projective_cover.calls": ("count", "lower"),
    "modules.hom_space.calls": ("count", "lower"),
    "modules.hom_space.cells": ("count", "lower"),
    "modules.self_s": ("s", "lower"),
    "complexes.classify.calls": ("count", "lower"),
    "complexes.classify.distinct": ("count", "lower"),
    "complexes.classify.repeat": ("ratio", "lower"),
    "complexes.chain_map_space.calls": ("count", "lower"),
    "complexes.chain_map_space.self_s": ("s", "lower"),
    "complexes.homotopy_hom.calls": ("count", "lower"),
    "complexes.homotopy_hom.self_s": ("s", "lower"),
    "complexes.replace_by_projective.calls": ("count", "lower"),
    "complexes.replace_by_projective.self_s": ("s", "lower"),
    "complexes.isomorphic.calls": ("count", "lower"),
    "complexes.isomorphic.found": ("count", "higher"),
    "complexes.isomorphic.attempts": ("count", "lower"),
    "complexes.act.calls": ("count", "lower"),
    "complexes.act.self_s": ("s", "lower"),
    "complexes.validate_point.calls": ("count", "lower"),
    "complexes.self_s": ("s", "lower"),
    "tangent.system.builds": ("count", "lower"),
    "tangent.orbit_map.builds": ("count", "lower"),
    "tangent.build.self_s": ("s", "lower"),
    "tangent.self_s": ("s", "lower"),
    "derived.derived_hom.calls": ("count", "lower"),
    "derived.end_algebra.calls": ("count", "lower"),
    "derived.acyclic_splitter.calls": ("count", "lower"),
    "derived.self_s": ("s", "lower"),
    "scan.candidates": ("count", "lower"),
    "scan.points": ("count", "higher"),
    "scan.accept": ("ratio", "higher"),
    "scan.iso_searches": ("count", "lower"),
    "scan.group_actions": ("count", "lower"),
    "scan.enumerate.busy_s": ("s", "lower"),
    "scan.census.busy_s": ("s", "lower"),
    "scan.rigidity.busy_s": ("s", "lower"),
    "scan.self_s": ("s", "lower"),
    "schemas.parse.calls": ("count", "lower"),
    "schemas.parse.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span stack, counters and the patches that feed them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.counts = Counter()
        self.self_s = Counter()
        self.busy_s = Counter()
        self.active = Counter()
        self.per_op = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans = 0
        self.op = None
        self._stack = []
        self._seen = defaultdict(set)
        self._undo = []

    # -- spans ------------------------------------------------------------

    def begin_op(self, index: int) -> None:
        """Mark the start of op ``index``; distinct-argument counts are
        per op, so a repeat means the same value was computed twice inside
        one op."""
        self.op = index
        self._seen.clear()

    def _enter(self, key: str) -> None:
        self.active[key] += 1
        self._stack.append([key, self.clock(), 0.0])

    def _exit(self, key: str) -> float:
        _, start, children = self._stack.pop()
        duration = self.clock() - start
        self.active[key] -= 1
        own = duration - children
        self.self_s[key] += own
        self.busy_s[key] += duration
        if self._stack:
            self._stack[-1][2] += duration
        agg = self.per_op[(self.op, key)]
        agg[0] += 1
        agg[1] += duration
        agg[2] += own
        self.spans += 1
        return duration

    def _distinct(self, key: str, value) -> None:
        seen = self._seen[key]
        if value not in seen:
            seen.add(value)
            self.counts[key + ".distinct"] += 1

    # -- hooks run around particular calls ----------------------------------

    def _before(self, key: str, args: tuple) -> tuple:
        c = self.counts
        if key == "linalg.rref":
            m = args[0]
            c["linalg.rref.cells"] += m.nrows * m.ncols
            c["linalg.rref.nonzeros"] += sum(1 for row in m.data
                                             for v in row if v)
        elif key == "linalg.subspace":
            field, ambient, vectors = args
            vectors = list(vectors)
            c["linalg.subspace.cells"] += len(vectors) * ambient
            return field, ambient, vectors
        elif key == "linalg.matmul":
            a, b = args
            c["linalg.matmul.mults"] += a.nrows * a.ncols * b.ncols
        elif key == "modules.hom_space":
            m, n = args
            unknowns = m.dim * n.dim
            c["modules.hom_space.cells"] += ((m.algebra.dim - 1) * unknowns
                                             * unknowns)
        elif key in ("modules.is_projective", "complexes.classify"):
            self._distinct(key, args[0])
        elif key == "complexes.validate_point" and self.active["scan.enumerate"]:
            c["scan.candidates"] += 1
        elif key == "complexes.act" and self.active["scan.census"]:
            c["scan.group_actions"] += 1
        elif key == "complexes.isomorphic" and self.active["scan.census"]:
            c["scan.iso_searches"] += 1
        return args

    def _after(self, key: str, result, duration: float) -> None:
        if key == "complexes.isomorphic" and result.found:
            self.counts["complexes.isomorphic.found"] += 1
        elif key == "scan.enumerate":
            self.counts["scan.points"] += len(result)
        if key in ("scan.enumerate", "scan.census") and self.active["scan.rigidity"]:
            self.busy_s["scan.rigidity.inner"] += duration

    # -- wrapping -----------------------------------------------------------

    def _span(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = tracer._before(key, args)
            tracer.counts[key + ".calls"] += 1
            tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(key)
            tracer._after(key, result, duration)
            return result

        return wrapper

    def _count(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.counts[counter] += 1
            elif tracer.active["complexes.isomorphic"]:
                tracer.counts["complexes.isomorphic.attempts"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module: str, attribute: str, make) -> None:
        mod = sys.modules[f"compvar.{module}"]
        if "." in attribute:
            owner_name, name = attribute.split(".")
            owner = getattr(mod, owner_name)
            raw = owner.__dict__[name]
            if isinstance(raw, staticmethod):
                new = staticmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(owner, name, new)
            self._undo.append((owner, name, raw))
            return
        original = getattr(mod, attribute)
        wrapper = make(original)
        for name, namespace in list(sys.modules.items()):
            if name != "compvar" and not name.startswith("compvar."):
                continue
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)
                    self._undo.append((namespace, attr, original))

    def install(self) -> None:
        """Wrap every listed function; compvar.cli must be imported."""
        for module, attribute, key in SPANS:
            self._patch(module, attribute, lambda fn, k=key: self._span(fn, k))
        for module, attribute, counter in COUNTS:
            self._patch(module, attribute,
                        lambda fn, c=counter: self._count(fn, c))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        c, s = self.counts, self.self_s

        def layer(name):
            return sum(v for k, v in s.items() if k.split(".")[0] == name)

        values = {name: c[name] for name in PER_LAYER if name in c}
        for key in ("linalg.rref", "linalg.subspace", "linalg.matmul",
                    "algebra.path_algebra", "complexes.chain_map_space",
                    "complexes.homotopy_hom", "complexes.replace_by_projective",
                    "complexes.act", "schemas.parse"):
            values[f"{key}.self_s"] = s[key]
        for key in ("modules.is_projective", "complexes.classify"):
            values[f"{key}.repeat"] = _ratio(c[f"{key}.calls"],
                                             c[f"{key}.distinct"])
        for layer_name in ("linalg", "algebra", "modules", "complexes",
                           "tangent", "derived", "scan", "cli"):
            values[f"{layer_name}.self_s"] = layer(layer_name)
        values.update({
            "linalg.rref.density": _ratio(c["linalg.rref.nonzeros"],
                                          c["linalg.rref.cells"]),
            "linalg.build.self_s": s["linalg.build"],
            "tangent.system.builds": c["tangent.system.calls"],
            "tangent.orbit_map.builds": c["tangent.orbit_map.calls"],
            "tangent.build.self_s": s["tangent.system"] + s["tangent.orbit_map"],
            "scan.accept": _ratio(c["scan.points"], c["scan.candidates"]),
            "scan.enumerate.busy_s": self.busy_s["scan.enumerate"],
            "scan.census.busy_s": self.busy_s["scan.census"],
            "scan.rigidity.busy_s": (self.busy_s["scan.rigidity"]
                                     - self.busy_s["scan.rigidity.inner"]),
        })
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, (unit, _) in PER_LAYER.items()}

    def write(self, path: str, record: dict) -> None:
        """Write the span totals per op, the counters and ``record``."""
        doc = dict(record)
        doc["span_count"] = self.spans
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["spans"] = [[op, key, calls, total, own] for (op, key), (
            calls, total, own) in sorted(self.per_op.items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
