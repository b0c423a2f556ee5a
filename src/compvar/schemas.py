"""JSON schemas for algebras and complexes.

Algebra files carry either a multiplication table or a quiver presentation::

    { "field": {"type": "Q"} | {"type": "Fp", "p": 5},
      "dim": s, "labels": ["1", "x"], "identity_index": 1,
      "constants": [[j, k, l, scalar], ...] }        # 1-based, a_1 = 1

    { "field": {...},
      "quiver": { "vertices": n,
                  "arrows": [[source, target, "label"], ...],   # 1-based
                  "relations": [[["b*a", scalar], ...], ...],
                  "nilpotency_bound": N } }

Relation paths name arrows by label, separated by ``*``, first traversed
first.  Complex files fix the window bottom at degree 0::

    { "m": m, "dims": [d_m, ..., d_0],
      "modules": [[s matrices of size d_i x d_i], ...],   # degree m first
      "differentials": [matrix, ...] }                    # d_m, ..., d_1

Matrices are lists of rows; scalars are "num/den" strings (or ints) over Q
and plain integers over F_p.  A string scalar is an optional sign and ASCII
digits, optionally followed by '/' and ASCII digits.  Parsing validates the
result and raises ValidationFailure naming the broken condition; structural
problems raise SchemaError instead.
"""

from __future__ import annotations

import json

from .algebra import (MAX_ALGEBRA_DIM, FDAlgebra, QuiverPresentation,
                      algebra_from_constants, path_algebra)
from .complexes import ComplexPoint, validate_point, with_bottom_zero
from .errors import (BudgetExceeded, SchemaError, UnsupportedCharacteristic,
                     ValidationFailure)
from .fields import Field, GF, parse_scalar_string
from .linalg import Matrix, row_values, stored_row
from .modules import ModuleRep, validate_module

CONDITION_SYMBOLS = {"alpha": "(α)", "beta": "(β)", "gamma": "(γ)"}


def _expect(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _require(obj: dict, key: str, where: str):
    _expect(isinstance(obj, dict), f"{where} must be a JSON object")
    _expect(key in obj, f"{where} is missing the '{key}' field")
    return obj[key]


# -- scalars and matrices -------------------------------------------------------

def parse_scalar(field: Field, value, where: str):
    if field.is_rational:
        if isinstance(value, str):
            try:
                return parse_scalar_string(value)
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"{where}: bad rational scalar {value!r}")
        if isinstance(value, int) and not isinstance(value, bool):
            return field.coerce(value)
        raise SchemaError(f"{where}: rational scalars are 'num/den' strings "
                          f"or integers, got {value!r}")
    if isinstance(value, int) and not isinstance(value, bool):
        return field.coerce(value)
    raise SchemaError(f"{where}: scalars over {field} are integers, "
                      f"got {value!r}")


def parse_matrix(field: Field, rows, nrows: int, ncols: int, where: str) -> Matrix:
    _expect(isinstance(rows, list), f"{where} must be a list of rows")
    _expect(len(rows) == nrows,
            f"{where} has {len(rows)} rows, expected {nrows}")
    data = []
    for r, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == ncols,
                f"{where} row {r} must be a list of {ncols} scalars")
        try:
            values = [parse_scalar(field, v, where) for v in row]
        except SchemaError:
            # parse the row again to name the first malformed entry
            for c, v in enumerate(row):
                parse_scalar(field, v, f"{where}[{r}][{c}]")
            raise
        data.append(stored_row(field, {c: x for c, x in enumerate(values) if x}))
    # parse_scalar returns canonical values: no second coercion
    return Matrix(field, nrows, ncols, data)


def matrix_to_json(m: Matrix) -> list:
    return [[m.field.format_scalar(v) for v in row] for row in m.data]


# -- fields ---------------------------------------------------------------------

def parse_field(obj, where: str = "field") -> Field:
    kind = _require(obj, "type", where)
    if kind == "Q":
        return Field(None)
    if kind == "Fp":
        p = _require(obj, "p", where)
        _expect(isinstance(p, int) and not isinstance(p, bool) and p >= 2,
                f"{where}.p must be an integer >= 2")
        try:
            return GF(p)
        except ValueError as exc:
            raise UnsupportedCharacteristic(f"{where}: {exc}")
    raise SchemaError(f"{where}.type must be 'Q' or 'Fp', got {kind!r}")


def field_to_json(field: Field) -> dict:
    if field.is_rational:
        return {"type": "Q"}
    return {"type": "Fp", "p": field.p}


# -- algebras ---------------------------------------------------------------------

def _parse_quiver(obj: dict, field: Field) -> FDAlgebra:
    spec = obj["quiver"]
    n = _require(spec, "vertices", "quiver")
    _expect(isinstance(n, int) and n >= 1, "quiver.vertices must be >= 1")
    raw_arrows = _require(spec, "arrows", "quiver")
    _expect(isinstance(raw_arrows, list), "quiver.arrows must be a list")
    arrows = []
    labels = {}
    for k, arr in enumerate(raw_arrows):
        _expect(isinstance(arr, list) and len(arr) == 3,
                f"quiver.arrows[{k}] must be [source, target, label]")
        src, tgt, label = arr
        _expect(isinstance(src, int) and isinstance(tgt, int)
                and 1 <= src <= n and 1 <= tgt <= n,
                f"quiver.arrows[{k}] endpoints must be vertices 1..{n}")
        _expect(isinstance(label, str) and label,
                f"quiver.arrows[{k}] label must be a non-empty string")
        _expect(label not in labels,
                f"duplicate arrow label {label!r}")
        labels[label] = k
        arrows.append((src - 1, tgt - 1, label))
    relations = []
    for i, rel in enumerate(spec.get("relations", [])):
        _expect(isinstance(rel, list) and rel,
                f"quiver.relations[{i}] must be a non-empty list")
        terms = []
        for j, term in enumerate(rel):
            _expect(isinstance(term, list) and len(term) == 2,
                    f"quiver.relations[{i}][{j}] must be [path, coeff]")
            path_str, coeff = term
            _expect(isinstance(path_str, str) and path_str,
                    f"quiver.relations[{i}][{j}] path must be a string")
            path = []
            for name in path_str.split("*"):
                _expect(name in labels,
                        f"quiver.relations[{i}][{j}]: unknown arrow {name!r}")
                path.append(labels[name])
            # the schema writes composition right-to-left (b*a applies a
            # first); presentations store traversal order
            path.reverse()
            scalar = parse_scalar(field, coeff, f"quiver.relations[{i}][{j}]")
            terms.append((tuple(path), scalar))
        relations.append(tuple(terms))
    bound = _require(spec, "nilpotency_bound", "quiver")
    _expect(isinstance(bound, int) and bound >= 1,
            "quiver.nilpotency_bound must be a positive integer")
    presentation = QuiverPresentation(n, tuple(arrows), tuple(relations), bound)
    return path_algebra(presentation, field)


def parse_algebra(obj) -> FDAlgebra:
    """Load either algebra form; the result is always fully validated."""
    field = parse_field(_require(obj, "field", "algebra"))
    if "quiver" in obj:
        return _parse_quiver(obj, field)
    dim = _require(obj, "dim", "algebra")
    _expect(isinstance(dim, int) and dim >= 1,
            "algebra.dim must be a positive integer")
    if dim > MAX_ALGEBRA_DIM:
        raise BudgetExceeded(f"algebra.dim is {dim} (limit {MAX_ALGEBRA_DIM})")
    labels = obj.get("labels")
    if labels is not None:
        _expect(isinstance(labels, list) and len(labels) == dim
                and all(isinstance(name, str) for name in labels),
                "algebra.labels must list one string per basis element")
    identity_index = _require(obj, "identity_index", "algebra")
    _expect(identity_index == 1,
            "algebra.identity_index must be 1 (the basis starts at a_1 = 1)")
    raw = _require(obj, "constants", "algebra")
    _expect(isinstance(raw, list), "algebra.constants must be a list")
    constants = {}
    for k, item in enumerate(raw):
        _expect(isinstance(item, list) and len(item) == 4,
                f"algebra.constants[{k}] must be [j, k, l, scalar]")
        j, kk, l, value = item
        for name, idx in (("j", j), ("k", kk), ("l", l)):
            _expect(isinstance(idx, int) and 1 <= idx <= dim,
                    f"algebra.constants[{k}].{name} must be in 1..{dim}")
        key = (j - 1, kk - 1, l - 1)
        _expect(key not in constants,
                f"algebra.constants[{k}] repeats entry c_{j},{kk},{l}")
        constants[key] = parse_scalar(field, value, f"algebra.constants[{k}]")
    return algebra_from_constants(field, dim, labels, constants)


def algebra_to_json(a: FDAlgebra) -> dict:
    """Table form (quiver presentations serialize to their tables)."""
    constants = []
    for j in range(1, a.dim):
        for k in range(1, a.dim):
            row = row_values(a.field, a.products[j][k])
            for l in sorted(row):
                constants.append([j + 1, k + 1, l + 1, a.field.format_scalar(row[l])])
    return {
        "field": field_to_json(a.field),
        "dim": a.dim,
        "labels": list(a.labels),
        "identity_index": 1,
        "constants": constants,
    }


# -- complexes --------------------------------------------------------------------

def parse_complex(obj, algebra: FDAlgebra,
                  require_differentials: bool = True) -> ComplexPoint:
    """Load a complex over the given algebra and validate the variety
    conditions.  With ``require_differentials=False`` a missing
    'differentials' entry is read as all-zero maps (module pinning files)."""
    field = algebra.field
    s = algebra.dim
    m = _require(obj, "m", "complex")
    _expect(isinstance(m, int) and m >= 0,
            "complex.m must be a non-negative integer")
    dims = _require(obj, "dims", "complex")
    _expect(isinstance(dims, list) and len(dims) == m + 1,
            f"complex.dims must list {m + 1} entries (degree {m} first)")
    _expect(all(isinstance(d, int) and d >= 0 for d in dims),
            "complex.dims entries must be non-negative integers")
    raw_modules = _require(obj, "modules", "complex")
    _expect(isinstance(raw_modules, list) and len(raw_modules) == m + 1,
            f"complex.modules must list {m + 1} entries (degree {m} first)")
    terms_topdown = []
    for k, entry in enumerate(raw_modules):
        degree = m - k
        d = dims[k]
        _expect(isinstance(entry, list) and len(entry) == s,
                f"complex.modules[{k}] must list {s} matrices "
                f"(one per basis element)")
        actions = tuple(
            parse_matrix(field, entry[j], d, d,
                         f"complex.modules[{k}][{j}]")
            for j in range(s))
        mod = ModuleRep(algebra, d, actions)
        # a term equal to one read before is that instance, so each module
        # value is validated, covered and classified once; an == scan over
        # the few terms read so far, since Fraction hashes are slow
        mod = next((t for t in terms_topdown if t == mod), mod)
        witness = validate_module(mod)
        if witness is not None:
            raise ValidationFailure(
                f"complex violates (α) at i={degree}: module relation "
                f"{witness}", witness=("alpha", degree, witness))
        terms_topdown.append(mod)
    raw_diffs = obj.get("differentials")
    if raw_diffs is None:
        _expect(not require_differentials,
                "complex is missing the 'differentials' field")
        diffs_topdown = [Matrix.zeros(field, dims[k + 1], dims[k])
                         for k in range(m)]
    else:
        _expect(isinstance(raw_diffs, list) and len(raw_diffs) == m,
                f"complex.differentials must list {m} matrices "
                f"(the one out of degree {m} first)")
        diffs_topdown = [
            parse_matrix(field, raw_diffs[k], dims[k + 1], dims[k],
                         f"complex.differentials[{k}]")
            for k in range(m)]
    point = ComplexPoint(algebra, 0, tuple(reversed(terms_topdown)),
                         tuple(reversed(diffs_topdown)))
    witness = validate_point(point)
    if witness is not None:
        tag, degree = witness[0], witness[1]
        symbol = CONDITION_SYMBOLS.get(tag, tag)
        raise ValidationFailure(
            f"complex violates {symbol} at i={degree}", witness=witness)
    return point


def complex_to_json(x: ComplexPoint) -> dict:
    """Serialize with the window normalized to bottom degree 0."""
    if x.bottom < 0:
        raise ValidationFailure(
            "only complexes supported in non-negative degrees serialize")
    x = with_bottom_zero(x)
    m = max(x.top, 0)
    modules = []
    diffs = []
    for i in range(m, -1, -1):
        modules.append([matrix_to_json(mat) for mat in x.term(i).action])
        if i >= 1:
            diffs.append(matrix_to_json(x.diff(i)))
    return {
        "m": m,
        "dims": [x.dim_at(i) for i in range(m, -1, -1)],
        "modules": modules,
        "differentials": diffs,
    }


# -- files -----------------------------------------------------------------------

def load_json(path: str):
    """Read a JSON document; malformed content raises SchemaError with the
    line/column position, and so does content the decoder cannot hold: an
    integer literal past Python's digit limit (ValueError) or nesting past
    the recursion limit (RecursionError)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: unreadable JSON: {exc}")


def parse_complex_file(path: str, algebra: FDAlgebra,
                       require_differentials: bool = True) -> ComplexPoint:
    return parse_complex(load_json(path), algebra,
                         require_differentials=require_differentials)
