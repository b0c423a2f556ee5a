"""Exact linear algebra: matrices, echelon forms, subspaces, solvers,
``linear_system``, the one builder that turns linear equations in unknown
matrices (sums of terms ``c * L @ X_k @ R``) into a coefficient matrix, and
``Blocks``, the one order in which such unknowns (tangent, Lie and
chain-map blocks) are flattened to coordinates and read back.

A matrix, and a subspace's echelon basis, are stored in one form only:
sparse rows, dicts from column to nonzero value, which every builder makes
directly.  Dense tuples (``Matrix.data``, ``flat()``, ``col()``,
``Subspace.basis`` and the vector API) are built only when read, for JSON,
packed census keys and callers that ask for vectors.  Every cost follows
the nonzeros: the linear systems behind tangent spaces, orbit maps and hom
spaces are more than 99% zeros.  ``_eliminate`` is the one elimination
routine; every echelon form, rank, kernel, inverse, solver and subspace
basis comes from it.  ``Subspace._residue`` is the one reduction of a
vector modulo an echelon basis; membership, containment of a subspace,
coordinates and canonical representatives come from it.

Scalars are ``Fraction`` values over Q at every boundary, but these kernels
(elimination, products, ``mat_vec``, ``vec_combination``, the reduction and
``linear_system``) compute on integers: a row is held as integer numerators
over one positive denominator (``_over``; ``_integral`` takes one for a
whole matrix), so no Fraction arithmetic runs inside them, and each builds
one canonical Fraction for each entry it returns (``_scalars``).  Over F_p
they run on the reduced ints themselves.

Everything is immutable and deterministic: row reduction always picks the
leftmost available pivot and the first nonzero row below it, so reduced
echelon forms (and hence subspace representations) are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import FieldMismatch, ShapeMismatch
from .fields import Field

_set = object.__setattr__


def _eliminate(rows: list, p, stop: int) -> list:
    """Gauss-Jordan elimination, in place, of nonempty sparse rows (dicts
    column -> nonzero canonical value) on the columns below ``stop``.

    Returns the pivot columns.  Afterwards ``rows[:rank]`` are the reduced
    pivot rows in pivot order, and the other rows hold no column below
    ``stop``.  Each pivot is the leftmost column held by a row that is not
    yet a pivot row, taken from the first such row, which is swapped into
    place.

    ``holds`` maps each column to the positions of the rows that hold it,
    kept up to date through swaps, fill-in and cancellation.  On the way
    down a pivot clears its column from the rows past it; rows past the
    pivot rows never gain a column left of the last pivot, so one upward
    walk over the columns finds every pivot.  Then, in reverse pivot order,
    each pivot clears its column from the pivot rows above it, which gain
    no pivot column.  The cost follows the fill, not rows x rank, and a
    chain of pivots is not cleared from every pivot row at every step.

    Over Q a row is held as integer numerators N over one positive
    denominator D, with no common factor (``_over``).  A pivot row becomes
    ``(N, N[c])``, its sign made positive; a cleared row becomes
    ``(dp * N - N[c] * P, D * dp)`` for the pivot row ``(P, dp)``; both are
    then divided by their gcd.  The values are the same as with Fraction
    arithmetic, and Fractions are built once, for the rows it returns.
    """
    dens = [1] * len(rows)  # the row denominators, all 1 over F_p
    if p is None:
        for i, row in enumerate(rows):
            rows[i], dens[i] = _over(row)
    holds = {}
    for i, row in enumerate(rows):
        for j in row:
            if j in holds:
                holds[j].add(i)
            else:
                holds[j] = {i}

    def clear(r, c, targets):
        """Subtract from each row in ``targets`` its c entry times pivot row r."""
        prow, dp = rows[r], dens[r]
        items = [(j, b) for j, b in prow.items() if j != c]
        for i in targets:
            row = rows[i]
            f = row.pop(c)
            if p is None:
                if dp != 1:
                    for j in row:
                        row[j] *= dp
                for j, b in items:
                    x = row.get(j)
                    if x is None:
                        row[j] = -f * b
                        holds[j].add(i)
                    else:
                        x -= f * b
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                            holds[j].remove(i)
                d = dens[i] * dp
                if d != 1:
                    g = gcd(d, *row.values())
                    if g != 1:
                        for j in row:
                            row[j] //= g
                        d //= g
                dens[i] = d
            else:
                for j, b in items:
                    x = row.get(j)
                    if x is None:
                        row[j] = -f * b % p
                        holds[j].add(i)
                    else:
                        x = (x - f * b) % p
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                            holds[j].remove(i)

    pivots = []
    n = len(rows)
    r = 0
    for c in sorted(holds):
        if c >= stop or r == n:
            break
        targets = holds[c]  # pivot rows above r may hold c too
        k = min([i for i in targets if i >= r], default=-1)
        if k < 0:
            continue
        prow = rows[k]
        if k != r:
            low = rows[r]
            rows[r], rows[k] = prow, low
            dens[r], dens[k] = dens[k], dens[r]
            for row, other, was, now in ((low, prow, r, k), (prow, low, k, r)):
                for j in row:
                    if j not in other:
                        moved = holds[j]
                        moved.remove(was)
                        moved.add(now)
        pv = prow[c]
        if p is None:
            if pv != dens[r]:
                g = gcd(*prow.values()) if pv > 0 else -gcd(*prow.values())
                for j, x in prow.items():
                    prow[j] = x // g
                dens[r] = pv // g
        elif pv != 1:
            inv = pow(pv, -1, p)
            for j, x in prow.items():
                prow[j] = x * inv % p
        below = [i for i in targets if i > r]
        if below:
            clear(r, c, below)
            targets.difference_update(below)
        pivots.append(c)
        r += 1
    for r in range(len(pivots) - 1, 0, -1):
        above = [i for i in holds[pivots[r]] if i != r]
        if above:
            clear(r, pivots[r], above)
    if p is None:
        for i, row in enumerate(rows):
            rows[i] = _scalars(row, dens[i], p)
    return pivots


def _over(row: dict) -> tuple:
    """``(N, D)``: a sparse row of rationals as integer numerators N over
    their least common denominator D, so N and D have no common factor."""
    d = lcm(*[x.denominator for x in row.values()])
    return {j: x.numerator * (d // x.denominator) for j, x in row.items()}, d


def _scalars(acc: dict, d: int, p) -> dict:
    """The canonical sparse row of the nonzero values ``acc[j] / d`` of
    integers acc: reduced mod p over F_p, where d is 1; over Q, one
    Fraction per entry."""
    if p is not None:
        return _canonical(acc, p)
    if d == 1:
        return {j: Fraction(x) for j, x in acc.items() if x}
    return {j: Fraction(x, d) for j, x in acc.items() if x}


def _integral(m) -> tuple:
    """``(rows, d)``: the sparse rows of m as integer numerators over one
    positive denominator d; over F_p, the rows themselves and 1."""
    rows = m.rows
    if m.field.p is not None:
        return rows, 1
    d = lcm(*[x.denominator for row in rows for x in row.values()])
    return [{j: x.numerator * (d // x.denominator) for j, x in row.items()}
            for row in rows], d


def _sparse_vec(vec) -> dict:
    """The sparse row of a dense vector of canonical values."""
    return {j: x for j, x in enumerate(vec) if x}


def _vector_row(field: Field, n: int, v) -> dict:
    """The sparse row of a vector of length n, its entries coerced."""
    v = [field.coerce(x) for x in v]
    if len(v) != n:
        raise ShapeMismatch(f"vector length {len(v)} vs ambient {n}")
    return _sparse_vec(v)


def _dense_rows(rows, ncols: int, zero) -> tuple:
    out = []
    for row in rows:
        d = [zero] * ncols
        for j, x in row.items():
            d[j] = x
        out.append(tuple(d))
    return tuple(out)


def _canonical(acc: dict, p) -> dict:
    """Sparse row of the nonzero values of ``acc``, reduced mod ``p``."""
    if p is None:
        return {j: v for j, v in acc.items() if v}
    out = {}
    for j, v in acc.items():
        v %= p
        if v:
            out[j] = v
    return out


@dataclass(frozen=True, eq=False, slots=True)
class Matrix:
    """Immutable matrix over an exact field, stored as its sparse rows.

    ``rows`` is a list of one dict per row, column -> nonzero canonical
    value, shared between matrices and never modified.  ``data``, ``flat()`` and
    ``col()`` are dense views, built when read.  Equality and the hash (kept
    once taken) ignore the order in which a row's columns were inserted.
    """

    field: Field
    nrows: int
    ncols: int
    rows: list
    _hash: int | None = None

    @property
    def data(self) -> tuple:
        return _dense_rows(self.rows, self.ncols, self.field.zero())

    def __eq__(self, other):
        if other.__class__ is not Matrix:
            return NotImplemented
        return (self.field, self.shape, self.rows) == \
            (other.field, other.shape, other.rows)

    def __hash__(self):
        if self._hash is None:
            _set(self, "_hash", hash((self.field, self.shape,
                                      tuple(frozenset(r.items()) for r in self.rows))))
        return self._hash

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeMismatch("ragged rows in matrix literal")
        return Matrix(field, len(rows), ncols,
                      [_sparse_vec(map(field.coerce, r)) for r in rows])

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, nrows, ncols, [{} for _ in range(nrows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        one = field.one()
        return Matrix(field, n, n, [{i: one} for i in range(n)])

    @staticmethod
    def from_flat(field: Field, nrows: int, ncols: int, flat) -> "Matrix":
        """Row-major flat sequence of canonical values -> matrix."""
        flat = list(flat)
        if len(flat) != nrows * ncols:
            raise ShapeMismatch(f"expected {nrows * ncols} entries, got {len(flat)}")
        return Matrix.from_sparse_flat(field, nrows, ncols, _sparse_vec(flat))

    @staticmethod
    def from_sparse_flat(field: Field, nrows: int, ncols: int, row: dict) -> "Matrix":
        """The matrix whose row-major flattening is the sparse row ``row``."""
        rows = [{} for _ in range(nrows)]
        for k, x in row.items():
            i, j = divmod(k, ncols)
            rows[i][j] = x
        return Matrix(field, nrows, ncols, rows)

    # -- basic access ------------------------------------------------------

    def col(self, j: int) -> tuple:
        zero = self.field.zero()
        return tuple(row.get(j, zero) for row in self.rows)

    def flat(self) -> tuple:
        """Row-major flattening."""
        return tuple(x for r in self.data for x in r)

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def is_identity(self) -> bool:
        """Square, with each row holding only a one on the diagonal."""
        return self.nrows == self.ncols and all(
            len(row) == 1 and row.get(i) == 1 for i, row in enumerate(self.rows))

    # -- arithmetic --------------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if self.shape != other.shape:
            raise ShapeMismatch(f"shape {self.shape} vs {other.shape}")

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def _plus(self, other: "Matrix", c: int) -> "Matrix":
        """self + c * other."""
        self._check_same_shape(other)
        out = []
        for a, b in zip(self.rows, other.rows):
            acc = dict(a)
            for j, y in b.items():
                acc[j] = acc.get(j, 0) + c * y
            out.append(_canonical(acc, self.field.p))
        return Matrix(self.field, self.nrows, self.ncols, out)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, self.nrows, self.ncols,
                      [_canonical({j: c * x for j, x in row.items()}, self.field.p)
                       for row in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        p = self.field.p
        (arows, da), (brows, db) = _integral(self), _integral(other)
        out = []
        for a in arows:
            acc = {}
            for k, x in a.items():
                for j, y in brows[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append(_scalars(acc, da * db, p))
        return Matrix(self.field, self.nrows, other.ncols, out)

    def mat_vec(self, v: tuple) -> tuple:
        if len(v) != self.ncols:
            raise ShapeMismatch(f"vector length {len(v)} vs {self.ncols} columns")
        p = self.field.p
        rows, d = _integral(self)
        if p is None:
            v, dv = _over(dict(enumerate(v)))
            return tuple(Fraction(sum(x * v[k] for k, x in row.items()), d * dv)
                         for row in rows)
        return tuple(sum(x * v[k] for k, x in row.items()) % p for row in rows)

    def transpose(self) -> "Matrix":
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix(self.field, self.ncols, self.nrows, cols)

    # -- block assembly ----------------------------------------------------

    @staticmethod
    def hstack(blocks) -> "Matrix":
        blocks = list(blocks)
        field, nrows = blocks[0].field, blocks[0].nrows
        rows, ncols = [{} for _ in range(nrows)], 0
        for b in blocks:
            if b.nrows != nrows:
                raise ShapeMismatch("hstack row counts differ")
            for row, brow in zip(rows, b.rows):
                for j, x in brow.items():
                    row[ncols + j] = x
            ncols += b.ncols
        return Matrix(field, nrows, ncols, rows)

    @staticmethod
    def vstack(blocks) -> "Matrix":
        blocks = list(blocks)
        field, ncols = blocks[0].field, blocks[0].ncols
        for b in blocks:
            if b.ncols != ncols:
                raise ShapeMismatch("vstack column counts differ")
        rows = [r for b in blocks for r in b.rows]
        return Matrix(field, len(rows), ncols, rows)

    @staticmethod
    def block(grid) -> "Matrix":
        """Assemble from a 2D grid of conforming blocks."""
        return Matrix.vstack([Matrix.hstack(row) for row in grid])

    @staticmethod
    def block_diag(field: Field, blocks) -> "Matrix":
        rows, ncols = [], 0
        for b in blocks:
            rows += [{ncols + j: x for j, x in r.items()} for r in b.rows]
            ncols += b.ncols
        return Matrix(field, len(rows), ncols, rows)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple:
        """Reduced row echelon form and pivot columns: ``(R, pivots)``."""
        rows = [dict(r) for r in self.rows if r]
        pivots = _eliminate(rows, self.field.p, self.ncols)
        rows[len(pivots):] = [{}] * (self.nrows - len(pivots))
        return Matrix(self.field, self.nrows, self.ncols, rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Subspace":
        """Right kernel {v : Mv = 0} as a subspace of F^ncols."""
        red, pivots = self.rref()
        field = self.field
        one = field.one()
        vectors = {j: {j: one} for j in range(self.ncols)}
        for pc in pivots:
            del vectors[pc]
        for row, pc in zip(red.rows, pivots):
            for j, x in row.items():
                if j != pc:
                    vectors[j][pc] = field.neg(x)
        return Subspace._span(field, self.ncols, list(vectors.values()))

    def column_space(self) -> "Subspace":
        # the transpose's rows are new dicts, free for _span to consume
        return Subspace._span(self.field, self.nrows, self.transpose().rows)

    def row_space(self) -> "Subspace":
        return Subspace._span(self.field, self.ncols, [dict(r) for r in self.rows])

    def solve(self, b: tuple):
        """One solution of Mx = b (free variables zero), or None."""
        return LinearSolver(self).solve(b)

    def inverse(self):
        """Exact inverse, or None if singular (requires square)."""
        if self.nrows != self.ncols:
            raise ShapeMismatch("inverse of a non-square matrix")
        solver = LinearSolver(self)
        if len(solver.pivots) < self.nrows:
            return None
        return solver.transform

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def __str__(self):
        if not self.nrows or not self.ncols:
            return f"<{self.nrows}x{self.ncols} over {self.field}>"
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"[{body}]"


def _nonzeros(m, n: int) -> tuple:
    """``(entries, d)``: ``(row, col, N)`` for the nonzero entries of ``m``,
    or of the n x n identity when ``m`` is None, with integer numerators N
    over the one positive denominator d (1 over F_p)."""
    if m is None:
        return [(i, i, 1) for i in range(n)], 1
    rows, d = _integral(m)
    return [(i, j, v) for i, row in enumerate(rows) for j, v in row.items()], d


def linear_system(field: Field, shapes, equations) -> Matrix:
    """Coefficient matrix of linear equations in unknown matrices.

    The unknowns X_0, X_1, ... have the ``(rows, cols)`` given in
    ``shapes``; the columns are their entries, row-major, one unknown after
    another.  An equation ``(rows, cols, terms)`` is the rows x cols sum of
    ``c * L @ X_k @ R`` over its terms ``(c, L, k, R)``, with ``None`` for
    an identity factor.  It contributes one row per entry of the sum, in
    row-major order, read off from vec(L X R) = (R^T (x) L) vec(X): entry
    (a, b) gets c * L[a, i] * R[j, b] in the column of X_k[i, j].  Every
    row is kept, zero or not, so rows line up with the equations; the rows
    are built sparse, and elimination skips the empty ones.  An equation's
    rows are summed as integers over one common denominator.
    """
    offsets, ncols = [], 0
    for r, c in shapes:
        offsets.append(ncols)
        ncols += r * c
    p = field.p
    rows = []
    for nr, nc, terms in equations:
        parts = []
        for c, left, k, right in terms:
            xr, xc = shapes[k]
            lshape = left.shape if left is not None else (xr, xr)
            rshape = right.shape if right is not None else (xc, xc)
            if lshape != (nr, xr) or rshape != (xc, nc):
                raise ShapeMismatch(f"term on unknown {k} of shape {(xr, xc)} "
                                    f"does not give a {nr} x {nc} matrix")
            c = field.coerce(c)
            (lefts, ld), (rights, rd) = _nonzeros(left, xr), _nonzeros(right, xc)
            parts.append((c.numerator, c.denominator * ld * rd, offsets[k], xc,
                          lefts, rights))
        d = lcm(*[e for _, e, *_ in parts])
        block = [{} for _ in range(nr * nc)]
        for num, e, base, xc, lefts, rights in parts:
            f = num * (d // e)
            for a, i, lv in lefts:
                col0 = base + i * xc
                lv *= f
                for j, b, rv in rights:
                    row = block[a * nc + b]
                    col = col0 + j
                    row[col] = row.get(col, 0) + lv * rv
        rows += [_scalars(r, d, p) for r in block]
    return Matrix(field, len(rows), ncols, rows)


@dataclass(frozen=True)
class Blocks:
    """Flattening of block matrices into one vector: the blocks in ``keys``
    order, each row-major.  ``shapes`` are the unknowns of ``linear_system``
    in that order, so ``index[key]`` names a block as an unknown."""

    field: Field
    keys: tuple
    shapes: tuple  # (rows, cols) per key

    @cached_property
    def index(self) -> dict:
        return {key: k for k, key in enumerate(self.keys)}

    @property
    def ambient_dim(self) -> int:
        return sum(r * c for r, c in self.shapes)

    def flatten(self, blocks: dict) -> tuple:
        """Coordinates of the blocks; a missing key is a zero block."""
        return _dense_rows([self.sparse_row(blocks)], self.ambient_dim,
                           self.field.zero())[0]

    def sparse_row(self, blocks: dict) -> dict:
        """The nonzero coordinates of the blocks, column -> value, taken
        from their sparse rows as they are (already canonical)."""
        out, pos = {}, 0
        for key, (r, c) in zip(self.keys, self.shapes):
            m = blocks.get(key)
            if m is not None:
                for i, row in enumerate(m.rows):
                    at = pos + i * c
                    for j, x in row.items():
                        out[at + j] = x
            pos += r * c
        return out

    def unflatten(self, vec) -> dict:
        if len(vec) != self.ambient_dim:
            raise ShapeMismatch(f"expected {self.ambient_dim} coordinates, got {len(vec)}")
        return self.split(_sparse_vec(vec))

    def split(self, row: dict) -> dict:
        """The blocks whose nonzero coordinates are the sparse row ``row``."""
        out, pos = {}, 0
        for key, (r, c) in zip(self.keys, self.shapes):
            part = {j - pos: x for j, x in row.items() if pos <= j < pos + r * c}
            out[key] = Matrix.from_sparse_flat(self.field, r, c, part)
            pos += r * c
        return out


class LinearSolver:
    """Reusable exact solver for Mx = b with a fixed M.

    The particular solution sets all free variables to zero, which makes
    ``solve`` a linear map on the subspace of consistent right-hand sides —
    a property the tangent-geometry code relies on.
    """

    def __init__(self, m: Matrix):
        self.m = m
        n = m.ncols
        one = m.field.one()
        rows = [dict(r) for r in m.rows]
        for i, row in enumerate(rows):
            row[n + i] = one
        self.pivots = tuple(_eliminate(rows, m.field.p, n))
        # an invertible E with E @ M in reduced echelon form; rows past the
        # rank must vanish on b for Mx = b to be consistent
        self.transform = Matrix(m.field, m.nrows, m.nrows,
                                [{j - n: x for j, x in row.items() if j >= n}
                                 for row in rows])

    def solve(self, b: tuple):
        m = self.m
        if len(b) != m.nrows:
            raise ShapeMismatch(f"rhs length {len(b)} vs {m.nrows} rows")
        y = self.transform.mat_vec(tuple(m.field.coerce(x) for x in b))
        if any(y[len(self.pivots):]):
            return None
        x = [m.field.zero()] * m.ncols
        for r, pc in enumerate(self.pivots):
            x[pc] = y[r]
        return tuple(x)


@dataclass(frozen=True)
class Subspace:
    """Subspace of F^ambient, kept as its reduced echelon basis:
    ``by_pivot`` maps each pivot column, ascending, to its basis row, a
    sparse row never modified.  The basis is canonical, so equality is
    equality of subspaces; ``basis`` is the dense view, built when read."""

    field: Field
    ambient: int
    by_pivot: dict

    @staticmethod
    def from_vectors(field: Field, ambient: int, vectors) -> "Subspace":
        return Subspace._span(field, ambient,
                              [_vector_row(field, ambient, v) for v in vectors])

    @staticmethod
    def _span(field: Field, ambient: int, rows: list) -> "Subspace":
        """Span of sparse rows of canonical values, which it consumes; the
        reduced rows become the subspace's basis."""
        rows = [r for r in rows if r]
        pivots = _eliminate(rows, field.p, ambient)
        return Subspace(field, ambient, dict(zip(pivots, rows)))

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(field, ambient, {})

    @property
    def basis(self) -> tuple:
        return _dense_rows(self.by_pivot.values(), self.ambient, self.field.zero())

    @property
    def dim(self) -> int:
        return len(self.by_pivot)

    def is_zero(self) -> bool:
        return not self.by_pivot

    def pivots(self) -> tuple:
        return self._pivots

    @cached_property
    def _pivots(self) -> tuple:  # scanned once per subspace
        return tuple(self.by_pivot)

    @cached_property
    def _reducers(self) -> dict:  # pivot column -> (integer basis row, denominator)
        if self.field.p is not None:
            return {c: (row, 1) for c, row in self.by_pivot.items()}
        return {c: _over(row) for c, row in self.by_pivot.items()}

    def _residue(self, v: dict) -> tuple:
        """The one reduction: the sparse row v minus v[c] times the basis row
        with pivot c, for each pivot c of v, as canonical integers acc over
        a positive denominator d.  Basis rows vanish at each other's
        pivots, so the coefficients are the entries of v; the residue is
        empty exactly when v lies in the span."""
        p, rows = self.field.p, self._reducers
        terms = [(x, rows[c]) for c, x in v.items() if c in rows]
        acc, e = _over(v) if p is None else (dict(v), 1)
        d = lcm(e, *[x.denominator * dc for x, (_, dc) in terms])
        if d != e:
            acc = {j: y * (d // e) for j, y in acc.items()}
        for x, (row, dc) in terms:
            f = x.numerator * (d // (x.denominator * dc))
            for j, y in row.items():
                acc[j] = acc.get(j, 0) - f * y
        return _canonical(acc, p), d

    def reduce(self, v: tuple) -> tuple:
        """Canonical representative of v modulo this subspace."""
        acc, d = self._residue(_vector_row(self.field, self.ambient, v))
        return _dense_rows([_scalars(acc, d, self.field.p)], self.ambient,
                           self.field.zero())[0]

    def contains(self, v: tuple) -> bool:
        return not self._residue(_vector_row(self.field, self.ambient, v))[0]

    def coordinates(self, v: tuple):
        """Coordinates of v in the canonical basis, or None for v outside
        the span: the entries of v at the pivot columns, certified by
        reducing v to zero."""
        row = _vector_row(self.field, self.ambient, v)
        coords = tuple(row.get(c, self.field.zero()) for c in self.by_pivot)
        return None if self._residue(row)[0] else coords

    def coordinate_matrix(self, m: Matrix):
        """The dim x m.ncols matrix X with ``column_matrix() @ X == m``, read
        off the pivot entries of each column of m once the column reduces to
        zero; None if a column of m lies outside the span."""
        cols = []
        for col in m.transpose().rows:
            if self._residue(col)[0]:
                return None
            cols.append({i: col[c] for i, c in enumerate(self.by_pivot) if c in col})
        return Matrix(self.field, len(cols), self.dim, cols).transpose()

    def contains_subspace(self, other: "Subspace") -> bool:
        """Every basis row of ``other`` reduces to zero."""
        self._check_compatible(other)
        return not any(self._residue(row)[0] for row in other.by_pivot.values())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace._span(self.field, self.ambient,
                              [dict(r) for s in (self, other) for r in s.by_pivot.values()])

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: reduce the rows (u, u) for u in this basis and (w, 0)
        for w in the other's; the reduced rows (0, y) are the reduced
        echelon basis of the intersection."""
        self._check_compatible(other)
        n = self.ambient
        rows = [{**u, **{n + j: x for j, x in u.items()}} for u in self.by_pivot.values()]
        rows += [dict(w) for w in other.by_pivot.values()]
        pivots = _eliminate(rows, self.field.p, 2 * n)
        return Subspace(self.field, n, {pc - n: {j - n: x for j, x in row.items()}
                                        for row, pc in zip(rows, pivots) if pc >= n})

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")
        if self.ambient != other.ambient:
            raise ShapeMismatch("subspaces of different ambient spaces")

    def column_matrix(self) -> Matrix:
        """Matrix whose columns are the canonical basis vectors."""
        return Matrix(self.field, self.dim, self.ambient,
                      list(self.by_pivot.values())).transpose()

    def _free(self) -> dict:
        """The non-pivot columns, each to its position among them."""
        free = [j for j in range(self.ambient) if j not in self.by_pivot]
        return {j: i for i, j in enumerate(free)}

    def quotient_matrix(self) -> Matrix:
        """Linear map F^ambient -> F^(ambient-dim) with kernel exactly this
        subspace: reduce modulo the basis, keep the non-pivot coordinates.
        Reducing e_j leaves it alone for a non-pivot j and subtracts the
        basis row with pivot j otherwise; a basis row holds no other pivot."""
        field = self.field
        free = self._free()
        rows = [{k: field.one()} for k in free]
        for pc, b in self.by_pivot.items():
            for k, x in b.items():
                if k != pc:
                    rows[free[k]][pc] = field.neg(x)
        return Matrix(field, len(rows), self.ambient, rows)

    def section_matrix(self) -> Matrix:
        """Right inverse of ``quotient_matrix`` (standard basis vectors on
        the non-pivot coordinates), shape ambient x (ambient - dim)."""
        free = self._free()
        return Matrix(self.field, self.ambient, len(free),
                      [{free[j]: self.field.one()} if j in free else {}
                       for j in range(self.ambient)])


# -- vector helpers ---------------------------------------------------------

def vec_combination(field: Field, n: int, terms) -> tuple:
    """Sum of c * v over the pairs (c, v) of ``terms``, for vectors v of
    length n; zero coefficients and coordinates are skipped."""
    row = row_combination(field, ((c, _sparse_vec(v)) for c, v in terms if c))
    return _dense_rows([row], n, field.zero())[0]

def row_combination(field: Field, terms) -> dict:
    """The sparse row sum of c * v over the pairs (c, v) of ``terms``, for
    sparse rows v of canonical values; zero coefficients are skipped."""
    p = field.p
    terms = [(c, v) for c, v in terms if c]
    acc = {}
    if p is None:  # over one denominator for the coefficients and one for the rows
        d = lcm(*[c.denominator for c, _ in terms])
        e = lcm(*[x.denominator for _, v in terms for x in v.values()])
        for c, v in terms:
            f = c.numerator * (d // c.denominator)
            for k, x in v.items():
                acc[k] = acc.get(k, 0) + f * x.numerator * (e // x.denominator)
        return _scalars(acc, d * e, p)
    for c, v in terms:
        for k, x in v.items():
            acc[k] = acc.get(k, 0) + c * x
    return _canonical(acc, p)
