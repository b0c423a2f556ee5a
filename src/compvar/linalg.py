"""Exact linear algebra: matrices, echelon forms, subspaces, solvers,
``linear_system``, the one builder that turns linear equations in unknown
matrices (sums of terms ``c * L @ X_k @ R``) into a coefficient matrix, and
``Blocks``, the one order in which such unknowns (tangent, Lie and
chain-map blocks) are flattened to coordinates and read back.

Matrices, subspace bases and structure constants are stored in one form
only, sparse rows.  A row is a pair ``(N, d)`` holding the values
``N[j] / d``: a dict from column to nonzero integer, and a denominator
d > 0.  Over Q the pair is primitive (no common factor), so equal rows are
equal pairs; over F_p the values lie in ``[1, p)`` and d is 1.  Every
kernel computes on these integers: elimination, products, ``mat_vec``, the
combinations, the reduction and ``linear_system`` build no Fraction.
Scalars stay ``Fraction`` values over Q at the boundary: dense tuples
(``data``, ``flat()``, ``col()``, ``Subspace.basis``, ``reduce``,
``coordinates``, ``mat_vec``'s result and the vector API) are built only
when read.  Other modules build and read rows only through the helpers
here (``stored_row``, ``vector_row``, ``row_vector``, ``row_values``,
``row_key``, ``combine``, ``row_combination``, ``table_product``), so the
form is decided in this module alone.

Every cost follows the nonzeros: the linear systems behind tangent spaces,
orbit maps and hom spaces are more than 99% zeros.  ``_eliminate`` is the
one elimination routine; every echelon form, rank, kernel, inverse, solver
and subspace basis comes from one run of it, which moves no row and indexes
only the rows not yet pivot rows.  A kernel is read off the pivot rows of
its matrix with the columns in reverse order.  ``Subspace._residue`` is the
one reduction of a vector modulo an echelon basis.  Row reduction always
picks the leftmost available pivot and the first nonzero row below it, so
reduced echelon forms, and hence subspaces, are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import FieldMismatch, ShapeMismatch
from .fields import Field

_set = object.__setattr__


def _eliminate(rows: list, dens: list, p, stop: int) -> list:
    """Gauss-Jordan elimination, in place, of the nonempty primitive rows
    ``N / d`` with numerators ``rows`` and denominators ``dens``, on the
    columns below ``stop``.  Returns the pivot columns.  Afterwards
    ``rows[:rank]`` are the reduced pivot rows in pivot order, each with its
    pivot numerator as its denominator, and the other rows hold no column
    below ``stop``; every row is primitive.  Each pivot is the leftmost
    column held by a row not yet a pivot row, taken from the first such
    row, as if that row were swapped into place.

    No row moves until the end: ``at[r]`` is the row that a swapping loop
    would hold at position r and ``pos`` its inverse, so ties go as they
    would there, and the rows are put in that order last.  On the way down
    ``holds`` maps each column to the rows not yet pivot rows that hold it,
    through fill-in and cancellation, so a pivot clears exactly the rows in
    its column.  Those never gain a column left of the last pivot, so one
    upward walk over the columns finds every pivot.  Then ``holds`` is
    rebuilt over the pivot rows, and in reverse pivot order each pivot
    clears its column from the pivot rows above it.  The cost follows the
    fill, not rows x rank.

    Over Q a pivot row becomes ``(N, N[c])``, its sign made positive; a
    cleared row becomes ``(dp * N - N[c] * P, D * dp)`` for the pivot row
    ``(P, dp)``; both are then divided by their gcd.
    """
    def index(ks) -> dict:
        """Column -> the rows among ``ks`` that hold it."""
        out = {}
        for k in ks:
            for j in rows[k]:
                if j in out:
                    out[j].add(k)
                else:
                    out[j] = {k}
        return out

    def clear(k, c, targets):
        """Subtract from each row in ``targets`` its c entry times pivot row k."""
        prow, dp = rows[k], dens[k]
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

    pivots, n, moved = [], len(rows), False
    pos, at = list(range(n)), list(range(n))
    holds = index(at)
    for c in sorted(holds):
        r = len(pivots)
        if c >= stop or r == n:
            break
        targets = holds[c]
        if not targets:
            continue
        k = min(targets, key=pos.__getitem__)
        prow = rows[k]
        for j in prow:
            holds[j].remove(k)
        if pos[k] != r:  # the swap of positions r and pos[k]
            low, moved = at[r], True
            at[pos[k]], pos[low] = low, pos[k]
            at[r], pos[k] = k, r
        pv = prow[c]
        if p is None:
            if pv != dens[k]:
                g = gcd(*prow.values()) if pv > 0 else -gcd(*prow.values())
                for j, x in prow.items():
                    prow[j] = x // g
                dens[k] = pv // g
        elif pv != 1:
            inv = pow(pv, -1, p)
            for j, x in prow.items():
                prow[j] = x * inv % p
        if targets:  # holds[c] is not read again
            clear(k, c, targets)
        pivots.append(c)
    rank = len(pivots)
    if rank > 1:
        holds = index(at[:rank])
        for r in range(rank - 1, 0, -1):
            k = at[r]
            above = holds[pivots[r]]
            if len(above) > 1:
                above.discard(k)
                clear(k, pivots[r], above)
    if moved:
        rows[:], dens[:] = [rows[k] for k in at], [dens[k] for k in at]
    return pivots


# -- rows --------------------------------------------------------------------

def _primitive(acc: dict, d: int, p) -> tuple:
    """The row of the values ``acc[j] / d``, for integers acc and d > 0 (1
    over F_p): zeros dropped, reduced mod p, or divided by the gcd over Q."""
    if p is not None:
        out = {}
        for j, v in acc.items():
            v %= p
            if v:
                out[j] = v
        return out, 1
    acc = {j: v for j, v in acc.items() if v}
    if d != 1:
        g = gcd(d, *acc.values())
        if g != 1:
            acc = {j: x // g for j, x in acc.items()}
            d //= g
    return acc, d


def _sparse_vec(vec) -> dict:
    """The nonzero entries of a dense vector, index -> value."""
    return {j: x for j, x in enumerate(vec) if x}


def _coerced(field: Field, n: int, v) -> list:
    v = [field.coerce(x) for x in v]
    if len(v) != n:
        raise ShapeMismatch(f"vector length {len(v)} vs ambient {n}")
    return v


def _dense_rows(rows, ncols: int, field: Field) -> tuple:
    """The dense tuples of canonical values of rows, primitive or not."""
    zero, p, out = field.zero(), field.p, []
    for row, d in rows:
        v = [zero] * ncols
        if p is not None:
            for j, x in row.items():
                v[j] = x
        else:
            for j, x in row.items():
                v[j] = Fraction(x) if d == 1 else Fraction(x, d)
        out.append(tuple(v))
    return tuple(out)


def stored_row(field: Field, values: dict) -> tuple:
    """The row of a sparse dict of nonzero canonical values (or ints): over
    Q the numerators over their least common denominator, primitive."""
    if field.p is not None:
        return values, 1
    d = lcm(*[x.denominator for x in values.values()])
    return {j: x.numerator * (d // x.denominator) for j, x in values.items()}, d


def vector_row(field: Field, n: int, v) -> tuple:
    """The row of a vector of length n, its entries coerced."""
    return stored_row(field, _sparse_vec(_coerced(field, n, v)))


def row_vector(field: Field, n: int, row: tuple) -> tuple:
    """The dense vector of length n of a row."""
    return _dense_rows([row], n, field)[0]


def row_values(field: Field, row: tuple) -> dict:
    """The nonzero entries of a row as canonical values, column -> value;
    over F_p the stored dict itself, which must not be modified."""
    v, d = row
    return v if field.p is not None else {j: Fraction(x, d) for j, x in v.items()}


def row_key(row: tuple):
    """A hashable key of a row, equal for equal rows."""
    return frozenset(row[0].items()), row[1]


def combine(field: Field, coeffs: tuple, rows) -> tuple:
    """The row sum of c_m * rows[m] over the entries c_m of the row
    ``coeffs``; ``rows`` is indexed by the columns of ``coeffs``.  The
    rows are summed as integers over their least common denominator."""
    p, (v, d) = field.p, coeffs
    e = 1 if p is not None else lcm(*[rows[m][1] for m in v])
    acc = {}
    for m, x in v.items():
        b, db = rows[m]
        if db != e:
            x *= e // db
        for k, y in b.items():
            acc[k] = acc.get(k, 0) + x * y
    return _primitive(acc, d * e, p)


def row_combination(field: Field, terms) -> tuple:
    """The row sum of c * v over the pairs (c, v) of ``terms``, for
    canonical scalars (or ints) c and rows v; zero coefficients are
    skipped."""
    terms = [(c, v) for c, v in terms if c]
    return combine(field, stored_row(field, {i: c for i, (c, _) in enumerate(terms)}),
                   [v for _, v in terms])


def vec_combination(field: Field, n: int, terms) -> tuple:
    """Sum of c * v over the pairs (c, v) of ``terms``, for vectors v of
    length n of canonical values; zero coefficients are skipped."""
    return row_vector(field, n, row_combination(
        field, ((c, stored_row(field, _sparse_vec(v))) for c, v in terms if c)))


def table_product(field: Field, x, y, table) -> tuple:
    """The dense vector sum of x_j y_k table[j][k] over a square table of
    rows, for dense vectors x and y of canonical values."""
    xs, ys = (stored_row(field, _sparse_vec(v)) for v in (x, y))
    return row_vector(field, len(table), combine(
        field, xs, {j: combine(field, ys, table[j]) for j in xs[0]}))


# -- matrices ----------------------------------------------------------------

@dataclass(frozen=True, eq=False, slots=True)
class Matrix:
    """Immutable matrix over an exact field, stored as its rows ``(N, d)``.

    ``rows`` is a list of one row per matrix row, shared between matrices
    and never modified.  ``data``, ``flat()`` and ``col()`` are dense
    views, built when read.  Equality and the hash (kept once taken) ignore
    the order in which a row's columns were inserted.
    """

    field: Field
    nrows: int
    ncols: int
    rows: list
    _hash: int | None = None

    @property
    def data(self) -> tuple:
        return _dense_rows(self.rows, self.ncols, self.field)

    def __eq__(self, other):
        if other.__class__ is not Matrix:
            return NotImplemented
        return (self.field, self.shape, self.rows) == \
            (other.field, other.shape, other.rows)

    def __hash__(self):
        if self._hash is None:
            _set(self, "_hash", hash((self.field, self.shape,
                                      tuple(map(row_key, self.rows)))))
        return self._hash

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0  # a ragged row is refused
        return Matrix(field, len(rows), ncols,
                      [vector_row(field, ncols, r) for r in rows])

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, nrows, ncols, [({}, 1) for _ in range(nrows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, n, n, [({i: 1}, 1) for i in range(n)])

    @staticmethod
    def from_flat(field: Field, nrows: int, ncols: int, flat) -> "Matrix":
        """Row-major flat sequence of canonical values -> matrix."""
        flat = list(flat)
        if len(flat) != nrows * ncols:
            raise ShapeMismatch(f"expected {nrows * ncols} entries, got {len(flat)}")
        return Matrix(field, nrows, ncols,
                      [stored_row(field, _sparse_vec(flat[i * ncols:(i + 1) * ncols]))
                       for i in range(nrows)])

    @staticmethod
    def from_sparse_flat(field: Field, nrows: int, ncols: int, row: tuple) -> "Matrix":
        """The matrix whose row-major flattening is the row ``row``."""
        v, d = row
        parts = [{} for _ in range(nrows)]
        for k, x in v.items():
            i, j = divmod(k, ncols)
            parts[i][j] = x
        return Matrix(field, nrows, ncols, [_primitive(r, d, field.p) if d != 1
                                            else (r, 1) for r in parts])

    # -- basic access ------------------------------------------------------

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def flat(self) -> tuple:
        """Row-major flattening."""
        return tuple(x for r in self.data for x in r)

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return not any(v for v, _ in self.rows)

    def is_identity(self) -> bool:
        """Square, with each row holding only a one on the diagonal."""
        return self.nrows == self.ncols and all(
            d == 1 and len(v) == 1 and v.get(i) == 1 for i, (v, d) in enumerate(self.rows))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def _plus(self, other: "Matrix", c: int) -> "Matrix":
        """self + c * other."""
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if self.shape != other.shape:
            raise ShapeMismatch(f"shape {self.shape} vs {other.shape}")
        return Matrix(self.field, self.nrows, self.ncols,
                      [combine(self.field, ({0: 1, 1: c}, 1), pair)
                       for pair in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, self.nrows, self.ncols,
                      [row_combination(self.field, [(c, row)]) for row in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        field, brows = self.field, other.rows
        return Matrix(field, self.nrows, other.ncols,
                      [combine(field, row, brows) for row in self.rows])

    def mat_vec(self, v: tuple) -> tuple:
        if len(v) != self.ncols:
            raise ShapeMismatch(f"vector length {len(v)} vs {self.ncols} columns")
        p = self.field.p
        if p is not None:
            return tuple(sum(x * v[k] for k, x in row.items()) % p for row, _ in self.rows)
        e = lcm(*[x.denominator for x in v])
        w = [x.numerator * (e // x.denominator) for x in v]
        return tuple(Fraction(sum(x * w[k] for k, x in row.items()), d * e)
                     for row, d in self.rows)

    def transpose(self) -> "Matrix":
        cols = [{} for _ in range(self.ncols)]
        e = 1 if self.field.p is not None else lcm(*[d for _, d in self.rows])
        for i, (row, d) in enumerate(self.rows):
            f = e // d
            for j, x in row.items():
                cols[j][i] = x * f
        return Matrix(self.field, self.ncols, self.nrows,
                      [(c, 1) if e == 1 else _primitive(c, e, None) for c in cols])

    # -- block assembly ----------------------------------------------------

    @staticmethod
    def hstack(blocks) -> "Matrix":
        """Side by side: the transpose of the stacked transposes."""
        return Matrix.vstack([b.transpose() for b in blocks]).transpose()

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
            rows += [({ncols + j: x for j, x in v.items()}, d) for v, d in b.rows]
            ncols += b.ncols
        return Matrix(field, len(rows), ncols, rows)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple:
        """Reduced row echelon form and pivot columns: ``(R, pivots)``."""
        rows = [dict(v) for v, _ in self.rows if v]
        dens = [d for v, d in self.rows if v]
        pivots = _eliminate(rows, dens, self.field.p, self.ncols)
        rank = len(pivots)
        return Matrix(self.field, self.nrows, self.ncols,
                      list(zip(rows[:rank], dens)) + [({}, 1)] * (self.nrows - rank)), \
            tuple(pivots)

    def rank(self) -> int:
        rows = [dict(v) for v, _ in self.rows if v]
        return len(_eliminate(rows, [d for v, d in self.rows if v], self.field.p,
                              self.ncols)) if rows else 0

    def kernel(self) -> "Subspace":
        """Right kernel {v : Mv = 0} as a subspace of F^ncols, from one
        elimination with the columns in reverse order (j -> n-1-j).  In the
        original order each pivot row R_c then holds, besides its pivot c,
        only free columns left of c.  So for each free column f the vector
        e_f - sum_c R_c[f] e_c leads at f and holds no other free column:
        these vectors are the reduced echelon basis, which is unique."""
        n, p = self.ncols, self.field.p
        rows = [{n - 1 - j: x for j, x in v.items()} for v, _ in self.rows if v]
        dens = [d for v, d in self.rows if v]
        pivots = _eliminate(rows, dens, p, n)
        free = {f: [] for f in range(n)}  # f -> (c, R_c[f] numerator, R_c denominator)
        for c in pivots:
            del free[n - 1 - c]
        for c, row, d in zip(pivots, rows, dens):
            for j, x in row.items():
                if j != c:
                    free[n - 1 - j].append((n - 1 - c, x, d))
        basis = {}
        for f, col in free.items():
            if p is not None:
                basis[f] = ({f: 1, **{c: p - x for c, x, _ in col}}, 1)
            else:
                e = lcm(*[d for _, _, d in col])
                col = {c: -x * (e // d) for c, x, d in col}
                basis[f] = _primitive({f: e, **col}, e, None)
        return Subspace(self.field, n, basis)

    def column_space(self) -> "Subspace":
        # the transpose's rows are new dicts, free for _span to consume
        return Subspace._span(self.field, self.nrows, self.transpose().rows)

    def row_space(self) -> "Subspace":
        return Subspace._span(self.field, self.ncols, [(dict(v), d) for v, d in self.rows])

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
    d = 1 if m.field.p is not None else lcm(*[e for _, e in m.rows])
    return [(i, j, v * (d // e)) for i, (row, e) in enumerate(m.rows)
            for j, v in row.items()], d


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
            if not isinstance(c, int):  # an int is its own numerator
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
        rows += [_primitive(r, d, p) if r else ({}, 1) for r in block]
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
        return row_vector(self.field, self.ambient_dim, self.sparse_row(blocks))

    def sparse_row(self, blocks: dict) -> tuple:
        """The row of the coordinates of the blocks: their whole rows over
        the least common denominator, which keeps it primitive."""
        parts, pos = [], 0
        for key, (r, c) in zip(self.keys, self.shapes):
            m = blocks.get(key)
            if m is not None:
                parts += [(pos + i * c, row) for i, row in enumerate(m.rows)]
            pos += r * c
        e = lcm(*[d for _, (_, d) in parts])
        out = {}
        for at, (v, d) in parts:
            f = e // d
            for j, x in v.items():
                out[at + j] = x * f
        return out, e

    def unflatten(self, vec) -> dict:
        if len(vec) != self.ambient_dim:
            raise ShapeMismatch(f"expected {self.ambient_dim} coordinates, got {len(vec)}")
        return self.split(stored_row(self.field, _sparse_vec(vec)))

    def split(self, row: tuple) -> dict:
        """The blocks whose coordinates are the row ``row``."""
        v, d = row
        out, pos = {}, 0
        for key, (r, c) in zip(self.keys, self.shapes):
            part = {j - pos: x for j, x in v.items() if pos <= j < pos + r * c}
            out[key] = Matrix.from_sparse_flat(self.field, r, c, (part, d))
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
        n, p = m.ncols, m.field.p
        rows = [{**v, n + i: d} for i, (v, d) in enumerate(m.rows)]  # (M | I)
        dens = [d for _, d in m.rows]
        self.pivots = tuple(_eliminate(rows, dens, p, n))
        # an invertible E with E @ M in reduced echelon form; rows past the
        # rank must vanish on b for Mx = b to be consistent
        self.transform = Matrix(m.field, m.nrows, m.nrows,
                                [_primitive({j - n: x for j, x in row.items() if j >= n}, d, p)
                                 for row, d in zip(rows, dens)])

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
    ``by_pivot`` maps each pivot column, ascending, to its basis row
    ``(N, d)``, never modified, whose pivot numerator ``N[c]`` is d.  The
    basis is canonical, so equality is equality of subspaces; ``basis`` is
    the dense view, built when read."""

    field: Field
    ambient: int
    by_pivot: dict

    @staticmethod
    def from_vectors(field: Field, ambient: int, vectors) -> "Subspace":
        return Subspace._span(field, ambient,
                              [vector_row(field, ambient, v) for v in vectors])

    @staticmethod
    def _span(field: Field, ambient: int, rows: list) -> "Subspace":
        """Span of rows, whose dicts it consumes; the reduced rows become
        the subspace's basis."""
        rows = [row for row in rows if row[0]]
        nums, dens = [v for v, _ in rows], [d for _, d in rows]
        pivots = _eliminate(nums, dens, field.p, ambient)
        return Subspace(field, ambient, dict(zip(pivots, zip(nums, dens))))

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(field, ambient, {})

    @property
    def basis(self) -> tuple:
        return _dense_rows(self.by_pivot.values(), self.ambient, self.field)

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

    def _residue(self, v: tuple) -> tuple:
        """The one reduction: the row v minus v[c] times the basis row with
        pivot c, for each pivot c of v.  Basis rows vanish at each other's
        pivots, so the coefficients are the entries of v; the residue is
        empty exactly when v lies in the span."""
        rows, (num, d) = self.by_pivot, v
        acc, e = combine(self.field, ({c: -x for c, x in num.items() if c in rows}, 1), rows)
        for k, x in num.items():
            acc[k] = acc.get(k, 0) + x * e
        return _primitive(acc, d * e, self.field.p)

    def reduce(self, v: tuple) -> tuple:
        """Canonical representative of v modulo this subspace."""
        return row_vector(self.field, self.ambient,
                          self._residue(vector_row(self.field, self.ambient, v)))

    def contains(self, v: tuple) -> bool:
        return not self._residue(vector_row(self.field, self.ambient, v))[0]

    def coordinates(self, v: tuple):
        """Coordinates of v in the canonical basis, or None for v outside
        the span: the entries of v at the pivot columns, certified by
        reducing v to zero."""
        v = _coerced(self.field, self.ambient, v)
        if self._residue(stored_row(self.field, _sparse_vec(v)))[0]:
            return None
        return tuple(v[c] for c in self.by_pivot)

    def coordinate_matrix(self, m: Matrix):
        """The dim x m.ncols matrix X with ``column_matrix() @ X == m``, read
        off the pivot entries of each column of m once the column reduces to
        zero; None if a column of m lies outside the span."""
        cols = []
        for col in m.transpose().rows:
            if self._residue(col)[0]:
                return None
            v, d = col
            cols.append(_primitive({i: v[c] for i, c in enumerate(self.by_pivot) if c in v},
                                   d, self.field.p))
        return Matrix(self.field, len(cols), self.dim, cols).transpose()

    def contains_subspace(self, other: "Subspace") -> bool:
        """Every basis row of ``other`` reduces to zero."""
        self._check_compatible(other)
        return not any(self._residue(row)[0] for row in other.by_pivot.values())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace._span(self.field, self.ambient,
                              [(dict(v), d) for s in (self, other)
                               for v, d in s.by_pivot.values()])

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: reduce the rows (u, u) for u in this basis and (w, 0)
        for w in the other's; the reduced rows (0, y) are the reduced
        echelon basis of the intersection."""
        self._check_compatible(other)
        n = self.ambient
        rows = [({**u, **{n + j: x for j, x in u.items()}}, d)
                for u, d in self.by_pivot.values()]
        rows += [(dict(w), d) for w, d in other.by_pivot.values()]
        nums, dens = [v for v, _ in rows], [d for _, d in rows]
        pivots = _eliminate(nums, dens, self.field.p, 2 * n)
        return Subspace(self.field, n, {pc - n: ({j - n: x for j, x in v.items()}, d)
                                        for v, d, pc in zip(nums, dens, pivots)
                                        if pc >= n})

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")
        if self.ambient != other.ambient:
            raise ShapeMismatch("subspaces of different ambient spaces")

    def column_matrix(self) -> Matrix:
        """Matrix whose columns are the canonical basis vectors."""
        return Matrix(self.field, self.dim, self.ambient,
                      list(self.by_pivot.values())).transpose()

    def quotient_matrix(self) -> Matrix:
        """Linear map F^ambient -> F^(ambient-dim) with kernel exactly this
        subspace: reduce modulo the basis, keep the non-pivot coordinates.
        Reducing e_j leaves it alone for a non-pivot j and subtracts the
        basis row with pivot j otherwise; a basis row holds no other pivot.
        So row k, for a non-pivot k, is e_k minus, at each pivot c, the
        entry at k of the basis row with pivot c."""
        field = self.field
        rows = {k: ({k: 1}, 1) for k in range(self.ambient) if k not in self.by_pivot}
        for pc, (b, d) in self.by_pivot.items():
            for k, x in b.items():
                if k != pc:
                    row, e = rows[k]
                    if d != e:  # over Q: both over their lcm
                        f = lcm(d, e)
                        row = {j: y * (f // e) for j, y in row.items()}
                        x *= f // d
                        rows[k] = row, f
                    row[pc] = field.neg(x)
        return Matrix(field, len(rows), self.ambient,
                      [(v, 1) if e == 1 else _primitive(v, e, None) for v, e in rows.values()])

    def section_matrix(self) -> Matrix:
        """Right inverse of ``quotient_matrix`` (standard basis vectors on
        the non-pivot coordinates), shape ambient x (ambient - dim)."""
        free = [j for j in range(self.ambient) if j not in self.by_pivot]
        rows = [({}, 1)] * self.ambient
        for i, j in enumerate(free):
            rows[j] = ({i: 1}, 1)
        return Matrix(self.field, self.ambient, len(free), rows)
