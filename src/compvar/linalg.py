"""Dense exact linear algebra: matrices, echelon forms, subspaces, solvers,
and ``linear_system``, the one builder that turns linear equations in
unknown matrices (sums of terms ``c * L @ X_k @ R``) into a coefficient
matrix.

Everything is immutable and deterministic: row reduction always picks the
leftmost available pivot and the first nonzero row below it, so reduced
echelon forms (and hence subspace representations) are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch, ShapeMismatch
from .fields import Field


def _rref_inplace(rows: list, field: Field) -> list:
    """Reduce ``rows`` (list of lists) in place; return pivot column list."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    p = field.p
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for k in range(r, nrows):
            if rows[k][c]:
                pr = k
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        if p is None:
            if pv != 1:
                inv = 1 / Fraction(pv)
                prow = [x * inv for x in prow]
                rows[r] = prow
            for k in range(nrows):
                if k != r:
                    f = rows[k][c]
                    if f:
                        rk = rows[k]
                        rows[k] = [a - f * b for a, b in zip(rk, prow)]
        else:
            if pv != 1:
                inv = pow(pv, -1, p)
                prow = [x * inv % p for x in prow]
                rows[r] = prow
            for k in range(nrows):
                if k != r:
                    f = rows[k][c]
                    if f:
                        rk = rows[k]
                        rows[k] = [(a - f * b) % p for a, b in zip(rk, prow)]
        pivots.append(c)
        r += 1
    return pivots


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over an exact field.

    ``data`` is a tuple of row tuples; scalars are canonical field values.
    """

    field: Field
    nrows: int
    ncols: int
    data: tuple

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatch("ragged rows in matrix literal")
        data = tuple(tuple(field.coerce(x) for x in r) for r in rows)
        return Matrix(field, nrows, ncols, data)

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, nrows, ncols, tuple((z,) * ncols for _ in range(nrows)))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, n, n,
                      tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def from_flat(field: Field, nrows: int, ncols: int, flat) -> "Matrix":
        """Row-major flat sequence -> matrix."""
        flat = list(flat)
        if len(flat) != nrows * ncols:
            raise ShapeMismatch(f"expected {nrows * ncols} entries, got {len(flat)}")
        return Matrix(field, nrows, ncols,
                      tuple(tuple(flat[i * ncols:(i + 1) * ncols]) for i in range(nrows)))

    # -- basic access ------------------------------------------------------

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def flat(self) -> tuple:
        """Row-major flattening."""
        return tuple(x for r in self.data for x in r)

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return all(not x for r in self.data for x in r)

    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        o = self.field.one()
        return all(x == (o if i == j else 0)
                   for i, r in enumerate(self.data) for j, x in enumerate(r))

    # -- arithmetic --------------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if self.shape != other.shape:
            raise ShapeMismatch(f"shape {self.shape} vs {other.shape}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p = self.field.p
        if p is None:
            data = tuple(tuple(a + b for a, b in zip(r, s))
                         for r, s in zip(self.data, other.data))
        else:
            data = tuple(tuple((a + b) % p for a, b in zip(r, s))
                         for r, s in zip(self.data, other.data))
        return Matrix(self.field, self.nrows, self.ncols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p = self.field.p
        if p is None:
            data = tuple(tuple(a - b for a, b in zip(r, s))
                         for r, s in zip(self.data, other.data))
        else:
            data = tuple(tuple((a - b) % p for a, b in zip(r, s))
                         for r, s in zip(self.data, other.data))
        return Matrix(self.field, self.nrows, self.ncols, data)

    def __neg__(self) -> "Matrix":
        p = self.field.p
        if p is None:
            data = tuple(tuple(-a for a in r) for r in self.data)
        else:
            data = tuple(tuple(-a % p for a in r) for r in self.data)
        return Matrix(self.field, self.nrows, self.ncols, data)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        p = self.field.p
        if p is None:
            data = tuple(tuple(c * a for a in r) for r in self.data)
        else:
            data = tuple(tuple(c * a % p for a in r) for r in self.data)
        return Matrix(self.field, self.nrows, self.ncols, data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        if self.ncols == 0:
            return Matrix.zeros(self.field, self.nrows, other.ncols)
        p = self.field.p
        cols = list(zip(*other.data)) if other.data else []
        z = self.field.zero()
        if p is None:
            data = tuple(tuple(sum((a * b for a, b in zip(row, col)), z) for col in cols)
                         for row in self.data)
        else:
            data = tuple(tuple(sum(a * b for a, b in zip(row, col)) % p for col in cols)
                         for row in self.data)
        return Matrix(self.field, self.nrows, other.ncols, data)

    def mat_vec(self, v: tuple) -> tuple:
        if len(v) != self.ncols:
            raise ShapeMismatch(f"vector length {len(v)} vs {self.ncols} columns")
        p = self.field.p
        z = self.field.zero()
        if p is None:
            return tuple(sum((a * b for a, b in zip(row, v)), z) for row in self.data)
        return tuple(sum(a * b for a, b in zip(row, v)) % p for row in self.data)

    def transpose(self) -> "Matrix":
        if self.nrows == 0 or self.ncols == 0:
            return Matrix(self.field, self.ncols, self.nrows,
                          tuple(() for _ in range(self.ncols)))
        return Matrix(self.field, self.ncols, self.nrows, tuple(zip(*self.data)))

    # -- block assembly ----------------------------------------------------

    @staticmethod
    def hstack(blocks) -> "Matrix":
        blocks = list(blocks)
        field, nrows = blocks[0].field, blocks[0].nrows
        for b in blocks:
            if b.nrows != nrows:
                raise ShapeMismatch("hstack row counts differ")
        data = tuple(tuple(x for b in blocks for x in b.data[i]) for i in range(nrows))
        return Matrix(field, nrows, sum(b.ncols for b in blocks), data)

    @staticmethod
    def vstack(blocks) -> "Matrix":
        blocks = list(blocks)
        field, ncols = blocks[0].field, blocks[0].ncols
        for b in blocks:
            if b.ncols != ncols:
                raise ShapeMismatch("vstack column counts differ")
        data = tuple(r for b in blocks for r in b.data)
        return Matrix(field, sum(b.nrows for b in blocks), ncols, data)

    @staticmethod
    def block(grid) -> "Matrix":
        """Assemble from a 2D grid of conforming blocks."""
        return Matrix.vstack([Matrix.hstack(row) for row in grid])

    @staticmethod
    def block_diag(field: Field, blocks) -> "Matrix":
        blocks = list(blocks)
        nrows = sum(b.nrows for b in blocks)
        ncols = sum(b.ncols for b in blocks)
        out = Matrix.zeros(field, nrows, ncols)
        rows = [list(r) for r in out.data]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.nrows):
                rows[r0 + i][c0:c0 + b.ncols] = list(b.data[i])
            r0 += b.nrows
            c0 += b.ncols
        return Matrix(field, nrows, ncols, tuple(tuple(r) for r in rows))

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        row_idx, col_idx = list(row_idx), list(col_idx)
        data = tuple(tuple(self.data[i][j] for j in col_idx) for i in row_idx)
        return Matrix(self.field, len(row_idx), len(col_idx), data)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple:
        """Reduced row echelon form and pivot columns: ``(R, pivots)``."""
        rows = [list(r) for r in self.data]
        pivots = _rref_inplace(rows, self.field)
        return (Matrix(self.field, self.nrows, self.ncols,
                       tuple(tuple(r) for r in rows)), tuple(pivots))

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Subspace":
        """Right kernel {v : Mv = 0} as a subspace of F^ncols."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        z, o = self.field.zero(), self.field.one()
        basis = []
        for j in free:
            v = [z] * self.ncols
            v[j] = o
            for r, pc in enumerate(pivots):
                v[pc] = self.field.neg(red.data[r][j])
            basis.append(tuple(v))
        return Subspace.from_vectors(self.field, self.ncols, basis)

    def column_space(self) -> "Subspace":
        return Subspace.from_vectors(self.field, self.nrows,
                                     [self.col(j) for j in range(self.ncols)])

    def row_space(self) -> "Subspace":
        return Subspace.from_vectors(self.field, self.ncols, list(self.data))

    def solve(self, b: tuple):
        """One solution of Mx = b (free variables zero), or None."""
        return LinearSolver(self).solve(b)

    def inverse(self):
        """Exact inverse, or None if singular (requires square)."""
        if self.nrows != self.ncols:
            raise ShapeMismatch("inverse of a non-square matrix")
        n = self.nrows
        aug = Matrix.hstack([self, Matrix.identity(self.field, n)])
        red, pivots = aug.rref()
        if tuple(pivots[:n]) != tuple(range(n)):
            return None
        return red.submatrix(range(n), range(n, 2 * n))

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def trace(self):
        if self.nrows != self.ncols:
            raise ShapeMismatch("trace of a non-square matrix")
        z = self.field.zero()
        if self.field.p is None:
            return sum((self.data[i][i] for i in range(self.nrows)), z)
        return sum(self.data[i][i] for i in range(self.nrows)) % self.field.p

    def __str__(self):
        if not self.nrows or not self.ncols:
            return f"<{self.nrows}x{self.ncols} over {self.field}>"
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"[{body}]"


def _nonzeros(m, n: int, scale=None) -> list:
    """``(row, col, value)`` for the nonzero entries of ``m``, or for the
    n x n identity when ``m`` is None (value ``None`` standing for one);
    values are multiplied by ``scale`` when it is given."""
    if m is None:
        return [(i, i, scale) for i in range(n)]
    return [(i, j, v if scale is None else scale * v)
            for i, row in enumerate(m.data) for j, v in enumerate(row) if v]


def linear_system(field: Field, shapes, equations) -> Matrix:
    """Coefficient matrix of linear equations in unknown matrices.

    The unknowns X_0, X_1, ... have the ``(rows, cols)`` given in
    ``shapes``; the columns are their entries, row-major, one unknown after
    another.  An equation ``(rows, cols, terms)`` is the rows x cols sum of
    ``c * L @ X_k @ R`` over its terms ``(c, L, k, R)``, with ``None`` for
    an identity factor.  It contributes one row per entry of the sum, in
    row-major order, read off from vec(L X R) = (R^T (x) L) vec(X): entry
    (a, b) gets c * L[a, i] * R[j, b] in the column of X_k[i, j].  Every
    row is kept, zero or not, so rows line up with the equations.
    """
    offsets, ncols = [], 0
    for r, c in shapes:
        offsets.append(ncols)
        ncols += r * c
    p = field.p
    z = field.zero()
    rows = []
    for nr, nc, terms in equations:
        block = [[z] * ncols for _ in range(nr * nc)]
        for c, left, k, right in terms:
            xr, xc = shapes[k]
            lshape = left.shape if left is not None else (xr, xr)
            rshape = right.shape if right is not None else (xc, xc)
            if lshape != (nr, xr) or rshape != (xc, nc):
                raise ShapeMismatch(f"term on unknown {k} of shape {(xr, xc)} "
                                    f"does not give a {nr} x {nc} matrix")
            base = offsets[k]
            rights = _nonzeros(right, xc)
            for a, i, lv in _nonzeros(left, xr, field.coerce(c)):
                col0 = base + i * xc
                for j, b, rv in rights:
                    v = lv if rv is None else lv * rv
                    row = block[a * nc + b]
                    cur = row[col0 + j]
                    if p is None:
                        row[col0 + j] = cur + v if cur else v
                    else:
                        row[col0 + j] = (cur + v) % p
        rows.extend(block)
    return Matrix(field, len(rows), ncols, tuple(map(tuple, rows)))


class LinearSolver:
    """Reusable exact solver for Mx = b with a fixed M.

    The particular solution sets all free variables to zero, which makes
    ``solve`` a linear map on the subspace of consistent right-hand sides —
    a property the tangent-geometry code relies on.
    """

    def __init__(self, m: Matrix):
        self.m = m
        aug = Matrix.hstack([m, Matrix.identity(m.field, m.nrows)])
        red, pivots = aug.rref()
        self.pivots = tuple(pc for pc in pivots if pc < m.ncols)
        # rows of the reduction transform E with E @ M in RREF
        self.transform = red.submatrix(range(m.nrows), range(m.ncols, m.ncols + m.nrows))
        self.reduced = red.submatrix(range(m.nrows), range(m.ncols))

    def solve(self, b: tuple):
        m = self.m
        if len(b) != m.nrows:
            raise ShapeMismatch(f"rhs length {len(b)} vs {m.nrows} rows")
        y = self.transform.mat_vec(tuple(m.field.coerce(x) for x in b))
        z = m.field.zero()
        x = [z] * m.ncols
        npiv = len(self.pivots)
        for r, pc in enumerate(self.pivots):
            x[pc] = y[r]
        for r in range(npiv, m.nrows):
            if y[r]:
                return None
        return tuple(x)

    def solve_matrix(self, b: Matrix):
        """Solve M X = B column by column; None if any column inconsistent."""
        cols = []
        for j in range(b.ncols):
            x = self.solve(b.col(j))
            if x is None:
                return None
            cols.append(x)
        return Matrix(self.m.field, self.m.ncols, b.ncols, tuple(zip(*cols))) \
            if cols else Matrix.zeros(self.m.field, self.m.ncols, 0)


@dataclass(frozen=True)
class Subspace:
    """Subspace of F^ambient with a canonical (RREF) basis, rows as vectors."""

    field: Field
    ambient: int
    basis: tuple  # tuple of row tuples, in reduced echelon form, no zero rows

    @staticmethod
    def from_vectors(field: Field, ambient: int, vectors) -> "Subspace":
        vecs = [list(field.coerce(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise ShapeMismatch(f"vector length {len(v)} vs ambient {ambient}")
        if not vecs:
            return Subspace(field, ambient, ())
        _rref_inplace(vecs, field)
        basis = tuple(tuple(v) for v in vecs if any(v))
        return Subspace(field, ambient, basis)

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(field, ambient, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def pivots(self) -> tuple:
        out = []
        for row in self.basis:
            for j, x in enumerate(row):
                if x:
                    out.append(j)
                    break
        return tuple(out)

    def reduce(self, v: tuple) -> tuple:
        """Canonical representative of v modulo this subspace."""
        if len(v) != self.ambient:
            raise ShapeMismatch(f"vector length {len(v)} vs ambient {self.ambient}")
        field = self.field
        v = list(field.coerce(x) for x in v)
        p = field.p
        for row, pc in zip(self.basis, self.pivots()):
            f = v[pc]
            if f:
                if p is None:
                    v = [a - f * b for a, b in zip(v, row)]
                else:
                    v = [(a - f * b) % p for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, v: tuple) -> bool:
        return not any(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_vectors(self.field, self.ambient,
                                     list(self.basis) + list(other.basis))

    def intersection(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.field, self.ambient)
        a = Matrix.from_rows(self.field, self.basis).transpose()
        b = Matrix.from_rows(self.field, other.basis).transpose()
        ker = Matrix.hstack([a, b]).kernel()
        vecs = [a.mat_vec(v[:self.dim]) for v in ker.basis]
        return Subspace.from_vectors(self.field, self.ambient, vecs)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")
        if self.ambient != other.ambient:
            raise ShapeMismatch("subspaces of different ambient spaces")

    def basis_matrix(self) -> Matrix:
        """Matrix whose rows are the canonical basis vectors."""
        return Matrix(self.field, self.dim, self.ambient, self.basis)

    def column_matrix(self) -> Matrix:
        """Matrix whose columns are the canonical basis vectors."""
        return self.basis_matrix().transpose()

    def coordinates(self, v: tuple):
        """Coefficients of v in the canonical basis, or None if v outside."""
        if not self.contains(v):
            return None
        coords = []
        v = list(self.field.coerce(x) for x in v)
        for row, pc in zip(self.basis, self.pivots()):
            coords.append(v[pc])
        return tuple(coords)

    def quotient_matrix(self) -> Matrix:
        """Linear map F^ambient -> F^(ambient-dim) with kernel exactly this
        subspace: reduce modulo the basis, keep the non-pivot coordinates."""
        pivot_set = set(self.pivots())
        free = [j for j in range(self.ambient) if j not in pivot_set]
        z, o = self.field.zero(), self.field.one()
        red_cols = []
        for j in range(self.ambient):
            v = [z] * self.ambient
            v[j] = o
            red_cols.append(self.reduce(tuple(v)))
        # column j of the reduction map is reduce(e_j); the quotient keeps
        # only the non-pivot coordinates of the reduced vector
        rows = tuple(tuple(red_cols[j][k] for j in range(self.ambient)) for k in free)
        return Matrix(self.field, len(free), self.ambient, rows)

    def section_matrix(self) -> Matrix:
        """Right inverse of ``quotient_matrix`` (standard basis vectors on
        the non-pivot coordinates), shape ambient x (ambient - dim)."""
        pivot_set = set(self.pivots())
        free = [j for j in range(self.ambient) if j not in pivot_set]
        z, o = self.field.zero(), self.field.one()
        cols = []
        for j in free:
            v = [z] * self.ambient
            v[j] = o
            cols.append(tuple(v))
        if not cols:
            return Matrix.zeros(self.field, self.ambient, 0)
        return Matrix(self.field, self.ambient, len(cols), tuple(zip(*cols)))


# -- vector helpers ---------------------------------------------------------

def vec_add(field: Field, a: tuple, b: tuple) -> tuple:
    if field.p is None:
        return tuple(x + y for x, y in zip(a, b))
    return tuple((x + y) % field.p for x, y in zip(a, b))

def vec_sub(field: Field, a: tuple, b: tuple) -> tuple:
    if field.p is None:
        return tuple(x - y for x, y in zip(a, b))
    return tuple((x - y) % field.p for x, y in zip(a, b))

def vec_scale(field: Field, c, a: tuple) -> tuple:
    c = field.coerce(c)
    if field.p is None:
        return tuple(c * x for x in a)
    return tuple(c * x % field.p for x in a)

def vec_zero(field: Field, n: int) -> tuple:
    return (field.zero(),) * n
