"""Exact matrix helpers for the benchmark's input generator and references.

Matrices are lists of row lists holding ints or ``Fraction``s.  With a prime
``p`` every result is reduced into ``0..p-1``; with ``p=None`` arithmetic is
over Q.  Nothing here imports compvar: the references built on it must not
share code with the program they check.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(nrows: int, ncols: int) -> list:
    return [[0] * ncols for _ in range(nrows)]


def matmul(a: list, b: list, p: int | None = None) -> list:
    """``a @ b``; the inner dimension is ``len(b)``, so empty shapes work."""
    inner = len(b)
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for j in range(ncols):
            s = sum(row[k] * b[k][j] for k in range(inner))
            new.append(s % p if p else s)
        out.append(new)
    return out


def block_diag(blocks) -> list:
    """Block-diagonal matrix of possibly rectangular blocks."""
    nrows = sum(len(b) for b in blocks)
    ncols = sum(len(b[0]) if b else 0 for b in blocks)
    out = zeros(nrows, ncols)
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[r0 + i][c0 + j] = v
        r0 += len(b)
        c0 += len(b[0]) if b else 0
    return out


def rref(rows: list, p: int | None = None) -> tuple:
    """Reduced row echelon form of a copy of ``rows``: ``(rows, pivots)``."""
    m = [[Fraction(v) if p is None else v % p for v in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, len(m)) if m[k][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c] if p is None else pow(m[r][c], -1, p)
        m[r] = [v * inv if p is None else v * inv % p for v in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c]:
                f = m[k][c]
                m[k] = [a - f * b if p is None else (a - f * b) % p
                        for a, b in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: list, p: int | None = None) -> int:
    return len(rref(rows, p)[1]) if rows and rows[0] else 0


def inverse(m: list, p: int | None = None) -> list:
    """Inverse over Q or F_p; raises ValueError when ``m`` is singular."""
    n = len(m)
    aug = [list(row) + identity(n)[i] for i, row in enumerate(m)]
    red, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]
