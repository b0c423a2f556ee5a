"""Finite-dimensional associative unital algebras over exact fields.

An algebra is given by structure constants on a basis (a_1, ..., a_s) with
a_1 = 1 enforced, or built from a quiver presentation (vertices, arrows,
relations, nilpotency bound) by pure linear algebra on path coefficient
vectors.  Quiver-constructed algebras additionally record their complete
orthogonal primitive idempotents and a structural radical basis, both of
which downstream module theory needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from .errors import (BudgetExceeded, MissingIdempotents, ShapeMismatch,
                     UnsupportedCharacteristic, ValidationFailure)
from .fields import Field
from .linalg import Matrix, Subspace, linear_system, vec_combination, vec_zero


@dataclass(frozen=True, eq=False)
class FDAlgebra:
    """Associative unital algebra by structure constants.

    ``products[j][k]`` is the coordinate vector of a_j * a_k; index 0 is the
    identity.  ``idempotents`` (coordinate vectors of a complete orthogonal
    set of primitive idempotents summing to 1) and ``radical_vectors`` (a
    basis of the Jacobson radical) are recorded when the algebra came from a
    quiver presentation; they are caches, so equality and hashing ignore
    them -- an algebra re-read from its serialized table is the same
    algebra.
    """

    field: Field
    dim: int
    labels: tuple
    products: tuple  # s x s tuple of coordinate s-tuples
    idempotents: tuple | None = None
    radical_vectors: tuple | None = None
    _memo: dict = dataclass_field(default_factory=dict, init=False, repr=False)

    def cached(self, key: str, compute):
        """``compute(self)``, computed once per instance (not per equal
        algebra: equality ignores the idempotents the result may use)."""
        if key not in self._memo:
            self._memo[key] = compute(self)
        return self._memo[key]

    def __eq__(self, other):
        if not isinstance(other, FDAlgebra):
            return NotImplemented
        return (self.field, self.dim, self.labels, self.products) == \
            (other.field, other.dim, other.labels, other.products)

    def __hash__(self):
        return self.cached("hash", lambda a: hash((a.field, a.dim, a.labels, a.products)))

    # -- element arithmetic --------------------------------------------------

    def zero_vec(self) -> tuple:
        return vec_zero(self.field, self.dim)

    def unit_vec(self) -> tuple:
        v = [self.field.zero()] * self.dim
        v[0] = self.field.one()
        return tuple(v)

    def basis_vec(self, j: int) -> tuple:
        v = [self.field.zero()] * self.dim
        v[j] = self.field.one()
        return tuple(v)

    def mul_vec(self, x: tuple, y: tuple) -> tuple:
        """Product of two elements in coordinates."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeMismatch("element coordinate length mismatch")
        return _bilinear(self.field, x, y, self.products)

    def left_mult_matrix(self, x: tuple) -> Matrix:
        """Matrix of y -> x*y in the basis (columns are x * a_k)."""
        cols = [self.mul_vec(x, self.basis_vec(k)) for k in range(self.dim)]
        return Matrix.from_rows(self.field, cols).transpose()

    def right_mult_matrix(self, x: tuple) -> Matrix:
        """Matrix of y -> y*x in the basis (columns are a_k * x)."""
        cols = [self.mul_vec(self.basis_vec(k), x) for k in range(self.dim)]
        return Matrix.from_rows(self.field, cols).transpose()

    def primitive_idempotents(self) -> tuple:
        if self.idempotents is None:
            raise MissingIdempotents(
                "algebra was not built from a quiver presentation")
        return self.idempotents

    def is_commutative(self) -> bool:
        return all(self.products[j][k] == self.products[k][j]
                   for j in range(self.dim) for k in range(self.dim))

    def __str__(self):
        return f"<algebra dim {self.dim} over {self.field}>"


def algebra_from_constants(field: Field, dim: int, labels, constants,
                           idempotents=None, radical_vectors=None) -> FDAlgebra:
    """Assemble an algebra from a sparse {(j, k, l): scalar} map (0-based).

    Products by the identity (index 0) are filled in automatically; explicit
    entries for them must agree.  The result is validated.
    """
    if dim < 1:
        raise ValidationFailure("algebra must contain the identity (dim >= 1)")
    labels = tuple(labels) if labels is not None else tuple(f"a{j+1}" for j in range(dim))
    if len(labels) != dim:
        raise ShapeMismatch("label count differs from dimension")
    table = [[list(vec_zero(field, dim)) for _ in range(dim)] for _ in range(dim)]
    for j in range(dim):
        table[0][j][j] = field.one()
        table[j][0][j] = field.one()
    for (j, k, l), val in constants.items():
        val = field.coerce(val)
        if j == 0 or k == 0:
            expected = field.one() if (j == 0 and l == k) or (k == 0 and l == j) else field.zero()
            if val != expected:
                raise ValidationFailure(
                    f"identity product constant c_{j+1},{k+1},{l+1} = {val} contradicts a_1 = 1",
                    witness=("identity", j, k, l))
            continue
        table[j][k][l] = val
    products = tuple(tuple(tuple(cell) for cell in row) for row in table)
    alg = FDAlgebra(field, dim, labels, products,
                    idempotents=idempotents, radical_vectors=radical_vectors)
    witness = validate_algebra(alg)
    if witness is not None:
        raise ValidationFailure(f"structure constants invalid: {witness}",
                                witness=witness)
    return alg


def validate_algebra(a: FDAlgebra) -> tuple | None:
    """Check unitality and associativity; return None or a witness tuple.

    Once the unit laws hold, every basis triple containing the identity is
    associative, so only triples of the other basis elements are checked,
    each as two sums over the nonzero structure constants.  Over Q the
    constants are first scaled to integers by their common denominator D;
    both sides then scale by D^2, so the comparison stays exact."""
    for k in range(a.dim):
        if a.products[0][k] != a.basis_vec(k):
            return ("unit-left", k)
        if a.products[k][0] != a.basis_vec(k):
            return ("unit-right", k)
    p = a.field.p
    scale = math.lcm(*(c.denominator for row in a.products
                       for cell in row for c in cell))  # 1 over F_p
    nz = [[[(m, c.numerator * (scale // c.denominator))
            for m, c in enumerate(cell) if c] for cell in row]
          for row in a.products]

    def combine(terms):
        acc = {}
        for c, vec in terms:
            for n, d in vec:
                acc[n] = acc.get(n, 0) + c * d
        if p is not None:
            acc = {n: v % p for n, v in acc.items()}
        return {n: v for n, v in acc.items() if v}

    others = range(1, a.dim)
    for j in others:
        for k in others:
            for l in others:
                lhs = combine((c, nz[m][l]) for m, c in nz[j][k])  # (a_j a_k) a_l
                rhs = combine((c, nz[j][m]) for m, c in nz[k][l])  # a_j (a_k a_l)
                if lhs != rhs:
                    return ("associativity", j, k, l)
    return None


# -- quiver presentations ----------------------------------------------------

@dataclass(frozen=True)
class QuiverPresentation:
    """Quiver with relations and a nilpotency bound N.

    Arrows are (source, target, label) with 0-based vertices.  A path is a
    tuple of arrow indices in traversal order (first arrow traversed first).
    Relations are linear combinations ((path, coeff), ...) of parallel paths
    of length >= 2.  N promises that every path of length >= N lies in the
    relation ideal, which makes the quotient finite-dimensional.
    """

    vertices: int
    arrows: tuple
    relations: tuple
    nilpotency_bound: int

    def __post_init__(self):
        if self.vertices < 1:
            raise ValidationFailure("quiver needs at least one vertex")
        if self.nilpotency_bound < 1:
            raise ValidationFailure("nilpotency bound must be >= 1")
        for (src, tgt, _label) in self.arrows:
            if not (0 <= src < self.vertices and 0 <= tgt < self.vertices):
                raise ValidationFailure("arrow endpoint out of range")
        for rel in self.relations:
            if not rel:
                raise ValidationFailure("empty relation")
            ends = set()
            for path, _coeff in rel:
                if len(path) < 2:
                    raise ValidationFailure(
                        "relations must combine paths of length >= 2")
                ends.add(self._path_ends(path))
            if len(ends) != 1:
                raise ValidationFailure("relation terms are not parallel paths")

    def _path_ends(self, path: tuple) -> tuple:
        src = self.arrows[path[0]][0]
        tgt = self.arrows[path[0]][1]
        for a in path[1:]:
            if self.arrows[a][0] != tgt:
                raise ValidationFailure(f"path {path} is not composable")
            tgt = self.arrows[a][1]
        return (src, tgt)


# Largest algebra an input may describe: a path algebra is built from its
# paths of length < N, and the structure constants hold dim^3 entries.
MAX_ALGEBRA_DIM = 64


def _enumerate_paths(q: QuiverPresentation):
    """All paths of length < N, keyed ('e', v) for trivial paths or a tuple
    of arrow indices; returns (ordered keys, key -> index, key -> (src, tgt)).
    Raises BudgetExceeded as soon as there are more than MAX_ALGEBRA_DIM."""
    def count(paths):
        if paths > MAX_ALGEBRA_DIM:
            raise BudgetExceeded(
                f"the quiver has more than {MAX_ALGEBRA_DIM} paths of length "
                f"below its nilpotency bound {q.nilpotency_bound}")

    count(q.vertices)
    ends = {("e", v): (v, v) for v in range(q.vertices)}
    by_length = [list(ends)]
    for length in range(1, q.nilpotency_bound):
        layer = []
        for prev in by_length[length - 1]:
            src, tgt = ends[prev]
            for ai, (a_src, a_tgt, _lbl) in enumerate(q.arrows):
                if a_src == tgt:
                    key = (ai,) if prev[0] == "e" else prev + (ai,)
                    layer.append(key)
                    ends[key] = (src, a_tgt)
                    count(len(ends))
        if not layer:
            break
        by_length.append(layer)
    ordered = [k for layer in by_length for k in sorted(layer)]
    index = {k: i for i, k in enumerate(ordered)}
    return ordered, index, ends


def _concat(ends, first, second):
    """Traversal-order concatenation (first, then second); None if the
    endpoints do not match. Trivial paths are ('e', v)."""
    if ends[first][1] != ends[second][0]:
        return None
    if first[0] == "e":
        return second
    if second[0] == "e":
        return first
    return first + second


def path_algebra(q: QuiverPresentation, field: Field) -> FDAlgebra:
    """Quotient of the path algebra by (relations) + (paths of length >= N).

    The basis consists of the identity followed by the surviving paths
    (the first vertex idempotent is traded for the identity so that basis
    element 1 is always the unit).  Path products compose like functions:
    p * q = "apply q, then p".
    """
    ordered, index, ends = _enumerate_paths(q)
    npaths = len(ordered)
    bound = q.nilpotency_bound

    def path_len(key):
        return 0 if key[0] == "e" else len(key)

    # span of {u r w : r relation, u, w paths}, truncated below length N
    span_vectors = []
    for rel in q.relations:
        rel_src, rel_tgt = q._path_ends(rel[0][0])
        min_len = min(len(path) for path, _ in rel)
        for w in ordered:  # traversed before the relation
            if ends[w][1] != rel_src:
                continue
            for u in ordered:  # traversed after the relation
                if ends[u][0] != rel_tgt:
                    continue
                if path_len(w) + min_len + path_len(u) >= bound:
                    continue
                vec = [field.zero()] * npaths
                nonzero = False
                for path, coeff in rel:
                    full = w if w[0] != "e" else None
                    key = path if full is None else full + path
                    key = key if u[0] == "e" else key + u
                    if path_len(w) + len(path) + path_len(u) < bound:
                        vec[index[key]] = field.add(vec[index[key]], field.coerce(coeff))
                        nonzero = True
                if nonzero:
                    span_vectors.append(tuple(vec))
    rel_span = Subspace.from_vectors(field, npaths, span_vectors)

    pivot_set = set(rel_span.pivots())
    basis_keys = [k for i, k in enumerate(ordered) if i not in pivot_set]

    def reduce_path_product(k1, k2):
        """Coordinates (over surviving paths) of the algebra product k1*k2,
        i.e. traverse k2 first, then k1."""
        cat = _concat(ends, k2, k1)
        vec = [field.zero()] * npaths
        if cat is not None and path_len(cat) < bound:
            vec[index[cat]] = field.one()
            vec = list(rel_span.reduce(tuple(vec)))
        return tuple(vec[index[k]] for k in basis_keys)

    nb = len(basis_keys)
    key_pos = {k: i for i, k in enumerate(basis_keys)}

    # raw products over the surviving-path basis
    raw = [[None] * nb for _ in range(nb)]
    for i1, k1 in enumerate(basis_keys):
        for i2, k2 in enumerate(basis_keys):
            raw[i1][i2] = reduce_path_product(k1, k2)

    def arrow_label(ai):
        return q.arrows[ai][2]

    def key_label(key):
        if key[0] == "e":
            return f"e{key[1] + 1}"
        return "*".join(arrow_label(a) for a in key)

    if q.vertices == 1:
        # the single trivial path is already the identity and sits first
        assert key_pos[("e", 0)] == 0
        labels = ["1"] + [key_label(k) for k in basis_keys[1:]]
        products = tuple(tuple(raw[j][k] for k in range(nb)) for j in range(nb))
        alg = FDAlgebra(field, nb, tuple(labels), products,
                        idempotents=(unit_axis(field, nb, 0),),
                        radical_vectors=tuple(unit_axis(field, nb, i)
                                              for i in range(1, nb)))
        return _revalidate(alg)

    # multi-vertex: change basis so the first element is the identity.
    # new basis: b_0 = sum of all trivial paths, then the trivial paths of
    # the remaining vertices, then the arrows-and-longer paths in order
    trivial_pos = [key_pos[("e", v)] for v in range(q.vertices)]
    rest_pos = [i for i, k in enumerate(basis_keys) if k[0] != "e"]
    one_vec = tuple(field.one() if i in trivial_pos else field.zero() for i in range(nb))
    new_basis_vectors = [one_vec] + [unit_axis(field, nb, i)
                                     for i in trivial_pos[1:] + rest_pos]
    new_labels = (["1"] + [f"e{v + 1}" for v in range(1, q.vertices)]
                  + [key_label(basis_keys[i]) for i in rest_pos])

    def new_coords(x):
        """Coordinates in the new basis of the path-basis vector x: the
        change of basis is unitriangular, so they are x[e1], then
        x[e_v] - x[e1], then the coordinates of the other paths."""
        first = x[trivial_pos[0]]
        return ((first,) + tuple(field.sub(x[i], first) for i in trivial_pos[1:])
                + tuple(x[i] for i in rest_pos))

    products = tuple(
        tuple(new_coords(_bilinear(field, bj, bk, raw)) for bk in new_basis_vectors)
        for bj in new_basis_vectors)
    alg = FDAlgebra(field, nb, tuple(new_labels), products,
                    idempotents=tuple(new_coords(unit_axis(field, nb, i))
                                      for i in trivial_pos),
                    radical_vectors=tuple(new_coords(unit_axis(field, nb, i))
                                          for i in rest_pos))
    return _revalidate(alg)


def _bilinear(field: Field, x: tuple, y: tuple, table) -> tuple:
    """sum of x_j y_k table[j][k]: the product of x and y for the
    structure constants ``table``."""
    return vec_combination(field, len(x), ((xj * yk, table[j][k])
                                           for j, xj in enumerate(x) if xj
                                           for k, yk in enumerate(y) if yk))


def unit_axis(field: Field, n: int, i: int) -> tuple:
    v = [field.zero()] * n
    v[i] = field.one()
    return tuple(v)


def _revalidate(alg: FDAlgebra) -> FDAlgebra:
    witness = validate_algebra(alg)
    if witness is not None:
        raise ValidationFailure(f"constructed algebra invalid: {witness}",
                                witness=witness)
    if alg.idempotents is not None:
        _check_idempotents(alg)
    return alg


def _check_idempotents(alg: FDAlgebra):
    for i, e in enumerate(alg.idempotents):
        if alg.mul_vec(e, e) != tuple(e):
            raise ValidationFailure(f"idempotent {i} is not idempotent")
        for j, f in enumerate(alg.idempotents):
            if i != j and any(alg.mul_vec(e, f)):
                raise ValidationFailure(f"idempotents {i}, {j} not orthogonal")
    total = vec_combination(alg.field, alg.dim, ((1, e) for e in alg.idempotents))
    if total != alg.unit_vec():
        raise ValidationFailure("idempotents do not sum to the identity")


# -- invariant subalgebras / ideals -----------------------------------------

def center(a: FDAlgebra) -> Subspace:
    """{z : z x = x z for all x}, as a subspace of coordinate space."""
    equations = [(a.dim, 1, [(1, a.left_mult_matrix(b), 0, None),
                             (-1, a.right_mult_matrix(b), 0, None)])
                 for b in map(a.basis_vec, range(1, a.dim))]
    return linear_system(a.field, [(a.dim, 1)], equations).kernel()


def radical(a: FDAlgebra) -> Subspace:
    """Jacobson radical, computed and checked once per algebra instance.

    Quiver-constructed algebras carry a structural basis (the arrow ideal),
    valid in every characteristic.  Otherwise the trace-form criterion
    {x : trace(L_{x a_j}) = 0 for all j} is used, which requires char 0 or
    p > dim; outside that range UnsupportedCharacteristic is raised.
    """
    return a.cached("radical", _radical)


def _radical(a: FDAlgebra) -> Subspace:
    if a.radical_vectors is not None:
        rad = Subspace.from_vectors(a.field, a.dim, a.radical_vectors)
    else:
        if not (a.field.is_rational or a.field.p > a.dim):
            raise UnsupportedCharacteristic(
                f"trace-form radical needs char 0 or p > {a.dim}, have p = {a.field.p}")
        # trace(L_x) is linear in x: the sum of x_l * trace(L_{a_l})
        traces = [sum(a.products[l][k][k] for k in range(a.dim))
                  for l in range(a.dim)]
        rows = [[sum(x * t for x, t in zip(a.products[u][j], traces) if x)
                 for u in range(a.dim)]  # trace(L_{a_u * a_j})
                for j in range(a.dim)]
        rad = Matrix.from_rows(a.field, rows).kernel()
    _check_radical(a, rad)
    return rad


def _check_radical(a: FDAlgebra, rad: Subspace):
    # two-sided ideal
    for r in rad.basis:
        for j in range(a.dim):
            bj = a.basis_vec(j)
            if not rad.contains(a.mul_vec(r, bj)):
                raise ValidationFailure("radical candidate not a right ideal")
            if not rad.contains(a.mul_vec(bj, r)):
                raise ValidationFailure("radical candidate not a left ideal")
    # nilpotent: rad^(dim+1) = 0 via iterated products
    power, basis = rad, rad.basis
    for _ in range(a.dim):
        if power.is_zero():
            return
        power = Subspace.from_vectors(a.field, a.dim,
                                      [a.mul_vec(u, v) for u in power.basis for v in basis])
    if not power.is_zero():
        raise ValidationFailure("radical candidate is not nilpotent")


def opposite_algebra(a: FDAlgebra) -> FDAlgebra:
    """Same space, reversed multiplication; idempotents and radical carry over."""
    products = tuple(tuple(a.products[k][j] for k in range(a.dim))
                     for j in range(a.dim))
    return FDAlgebra(a.field, a.dim, a.labels, products,
                     idempotents=a.idempotents,
                     radical_vectors=a.radical_vectors)
