"""Finite-dimensional associative unital algebras over exact fields.

An algebra is its structure-constant table on a basis (a_1, ..., a_s) with
a_1 = 1: ``products[j][k]`` is the row of a_j a_k, in the one stored form
of ``linalg``, which every ``Matrix`` and ``Subspace`` holds too.
``algebra_from_constants`` is the one builder of every table: from table
files, from a quiver presentation (``path_algebra``, where a product
of two basis elements is one path, reduced modulo the relations) and from
the composites of an endomorphism algebra.  Quiver-constructed algebras
additionally record their complete orthogonal primitive idempotents and a
structural radical basis, both of which downstream module theory needs.
Algebra elements stay dense coordinate tuples at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .errors import (BudgetExceeded, MissingIdempotents, ShapeMismatch,
                     UnsupportedCharacteristic, ValidationFailure)
from .fields import Field
from .linalg import (Matrix, Subspace, combine, linear_system, row_combination,
                     row_key, row_values, stored_row, table_product, vec_combination)


@dataclass(frozen=True, eq=False)
class FDAlgebra:
    """Associative unital algebra by structure constants.

    ``products[j][k]`` is the row of a_j * a_k (``linalg``'s stored form),
    never modified; index 0 is the identity.  Equality and the hash ignore
    the order in which a row's keys were inserted.  ``idempotents``
    (coordinate vectors of a complete orthogonal set of primitive
    idempotents summing to 1) and ``radical_vectors`` (a
    basis of the Jacobson radical) are recorded when the algebra came from a
    quiver presentation; they are caches, so equality and hashing ignore
    them -- an algebra re-read from its serialized table is the same
    algebra.
    """

    field: Field
    dim: int
    labels: tuple
    products: tuple  # s x s tuple of sparse rows
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
        return self.cached("hash", lambda a: hash((
            a.field, a.dim, a.labels,
            tuple(row_key(cell) for row in a.products for cell in row))))

    # -- element arithmetic --------------------------------------------------

    def zero_vec(self) -> tuple:
        return (self.field.zero(),) * self.dim

    def unit_vec(self) -> tuple:
        return self.basis_vec(0)

    def basis_vec(self, j: int) -> tuple:
        v = [self.field.zero()] * self.dim
        v[j] = self.field.one()
        return tuple(v)

    def mul_vec(self, x: tuple, y: tuple) -> tuple:
        """Product of two elements in coordinates: the sum of x_j y_k times
        the row of a_j a_k."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeMismatch("element coordinate length mismatch")
        return table_product(self.field, x, y, self.products)

    def left_mult_matrix(self, x: tuple) -> Matrix:
        """Matrix of y -> x*y in the basis (column k is x * a_k)."""
        cols = [row_combination(self.field, [(c, self.products[j][k])
                                             for j, c in enumerate(x) if c])
                for k in range(self.dim)]
        return Matrix(self.field, self.dim, self.dim, cols).transpose()

    def right_mult_matrix(self, x: tuple) -> Matrix:
        """Matrix of y -> y*x in the basis (column k is a_k * x)."""
        cols = [row_combination(self.field, [(c, ak_times[j]) for j, c in enumerate(x) if c])
                for ak_times in self.products]
        return Matrix(self.field, self.dim, self.dim, cols).transpose()

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
    """The one builder of a structure-constant table, from a sparse
    {(j, k, l): scalar} map (0-based) of the constants c_jkl.

    Indices outside 0..dim-1 are refused.  Products by the identity (index
    0) are filled in automatically; explicit entries for them must agree.
    The table is validated, and so are the idempotents when given.
    """
    if dim < 1:
        raise ValidationFailure("algebra must contain the identity (dim >= 1)")
    labels = tuple(labels) if labels is not None else tuple(f"a{j+1}" for j in range(dim))
    if len(labels) != dim:
        raise ShapeMismatch("label count differs from dimension")
    one, zero = field.one(), field.zero()
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for (j, k, l), val in constants.items():
        if not (0 <= j < dim and 0 <= k < dim and 0 <= l < dim):
            raise ShapeMismatch(
                f"structure constant index ({j}, {k}, {l}) outside 0..{dim - 1}")
        val = field.coerce(val)
        if j == 0 or k == 0:
            expected = one if (j == 0 and l == k) or (k == 0 and l == j) else zero
            if val != expected:
                raise ValidationFailure(
                    f"identity product constant c_{j+1},{k+1},{l+1} = {val} contradicts a_1 = 1",
                    witness=("identity", j, k, l))
        elif val:
            table[j][k][l] = val
    units = Matrix.identity(field, dim).rows  # a_1 a_k = a_k, a_j a_1 = a_j
    table = [[stored_row(field, cell) if j and k else units[j + k]
              for k, cell in enumerate(row)] for j, row in enumerate(table)]
    alg = FDAlgebra(field, dim, labels, tuple(map(tuple, table)),
                    idempotents=idempotents, radical_vectors=radical_vectors)
    witness = validate_algebra(alg)
    if witness is not None:
        raise ValidationFailure(f"structure constants invalid: {witness}",
                                witness=witness)
    if idempotents is not None:
        _check_idempotents(alg)
    return alg


def validate_algebra(a: FDAlgebra) -> tuple | None:
    """Check unitality and associativity; return None or a witness tuple.

    Once the unit laws hold, every basis triple containing the identity is
    associative, so only triples of the other basis elements are checked,
    each side as one combination of table rows: (a_j a_k) a_l combines the
    rows of a_m a_l by the row of a_j a_k, and a_j (a_k a_l) the rows of
    a_j a_m by the row of a_k a_l.  Rows are canonical, so the two sides
    compare as rows."""
    field, units = a.field, Matrix.identity(a.field, a.dim).rows
    for k in range(a.dim):
        if a.products[0][k] != units[k]:
            return ("unit-left", k)
        if a.products[k][0] != units[k]:
            return ("unit-right", k)
    times = [[row[l] for row in a.products] for l in range(a.dim)]  # a_m a_l by m
    others = range(1, a.dim)
    for j in others:
        for k in others:
            for l in others:
                if combine(field, a.products[j][k], times[l]) != \
                        combine(field, a.products[k][l], a.products[j]):
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

    The basis is the identity, the idempotents of the vertices but the
    first, then the surviving paths of positive length: the first vertex
    idempotent is traded for the identity, e_1 = 1 - e_2 - ..., so that
    basis element 1 is always the unit.  Path products compose like
    functions: p * q = "apply q, then p".  The product of two basis elements
    other than the identity is one path, or zero; it holds no e_1, so its
    coordinates modulo the relations are its coordinates in this basis.
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

    # the relations involve no trivial path, so e_1, e_2, ... come first
    pivot_set = set(rel_span.pivots())
    basis_keys = [k for i, k in enumerate(ordered) if i not in pivot_set]
    position = {index[k]: i for i, k in enumerate(basis_keys)}
    constants = {}
    for j, k1 in enumerate(basis_keys[1:], 1):
        for k, k2 in enumerate(basis_keys[1:], 1):
            cat = _concat(ends, k2, k1)  # traverse k2 first, then k1
            if cat is not None and path_len(cat) < bound:
                reduced = rel_span.reduce(unit_axis(field, npaths, index[cat]))
                constants.update(((j, k, position[i]), c)
                                 for i, c in enumerate(reduced) if c)

    def key_label(key):
        if key[0] == "e":
            return f"e{key[1] + 1}"
        return "*".join(q.arrows[a][2] for a in key)

    nb, n = len(basis_keys), q.vertices
    first = tuple(field.one() if i == 0 else field.neg(field.one()) if i < n
                  else field.zero() for i in range(nb))
    return algebra_from_constants(
        field, nb, ("1",) + tuple(map(key_label, basis_keys[1:])), constants,
        idempotents=(first,) + tuple(unit_axis(field, nb, i) for i in range(1, n)),
        radical_vectors=tuple(unit_axis(field, nb, i) for i in range(n, nb)))


def unit_axis(field: Field, n: int, i: int) -> tuple:
    v = [field.zero()] * n
    v[i] = field.one()
    return tuple(v)


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
        values = [[row_values(a.field, cell) for cell in row] for row in a.products]
        traces = [sum(row[k].get(k, 0) for k in range(a.dim)) for row in values]
        rows = [[sum(x * traces[l] for l, x in values[u][j].items())
                 for u in range(a.dim)]  # trace(L_{a_u * a_j})
                for j in range(a.dim)]
        rad = Matrix.from_rows(a.field, rows).kernel()
    _check_radical(a, rad)
    return rad


def _check_radical(a: FDAlgebra, rad: Subspace):
    """On the stored rows: r a_j combines the rows of a_m a_j by r, and
    a_j r the rows of a_j a_m; a power's rows times r combine the a_j r."""
    field, rows = a.field, list(rad.by_pivot.values())
    times = [[row[j] for row in a.products] for j in range(a.dim)]  # a_m a_j by m
    lefts = [[combine(field, r, a.products[j]) for j in range(a.dim)] for r in rows]
    # two-sided ideal
    for r, left in zip(rows, lefts):
        for j in range(a.dim):
            if rad._residue(combine(field, r, times[j]))[0]:
                raise ValidationFailure("radical candidate not a right ideal")
            if rad._residue(left[j])[0]:
                raise ValidationFailure("radical candidate not a left ideal")
    # nilpotent: rad^(dim+1) = 0 via iterated products
    power = rows
    for _ in range(a.dim):
        if not power:
            return
        power = list(Subspace._span(field, a.dim, [combine(field, u, left) for u in power
                                                   for left in lefts]).by_pivot.values())
    if power:
        raise ValidationFailure("radical candidate is not nilpotent")


def opposite_algebra(a: FDAlgebra) -> FDAlgebra:
    """Same space, reversed multiplication; idempotents and radical carry over."""
    products = tuple(tuple(a.products[k][j] for k in range(a.dim))
                     for j in range(a.dim))
    return FDAlgebra(a.field, a.dim, a.labels, products,
                     idempotents=a.idempotents,
                     radical_vectors=a.radical_vectors)
