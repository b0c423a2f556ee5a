"""Finite-dimensional left module representations.

A module is the tuple of action matrices of the algebra basis on K^d (the
identity acts as the identity matrix).  Homomorphism spaces, isomorphism
witnesses, tops/radicals, projective covers, projectivity tests and the
first self-extension oracle live here.  A module keeps its one cover,
``ModuleRep.cover``, which projectivity, Ext^1 and replacement towers read,
and its verdicts.  The projective P of every cover, a sum of A e_i, is
preset projective and satisfying (alpha); a submodule keeps a good (alpha)
verdict that its module has taken.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

from .algebra import FDAlgebra, radical as algebra_radical
from .errors import (AlgebraMismatch, MissingIdempotents, ShapeMismatch,
                     ValidationFailure)
from .linalg import (Matrix, Subspace, combine, linear_system, row_combination,
                     vector_row)


@dataclass(frozen=True)
class ModuleRep:
    """Left module structure on K^dim: ``action[j]`` represents basis
    element a_j, with ``action[0]`` the identity matrix."""

    algebra: FDAlgebra
    dim: int
    action: tuple  # s matrices, dim x dim

    def __post_init__(self):
        if len(self.action) != self.algebra.dim:
            raise ShapeMismatch("one action matrix per algebra basis element")
        for m in self.action:
            if m.shape != (self.dim, self.dim):
                raise ShapeMismatch("action matrix shape mismatch")

    @cached_property
    def _witness(self) -> tuple | None:
        # kept in the instance dict, not a field: equality ignores it
        return _module_witness(self)

    @cached_property
    def cover(self) -> "ProjectiveCover":
        # kept like _witness; the cover holds no reference back to the module
        return projective_cover(self)

    @cached_property
    def _projective(self) -> bool:
        # kept like _witness; projective_cover presets it on the P it builds
        return self.dim == 0 or self.cover.projective.dim == self.dim

    @property
    def field(self):
        return self.algebra.field

    def rho(self, x: tuple) -> Matrix:
        """Action matrix of the element with row x (the form of a
        structure-constant row): row i combines the rows i of the action
        matrices by x."""
        return Matrix(self.field, self.dim, self.dim,
                      [combine(self.field, x, rows)
                       for rows in zip(*(a.rows for a in self.action))])


def make_module(algebra: FDAlgebra, matrices) -> ModuleRep:
    mats = []
    for m in matrices:
        mats.append(m if isinstance(m, Matrix)
                    else Matrix.from_rows(algebra.field, m))
    dim = mats[0].nrows if mats else 0
    mod = ModuleRep(algebra, dim, tuple(mats))
    witness = validate_module(mod)
    if witness is not None:
        raise ValidationFailure(f"module relations fail: {witness}",
                                witness=witness)
    return mod


def zero_module(algebra: FDAlgebra) -> ModuleRep:
    z = Matrix.zeros(algebra.field, 0, 0)
    return ModuleRep(algebra, 0, tuple(z for _ in range(algebra.dim)))


def validate_module(m: ModuleRep) -> tuple | None:
    """Identity acts as identity; products follow the structure constants.
    A module is checked once: the witness is kept on the instance."""
    return m._witness


def _module_witness(m: ModuleRep) -> tuple | None:
    if not m.action[0].is_identity():
        return ("identity",)
    a = m.algebra
    # with a_0 acting as 1 and the unit laws of the algebra (checked by
    # validate_algebra), every pair with j = 0 or k = 0 holds already
    for j in range(1, a.dim):
        for k in range(1, a.dim):
            lhs = m.action[j] @ m.action[k]
            rhs = m.rho(a.products[j][k])
            if lhs != rhs:
                return ("alpha", j, k)
    return None


def regular_module(a: FDAlgebra) -> ModuleRep:
    """A as a left module over itself (left multiplication matrices)."""
    return ModuleRep(a, a.dim,
                     tuple(a.left_mult_matrix(a.basis_vec(j)) for j in range(a.dim)))


def direct_sum_modules(mods) -> tuple:
    """Block-diagonal sum; returns (module, inclusions, projections)."""
    mods = list(mods)
    a = mods[0].algebra
    for m in mods:
        if m.algebra is not a and m.algebra != a:
            raise AlgebraMismatch("direct sum over different algebras")
    field = a.field
    action = tuple(Matrix.block_diag(field, [m.action[j] for m in mods])
                   for j in range(a.dim))
    total = sum(m.dim for m in mods)
    out = ModuleRep(a, total, action)
    inclusions, projections = [], []
    offset = 0
    for m in mods:
        inc = Matrix.vstack([Matrix.zeros(field, offset, m.dim),
                             Matrix.identity(field, m.dim),
                             Matrix.zeros(field, total - offset - m.dim, m.dim)])
        inclusions.append(inc)
        projections.append(inc.transpose())
        offset += m.dim
    return out, tuple(inclusions), tuple(projections)


def conjugate_module(m: ModuleRep, g: Matrix) -> ModuleRep:
    """Transport of structure along an invertible g (rho -> g rho g^{-1})."""
    ginv = g.inverse()
    if ginv is None:
        raise ValidationFailure("conjugating matrix is singular")
    return ModuleRep(m.algebra, m.dim, tuple(g @ mat @ ginv for mat in m.action))


def submodule(m: ModuleRep, space: Subspace) -> tuple:
    """Module structure on an invariant subspace; returns (module, inclusion).

    The inclusion matrix has the subspace basis as columns, and each action
    matrix holds the coordinates of the images of those columns.
    """
    b = space.column_matrix()  # dim x k
    action = []
    for mat in m.action:
        coords = space.coordinate_matrix(mat @ b)
        if coords is None:
            raise ValidationFailure("subspace is not invariant under the action")
        action.append(coords)
    sub = ModuleRep(m.algebra, space.dim, tuple(action))
    if _kept_good(m):  # b C_j = M_j b with b injective: (alpha) for m gives it for sub
        vars(sub)["_witness"] = None
    return sub, b


def _kept_good(m: ModuleRep) -> bool:
    """Whether m keeps the verdict that (alpha) holds; none is computed."""
    return vars(m).get("_witness", ()) is None


def quotient_module(m: ModuleRep, space: Subspace) -> tuple:
    """Module structure on K^dim / space; returns (module, projection)."""
    q = space.quotient_matrix()      # (dim-k) x dim
    s = space.section_matrix()       # dim x (dim-k)
    action = tuple(q @ mat @ s for mat in m.action)
    # well-defined because the subspace is invariant; validated by caller
    out = ModuleRep(m.algebra, q.nrows, action)
    witness = validate_module(out)
    if witness is not None:
        raise ValidationFailure("quotient by a non-invariant subspace",
                                witness=witness)
    return out, q


# -- hom spaces ---------------------------------------------------------------

def hom_space(m: ModuleRep, n: ModuleRep) -> Subspace:
    """{F : F rho_M(a) = rho_N(a) F}, flattened row-major into F^(dn*dm)."""
    if m.algebra != n.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    equations = [(n.dim, m.dim, [(1, None, 0, a), (-1, b, 0, None)])
                 for a, b in zip(m.action[1:], n.action[1:])]
    return linear_system(m.field, [(n.dim, m.dim)], equations).kernel()


def hom_matrices(m: ModuleRep, n: ModuleRep) -> list:
    """Basis of Hom(M, N) as matrices (n.dim x m.dim)."""
    return [Matrix.from_sparse_flat(m.field, n.dim, m.dim, row)
            for row in hom_space(m, n).by_pivot.values()]


# -- generic invertible-combination search -----------------------------------

@dataclass(frozen=True)
class WitnessSearch:
    """Outcome of a search for an invertible element in a linear family.

    ``certain`` is True when the answer is proven (exhaustive enumeration
    over a finite field, a dimension obstruction, or a found witness);
    a failed randomized search over Q reports found=False, certain=False
    ("probably not").
    """

    found: bool
    certain: bool
    witness: object = None


ENUM_LIMIT = 10 ** 6
RANDOM_TRIALS = 64
RATIONAL_ROUNDS = 8


def search_invertible_combination(field, basis_rows, realize, is_good,
                                  seed: int = 0) -> WitnessSearch:
    """Search c -> realize(sum c_i basis_i) for an element with is_good,
    over the rows ``basis_rows``; ``realize`` reads a row.

    Over F_q the coefficient space is enumerated exhaustively when
    q^dim <= ENUM_LIMIT (so a negative is proven); otherwise RANDOM_TRIALS
    seeded samples are drawn.  Over Q random integer coefficients are drawn
    from [-B, B] with B doubling over RATIONAL_ROUNDS rounds.
    """
    k = len(basis_rows)
    if k == 0:
        return WitnessSearch(False, True)

    def attempt(coeffs):
        if not any(coeffs):
            return None
        cand = realize(row_combination(field, zip(coeffs, basis_rows)))
        return cand if is_good(cand) else None

    if not field.is_rational:
        q = field.p
        if q ** k <= ENUM_LIMIT:
            for coeffs in itertools.product(range(q), repeat=k):
                got = attempt(coeffs)
                if got is not None:
                    return WitnessSearch(True, True, got)
            return WitnessSearch(False, True)
        rng = random.Random(seed)
        for _ in range(RANDOM_TRIALS):
            got = attempt(tuple(rng.randrange(q) for _ in range(k)))
            if got is not None:
                return WitnessSearch(True, True, got)
        return WitnessSearch(False, False)

    rng = random.Random(seed)
    bound = 1
    for _ in range(RATIONAL_ROUNDS):
        for _ in range(8):
            coeffs = tuple(rng.randint(-bound, bound) for _ in range(k))
            got = attempt(coeffs)
            if got is not None:
                return WitnessSearch(True, True, got)
        bound *= 2
    return WitnessSearch(False, False)


def is_isomorphic_modules(m: ModuleRep, n: ModuleRep, seed: int = 0) -> WitnessSearch:
    """Isomorphism test with witness: searches Hom(M, N) for an invertible
    element.  A dimension mismatch is a proven negative."""
    if m.dim != n.dim:
        return WitnessSearch(False, True)
    if m.dim == 0:
        return WitnessSearch(True, True, Matrix.zeros(m.field, 0, 0))
    return search_invertible_combination(
        m.field, list(hom_space(m, n).by_pivot.values()),
        lambda row: Matrix.from_sparse_flat(m.field, n.dim, m.dim, row),
        lambda mat: mat.is_invertible(), seed=seed)


# -- radical series and covers -------------------------------------------------

def radical_submodule(m: ModuleRep) -> Subspace:
    """rad(A) . M as a subspace of K^dim."""
    rows = []
    for r in algebra_radical(m.algebra).by_pivot.values():
        rows += m.rho(r).transpose().rows  # new dicts, free for _span to consume
    return Subspace._span(m.field, m.dim, rows)


def _top(m: ModuleRep) -> list:
    """Generators of the top M / rad M, as (vertex index, row of a vector
    in M): per vertex i, the echelon basis rows of e_i M at the pivot
    columns of their images in M / rad M, so each image is independent of
    the earlier ones.  Requires a quiver-constructed algebra."""
    to_top = radical_submodule(m).quotient_matrix()
    generators = []
    for vi, e in enumerate(m.algebra.primitive_idempotents()):
        image = m.rho(vector_row(m.field, len(e), e)).column_space()
        rows = list(image.by_pivot.values())
        generators += [(vi, rows[t]) for t in (to_top @ image.column_matrix()).rref()[1]]
    return generators


def top_multiplicities(m: ModuleRep) -> tuple:
    """Multiplicity of each simple (indexed by the quiver vertices) in
    M / rad M.  Requires a quiver-constructed algebra."""
    vertices = [vi for vi, _ in _top(m)]
    return tuple(map(vertices.count, range(len(m.algebra.primitive_idempotents()))))


def indecomposable_projectives(a: FDAlgebra) -> tuple:
    """The modules A e_i (one per primitive idempotent), with embeddings
    into the regular module, computed once per algebra instance; returns a
    tuple of (module, inclusion).  The algebra keeps only the matrices, so
    that it holds no reference cycle through its modules."""
    return tuple((ModuleRep(a, inc.ncols, action), inc)
                 for action, inc in a.cached("projectives", _projectives))


def _projectives(a: FDAlgebra) -> tuple:
    reg = regular_module(a)
    return tuple((p.action, inc) for p, inc in (
        submodule(reg, a.right_mult_matrix(e).column_space())
        for e in a.primitive_idempotents()))


@dataclass(frozen=True)
class ProjectiveCover:
    """Projective cover data: P -> M with P = sum of A e_i copies.

    ``pi`` is the cover matrix (m.dim x p.dim); ``summand_indices`` lists
    the vertex index of each indecomposable summand of P in order.
    """

    projective: ModuleRep
    pi: Matrix
    summand_indices: tuple


def projective_cover(m: ModuleRep) -> ProjectiveCover:
    """Projective cover via the top: choose generators of e_i(M/radM) and
    map the corresponding copies of A e_i onto them.  Callers read the
    cover a module keeps, ``m.cover``, which comes from here."""
    a = m.algebra
    projs = indecomposable_projectives(a)
    if m.dim == 0:
        return ProjectiveCover(zero_module(a), Matrix.zeros(m.field, 0, 0), ())

    field, generators = m.field, _top(m)
    summands = [projs[vi][0] for vi, _ in generators]
    p_total = ModuleRep(a, sum(p.dim for p in summands), tuple(
        Matrix.block_diag(field, [p.action[j] for p in summands]) for j in range(a.dim)))
    # a sum of A e_i, on which (alpha) holds by the table's checked laws
    vars(p_total).update(_witness=None, _projective=True)
    # images[g] holds the rows a_j v_g over j; a basis element b of A e_i,
    # a row over the basis of A, sends v_g to their combination by b
    gens = Matrix(field, len(generators), m.dim, [v for _, v in generators]).transpose()
    images = list(zip(*((act @ gens).transpose().rows for act in m.action)))
    elements = [inc.transpose().rows for _, inc in projs]
    columns = [combine(field, b, images[g])
               for g, (vi, _) in enumerate(generators) for b in elements[vi]]
    pi = Matrix(field, len(columns), m.dim, columns).transpose()
    cover = ProjectiveCover(p_total, pi, tuple(vi for vi, _ in generators))
    _check_cover(m, cover)
    return cover


def _check_cover(m: ModuleRep, cover: ProjectiveCover):
    p, pi = cover.projective, cover.pi
    first = int(_kept_good(m) and _kept_good(p))  # a_0 acts as 1 on both
    for j in range(first, m.algebra.dim):  # A-linear
        if pi @ p.action[j] != m.action[j] @ pi:
            raise ValidationFailure("cover map is not A-linear")
    # surjective: rank = dim P - dim ker, from the one elimination
    ker = pi.kernel()
    if pi.ncols - ker.dim != m.dim:
        raise ValidationFailure("cover map is not surjective")
    # minimal: kernel inside rad(A) . P; the kernel 0 of a square surjection is
    if not ker.is_zero() and not radical_submodule(p).contains_subspace(ker):
        raise ValidationFailure("cover is not minimal (kernel escapes the radical)")


def simple_modules(a: FDAlgebra) -> list:
    """The simple modules S_i = P_i / rad P_i, one per quiver vertex."""
    out = []
    for p_mod, _ in indecomposable_projectives(a):
        s, _ = quotient_module(p_mod, radical_submodule(p_mod))
        out.append(s)
    return out


def is_projective(m: ModuleRep) -> bool:
    """M is projective iff its cover P -> M (checked surjective, with kernel
    K inside rad P) is an isomorphism: if M is projective the cover splits,
    so K is a summand of P inside rad P, hence zero by Nakayama.  The
    verdict is kept on the module; the P of a cover is projective by
    construction and gets no cover of its own."""
    return m._projective


def ext1_dim_oracle(m: ModuleRep, n: ModuleRep) -> int:
    """dim Ext^1(M, N) from a projective presentation of M:
    coker(Hom(P0, N) -> Hom(K, N)) with K = ker(P0 -> M)."""
    if m.dim == 0 or n.dim == 0:
        return 0
    cover = m.cover
    k_mod, k_inc = submodule(cover.projective, cover.pi.kernel())
    hom_k = hom_space(k_mod, n)
    if k_mod.dim == 0:
        return 0
    restricted = []
    for f in hom_matrices(cover.projective, n):
        restricted.append((f @ k_inc).flat())
    image = Subspace.from_vectors(n.field, n.dim * k_mod.dim, restricted)
    return hom_k.dim - image.dim
