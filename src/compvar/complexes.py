"""Bounded chain complexes of module representations and their maps.

A complex point stores terms for a window of degrees [bottom, top] with
differentials lowering degree by one; out-of-range terms and differentials
are zero, and one accessor pair centralizes that bookkeeping.  The shift
uses (X[n])_i = X_{i-n} with differential (-1)^n * d, a chain map of shift n
has components f_i : X_i -> Y_{i-n}, and the mapping cone of f : X -> Y is
C_i = X_{i-1} (+) Y_i with differential [[-dX, 0], [-f, dY]].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import FDAlgebra
from .errors import (AlgebraMismatch, BudgetExceeded, NotProjectiveComplex,
                     ShapeMismatch, ValidationFailure)
from .linalg import Blocks, Matrix, Subspace, linear_system, vector_row
from .modules import (ModuleRep, WitnessSearch, direct_sum_modules,
                      hom_matrices, is_projective,
                      search_invertible_combination, submodule,
                      validate_module, zero_module)


@dataclass(frozen=True)
class ComplexPoint:
    """Bounded complex: ``terms[t]`` lives in degree ``bottom + t`` and
    ``diffs[t]`` is the differential from degree ``bottom + t + 1`` down to
    ``bottom + t``."""

    algebra: FDAlgebra
    bottom: int
    terms: tuple   # ModuleRep per degree bottom..top
    diffs: tuple   # len(terms) - 1 matrices (empty when <= 1 term)

    def __post_init__(self):
        if not self.terms:
            raise ShapeMismatch("complex needs at least one degree slot")
        if len(self.diffs) != len(self.terms) - 1:
            raise ShapeMismatch("wrong number of differentials")
        for t, d in enumerate(self.diffs):
            lo, hi = self.terms[t], self.terms[t + 1]
            if d.shape != (lo.dim, hi.dim):
                raise ShapeMismatch(
                    f"differential into degree {self.bottom + t} has shape "
                    f"{d.shape}, expected {(lo.dim, hi.dim)}")

    @cached_property
    def _class(self) -> "ComplexClass":
        # kept in the instance dict, not a field: equality ignores it
        return _classify(self)

    @cached_property
    def _witness(self) -> tuple | None:
        # kept like _class
        return _point_witness(self)

    # -- window access -------------------------------------------------------

    @property
    def top(self) -> int:
        return self.bottom + len(self.terms) - 1

    @property
    def field(self):
        return self.algebra.field

    def degrees(self) -> range:
        return range(self.bottom, self.top + 1)

    def term(self, i: int) -> ModuleRep:
        if self.bottom <= i <= self.top:
            return self.terms[i - self.bottom]
        return zero_module(self.algebra)

    def dim_at(self, i: int) -> int:
        return self.terms[i - self.bottom].dim if self.bottom <= i <= self.top else 0

    def diff(self, i: int) -> Matrix:
        """The differential from degree i to degree i-1 (zero out of range)."""
        t = i - self.bottom - 1
        if 0 <= t < len(self.diffs):
            return self.diffs[t]
        return Matrix.zeros(self.field, self.dim_at(i - 1), self.dim_at(i))

    def dims(self) -> tuple:
        """Dimension vector, top degree first."""
        return tuple(self.dim_at(i) for i in range(self.top, self.bottom - 1, -1))

    def total_dim(self) -> int:
        return sum(t.dim for t in self.terms)

    def left_degree(self):
        """Largest degree with a nonzero term, or None for the zero complex."""
        for i in range(self.top, self.bottom - 1, -1):
            if self.dim_at(i):
                return i
        return None

    def is_zero(self) -> bool:
        return self.left_degree() is None

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * self.dim_at(i) for i in self.degrees())

    def __str__(self):
        return (f"<complex degrees {self.top}..{self.bottom} "
                f"dims {self.dims()} over {self.field}>")


def make_complex(algebra: FDAlgebra, bottom: int, terms, diffs) -> ComplexPoint:
    x = ComplexPoint(algebra, bottom, tuple(terms), tuple(diffs))
    witness = validate_point(x)
    if witness is not None:
        raise ValidationFailure(f"complex conditions fail: {witness}",
                                witness=witness)
    return x


def validate_point(x: ComplexPoint) -> tuple | None:
    """Check module relations per degree (alpha), A-linearity of every
    differential (beta), and d.d = 0 (gamma); returns the first failure.
    A point is checked once: the witness is kept on the instance."""
    return x._witness


def _point_witness(x: ComplexPoint) -> tuple | None:
    for i in x.degrees():
        w = validate_module(x.term(i))
        if w is not None:
            return ("alpha", i) + w
    for i in range(x.bottom + 1, x.top + 1):
        d = x.diff(i)
        hi, lo = x.term(i), x.term(i - 1)
        for j in range(1, x.algebra.dim):  # (alpha) made a_0 act as 1
            if d @ hi.action[j] != lo.action[j] @ d:
                return ("beta", i, j)
    for i in range(x.bottom + 2, x.top + 1):
        if not (x.diff(i - 1) @ x.diff(i)).is_zero():
            return ("gamma", i)
    return None


def is_variety_point(x: ComplexPoint) -> bool:
    """Points of the variety live in non-negative degrees."""
    return x.bottom >= 0


def with_bottom_zero(x: ComplexPoint) -> ComplexPoint:
    """Re-window the same complex so that the bottom slot is degree 0,
    padding with zero terms or trimming zero-dimensional slots."""
    if x.bottom == 0:
        return x
    if x.bottom > 0:
        pad = [zero_module(x.algebra) for _ in range(x.bottom)]
        terms = tuple(pad) + x.terms
        zdiffs = []
        for i in range(1, x.bottom + 1):
            zdiffs.append(Matrix.zeros(x.field, x.dim_at(i - 1), x.dim_at(i)))
        return ComplexPoint(x.algebra, 0, terms, tuple(zdiffs) + x.diffs)
    keep = x.bottom
    while keep < 0:
        if x.dim_at(keep):
            raise ValidationFailure(
                f"nonzero term in negative degree {keep}; not a variety point")
        keep += 1
    drop = -x.bottom
    return ComplexPoint(x.algebra, 0, x.terms[drop:], x.diffs[drop:])


# -- constructors -------------------------------------------------------------

def stalk(m: ModuleRep, degree: int = 0) -> ComplexPoint:
    """The module M concentrated in one degree."""
    return ComplexPoint(m.algebra, degree, (m,), ())


def shift(x: ComplexPoint, n: int) -> ComplexPoint:
    """X[n] carries X_{i-n} in slot i and negates the differential for odd n."""
    diffs = x.diffs if n % 2 == 0 else tuple(-d for d in x.diffs)
    return ComplexPoint(x.algebra, x.bottom + n, x.terms, diffs)


def direct_sum(x: ComplexPoint, y: ComplexPoint) -> ComplexPoint:
    if x.algebra != y.algebra:
        raise AlgebraMismatch("direct sum over different algebras")
    bottom = min(x.bottom, y.bottom)
    top = max(x.top, y.top)
    terms, diffs = [], []
    for i in range(bottom, top + 1):
        s, _, _ = direct_sum_modules([x.term(i), y.term(i)])
        terms.append(s)
    for i in range(bottom + 1, top + 1):
        diffs.append(Matrix.block_diag(x.field, [x.diff(i), y.diff(i)]))
    return ComplexPoint(x.algebra, bottom, tuple(terms), tuple(diffs))


# -- chain maps ----------------------------------------------------------------

@dataclass(frozen=True)
class ChainMap:
    """Map of shift n: components f_i : X_i -> Y_{i-n}, absent means zero;
    satisfies (-1)^n dY f = f dX."""

    source: ComplexPoint
    target: ComplexPoint
    shift: int
    comps: tuple  # ((degree, Matrix), ...) sorted descending by degree

    def component(self, i: int) -> Matrix:
        for d, m in self.comps:
            if d == i:
                return m
        return Matrix.zeros(self.source.field,
                            self.target.dim_at(i - self.shift),
                            self.source.dim_at(i))

    def validate(self) -> tuple | None:
        x, y, n = self.source, self.target, self.shift
        sign = y.field.one() if n % 2 == 0 else y.field.neg(y.field.one())
        for i in x.degrees():
            f = self.component(i)
            if f.shape != (y.dim_at(i - n), x.dim_at(i)):
                return ("shape", i)
            src, tgt = x.term(i), y.term(i - n)
            # a_0 acts as 1 on validated terms, where f @ 1 == 1 @ f
            first = int(validate_module(src) is None and validate_module(tgt) is None)
            for j in range(first, x.algebra.dim):
                if f @ src.action[j] != tgt.action[j] @ f:
                    return ("linearity", i, j)
        for i in range(x.bottom, x.top + 2):
            lhs = (y.diff(i - n) @ self.component(i)).scale(sign)
            rhs = self.component(i - 1) @ x.diff(i)
            if lhs != rhs:
                return ("square", i)
        return None

    def then(self, other: "ChainMap") -> "ChainMap":
        """Composite 'self first, then other' (shifts add)."""
        if other.source is not self.target and other.source != self.target:
            raise ShapeMismatch("chain maps do not compose")
        comps = []
        for i in self.source.degrees():
            m = other.component(i - self.shift) @ self.component(i)
            if not m.is_zero():
                comps.append((i, m))
        return ChainMap(self.source, other.target, self.shift + other.shift,
                        tuple(sorted(comps, reverse=True)))

    def add(self, other: "ChainMap") -> "ChainMap":
        comps = []
        for i in self.source.degrees():
            m = self.component(i) + other.component(i)
            if not m.is_zero():
                comps.append((i, m))
        return ChainMap(self.source, self.target, self.shift,
                        tuple(sorted(comps, reverse=True)))

    def is_zero(self) -> bool:
        return all(m.is_zero() for _, m in self.comps)


def identity_chain_map(x: ComplexPoint) -> ChainMap:
    comps = tuple((i, Matrix.identity(x.field, x.dim_at(i)))
                  for i in range(x.top, x.bottom - 1, -1) if x.dim_at(i))
    return ChainMap(x, x, 0, comps)


def chain_map_from_components(x: ComplexPoint, y: ComplexPoint, n: int,
                              comps: dict) -> ChainMap:
    items = tuple(sorted(((i, m) for i, m in comps.items() if not m.is_zero()),
                         reverse=True))
    f = ChainMap(x, y, n, items)
    witness = f.validate()
    if witness is not None:
        raise ValidationFailure(f"not a chain map: {witness}", witness=witness)
    return f


def mapping_cone(f: ChainMap) -> ComplexPoint:
    """Cone of a shift-0 chain map."""
    if f.shift != 0:
        raise ShapeMismatch("mapping cone needs a shift-0 chain map")
    x, y = f.source, f.target
    bottom = min(x.bottom + 1, y.bottom)
    top = max(x.top + 1, y.top)
    terms = []
    for i in range(bottom, top + 1):
        s, _, _ = direct_sum_modules([x.term(i - 1), y.term(i)])
        terms.append(s)
    diffs = []
    for i in range(bottom + 1, top + 1):
        blocks = [[-x.diff(i - 1),
                   Matrix.zeros(x.field, x.dim_at(i - 2), y.dim_at(i))],
                  [-f.component(i - 1), y.diff(i)]]
        diffs.append(Matrix.block(blocks))
    return ComplexPoint(x.algebra, bottom, tuple(terms), tuple(diffs))


# -- group action ----------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """Degreewise invertible change of basis (g_i), identity off-window."""

    comps: tuple  # ((degree, Matrix), ...)

    def component(self, i: int, dim: int, field) -> Matrix:
        for d, m in self.comps:
            if d == i:
                if m.shape != (dim, dim):
                    raise ShapeMismatch(f"group component at degree {i} has "
                                        f"shape {m.shape}, expected {(dim, dim)}")
                return m
        return Matrix.identity(field, dim)

    def inverse(self) -> "GroupElement":
        out = []
        for d, m in self.comps:
            inv = m.inverse()
            if inv is None:
                raise ValidationFailure(f"group component at degree {d} is singular")
            out.append((d, inv))
        return GroupElement(tuple(out))


def act(g: GroupElement, x: ComplexPoint,
        _inverse: GroupElement | None = None) -> ComplexPoint:
    """Transport of structure: modules by conjugation, differentials by
    g_{i-1} d_i g_i^{-1}.  A caller that applies g many times passes
    ``g.inverse()`` once as ``_inverse``.  Terms and differentials at
    degrees that g leaves alone are reused as they are.  The identity
    action ``action[0]`` is carried over, so a term on which only the
    identity acts is reused whole, with the witness and cover it keeps."""
    ginv = _inverse if _inverse is not None else g.inverse()
    terms, diffs = list(x.terms), list(x.diffs)
    for i in {i for i, _ in g.comps if x.bottom <= i <= x.top}:
        gi, gi_inv = (h.component(i, x.dim_at(i), x.field) for h in (g, ginv))
        t = i - x.bottom
        term = terms[t]
        if term.dim and len(term.action) > 1:
            terms[t] = ModuleRep(term.algebra, term.dim, term.action[:1] + tuple(
                gi @ a @ gi_inv for a in term.action[1:]))
        if t < len(diffs):  # the differential into degree i
            diffs[t] = gi @ diffs[t]
        if t:  # the differential out of degree i
            diffs[t - 1] = diffs[t - 1] @ gi_inv
    return ComplexPoint(x.algebra, x.bottom, tuple(terms), tuple(diffs))


# -- chain map spaces and homotopies ----------------------------------------------

@dataclass(frozen=True)
class ChainMapSpace:
    """All chain maps X -> Y of a given shift, as a subspace of the
    flattening of the nonzero-sized components f_i, keyed by source
    degree i, descending."""

    source: ComplexPoint
    target: ComplexPoint
    shift: int
    layout: Blocks
    subspace: Subspace

    @property
    def ambient_dim(self) -> int:
        return self.layout.ambient_dim

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def unflatten(self, vec: tuple) -> ChainMap:
        return self.from_row(vector_row(self.source.field, self.ambient_dim, vec))

    def from_row(self, row: tuple) -> ChainMap:
        """The chain map whose coordinate row is ``row``."""
        comps = tuple((i, m) for i, m in self.layout.split(row).items()
                      if not m.is_zero())
        return ChainMap(self.source, self.target, self.shift, comps)

    def flatten(self, f: ChainMap) -> tuple:
        return self.layout.flatten(dict(f.comps))


def chain_map_space(x: ComplexPoint, y: ComplexPoint, n: int) -> ChainMapSpace:
    """Solve the A-linearity and (signed) square conditions for shift-n maps."""
    if x.algebra != y.algebra:
        raise AlgebraMismatch("chain maps between complexes over different algebras")
    degrees = tuple(i for i in range(x.top, x.bottom - 1, -1)
                    if y.dim_at(i - n) and x.dim_at(i))
    layout = Blocks(x.field, degrees,
                    tuple((y.dim_at(i - n), x.dim_at(i)) for i in degrees))
    index = layout.index
    equations = []
    # A-linearity per component: f_i rhoX_i(a_j) = rhoY_{i-n}(a_j) f_i
    for i, (r, c) in zip(degrees, layout.shapes):
        for a, b in zip(x.term(i).action[1:], y.term(i - n).action[1:]):
            equations.append((r, c, [(1, None, index[i], a),
                                     (-1, b, index[i], None)]))
    # signed squares: (-1)^n dY_{i-n} f_i  =  f_{i-1} dX_i
    for i in range(x.bottom, x.top + 2):
        terms = []
        if i in index:
            terms.append(((-1) ** n, y.diff(i - n), index[i], None))
        if i - 1 in index:
            terms.append((-1, None, index[i - 1], x.diff(i)))
        equations.append((y.dim_at(i - n - 1), x.dim_at(i), terms))
    system = linear_system(x.field, layout.shapes, equations)
    return ChainMapSpace(x, y, n, layout, system.kernel())


@dataclass(frozen=True)
class HomotopyHom:
    """Chain maps of a given shift modulo null-homotopic ones."""

    space: ChainMapSpace
    chainmaps: Subspace
    nullhomotopic: Subspace

    @property
    def hom_dim(self) -> int:
        return self.chainmaps.dim - self.nullhomotopic.dim


def homotopy_hom(x: ComplexPoint, y: ComplexPoint, n: int) -> HomotopyHom:
    """Hom up to homotopy: null-homotopic maps are boundaries
    (-1)^n dY s + s dX of A-linear families s of shift n+1."""
    cms = chain_map_space(x, y, n)
    boundaries = []
    homs = {}  # Hom_A basis per (source, target) pair of term instances
    for i in x.degrees():
        if not x.dim_at(i) or not y.dim_at(i - n + 1):
            continue
        src, tgt = x.term(i), y.term(i - n + 1)
        key = (id(src), id(tgt))  # x and y keep both alive during the call
        if key not in homs:
            homs[key] = hom_matrices(src, tgt)
        dy = y.diff(i - n + 1) if n % 2 == 0 else -y.diff(i - n + 1)
        for h in homs[key]:
            comps = {i: dy @ h}
            if i + 1 in cms.layout.index:
                comps[i + 1] = h @ x.diff(i + 1)
            boundaries.append(cms.layout.sparse_row(comps))
    null = Subspace._span(x.field, cms.ambient_dim, boundaries)
    if not cms.subspace.contains_subspace(null):
        raise ValidationFailure("null-homotopic maps escaped the chain map space")
    return HomotopyHom(cms, cms.subspace, null)


# -- homology ---------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyData:
    dim: int
    cycles: Subspace
    boundaries: Subspace


def homology(x: ComplexPoint, i: int) -> HomologyData:
    cycles = x.diff(i).kernel()
    boundaries = x.diff(i + 1).column_space()
    if not cycles.contains_subspace(boundaries):
        raise ValidationFailure(f"d^2 != 0 at degree {i}")
    return HomologyData(cycles.dim - boundaries.dim, cycles, boundaries)


def homology_dims(x: ComplexPoint) -> tuple:
    """Homology dimensions, top degree first (window degrees only)."""
    return tuple(homology(x, i).dim for i in range(x.top, x.bottom - 1, -1))


def is_acyclic(x: ComplexPoint) -> bool:
    return all(h == 0 for h in homology_dims(x))


# -- isomorphism search -------------------------------------------------------------

def complexes_isomorphic(x: ComplexPoint, y: ComplexPoint,
                         seed: int = 0) -> WitnessSearch:
    """Degreewise-invertible chain map search; witnesses transport x to y
    under the group action.  Mismatched dimension vectors or homology are
    proven negatives."""
    lo = min(x.bottom, y.bottom)
    hi = max(x.top, y.top)
    for i in range(lo, hi + 1):
        if x.dim_at(i) != y.dim_at(i):
            return WitnessSearch(False, True)
    if x.total_dim() == 0:
        return WitnessSearch(True, True, identity_chain_map(x))
    for i in range(lo, hi + 1):
        if homology(x, i).dim != homology(y, i).dim:
            return WitnessSearch(False, True)
    cms = chain_map_space(x, y, 0)
    if cms.dim == 0:
        return WitnessSearch(False, True)
    needed = [i for i in range(lo, hi + 1) if x.dim_at(i)]

    def is_iso(f: ChainMap) -> bool:
        return all(f.component(i).is_invertible() for i in needed)

    return search_invertible_combination(
        x.field, list(cms.subspace.by_pivot.values()), cms.from_row, is_iso, seed=seed)


# -- structure classification --------------------------------------------------------

@dataclass(frozen=True)
class ComplexClass:
    left_degree: object
    is_projective_complex: bool
    is_almost_projective: bool
    projective_terms: tuple


def classify(x: ComplexPoint) -> ComplexClass:
    """Projectivity pattern of the terms; almost projective means every
    term is projective except possibly the leftmost nonzero one.  A point
    is classified once: the result is kept on the point."""
    return x._class


def _classify(x: ComplexPoint) -> ComplexClass:
    degrees = range(x.top, x.bottom - 1, -1)
    flags = tuple(not x.dim_at(i) or is_projective(x.term(i)) for i in degrees)
    ld = x.left_degree()
    almost = all(flag for i, flag in zip(degrees, flags) if i != ld)
    return ComplexClass(ld, all(flags), almost, flags)


# -- projective replacement -----------------------------------------------------------

# Extension steps one projective replacement may take (over an algebra of
# infinite global dimension the tower need not end).
MAX_TOWER_STEPS = 128


def _onto(x: ComplexPoint, lo: int) -> dict:
    """The canonical map of a tower step onto x from degree lo up: the
    identity below the top degree ld of x, the cover map of x_ld at ld."""
    ld = x.left_degree()
    comps = {i: Matrix.identity(x.field, x.dim_at(i))
             for i in range(lo, ld) if x.dim_at(i)}
    comps[ld] = x.term(ld).cover.pi
    return comps


def _extend_once(x: ComplexPoint, met: dict) -> ComplexPoint:
    """Replace the top term by the projective cover it keeps and prepend the
    kernel; returns the extended complex, which ``_onto(x, x.bottom)`` maps
    onto x, or x itself when the top term is projective.  ``met`` maps each
    module value the tower has met to one instance: a new term equal to one
    of them is that instance, with the witness and cover it keeps."""
    ld = x.left_degree()
    if ld is None or is_projective(x.term(ld)):
        return x
    cover = x.term(ld).cover
    k_mod, k_inc = submodule(cover.projective, cover.pi.kernel())
    t = ld - x.bottom
    terms = x.terms[:t] + tuple(met.setdefault(m, m) for m in (cover.projective, k_mod))
    diffs = list(x.diffs[:max(t - 1, 0)])
    if t:
        diffs.append(x.diff(ld) @ cover.pi)
    diffs.append(k_inc)
    ext = ComplexPoint(x.algebra, x.bottom, terms, tuple(diffs))
    # only degrees ld-1..ld+1 change: check the new terms and maps, their
    # composite and pi . k = 0 there, at a cost that does not grow with x
    lo = max(x.bottom, ld - 1)
    window = make_complex(x.algebra, lo, terms[lo - x.bottom:], diffs[lo - x.bottom:])
    below = ComplexPoint(x.algebra, lo, tuple(x.term(i) for i in range(lo, ld + 2)),
                         tuple(x.diff(i) for i in range(lo + 1, ld + 2)))
    chain_map_from_components(window, below, 0, _onto(x, lo))
    return ext


def projective_extension(x: ComplexPoint, steps: int = 1) -> tuple:
    """Iterate the cover-and-prepend construction ``steps`` times; returns
    (extended complex, composite canonical map), a quasi-isomorphism."""
    current, total, met = x, identity_chain_map(x), {t: t for t in x.terms}
    for _ in range(steps):
        nxt = _extend_once(current, met)
        if nxt is current:
            break
        comps = sorted(_onto(current, current.bottom).items(), reverse=True)
        total = ChainMap(nxt, current, 0, tuple(comps)).then(total)
        current = nxt
    if not is_acyclic(mapping_cone(total)):
        raise ValidationFailure("canonical replacement map is not a quasi-isomorphism")
    return current, total


def replace_by_projective(x: ComplexPoint, top_degree: int) -> ComplexPoint:
    """Projective complex computing maps out of x in the derived category,
    truncated above ``top_degree`` (callers guarantee the truncation level
    is beyond every target of interest).  x must be almost projective, or
    NotProjectiveComplex is raised before anything is built; it is
    classified once.  A step covers its top term only when that module value
    is new to the tower (a periodic tower covers each value once), and the
    projectives of the covers need no further cover to be classified.  More
    than MAX_TOWER_STEPS steps raise BudgetExceeded."""
    cls = classify(x)
    if cls.is_projective_complex:
        return x
    if not cls.is_almost_projective:
        raise NotProjectiveComplex(
            "projective replacement needs an almost projective complex")
    current, steps, met = x, 0, {t: t for t in x.terms}
    while current.left_degree() <= top_degree:
        nxt = _extend_once(current, met)
        if nxt is current:
            return current
        steps += 1
        if steps > MAX_TOWER_STEPS:
            raise BudgetExceeded(
                f"projective replacement needs more than {MAX_TOWER_STEPS} "
                f"extension steps", count=steps)
        current = nxt
    # drop the top (kernel) term, keeping the cover tower below it
    terms = current.terms[:-1]
    diffs = current.diffs[:-1]
    chopped = ComplexPoint(current.algebra, current.bottom, terms, diffs)
    if not classify(chopped).is_projective_complex:
        raise NotProjectiveComplex("truncated replacement is not projective")
    return chopped
