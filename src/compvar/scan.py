"""Exhaustive enumeration over small finite fields: point lists, orbit
censuses, and rigid-complex censuses.

Results at this scale are evidence gathered over a finite field, not proof
of the corresponding statements over an algebraically closed field, and the
report types say so.  Enumeration order is deterministic: degrees run from
the top of the window down; within a degree the module action matrices for
the non-identity basis elements come first (basis order, row-major), then
the differentials (again degrees descending, row-major); every coordinate
runs through the field elements in their canonical order with the last
coordinate varying fastest.  Points come out in that grid order, but only
candidates that satisfy (alpha) and (beta) are built: module structures
are pruned while their action matrices are chosen, and each differential
is drawn from the Hom_A space between its terms, so only (gamma) is left
to filter.  A module keeps the verdict of the checks it passed while it
was chosen, and every returned point still passes ``validate_point``.

A census partitions the points into G-orbits, walked as closures under
generators of G.  The walk keys each point by its flat F_p entries and
applies a generator to a key with one row and one column operation per
matrix, so that deciding whether a step reaches a new point costs a hash.
Each new point is still reached through ``act`` and checked as a chain
isomorphism from the point it came from, which makes every step its own
isomorphism witness.  A step that leaves the modules of a pinned list is
skipped, and an isomorphism search over the closure representatives
joins the closures an orbit falls into.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .algebra import FDAlgebra
from .complexes import (ComplexPoint, GroupElement, act,
                        complexes_isomorphic, validate_point)
from .derived import derived_hom_dim
from .errors import (BudgetExceeded, NotAlmostProjective,
                     UnsupportedCharacteristic, ValidationFailure)
from .fields import Field
from .linalg import (Matrix, row_combination, row_values, stored_row,
                     vec_combination)
from .modules import ModuleRep, hom_space, validate_module, zero_module
from .tangent import quotient_dim


@dataclass(frozen=True)
class ScanBudget:
    """A hard ceiling on the coordinate grid an enumeration walks, plus the
    seed used by any randomized isomorphism searches."""

    max_points: int = 10 ** 4
    seed: int = 0

    def __post_init__(self):
        if self.max_points <= 0:
            raise ValidationFailure("budget bounds must be positive")


# Grid sizes and group orders are computed exactly only below 2^ORDER_BITS
# (about 1,200 decimal digits); sizes are compared through exponents first.
ORDER_BITS = 4096


def _max_exponent(q: int, limit: int) -> int:
    """Largest k with q^k <= limit."""
    k, power = 0, q
    while power <= limit:
        k, power = k + 1, power * q
    return k


# -- point enumeration ---------------------------------------------------------

def free_coordinate_count(algebra: FDAlgebra, dims, pinned: bool = False) -> int:
    """Number of matrix entries that actually vary.  The identity action is
    forced, so a d-dimensional term contributes (s-1)*d^2 module entries;
    each differential contributes d_{i-1}*d_i.  ``dims`` is top degree
    first."""
    s = algebra.dim
    total = 0
    if not pinned:
        total += sum((s - 1) * d * d for d in dims)
    total += sum(dims[k] * dims[k + 1] for k in range(len(dims) - 1))
    return total


def _flat_mul(a: tuple, b: tuple, n: int, p: int) -> tuple:
    """Product of two n x n matrices over F_p, each a row-major flat tuple."""
    cols = [b[j::n] for j in range(n)]
    return tuple(sum(map(operator.mul, a[i:i + n], col)) % p
                 for i in range(0, n * n, n) for col in cols)


def _module_candidates(algebra: FDAlgebra, d: int) -> list:
    """Every valid module structure of dimension d, in enumeration order.

    The action matrices are chosen in basis order after a_0 = 1, as flat
    tuples, and a choice is dropped as soon as an identity a_j a_k =
    sum c_jkl a_l whose indices all lie among the matrices chosen so far
    fails.  A complete choice has passed every check of ``validate_module``
    and keeps that verdict."""
    field = algebra.field
    if d == 0:
        return [zero_module(algebra)]
    s = algebra.dim
    grid = list(itertools.product(field.elements(), repeat=d * d)) if s > 1 else []
    checks = [[] for _ in range(s)]  # identities decided once a_m is chosen;
    for j in range(1, s):              # those with a_0 = 1 hold already
        for k in range(1, s):
            support = [(c, l) for l, c in row_values(field, algebra.products[j][k]).items()]
            checks[max([j, k] + [l for _, l in support])].append((j, k, support))
    prefixes = [[Matrix.identity(field, d).flat()]]
    for m in range(1, s):  # choose a_m after every surviving prefix
        longer = []
        for prefix in prefixes:
            for a in grid:
                chosen = prefix + [a]
                if all(_flat_mul(chosen[j], chosen[k], d, field.p) == vec_combination(
                        field, d * d, ((c, chosen[l]) for c, l in support))
                       for j, k, support in checks[m]):
                    longer.append(chosen)
        prefixes = longer
    modules = [ModuleRep(algebra, d, tuple(Matrix.from_flat(field, d, d, f)
                                           for f in chosen)) for chosen in prefixes]
    for m in modules:
        vars(m)["_witness"] = None  # the prefix checks were validate_module's
    return modules


def enumerate_points(algebra: FDAlgebra, dims, budget: ScanBudget,
                     pinned_modules=None) -> list:
    """All points of the complex variety with the given dimension vector
    (top degree first, window bottom at degree 0), optionally with the
    module structures pinned (same order as ``dims``).

    Raises BudgetExceeded before building anything if the coordinate grid
    is larger than ``budget.max_points`` (with the exact candidate count
    attached when it is below 2^ORDER_BITS), or if the order of the acting
    group, which every census reports, could reach 2^ORDER_BITS.  Every
    returned point satisfies the variety conditions; the list order is the
    deterministic coordinate order."""
    field = algebra.field
    if field.is_rational:
        raise UnsupportedCharacteristic(
            "point enumeration requires a finite base field")
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValidationFailure("dimension vector must be non-empty")
    if any(d < 0 for d in dims):
        raise ValidationFailure("dimension vector entries must be non-negative")
    q = field.p
    free = free_coordinate_count(algebra, dims,
                                 pinned=pinned_modules is not None)
    if free > _max_exponent(q, budget.max_points):
        count = q ** free if free * (q - 1).bit_length() <= ORDER_BITS else None
        raise BudgetExceeded(
            f"enumeration grid has {count or f'{q}^{free}'} candidate points "
            f"(budget {budget.max_points})", count=count)
    group_order(field, dims)  # refuses a window too large to report

    if pinned_modules is not None:
        pinned_modules = tuple(pinned_modules)
        if len(pinned_modules) != len(dims):
            raise ValidationFailure(
                "pinned modules must match the dimension vector")
        for mod, d in zip(pinned_modules, dims):
            if mod.algebra != algebra or mod.dim != d:
                raise ValidationFailure("pinned module has the wrong shape")
            if validate_module(mod) is not None:
                raise ValidationFailure("pinned module fails its conditions")
        per_degree = [[mod] for mod in pinned_modules]
    else:  # degrees of one dimension share the candidates and what they keep
        candidates = {d: _module_candidates(algebra, d) for d in set(dims)}
        per_degree = [candidates[d] for d in dims]

    # differential k (top-down) maps the term of dims[k] into the term of
    # dims[k+1]; it is drawn from Hom_A, listed in grid order, so that only
    # (gamma) is left to filter
    homs = [{(hi, lo): _hom_elements(hi, lo) for hi in per_degree[k]
             for lo in per_degree[k + 1]} for k in range(len(dims) - 1)]
    points = []
    for module_choice in itertools.product(*per_degree):
        terms = tuple(reversed(module_choice))
        pairs = zip(module_choice, module_choice[1:])
        for blocks in itertools.product(*(h[pair] for h, pair in zip(homs, pairs))):
            candidate = ComplexPoint(algebra, 0, terms, tuple(reversed(blocks)))
            if validate_point(candidate) is None:
                points.append(candidate)
    return points


def _hom_elements(m: ModuleRep, n: ModuleRep) -> list:
    """Every element of Hom_A(M, N) as a matrix, in grid order (row-major
    entries, compared as tuples of canonical field values)."""
    field, rows = m.field, list(hom_space(m, n).by_pivot.values())
    return sorted((Matrix.from_sparse_flat(field, n.dim, m.dim,
                                           row_combination(field, zip(coeffs, rows)))
                   for coeffs in itertools.product(field.elements(), repeat=len(rows))),
                  key=Matrix.flat)


# -- the acting group ----------------------------------------------------------

def general_linear_order(q: int, d: int) -> int:
    out = 1
    for k in range(d):
        out *= q ** d - q ** k
    return out


def group_order(field: Field, dims) -> int:
    """Order of the product of general linear groups acting on the window.

    The order is below q^(sum d^2); BudgetExceeded is raised, before any
    arithmetic, when that bound exceeds 2^ORDER_BITS, which also keeps
    every d below 65."""
    if field.is_rational:
        raise UnsupportedCharacteristic("the acting group is finite only "
                                        "over a finite field")
    bits = sum(d * d for d in dims) * (field.p - 1).bit_length()
    if bits > ORDER_BITS:
        raise BudgetExceeded(
            f"acting group for dims {list(dims)} has an order of up to "
            f"2^{bits} (limit 2^{ORDER_BITS})")
    out = 1
    for d in dims:
        out *= general_linear_order(field.p, d)
    return out


def _invertible_matrices(field: Field, d: int) -> list:
    if d == 0:
        return [Matrix.zeros(field, 0, 0)]
    out = []
    for combo in itertools.product(field.elements(), repeat=d * d):
        m = Matrix.from_flat(field, d, d, combo)
        if m.is_invertible():
            out.append(m)
    return out


def enumerate_group(field: Field, dims, budget: ScanBudget) -> list:
    """Every group element for the window (degrees top..0, identity outside).
    Raises BudgetExceeded when the order tops ``budget.max_points``."""
    order = group_order(field, dims)
    if order > budget.max_points:
        raise BudgetExceeded(f"acting group has {order} elements "
                             f"(budget {budget.max_points})", count=order)
    top = len(dims) - 1
    per_degree = [_invertible_matrices(field, d) for d in dims]
    out = []
    for choice in itertools.product(*per_degree):
        comps = tuple((top - k, g) for k, g in enumerate(choice)
                      if dims[k] > 0)
        out.append(GroupElement(comps))
    return out


def _group_generators(field: Field, dims) -> list:
    """Pairs (g, g^-1) generating the acting group, each moving one degree:
    the transvections I + E_ab (a != b), which generate SL_d over a prime
    field as I + c E_ab = (I + E_ab)^c, and diag(w, 1, ..., 1) for a
    generator w of F_p^x (none over F_2), whose determinant gives the rest
    of GL_d.  The search for w is bounded as p - 1 <= |G|."""
    def element(degree, d, a, b, c):  # the identity with entry (a, b) = c
        rows = list(one.rows)  # shared rows, never modified
        rows[a] = stored_row(field, {**row_values(field, rows[a]), b: c})
        return GroupElement(((degree, Matrix(field, d, d, rows)),))

    p, top, out = field.p, len(dims) - 1, []
    for k, d in enumerate(dims):
        one = Matrix.identity(field, d)
        moves = [(a, b, 1, p - 1) for a in range(d) for b in range(d) if a != b]
        if d and p > 2:
            w = next(w for w in range(2, p)
                     if len({pow(w, e, p) for e in range(p - 1)}) == p - 1)
            moves.append((0, 0, w, field.inv(w)))
        out += [(element(top - k, d, a, b, c), element(top - k, d, a, b, cinv))
                for a, b, c, cinv in moves]
    return out


# -- censuses ------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitCensus:
    """Partition of a point list into isomorphism classes.

    ``classes`` holds sorted index tuples into the input list, ordered by
    first member; ``representatives`` is the first point of each class.
    Each class is the part of one G-orbit that lies in the list: generator
    closures, every step a checked chain isomorphism, joined where a search
    found a witness; the representatives are pairwise non-isomorphic."""

    point_count: int
    classes: tuple
    representatives: tuple
    group_order: int

    @property
    def class_count(self) -> int:
        return len(self.classes)


def _rank_key(x: ComplexPoint) -> tuple:
    """Ranks of every differential and of every action matrix, which the
    group action preserves; with the dimension vector they also fix the
    homology dimensions."""
    return (tuple(d.rank() for d in x.diffs),
            tuple(a.rank() for t in x.terms for a in t.action[1:]))


def _iso_partition(points, seed: int) -> list:
    """Classes of isomorphic points, ordered by first member; a point is
    searched against the representatives with its rank key only."""
    classes = []
    buckets = {}  # rank key -> [(class index, representative)]
    for idx, p in enumerate(points):
        bucket = buckets.setdefault(_rank_key(p), [])
        for c, rep in bucket:
            ws = complexes_isomorphic(rep, p, seed=seed)
            if ws.found:
                classes[c].append(idx)
                break
            if not ws.certain:
                raise BudgetExceeded(
                    "isomorphism search was inconclusive; the census "
                    "partition would not be trustworthy")
        else:
            bucket.append((len(classes), p))
            classes.append([idx])
    return [tuple(c) for c in classes]


def _transports(m: Matrix, i: int, y: ComplexPoint, z: ComplexPoint) -> bool:
    """Whether the map that is m in degree i and the identity elsewhere is
    a chain map y -> z: m rho_y(a_j) = rho_z(a_j) m for every j,
    z.d_{i+1} = m y.d_{i+1}, z.d_i m = y.d_i, and every other term and
    differential is unchanged.  For an invertible m it is an isomorphism."""
    t = i - y.bottom
    same = (z.algebra, z.bottom, len(z.terms)) == (y.algebra, y.bottom, len(y.terms))
    if not (same and 0 <= t < len(y.terms)):
        return False
    keep = max(t - 1, 0)  # the differentials below d_i
    if (z.terms[:t], z.terms[t + 1:], z.diffs[:keep], z.diffs[t + 1:]) != \
            (y.terms[:t], y.terms[t + 1:], y.diffs[:keep], y.diffs[t + 1:]):
        return False
    ty, tz = y.terms[t], z.terms[t]
    if (tz.algebra, tz.dim) != (ty.algebra, ty.dim) or any(
            m @ a != b @ m for a, b in zip(ty.action, tz.action)):
        return False
    if t < len(y.diffs) and z.diffs[t] != m @ y.diffs[t]:
        return False
    return not t or z.diffs[t - 1] @ m == y.diffs[t - 1]


def _blocks(x: ComplexPoint) -> list:
    """The matrices of a point in packed order, each after the indices of
    the terms it maps into and out of: the action matrices of the
    non-identity basis elements of every term, then the differentials."""
    return ([(u, u, a) for u, term in enumerate(x.terms) for a in term.action[1:]]
            + [(u, u + 1, d) for u, d in enumerate(x.diffs)])


def _pack(x: ComplexPoint) -> tuple:
    """The flat F_p entries of a point's blocks, row-major.  Among points
    of one algebra and window, on each of whose terms a_0 acts as the
    identity, it determines the point."""
    return tuple(v for _, _, a in _blocks(x) for row in a.data for v in row)


def _moved(g: Matrix) -> list:
    """The nonzero entries (r, k, c) of g - I, for a square g over F_p; a
    row of g that is e_r has none."""
    p = g.field.p
    rows = (row_values(g.field, row) for row in g.rows)
    return [(r, k, c) for r, row in enumerate(rows) if len(row) != 1 or row.get(r) != 1
            for k, v in {r: 0, **row}.items() if (c := (v - (r == k)) % p)]


def _inverts(moved: list, moved_inv: list, p: int) -> bool:
    """Whether I + B inverts I + A, given the ``_moved`` entries of A and B:
    (I + A)(I + B) = I + A + B + AB, where AB costs |A| |B| steps."""
    acc = {}
    products = [(r, j, c * e) for r, k, c in moved for i, j, e in moved_inv if i == k]
    for r, j, c in moved + moved_inv + products:
        acc[r, j] = (acc.get((r, j), 0) + c) % p
    return not any(acc.values())


def _flat_updates(x: ComplexPoint, degree: int, moved: list, moved_inv: list) -> tuple:
    """The generator that is m at ``degree`` as updates of ``_pack(x)``,
    given the ``_moved`` entries of m and of m^-1: left multiplication by
    m of each block into that degree, then right multiplication by m^-1 of
    each block out of it.  Each pass lists (dst, src, c) for out[dst] += c
    * before[src], one per nonzero entry of m - I (or m^-1 - I) and row or
    column of a block, so a transvection is one row and one column
    operation per block."""
    t, at, left, right = degree - x.bottom, 0, [], []
    for into, out_of, a in _blocks(x):
        if into == t:
            left += [(at + r * a.ncols + c, at + k * a.ncols + c, v)
                     for r, k, v in moved for c in range(a.ncols)]
        if out_of == t:
            right += [(at + r * a.ncols + c, at + r * a.ncols + k, v)
                      for k, c, v in moved_inv for r in range(a.nrows)]
        at += a.nrows * a.ncols
    return left, right


def _flat_step(key: tuple, updates: tuple, p: int) -> tuple:
    """The packed image g.x of a packed point under one generator."""
    left, right = updates
    out = list(key)
    for dst, src, c in left:
        out[dst] = (out[dst] + c * key[src]) % p
    before = tuple(out)
    for dst, src, c in right:
        out[dst] = (out[dst] + c * before[src]) % p
    return tuple(out)


def _closure_partition(points, generators) -> tuple:
    """Closures of the point list under the generators, ordered by first
    member, and whether a step was skipped.  Each generator moves one
    degree, and its component there must be inverted by the one given with
    it.  The walk runs on packed points (``_pack``), so a step costs one
    ``_flat_step`` and a hash.  A step to a new point is then made again
    through ``act`` as z = g.y, and accepted only once that component is
    seen to carry y to z (``_transports``, which does not apply g again) and
    z packs to the packed image; so each closure lies in one orbit.  On a
    list whose points share their modules (it may be pinned) a step that
    changes the module prefix of the key is skipped.  Any other step must
    stay in the list, or the enumeration is incomplete; when none was
    skipped, the closures are whole orbits."""
    if not points:
        return [], False
    x, q = points[0], points[0].field.p
    if any((p.algebra, p.bottom, p.dims()) != (x.algebra, x.bottom, x.dims())
           for p in points):
        raise ValidationFailure("closure points lie in different varieties")
    moves = []
    for g, ginv in generators:
        if len(g.comps) != 1 or [d for d, _ in ginv.comps] != [g.comps[0][0]]:
            raise ValidationFailure("a generator must move exactly one degree")
        (degree, m), (_, minv) = g.comps[0], ginv.comps[0]
        moved, moved_inv, square = _moved(m), _moved(minv), (m.ncols, m.ncols)
        if (m.shape, minv.shape) != (square, square) or not _inverts(moved, moved_inv, q):
            raise ValidationFailure(f"a generator at degree {degree} is not "
                                    "inverted by the matrix given with it")
        moves.append((g, ginv, degree, m, _flat_updates(x, degree, moved, moved_inv)))
    keys = [_pack(p) for p in points]
    index = {}
    for i, key in enumerate(keys):
        index.setdefault(key, []).append(i)
    # the action blocks come first in a key; a pinned list fixes them
    width = sum((len(t.action) - 1) * t.dim * t.dim for t in x.terms)
    pinned = keys[0][:width] if all(p.terms == x.terms for p in points) else None
    assigned, classes, skipped = set(), [], False
    for i, p in enumerate(points):
        if i in assigned:
            continue
        orbit, frontier = {keys[i]}, [(keys[i], p)]
        while frontier:
            key, y = frontier.pop()
            for g, ginv, degree, m, updates in moves:
                image = _flat_step(key, updates, q)
                if image in orbit:
                    continue
                if pinned is not None and image[:width] != pinned:
                    skipped = True
                    continue
                z = act(g, y, _inverse=ginv)
                if not _transports(m, degree, y, z):
                    raise ValidationFailure(
                        f"a closure step from the orbit of point {i} is not "
                        f"a chain isomorphism at degree {degree}")
                if _pack(z) != image:
                    raise ValidationFailure(
                        f"a packed closure step from the orbit of point {i} "
                        f"differs from the group action at degree {degree}")
                if image not in index:
                    raise ValidationFailure(f"the orbit of point {i} leaves the "
                                            "list: the enumeration is incomplete")
                orbit.add(image)
                frontier.append((image, z))
        classes.append(tuple(sorted(j for key in orbit for j in index[key])))
        assigned.update(classes[-1])
    return classes, skipped


def orbit_census(points, algebra: FDAlgebra, dims, budget: ScanBudget) -> OrbitCensus:
    """Group the points into isomorphism classes; isomorphism witnesses are
    exactly group elements carrying one point to the other, so the classes
    are the orbits.  The points are walked as generator closures (every
    step a checked witness), and the closure representatives are searched
    against each other whenever their rank keys agree.  The closures a
    search proves isomorphic are joined if the walk skipped a step out of a
    pinned list; otherwise they are whole orbits, and ValidationFailure is
    raised."""
    points = list(points)
    dims = tuple(int(d) for d in dims)
    for p in points:
        if p.algebra != algebra:
            raise ValidationFailure("census point over the wrong algebra")
        if p.dims() != dims:
            raise ValidationFailure("census point with the wrong dimension vector")
    order = group_order(algebra.field, dims)
    closures, skipped = _closure_partition(
        points, _group_generators(algebra.field, dims))
    merged = _iso_partition([points[c[0]] for c in closures], budget.seed)
    if len(merged) < len(closures) and not skipped:
        raise ValidationFailure("two generator closures hold isomorphic points")
    classes = tuple(tuple(sorted(j for k in ks for j in closures[k])) for ks in merged)
    return OrbitCensus(len(points), classes,
                       tuple(points[c[0]] for c in classes), order)


@dataclass(frozen=True)
class RigidCensus:
    """Orbit census refined by rigidity.

    ``rigid_classes`` indexes into ``census.classes``; a class counts as
    rigid when its representative is almost projective with no degree-one
    self-maps in the homotopy category.  Every rigid representative is also
    required to have an orbit of full tangent dimension."""

    census: OrbitCensus
    almost_projective_classes: tuple
    rigid_classes: tuple

    @property
    def rigid_class_count(self) -> int:
        return len(self.rigid_classes)


def rigid_census(algebra: FDAlgebra, dims, budget: ScanBudget,
                 pinned_modules=None) -> RigidCensus:
    """Enumerate the variety, partition into orbits, and flag the rigid
    classes.  Rigidity and projectivity are isomorphism invariants, so they
    are decided on class representatives."""
    points = enumerate_points(algebra, dims, budget, pinned_modules)
    census = orbit_census(points, algebra, dims, budget)
    almost = []
    rigid = []
    for c, rep in enumerate(census.representatives):
        try:  # decides almost projectivity, classifying rep once
            self_ext = derived_hom_dim(rep, rep, 1)
        except NotAlmostProjective:
            continue
        almost.append(c)
        if self_ext == 0:  # rigid; Corollary 8 asks for an open orbit
            if quotient_dim(rep) != 0:
                raise ValidationFailure(
                    "rigid class has a positive-dimensional tangent "
                    f"quotient (class {c})")
            rigid.append(c)
    return RigidCensus(census, tuple(almost), tuple(rigid))
