"""Scheme tangent spaces of the complex variety, orbit tangent spaces,
extensions from tangent vectors, and the comparison with derived homs.

A tangent vector at a point X with dimension vector (d_m, ..., d_0) consists
of matrices w_ij = delta_i(a_j) (size d_i x d_i) and v_i = sigma_i (size
d_{i-1} x d_i), subject to the linearized defining conditions:

  (a)  w_ij A_ik + A_ij w_ik = sum_l c_jkl w_il          (derivation rule)
  (b)  v_i A_ij + del_i w_ij = w_{i-1,j} del_i + A_{i-1,j} v_i
  (c)  v_{i-1} del_i + del_{i-1} v_i = 0

with A_ij the action of a_j on X_i (a_0 = 1), del_i the differential, and
out-of-range symbols zero.  Since A_i0 = I at every point, w_i0 = 0 for
every tangent vector, so the unknowns are the coordinates of the variety:
w_ij for j >= 1 and the v_i.  Given (α) and the unit laws of the algebra,
every equation with j = 0 or k = 0 then reads w_ij = w_ij or v_i = v_i, so
the system keeps (a) for the pairs j, k >= 1 (without w_i0 in its sum) and
(b) for j >= 1; over a 3-dimensional algebra (a) keeps 4 of its 9 pairs.

Tangent coordinates are one ``Blocks`` layout: the blocks ("delta", i, j)
for j >= 1 (degrees descending, then j ascending), then ("sigma", i)
(degrees descending), zero-sized ones left out.  The Lie coordinates t_i
of the orbit map are another, keyed by degree, descending.  This fixed
order makes every reported basis reproducible.

Every orbit dimension and tangent quotient comes from ``tangent_and_orbit``:
the column space of the orbit map, certified to lie in the tangent space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (ChainMap, ComplexPoint, chain_map_from_components,
                        classify, homotopy_hom, is_variety_point, make_complex,
                        stalk, validate_point)
from .derived import derived_hom_dim
from .errors import NotProjectiveComplex, ShapeMismatch, ValidationFailure
from .linalg import (Blocks, LinearSolver, Matrix, Subspace, linear_system,
                     row_combination, row_values)
from .modules import ext1_dim_oracle, make_module


@dataclass(frozen=True, eq=False)
class TangentVector:
    """The blocks of a tangent vector at ``complex``: delta_i(a_j) under
    ("delta", i, j) and sigma_i, mapping degree i to degree i-1, under
    ("sigma", i).  An absent key, such as delta_i(1), is a zero block."""

    complex: ComplexPoint
    blocks: dict

    def delta(self, i: int, j: int) -> Matrix:
        m = self.blocks.get(("delta", i, j))
        if m is None:
            d = self.complex.dim_at(i)
            return Matrix.zeros(self.complex.field, d, d)
        return m

    def sigma(self, i: int) -> Matrix:
        m = self.blocks.get(("sigma", i))
        if m is None:
            return Matrix.zeros(self.complex.field,
                                self.complex.dim_at(i - 1), self.complex.dim_at(i))
        return m

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks.values())

    def add(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.complex, {key: m + other.blocks[key]
                                            for key, m in self.blocks.items()})


def tangent_vector(x: ComplexPoint, deltas: dict, sigmas: dict) -> TangentVector:
    """Assemble a tangent vector from matrices keyed by degree (``deltas``
    holds the s matrices delta_i(a_j) per degree, the first of which, at the
    identity, must be zero); shapes are checked, the linear invariants are
    checked by membership or by chi."""
    given = {("sigma", i): m for i, m in sigmas.items()}
    for i, mats in deltas.items():
        mats = tuple(mats)
        if len(mats) != x.algebra.dim:
            raise ShapeMismatch(f"need {x.algebra.dim} delta matrices at degree {i}")
        if not mats[0].is_zero():
            raise ValidationFailure(f"delta at the identity is nonzero at degree {i}: "
                                    f"not a tangent direction")
        given.update((("delta", i, j), m) for j, m in enumerate(mats[1:], 1))
    layout = tangent_layout(x)
    for key, m in given.items():
        if key not in layout.index and m.nrows * m.ncols:
            raise ShapeMismatch(f"block {key} lies outside the tangent coordinates")
    blocks = {}
    for key, shape in zip(layout.keys, layout.shapes):
        m = given.get(key)
        if m is None:
            m = Matrix.zeros(x.field, *shape)
        elif m.shape != shape:
            raise ShapeMismatch(f"{key[0]} block at degree {key[1]} has shape {m.shape}")
        blocks[key] = m
    return TangentVector(x, blocks)


def zero_tangent_vector(x: ComplexPoint) -> TangentVector:
    return tangent_vector(x, {}, {})


def tangent_layout(x: ComplexPoint) -> Blocks:
    keys, shapes = [], []
    for i in range(x.top, x.bottom - 1, -1):
        d = x.dim_at(i)
        if d:
            keys += [("delta", i, j) for j in range(1, x.algebra.dim)]
            shapes += [(d, d)] * (x.algebra.dim - 1)
    for i in range(x.top, x.bottom, -1):
        rows, cols = x.dim_at(i - 1), x.dim_at(i)
        if rows and cols:
            keys.append(("sigma", i))
            shapes.append((rows, cols))
    return Blocks(x.field, tuple(keys), tuple(shapes))


def _require_point(x: ComplexPoint) -> None:
    if not is_variety_point(x):
        raise ValidationFailure("tangent computations need non-negative degrees")
    witness = validate_point(x)
    if witness is not None:
        raise ValidationFailure(f"base point fails complex conditions: {witness}",
                                witness=witness)


def tangent_system_matrix(x: ComplexPoint, layout: Blocks) -> Matrix:
    """Coefficient matrix of the linear system (a), (b), (c) in the
    coordinates of ``tangent_layout``, without the equations that the unit
    laws imply at a point that has passed (α) (see the module docstring)."""
    s = x.algebra.dim
    unk = layout.index
    equations = []
    # (a): derivation rule per degree, for the pairs j, k >= 1; delta_i(1) = 0
    for i in x.degrees():
        d = x.dim_at(i)
        if d == 0:
            continue
        acts = x.term(i).action
        for j in range(1, s):
            for k in range(1, s):
                terms = [(1, None, unk["delta", i, j], acts[k]),
                         (1, acts[j], unk["delta", i, k], None)]
                terms += [(-c, None, unk["delta", i, l], None)
                          for l, c in row_values(x.field, x.algebra.products[j][k]).items()
                          if l]
                equations.append((d, d, terms))
    # (b): compatibility of sigma with the module actions, for j >= 1
    for i in range(x.bottom + 1, x.top + 1):
        dlo, dhi = x.dim_at(i - 1), x.dim_at(i)
        if dlo == 0 or dhi == 0:
            continue
        di, sig = x.diff(i), unk["sigma", i]
        for j in range(1, s):
            equations.append((dlo, dhi, [
                (1, None, sig, x.term(i).action[j]),
                (1, di, unk["delta", i, j], None),
                (-1, None, unk["delta", i - 1, j], di),
                (-1, x.term(i - 1).action[j], sig, None)]))
    # (c): sigma is a square-zero perturbation direction
    for i in range(x.bottom + 2, x.top + 1):
        if x.dim_at(i) and x.dim_at(i - 1) and x.dim_at(i - 2):
            equations.append((x.dim_at(i - 2), x.dim_at(i), [
                (1, None, unk["sigma", i - 1], x.diff(i)),
                (1, x.diff(i - 1), unk["sigma", i], None)]))
    return linear_system(x.field, layout.shapes, equations)


def tangent_space(x: ComplexPoint):
    """(layout, Subspace) for the scheme tangent space at x."""
    _require_point(x)
    layout = tangent_layout(x)
    return layout, tangent_system_matrix(x, layout).kernel()


def tangent_space_basis(x: ComplexPoint) -> list:
    layout, space = tangent_space(x)
    return [TangentVector(x, layout.split(row)) for row in space.by_pivot.values()]


# -- orbit tangent space ------------------------------------------------------------


def _lie_layout(x: ComplexPoint) -> Blocks:
    """Lie coordinates t_i, keyed by degree."""
    degrees = tuple(i for i in range(x.top, x.bottom - 1, -1) if x.dim_at(i))
    return Blocks(x.field, degrees, tuple((x.dim_at(i),) * 2 for i in degrees))


def _commutator(k: int, a: Matrix) -> list:
    """Terms of t a - a t for the unknown t = X_k."""
    return [(1, None, k, a), (-1, a, k, None)]


def orbit_map_matrix(x: ComplexPoint, layout: Blocks) -> Matrix:
    """Matrix of t = (t_i) |-> (delta_i(a_j) = t_i A_ij - A_ij t_i,
    sigma_i = t_{i-1} del_i - del_i t_i), columns indexed by Lie coordinates
    (the Lie layout)."""
    lie = _lie_layout(x)
    t = lie.index
    equations = []
    for key, (rows, cols) in zip(layout.keys, layout.shapes):
        i = key[1]
        if key[0] == "delta":
            equations.append((rows, cols, _commutator(t[i], x.term(i).action[key[2]])))
        else:
            di = x.diff(i)
            equations.append((rows, cols, [(1, None, t[i - 1], di),
                                           (-1, di, t[i], None)]))
    return linear_system(x.field, lie.shapes, equations)


def tangent_and_orbit(x: ComplexPoint):
    """(layout, tangent subspace, orbit subspace, stabilizer Lie dimension)
    from one build of each system; the orbit directions are checked to lie
    in the tangent space."""
    layout, tspace = tangent_space(x)
    orbit_map = orbit_map_matrix(x, layout)
    orbit = orbit_map.column_space()
    if not tspace.contains_subspace(orbit):
        raise ValidationFailure("orbit directions escape the tangent space")
    return layout, tspace, orbit, orbit_map.ncols - orbit.dim


def orbit_tangent(x: ComplexPoint):
    """(layout, orbit subspace, stabilizer Lie dimension)."""
    layout, _, orbit, stab = tangent_and_orbit(x)
    return layout, orbit, stab


def orbit_tangent_basis(x: ComplexPoint):
    """(Subspace of flattened tangent vectors, stabilizer_lie_dim)."""
    _, orbit, stab = orbit_tangent(x)
    return orbit, stab


def _tangent_dims(x: ComplexPoint) -> dict:
    """Tangent, orbit and quotient dimensions at x, with the orbit certified
    inside the tangent space by ``tangent_and_orbit``."""
    _, tspace, orbit, _ = tangent_and_orbit(x)
    return {"tangent_dim": tspace.dim, "orbit_dim": orbit.dim,
            "quotient": tspace.dim - orbit.dim}


def quotient_dim(x: ComplexPoint) -> int:
    return _tangent_dims(x)["quotient"]


# -- extensions from tangent vectors --------------------------------------------------


def chi(x: ComplexPoint, v: TangentVector):
    """Doubled complex Z with off-diagonal blocks from v, plus the inclusion
    and projection chain maps of the degreewise-split extension
    0 -> X -> Z -> X -> 0."""
    field = x.field
    s = x.algebra.dim
    terms = []
    for i in x.degrees():
        d = x.dim_at(i)
        acts = x.term(i).action
        doubled = []
        for j in range(s):
            doubled.append(Matrix.block([
                [acts[j], v.delta(i, j)],
                [Matrix.zeros(field, d, d), acts[j]],
            ]))
        terms.append(make_module(x.algebra, doubled))
    diffs = []
    for i in range(x.bottom + 1, x.top + 1):
        d_hi, d_lo = x.dim_at(i), x.dim_at(i - 1)
        diffs.append(Matrix.block([
            [x.diff(i), v.sigma(i)],
            [Matrix.zeros(field, d_lo, d_hi), x.diff(i)],
        ]))
    z = make_complex(x.algebra, x.bottom, terms, diffs)
    inc_comps, proj_comps = {}, {}
    for i in x.degrees():
        d = x.dim_at(i)
        if d == 0:
            continue
        inc_comps[i] = Matrix.vstack([Matrix.identity(field, d),
                                      Matrix.zeros(field, d, d)])
        proj_comps[i] = Matrix.hstack([Matrix.zeros(field, d, d),
                                       Matrix.identity(field, d)])
    inclusion = chain_map_from_components(x, z, 0, inc_comps)
    projection = chain_map_from_components(z, x, 0, proj_comps)
    for i in x.degrees():
        d = x.dim_at(i)
        if inclusion.component(i).rank() != d:
            raise ValidationFailure("extension inclusion dropped rank")
        if projection.component(i).rank() != d:
            raise ValidationFailure("extension projection dropped rank")
        if not (projection.component(i) @ inclusion.component(i)).is_zero():
            raise ValidationFailure("extension fails exactness in the middle")
    return z, inclusion, projection


def chi_splitting(x: ComplexPoint, v: TangentVector):
    """Section data for the extension chi(x, v): matrices t_i with
    t_i A_ij - A_ij t_i = delta_i(a_j) and t_{i-1} del_i - del_i t_i =
    sigma_i, or None when the extension does not split (equivalently, v
    lies outside the orbit tangent space)."""
    layout = tangent_layout(x)
    m = orbit_map_matrix(x, layout)
    coeffs = LinearSolver(m).solve(layout.flatten(v.blocks))
    if coeffs is None:
        return None
    return _lie_layout(x).unflatten(coeffs)


# -- the comparison map eta -------------------------------------------------------------


def _derivation_solvers(x: ComplexPoint) -> dict:
    """Per degree, a solver for t |-> (t A_ij - A_ij t)_{j>=1} stacked."""
    solvers = {}
    for i in x.degrees():
        d = x.dim_at(i)
        if d:
            equations = [(d, d, _commutator(0, a)) for a in x.term(i).action[1:]]
            solvers[i] = LinearSolver(linear_system(x.field, [(d, d)], equations))
    return solvers


def eta(x: ComplexPoint, v: TangentVector, _solvers: dict | None = None) -> ChainMap:
    """Corrected sigma: peel off the inner-derivation part of the deltas
    degreewise, leaving an A-linear shift-1 chain map X -> X[1] whose
    homotopy class is the image of v."""
    if not classify(x).is_projective_complex:
        raise NotProjectiveComplex("eta needs every term projective")
    s = x.algebra.dim
    solvers = _solvers if _solvers is not None else _derivation_solvers(x)
    ts = {}
    for i, solver in solvers.items():
        sol = solver.solve(tuple(e for j in range(1, s) for e in v.delta(i, j).flat()))
        if sol is None:
            raise ValidationFailure(
                f"inner-derivation solve infeasible at degree {i}; "
                f"term is not projective")
        ts[i] = Matrix.from_flat(x.field, x.dim_at(i), x.dim_at(i), sol)
    comps = {}
    for i in range(x.bottom + 1, x.top + 1):
        if i - 1 in ts and i in ts:
            di = x.diff(i)
            comps[i] = v.sigma(i) - (ts[i - 1] @ di - di @ ts[i])
    return chain_map_from_components(x, x, 1, comps)


def eta_kernel(x: ComplexPoint):
    """(layout, kernel of eta as a subspace of tangent coordinates,
    image dimension in the homotopy quotient)."""
    layout, tspace = tangent_space(x)
    solvers = _derivation_solvers(x)
    hom1 = homotopy_hom(x, x, 1)
    qm = hom1.nullhomotopic.quotient_matrix()
    columns, rows = [], list(tspace.by_pivot.values())
    for row in rows:
        sp = eta(x, TangentVector(x, layout.split(row)), _solvers=solvers)
        columns.append(list(qm.mat_vec(hom1.space.flatten(sp))))
    field = x.field
    if not columns:
        return layout, Subspace.zero(field, layout.ambient_dim), 0
    m = Matrix.from_rows(field, columns).transpose()
    coeff_kernel = m.kernel()
    kernel = Subspace._span(field, layout.ambient_dim,
                            [row_combination(field, zip(coeffs, rows))
                             for coeffs in coeff_kernel.basis])
    return layout, kernel, m.ncols - coeff_kernel.dim


# -- theorem-level verdicts -------------------------------------------------------------


def verify_theorem7(x: ComplexPoint) -> dict:
    """Compare dim T/O with dim Hom of X into its shift in the derived
    category; equality is enforced for projective complexes, the inequality
    for almost projective ones (derived_hom refuses any other X)."""
    dh = derived_hom_dim(x, x, 1)
    dims = _tangent_dims(x)
    quotient = dims["quotient"]
    if classify(x).is_projective_complex:
        verdict = "equality"
        if quotient != dh:
            raise ValidationFailure(
                f"tangent quotient {quotient} != derived hom {dh} on a "
                f"projective complex")
    else:
        verdict = "embedding"
        if quotient > dh:
            raise ValidationFailure(
                f"tangent quotient {quotient} exceeds derived hom {dh}")
    return {**dims, "derived_hom_dim": dh, "verdict": verdict}


def is_rigid(x: ComplexPoint) -> bool:
    """Hom_{D^b}(X, X[1]) = 0; like derived_hom, raises NotAlmostProjective
    when X is not almost projective."""
    return derived_hom_dim(x, x, 1) == 0


def corollary8_check(x: ComplexPoint) -> bool:
    """For rigid complexes the orbit must be open at the tangent level."""
    if not is_rigid(x):
        return True
    return quotient_dim(x) == 0


def voigt_check(m, degree: int = 0) -> dict:
    """Module-variety specialization: the tangent quotient of the stalk is
    bounded by (and generically equals) the self-extension dimension."""
    if degree < 0:
        raise ValidationFailure("stalk degree must be non-negative")
    dims = _tangent_dims(stalk(m, degree))
    quotient = dims["quotient"]
    ext = ext1_dim_oracle(m, m)
    if quotient > ext:
        raise ValidationFailure(
            f"tangent quotient {quotient} exceeds self-extension count {ext}")
    return {"module_dim": m.dim, "degree": degree, **dims, "ext1_dim": ext,
            "equality": quotient == ext}
