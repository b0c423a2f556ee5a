"""Hom groups in the bounded derived category, endomorphism algebras of
complexes, idempotent lifting, and the acyclic-summand splitter.

The endomorphism algebra of a complex is taken with multiplication equal to
*opposite* composition (b1 * b2 = "apply b1, then b2"), the right-action
convention; every statement about its ideals below depends on that order.
Null-homotopic self-maps form a two-sided ideal H that kills homology, and
splitting off the contractible part of a complex amounts to lifting the
identity of (H + J)/J through the radical J.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FDAlgebra, algebra_from_constants, radical as algebra_radical
from .complexes import (ChainMap, ComplexPoint, HomotopyHom,
                        chain_map_from_components, classify, homology,
                        homology_dims, homotopy_hom, identity_chain_map,
                        is_acyclic, make_complex, replace_by_projective)
from .errors import NotAlmostProjective, SplitterFailure, ValidationFailure
from .linalg import LinearSolver, Matrix, Subspace, vec_combination
from .modules import submodule


# -- derived homs -----------------------------------------------------------------


def derived_hom(x: ComplexPoint, y: ComplexPoint, n: int):
    """Full data behind derived_hom_dim: (replacement used, HomotopyHom)."""
    cls = classify(x)
    if not cls.is_almost_projective:
        raise NotAlmostProjective(
            "derived homs are computed only out of almost projective complexes")
    ldy = y.left_degree()
    if not cls.is_projective_complex and ldy is not None:
        x = replace_by_projective(x, max(ldy + n + 1, x.left_degree()))
    return x, homotopy_hom(x, y, n)


def derived_hom_dim(x: ComplexPoint, y: ComplexPoint, n: int) -> int:
    """dim Hom_{D^b}(X, Y[n]) via a truncated projective replacement of X;
    components of maps and homotopies into Y[n] vanish above the truncation
    degree, so the chopped tower computes the same dimension."""
    return derived_hom(x, y, n)[1].hom_dim


# -- endomorphism algebra of a complex ------------------------------------------------


@dataclass(frozen=True, eq=False)
class EndAlgebraPackage:
    """End algebra of a complex with opposite-composition multiplication,
    its null-homotopic ideal H, and its radical, all in the identity-first
    basis of ``bhat``."""

    complex: ComplexPoint
    bhat: FDAlgebra
    basis_maps: tuple        # ChainMap per basis index
    basis_vectors: tuple     # flattened chain-map coordinates per basis index
    H: Subspace              # null-homotopic ideal, bhat coordinates
    radical: Subspace        # J(bhat), bhat coordinates
    hom: HomotopyHom

    def realize(self, coords: tuple) -> ChainMap:
        space = self.hom.space
        return space.unflatten(vec_combination(space.source.field, space.ambient_dim,
                                               zip(coords, self.basis_vectors)))


def end_algebra(x: ComplexPoint) -> EndAlgebraPackage:
    """End(x) in the identity-first basis: the identity, then every echelon
    row of the chain-map space but row k*, the last one on which the
    identity has a nonzero coordinate."""
    if x.total_dim() == 0:
        raise ValidationFailure("the zero complex has no unital endomorphism algebra")
    field = x.field
    hom = homotopy_hom(x, x, 0)
    cms = hom.space
    space = cms.subspace
    id_vec = cms.flatten(identity_chain_map(x))
    c = space.coordinates(id_vec)
    if c is None:
        raise ValidationFailure("identity map missing from the chain map space")
    kstar = max(k for k, ck in enumerate(c) if ck)
    others = [k for k in range(space.dim) if k != kstar]
    basis_vectors = [id_vec] + [v for k, v in enumerate(space.basis) if k != kstar]
    inv_ck = field.inv(c[kstar])

    def bhat_coords(v, what):
        """Identity-first coordinates of v: with a = its echelon
        coordinates and t = a[k*] / c[k*], they are t, then a[k] - t c[k]."""
        a = space.coordinates(v)
        if a is None:
            raise ValidationFailure(f"{what} outside the chain map space")
        t = field.mul(a[kstar], inv_ck)
        return (t,) + tuple(field.sub(a[k], field.mul(t, c[k])) for k in others)

    basis_maps = tuple(cms.unflatten(v) for v in basis_vectors)
    # every coordinate, zeros too: the builder checks the identity's row
    # and column against the composites
    constants = {(j, k, l): c
                 for j, bj in enumerate(basis_maps) for k, bk in enumerate(basis_maps)
                 for l, c in enumerate(bhat_coords(cms.flatten(bj.then(bk)),  # opposite order
                                                   "composite"))}
    labels = ("1",) + tuple(f"b{k}" for k in range(1, space.dim))
    bhat = algebra_from_constants(field, space.dim, labels, constants)
    h_coords = [bhat_coords(v, "null-homotopic map") for v in hom.nullhomotopic.basis]
    h_sub = Subspace.from_vectors(field, space.dim, h_coords)
    _check_ideal_and_homology_kill(x, bhat, h_sub, basis_vectors, cms)
    rad = algebra_radical(bhat)
    return EndAlgebraPackage(x, bhat, basis_maps, tuple(basis_vectors),
                             h_sub, rad, hom)


def _check_ideal_and_homology_kill(x, bhat, h_sub, basis_vectors, cms):
    field = x.field
    for hv in h_sub.basis:
        for k in range(bhat.dim):
            if not h_sub.contains(bhat.mul_vec(hv, bhat.basis_vec(k))):
                raise ValidationFailure("null-homotopic maps fail right ideal closure")
            if not h_sub.contains(bhat.mul_vec(bhat.basis_vec(k), hv)):
                raise ValidationFailure("null-homotopic maps fail left ideal closure")
    # each null-homotopic map sends cycles into boundaries in every degree
    if not h_sub.dim:
        return
    homologies = {i: homology(x, i) for i in x.degrees()}
    for hv in h_sub.basis:
        f = cms.unflatten(vec_combination(field, cms.ambient_dim, zip(hv, basis_vectors)))
        for i, data in homologies.items():
            for cyc in data.cycles.basis:
                if not data.boundaries.contains(f.component(i).mat_vec(cyc)):
                    raise ValidationFailure(
                        "null-homotopic map acts nontrivially on homology")


# -- idempotent lifting ---------------------------------------------------------------


def lift_idempotent(bhat: FDAlgebra, ebar: tuple, ideal: Subspace) -> tuple:
    """Lift an idempotent of bhat/ideal to an exact idempotent congruent to
    it, via e <- 3e^2 - 2e^3 (error term r^2(4r - 3), so precision doubles
    each round).  A nilpotent ideal I has I^(dim I + 1) = 0, so an exact
    idempotent is reached after at most bit_length(dim I) + 1 rounds; a
    value that is still not idempotent then is refused."""
    field, n = bhat.field, bhat.dim
    defect = vec_combination(field, n, [(1, bhat.mul_vec(ebar, ebar)), (-1, ebar)])
    if not ideal.contains(defect):
        raise ValidationFailure("input is not idempotent modulo the ideal")
    e = ebar
    for _ in range(ideal.dim.bit_length() + 2):
        e2 = bhat.mul_vec(e, e)
        if e2 == e:
            break
        e3 = bhat.mul_vec(e2, e)
        e = vec_combination(field, n, [(3, e2), (-2, e3)])
    else:
        raise ValidationFailure("idempotent lifting did not converge")
    if not ideal.contains(vec_combination(field, n, [(1, e), (-1, ebar)])):
        raise ValidationFailure("lifted idempotent drifted out of its coset")
    return e


# -- acyclic splitter -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SplitterResult:
    e: ChainMap               # chain idempotent with image the retained part
    xe: ComplexPoint          # retained direct summand, homotopy equivalent
    xcomp: ComplexPoint       # complementary acyclic summand
    inclusion: ChainMap       # xe -> x
    projection: ChainMap      # x -> xe
    ideal_dim: int            # dim (H + J)/J that was split off


def _ideal_identity(field, quot_dim, ideal, q_mul):
    """Identity element of a (necessarily unital) two-sided ideal in a
    semisimple quotient: the unique e in the ideal with e*x = x for every x
    there, solved linearly, then checked to be a two-sided identity."""
    basis = ideal.basis
    rows, rhs = [], []
    for b in basis:
        cols = [q_mul(bk, b) for bk in basis]
        for coord in range(quot_dim):
            rows.append([col[coord] for col in cols])
            rhs.append(b[coord])
    coeffs = LinearSolver(Matrix.from_rows(field, rows)).solve(tuple(rhs))
    if coeffs is None:
        return None
    cand = vec_combination(field, quot_dim, zip(coeffs, basis))
    if q_mul(cand, cand) != cand:
        return None
    if not all(q_mul(cand, b) == b and q_mul(b, cand) == b for b in basis):
        return None
    return cand


def acyclic_splitter(x: ComplexPoint) -> SplitterResult:
    """Split off the largest contractible direct summand: find the identity
    of (H + J)/J in the semisimple quotient of the endomorphism algebra,
    lift it to a chain idempotent f, and cut X along e = 1 - f.  The zero
    complex, which has no unital endomorphism algebra, is its own kept
    part."""
    if x.total_dim() == 0:
        ident = identity_chain_map(x)
        return SplitterResult(ident, x, x, ident, ident, 0)
    pkg = end_algebra(x)
    field = x.field
    bhat, h_sub, j_sub = pkg.bhat, pkg.H, pkg.radical
    qm = j_sub.quotient_matrix()
    sec = j_sub.section_matrix()
    quot_dim = bhat.dim - j_sub.dim

    def q_mul(u, v):
        return qm.mat_vec(bhat.mul_vec(sec.mat_vec(u), sec.mat_vec(v)))

    ideal = Subspace.from_vectors(field, quot_dim,
                                  [qm.mat_vec(v) for v in h_sub.basis])
    if ideal.dim == 0:
        f_vec = tuple(field.zero() for _ in range(bhat.dim))
    else:
        fbar_q = _ideal_identity(field, quot_dim, ideal, q_mul)
        if fbar_q is None:
            raise SplitterFailure("no identity found for the contractible ideal",
                                  ideal_dim=ideal.dim, quotient_dim=quot_dim)
        f_vec = lift_idempotent(bhat, sec.mat_vec(fbar_q), j_sub)
    if not h_sub.contains(f_vec):
        raise SplitterFailure("lifted idempotent is not null-homotopic",
                              ideal_dim=ideal.dim, quotient_dim=quot_dim)
    e_vec = vec_combination(field, bhat.dim, [(1, bhat.basis_vec(0)), (-1, f_vec)])
    e_map = pkg.realize(e_vec)
    f_map = pkg.realize(f_vec)
    xe, inc_e, proj_e = _cut_along_idempotent(x, e_map)
    xcomp, _, _ = _cut_along_idempotent(x, f_map)
    if xe.total_dim() + xcomp.total_dim() != x.total_dim():
        raise SplitterFailure("idempotent images do not complement each other",
                              ideal_dim=ideal.dim, quotient_dim=quot_dim)
    if not is_acyclic(xcomp):
        raise SplitterFailure("complementary summand is not acyclic",
                              ideal_dim=ideal.dim, quotient_dim=quot_dim)
    if homology_dims(xe) != homology_dims(x):
        raise SplitterFailure("retained summand changed homology",
                              ideal_dim=ideal.dim, quotient_dim=quot_dim)
    return SplitterResult(e_map, xe, xcomp, inc_e, proj_e, ideal.dim)


def _cut_along_idempotent(x: ComplexPoint, e_map: ChainMap):
    """Complex on the images of the components of a chain idempotent,
    with inclusion and projection maps."""
    images = {i: e_map.component(i).column_space() for i in x.degrees()}
    terms, incs = [], {}
    for i in x.degrees():
        mod, incs[i] = submodule(x.term(i), images[i])
        terms.append(mod)
    diffs = []
    for i in range(x.bottom + 1, x.top + 1):
        restricted = images[i - 1].coordinate_matrix(x.diff(i) @ incs[i])
        if restricted is None:
            raise ValidationFailure("idempotent image is not differential-stable")
        diffs.append(restricted)
    xe = make_complex(x.algebra, x.bottom, terms, diffs)
    inclusion = chain_map_from_components(
        xe, x, 0, {i: incs[i] for i in x.degrees() if incs[i].ncols})
    projs = {}
    for i in x.degrees():
        if incs[i].ncols:
            p = images[i].coordinate_matrix(e_map.component(i))
            if p is None:
                raise ValidationFailure("idempotent image lost its projection")
            projs[i] = p
    projection = chain_map_from_components(x, xe, 0, projs)
    comp = inclusion.then(projection)  # xe -> xe, should be the identity
    for i in xe.degrees():
        if not comp.component(i).is_identity():
            raise ValidationFailure("idempotent cut lost a section")
    return xe, inclusion, projection
