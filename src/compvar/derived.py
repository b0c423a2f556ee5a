"""Hom groups in the bounded derived category, endomorphism algebras of
complexes, idempotent lifting, and the acyclic-summand splitter.

The endomorphism algebra of a complex is taken with multiplication equal to
*opposite* composition (b1 * b2 = "apply b1, then b2"), the right-action
convention; every statement about its ideals below depends on that order.
Null-homotopic self-maps form a two-sided ideal H that kills homology, and
splitting off the contractible part of a complex amounts to lifting the
identity of (H + J)/J through the radical J.  The table of End(X) is read
off certified composites, so it needs no associativity triples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FDAlgebra, _assemble, _unit_laws, radical as algebra_radical
from .complexes import (ChainMap, ComplexPoint, HomotopyHom,
                        chain_map_from_components, classify, homology,
                        homology_dims, homotopy_hom, identity_chain_map,
                        is_acyclic, make_complex, replace_by_projective)
from .errors import NotAlmostProjective, SplitterFailure, ValidationFailure
from .linalg import (LinearSolver, Matrix, Subspace, combine, row_combination,
                     row_values, stored_row, vec_combination)
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
    basis_rows: tuple        # chain-map coordinate row per basis index
    H: Subspace              # null-homotopic ideal, bhat coordinates
    radical: Subspace        # J(bhat), bhat coordinates
    hom: HomotopyHom

    def realize(self, coords: tuple) -> ChainMap:
        space = self.hom.space
        return space.from_row(row_combination(space.source.field,
                                              zip(coords, self.basis_rows)))


def end_algebra(x: ComplexPoint) -> EndAlgebraPackage:
    """End(x) in the identity-first basis: the identity, then every echelon
    row of the chain-map space but row k*, the last one on which the
    identity has a nonzero coordinate.

    A map's row reduces to zero modulo the space, which certifies it; its
    entries at the pivots are its echelon coordinates a, and with t =
    a[k*] / c[k*] for the identity's c, t, then a[k] - t c[k], are its
    identity-first ones: row k of ``transform`` holds those of e_k.  Each
    row b_j b_k of the table is so read off the composite of the basis
    maps, which makes b_j b_k = sum_l c_jkl b_l as maps on the sum of the
    X_i.  The b_l are independent, so the table is the multiplication of a
    subalgebra of End_K(sum X_i), associative without the triples of
    ``validate_algebra``; its unit row and column are checked."""
    if x.total_dim() == 0:
        raise ValidationFailure("the zero complex has no unital endomorphism algebra")
    field = x.field
    hom = homotopy_hom(x, x, 0)
    cms = hom.space
    space, layout = cms.subspace, cms.layout
    id_row = layout.sparse_row(dict(identity_chain_map(x).comps))
    c = space._coordinate_row(id_row)
    if c is None:
        raise ValidationFailure("identity map missing from the chain map space")
    c = row_values(field, c)
    kstar = max(c)
    position = {k: k + (k < kstar) for k in range(space.dim) if k != kstar}
    inv_ck = field.inv(c[kstar])
    transform = [stored_row(field, {position[k]: field.one()}) if k != kstar else
                 stored_row(field, {0: inv_ck, **{position[l]: field.neg(field.mul(cl, inv_ck))
                                                  for l, cl in c.items() if l != kstar}})
                 for k in range(space.dim)]

    def bhat_row(row, what):
        a = space._coordinate_row(row)
        if a is None:
            raise ValidationFailure(f"{what} outside the chain map space")
        return combine(field, a, transform)

    basis_rows = [id_row] + [v for k, v in enumerate(space.by_pivot.values()) if k != kstar]
    basis_maps = tuple(map(cms.from_row, basis_rows))
    products = tuple(tuple(bhat_row(layout.sparse_row(dict(bj.then(bk).comps)),  # opposite order
                                    "composite") for bk in basis_maps)
                     for bj in basis_maps)
    labels = ("1",) + tuple(f"b{k}" for k in range(1, space.dim))
    bhat = _assemble(field, labels, products, _unit_laws)
    h_sub = Subspace._span(field, space.dim, [bhat_row(v, "null-homotopic map")
                                              for v in hom.nullhomotopic.by_pivot.values()])
    _check_ideal_and_homology_kill(x, bhat, h_sub, basis_rows, cms)
    rad = algebra_radical(bhat)
    return EndAlgebraPackage(x, bhat, basis_maps, tuple(basis_rows), h_sub, rad, hom)


def _check_ideal_and_homology_kill(x, bhat, h_sub, basis_rows, cms):
    """On the rows: h b_k and b_k h lie in H, and h maps cycles into boundaries."""
    field, rows = x.field, list(h_sub.by_pivot.values())
    times = [[row[k] for row in bhat.products] for k in range(bhat.dim)]  # a_m b_k by m
    for hv in rows:
        for k in range(bhat.dim):
            if h_sub._residue(combine(field, hv, times[k]))[0]:
                raise ValidationFailure("null-homotopic maps fail right ideal closure")
            if h_sub._residue(combine(field, hv, bhat.products[k]))[0]:
                raise ValidationFailure("null-homotopic maps fail left ideal closure")
    # each null-homotopic map sends cycles into boundaries in every degree
    if not rows:
        return
    homologies = [(i, homology(x, i)) for i in x.degrees()]
    homologies = [(i, h.boundaries, h.cycles.column_matrix()) for i, h in homologies]
    for hv in rows:
        f = cms.from_row(combine(field, hv, basis_rows))
        for i, boundaries, cycles in homologies:
            if boundaries.coordinate_matrix(f.component(i) @ cycles) is None:
                raise ValidationFailure("null-homotopic map acts nontrivially on homology")


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
