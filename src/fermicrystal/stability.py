"""Ground states, the energy Hessian, and orbital-stability experiments.

A ground state is built from a crystal-compatible ion density sigma and a
determinant basis: the CI vector is supported on occupation sets of
minimal total kinetic energy, normalized to Q = Z, placed on the lattice
with a common shift r and phase alpha.  Such states form the solitary
manifold S (orbit of phase rotations and rigid translations); on the
charge manifold Q = Z they minimize the energy with value omega0 Z.

Around S the energy expands to second order as

    (1/2) <Y, E'' Y> = sum_I E_kin(I) |C_phi(I)|^2
                       + (1/2) (rho1, G rho1)
                       + sum_n |pi(n)|^2 / (2 M),

with Y = (phi, kappa, pi) and rho1 the linearized charge density: the ion
part carries i sigma_hat(xi) (xi . kappa_hat(xi)) exp(i xi r) and the
electron part -e [P(xi) + conj(P(-xi))] with the transition amplitude
P(xi) = <sum_j exp(i xi x_j) psi, phi>.  The form is assembled from the
linear density map on the coordinates it reaches: a symmetric matrix whose
Coulomb part couples only those coordinates, held as its diagonal and the
dense block on the coupled coordinates.  Every entry can be cross-checked
against central differences of the plain energy because both sides share
one spectral truncation.

Lattice translations commute with E''(S), so the block is block diagonal
by Bloch momentum theta = 2 pi h / N, as a force-constant matrix reduces
to one dynamical matrix per wavevector.  With the ion displacements turned
into real Bloch waves, the block splits into one sector per pair
{h, -h}: each CI coordinate sits in the sector its response frequencies
carry, and each sector holds its waves.  The spectra take one small
eigen-solve per sector.

The kernel of the form on the full coordinate space is the translation
block plus the flat ion space measured independently by the Wiener report;
restricted to the normal-times-constraint subspace the form is positive
definite exactly when the flat space is trivial.  That constrained spectrum
is E'' restricted, not the second variation the long-time perturbation runs
probe: S is not a critical point of E (E'(S) = omega0 Q'(S)), and the runs
rescale every state back to Q = Z, so they probe E - omega0 Q, whose second
variation is E'' - 2 omega0 on the CI coordinates.  ROADMAP item 1 plans
that charge form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Optional, Sequence

import numpy as np

from .density import IonDensityModel, jellium_check
from .dynamics import CrystalState, IonState, _FlowPlan, energy, evolve
from .errors import AdmissibilityError, DimensionMismatchError, ModelRefusalError
from .fermions import (
    CIVector,
    DeterminantBasis,
    check_adr,
    ground_occupations,
    h1_norm,
)
from .torus import TWO_PI, FourierScalarField, frequency_table, lattice_points


@dataclass(eq=False)
class GroundState:
    """A solitary-manifold point S = (exp(i alpha) psi0, r-bar, 0)."""

    basis: DeterminantBasis
    sigma: IonDensityModel
    psi0: CIVector
    omega0: float
    minimal_sets: list
    r: np.ndarray
    alpha: float
    mass: float

    @property
    def spec(self):
        return self.basis.spec

    @property
    def Z(self) -> float:
        return self.sigma.Z

    def psi_alpha(self) -> CIVector:
        return CIVector(self.basis, np.exp(1j * self.alpha) * self.psi0.values)

    def state(self) -> CrystalState:
        """The crystal state S as dynamical initial data."""
        spec = self.spec
        q = np.tile(self.r, (spec.n_ions, 1)).astype(float)
        p = np.zeros_like(q)
        return CrystalState(self.psi_alpha(), IonState(q, p, self.mass))


def build_ground_state(
    basis: DeterminantBasis,
    sigma: IonDensityModel,
    choice=None,
    r=None,
    alpha: float = 0.0,
    mass: float = 1.0,
    jellium_tol: float = 1e-10,
) -> GroundState:
    """Construct a ground state, refusing densities without the crystal property.

    ``choice`` selects the CI content: ``None``/"first" or an integer picks
    one minimal occupation set; a mapping {occupation: amplitude} requests a
    mixture, which must consist of minimal sets whose pairs differ in at
    least two orbitals (otherwise the charge density is not uniform and the
    state is rejected).  The amplitude vector is rescaled to Q = Z.
    """
    if sigma.spec != basis.spec:
        raise DimensionMismatchError("density model and basis live on different tori")
    verdict = jellium_check(sigma, tol=jellium_tol)
    if not verdict.passes:
        raise ModelRefusalError(
            "ion density is not crystal compatible: "
            f"|sigma_hat| = {verdict.worst_value:.3e} at h = {verdict.worst_h} "
            f"exceeds {verdict.tolerance:.3e}; the lattice sum is not uniform"
        )
    spec = basis.spec
    minimal_sets, omega0 = ground_occupations(spec)
    missing = [occ for occ in minimal_sets if occ not in basis]
    if missing:
        raise AdmissibilityError(
            f"basis cutoff {basis.cutoff:.6g} excludes {len(missing)} minimal "
            "occupation sets; enlarge the basis"
        )

    if choice is None or choice == "first":
        amplitudes = {minimal_sets[0]: 1.0}
    elif isinstance(choice, int):
        amplitudes = {minimal_sets[choice]: 1.0}
    else:
        amplitudes = {tuple(occ): amp for occ, amp in dict(choice).items()}
        outside = [occ for occ in amplitudes if occ not in minimal_sets]
        if outside:
            raise AdmissibilityError(
                f"occupation {outside[0]} is not a minimal set; "
                "mixtures must stay inside the ground eigenspace"
            )
        if not check_adr(list(amplitudes)):
            raise AdmissibilityError(
                "mixture contains occupation sets differing in exactly one "
                "orbital; its charge density would not be uniform"
            )
    psi0 = CIVector.from_occupations(basis, amplitudes)
    norm = psi0.charge()
    if norm <= 0.0:
        raise AdmissibilityError("ground amplitudes are all zero")
    psi0.values *= np.sqrt(sigma.Z / norm)
    r_vec = np.zeros(spec.dimension) if r is None else np.asarray(r, dtype=float)
    return GroundState(basis, sigma, psi0, omega0, minimal_sets, r_vec,
                       float(alpha), float(mass))


@dataclass(eq=False)
class TangentVector:
    """Perturbation coordinates Y = (phi, kappa, pi) at a ground state."""

    phi: CIVector
    kappa: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        spec = self.phi.basis.spec
        shape = (spec.n_ions, spec.dimension)
        self.kappa = np.asarray(self.kappa, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        if self.kappa.shape != shape or self.pi.shape != shape:
            raise DimensionMismatchError(f"ion blocks must have shape {shape}")

    @classmethod
    def zeros(cls, basis: DeterminantBasis) -> "TangentVector":
        spec = basis.spec
        shape = (spec.n_ions, spec.dimension)
        return cls(CIVector.zeros(basis), np.zeros(shape), np.zeros(shape))

    def v_norm(self) -> float:
        """|Y|_V = ||phi||_{H^1} + |kappa| + |pi|."""
        return (h1_norm(self.phi) + float(np.linalg.norm(self.kappa))
                + float(np.linalg.norm(self.pi)))


def pack_tangent(y: TangentVector) -> np.ndarray:
    """Flatten Y into real coordinates (Re C, Im C, kappa, pi)."""
    return np.concatenate([
        y.phi.values.real, y.phi.values.imag, y.kappa.ravel(), y.pi.ravel()
    ])


def unpack_tangent(basis: DeterminantBasis, vector: np.ndarray) -> TangentVector:
    spec = basis.spec
    b = basis.size
    shape = (spec.n_ions, spec.dimension)
    block = spec.n_ions * spec.dimension
    if vector.shape != (2 * b + 2 * block,):
        raise DimensionMismatchError(
            f"expected packed length {2 * b + 2 * block}, got {vector.shape}"
        )
    phi = CIVector(basis, vector[:b] + 1j * vector[b : 2 * b])
    kappa = vector[2 * b : 2 * b + block].reshape(shape)
    pi = vector[2 * b + block :].reshape(shape)
    return TangentVector(phi, kappa, pi)


def tangent_space_vectors(gs: GroundState) -> np.ndarray:
    """Orthogonal basis of T_S S, packed: gauge rotation and d translations."""
    psi = gs.psi_alpha()
    rows = [pack_tangent(TangentVector(
        CIVector(gs.basis, 1j * psi.values),
        np.zeros((gs.spec.n_ions, gs.spec.dimension)),
        np.zeros((gs.spec.n_ions, gs.spec.dimension)),
    ))]
    for axis in range(gs.spec.dimension):
        kappa = np.zeros((gs.spec.n_ions, gs.spec.dimension))
        kappa[:, axis] = 1.0
        rows.append(pack_tangent(TangentVector(
            CIVector.zeros(gs.basis), kappa,
            np.zeros((gs.spec.n_ions, gs.spec.dimension)),
        )))
    return np.stack(rows)


def charge_constraint_gradient(gs: GroundState) -> np.ndarray:
    """Packed gradient of Re <psi_alpha, phi>, normal to T_S M."""
    psi = gs.psi_alpha()
    return pack_tangent(TangentVector(
        psi, np.zeros((gs.spec.n_ions, gs.spec.dimension)),
        np.zeros((gs.spec.n_ions, gs.spec.dimension)),
    ))


def _removed_directions(gs: GroundState) -> np.ndarray:
    """Rows of the directions the constrained subspace removes: T_S S and the
    charge-constraint gradient."""
    return np.vstack([tangent_space_vectors(gs), charge_constraint_gradient(gs)])


@dataclass(eq=False)
class LinearizedDensity:
    """First-order charge density response along a perturbation."""

    ion: FourierScalarField
    electron: FourierScalarField

    @property
    def total(self) -> FourierScalarField:
        return self.ion + self.electron


def _response_map(gs: GroundState) -> tuple:
    """The linear density response Y -> rho1 on the packed coordinates it reaches.

    Returns ``(columns, R)``: R is an (n_freq, len(columns)) matrix with
    rho1 = R @ pack_tangent(Y)[columns].  The columns are the determinants
    in the ground state's support or one substitution away from it, real
    parts then imaginary parts, then the ion displacements; the momenta do
    not enter, and every other column of the map is exactly zero.

    With A[xi, I] = <sum_j exp(i xi x_j) psi_alpha, D_I> the transition
    amplitude is P(xi) = A conj(C), so the electron part -e [P(xi) +
    conj(P(-xi))] takes Re C through -e (A + conj A(-xi)) and Im C through
    -e (-i A + i conj A(-xi)).  The column of site n and axis j is
    i sigma_hat(xi) xi_j exp(i xi (n + r)), the ion phases of the flow plan at
    q = r.
    """
    basis, table = gs.basis, frequency_table(gs.spec)
    plan = _FlowPlan(basis, gs.sigma)
    sub = plan.substitutions
    psi = gs.psi_alpha().values
    # only substitutions out of the support add to A, and leaving out their
    # exactly zero terms keeps every sum's bits
    reach = psi != 0
    hit = np.flatnonzero(reach[sub.src])
    reach[sub.dst[hit]] = True
    reached = np.flatnonzero(reach)
    amplitudes = np.zeros((table.size, reached.size), dtype=complex)
    np.add.at(amplitudes, (sub.delta[hit], np.searchsorted(reached, sub.dst[hit])),
              psi[sub.src[hit]] * sub.sign[hit])
    amplitudes[table.zero, :] += basis.n_electrons * psi[reached]
    mirrored = np.conj(amplitudes[table.conj, :])
    phases = plan.ion_phases(gs.r)  # q = r broadcast over the sites
    ions = plan.ixi[:, None, :] * plan.sigma_hat[:, None, None] * phases[:, :, None]
    # packed as (Re C, Im C, kappa, pi): the reached parts of C, every kappa
    columns = np.flatnonzero(np.concatenate([reach, reach, np.ones(ions[0].size, bool)]))
    return columns, np.concatenate([
        -gs.sigma.e * (amplitudes + mirrored),
        -gs.sigma.e * (-1j * amplitudes + 1j * mirrored),
        ions.reshape(table.size, -1),
    ], axis=1)


def linearized_density(gs: GroundState, y: TangentVector) -> LinearizedDensity:
    """rho1 along Y: displaced-ion gradient term plus the transition term,
    the response map applied to the coordinates of Y it reaches."""
    columns, response = _response_map(gs)
    vector = pack_tangent(y)[columns]
    b = np.searchsorted(columns, 2 * gs.basis.size)  # the first ion column
    return LinearizedDensity(
        FourierScalarField(gs.spec, response[:, b:] @ vector[b:]),
        FourierScalarField(gs.spec, response[:, :b] @ vector[:b]),
    )


def _coulomb_weights(spec) -> np.ndarray:
    """w = 1/(|xi|^2 |T|) per retained frequency, with the xi = 0 weight zeroed."""
    return frequency_table(spec).coulomb_weight / spec.volume


def quadratic_form(gs: GroundState, y: TangentVector) -> float:
    """(1/2) <Y, E''(S) Y> evaluated directly from the expansion terms."""
    basis = gs.basis
    kinetic = float((basis.kinetic * np.abs(y.phi.values) ** 2).sum())
    rho1 = linearized_density(gs, y).total
    coulomb = 0.5 * float((_coulomb_weights(gs.spec) * np.abs(rho1.values) ** 2).sum())
    momentum = float((y.pi**2).sum() / (2.0 * gs.mass))
    return kinetic + coulomb + momentum


@dataclass(eq=False, frozen=True)
class HessianSector:
    """One diagonal block of the form in its frame: ``block`` is the square
    of the rotated coupled block on the positions ``index``."""

    index: np.ndarray
    block: np.ndarray


@dataclass(eq=False, frozen=True)
class HessianForm:
    """Symmetric matrix H with (1/2) <Y, E'' Y> = (1/2) y^T H y in packed coordinates.

    H is held as its two parts: ``diagonal`` (length n, the diagonal of H) and
    ``block``, the dense square of H on ``coupled``, the coordinates the
    Coulomb part reaches, listed in increasing order, with their diagonal
    entries already added.  Every other row and column of H is zero off the
    diagonal.  ``matrix`` builds the dense n x n matrix on first use.

    ``sectors`` are the diagonal blocks the spectra diagonalise.  They live
    in a rotated frame of the coupled coordinates: the last
    ``len(rotation)`` coordinates are replaced by the orthonormal
    combinations in the rows of ``rotation``, and the others are kept.
    Each sector is the rotated block on its positions ``index``, and the
    sectors partition the positions.  ``hessian_assemble`` fills both
    fields with the Bloch sectors: ``rotation`` takes the ion displacements
    to real Bloch waves, and the entries between two sectors vanish up to
    rounding.  The default is one sector, the block itself, and no
    rotation, which is exact for any form, such as one built from a bare
    matrix.
    """

    gs: GroundState
    diagonal: np.ndarray
    coupled: np.ndarray
    block: np.ndarray
    sectors: tuple = ()
    rotation: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        if not self.sectors:
            whole = HessianSector(np.arange(self.coupled.size), self.block)
            object.__setattr__(self, "sectors", (whole,))

    @property
    def size(self) -> int:
        return self.diagonal.size

    @cached_property
    def matrix(self) -> np.ndarray:
        return hessian_matrix(self)

    @cached_property
    def sector_eigenvalues(self) -> tuple:
        """The eigenvalues of each sector, computed once for both spectra."""
        return tuple(np.linalg.eigvalsh(sector.block) for sector in self.sectors)


def hessian_matrix(form: HessianForm) -> np.ndarray:
    """The dense n x n matrix of the form: its diagonal with the coupled
    block written over the coupled rows and columns."""
    matrix = np.diag(form.diagonal)
    matrix[np.ix_(form.coupled, form.coupled)] = form.block
    return matrix


def _rotate(columns: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """A copy of ``columns`` with its last len(rotation) columns rotated."""
    out = columns.copy()
    tail = columns.shape[1] - len(rotation)
    out[:, tail:] = columns[:, tail:] @ rotation.T
    return out


def _sectors(block: np.ndarray, rotation: np.ndarray, indices) -> tuple:
    """The sectors of the coupled ``block`` on ``indices`` after ``rotation``."""
    rotated = _rotate(block, rotation)
    tail = len(block) - len(rotation)
    rotated[tail:] = rotation @ rotated[tail:]
    return tuple(HessianSector(index, rotated[np.ix_(index, index)]) for index in indices)


def _join(group: np.ndarray, members: np.ndarray) -> None:
    """Merge the groups of the ``members`` (a mask) into their lowest label.

    A label is the lowest member of its group, so the labels in use are the
    i with group[i] == i.  (``np.unique`` would import ``numpy.ma``, about
    0.6 MB, in every process that assembles a form.)
    """
    labels = group[members]
    group[np.isin(group, labels)] = labels.min()


@lru_cache(maxsize=64)
def _bloch_waves(spec) -> tuple:
    """The torus's pairs {h, -h} of lattice momenta, its Bloch waves and the
    pair of each response row, read-only: ``(pair, waves, indicator)``.

    The classes h are the lattice sites, in their order; ``pair[h]`` names
    h's pair by its lower class.  Row h of ``waves`` is the unit wave over
    the sites that class h takes: the cosine of its pair for the lower
    class, the sine for the other.  ``indicator[p, r]`` is 1 where response
    row r (real parts, then imaginary parts, at each retained frequency)
    lies in pair p.
    """
    n, d = spec.cells_per_axis, spec.dimension
    sites = lattice_points(spec)
    m = len(sites)
    conj = np.ravel_multi_index((-sites % n).T, (n,) * d)
    pair = np.minimum(np.arange(m), conj)
    phase = (TWO_PI / n) * (sites[pair] @ sites.T)
    waves = np.where((pair == np.arange(m))[:, None], np.cos(phase), np.sin(phase))
    waves *= np.where(conj == np.arange(m), np.sqrt(1.0 / m), np.sqrt(2.0 / m))[:, None]
    rows = pair[np.ravel_multi_index((frequency_table(spec).h % n).T, (n,) * d)]
    indicator = (np.tile(rows, 2) == np.arange(m)[:, None]).astype(float)
    for array in (pair, waves, indicator):
        array.setflags(write=False)
    return pair, waves, indicator


def _bloch_sectors(gs: GroundState, part: np.ndarray, coupled: np.ndarray) -> tuple:
    """The Bloch rotation of the coupled ion displacements, and each Bloch
    sector's positions in the rotated coupled coordinates.

    ``part`` holds the weighted response on ``coupled``: rows are the real
    then the imaginary parts at each frequency xi = (2 pi / N) k.  Lattice
    translations act on a coupled coordinate through its class k mod N, so
    H is block diagonal by the pairs {h, -h} of classes:

    * a CI coordinate belongs to the pairs its nonzero response rows carry
      (one for a single determinant; a mixture's coordinate may be one
      substitution from two support sets and span two, and the pairs one
      coordinate spans are merged into one sector);
    * the ion displacements, the last coupled coordinates, are rotated into
      the real orthonormal Bloch waves cos(theta n) and sin(theta n),
      theta = 2 pi h / N, per axis: the cosine alone where h = -h mod N,
      both otherwise.  A wave's response rows are those of its pair up to
      rounding, and a translation is the h = 0 wave of its axis.
    """
    d = gs.spec.dimension
    pair, waves, indicator = _bloch_waves(gs.spec)
    m = len(pair)
    first = 2 * gs.basis.size  # the first ion displacement
    n_ci = np.searchsorted(coupled, first)  # the CI coordinates come first
    # the pairs a CI coordinate's nonzero rows carry, by sums of |entries|
    hit = indicator @ np.abs(part[:, :n_ci]) > 0.0
    group = pair.copy()
    for column in np.flatnonzero(hit.sum(axis=0) > 1):
        _join(group, hit[:, column])
    owner = group[np.argmax(hit, axis=0)]
    # the ion columns of an axis are all dead (sigma_hat(xi) xi_j = 0 for
    # every xi) or all live; the waves go class by class, axis by axis
    site, axis = np.divmod(coupled[n_ci:] - first, d)
    live = np.flatnonzero(np.bincount(axis, minlength=d))
    rotation = (waves[:, None, site] * (axis == live[:, None])).reshape(
        m * live.size, site.size)
    wave_group = np.repeat(group[pair], live.size)
    indices = [np.concatenate([np.flatnonzero(owner == label),
                               n_ci + np.flatnonzero(wave_group == label)])
               for label in np.flatnonzero(group == np.arange(m))]
    return rotation, [index for index in indices if index.size]


def hessian_assemble(gs: GroundState) -> HessianForm:
    """Assemble the quadratic form from the density response map R.

    The Coulomb block is Re(R^H W R) with W = diag(w), w = 1/(|xi|^2 |T|)
    and the xi = 0 weight zeroed, on top of the diagonal kinetic blocks
    2 E_kin (twice, real and imaginary parts) and 1/M on the momenta.
    R is the same map ``linearized_density`` applies to one Y.

    The coupled coordinates are the columns of the weighted map that are not
    exactly zero, a subset of those the map reaches: the ion displacements
    and the determinants one substitution away from the ground state (168 of
    2692 at d = 2, B = 1338).  The Coulomb product runs over those only and
    is kept as the form's block; every other row and column of the Coulomb
    part is an exact zero, so the values and the zero pattern are those of
    the all-columns product.  The one caveat is rounding: OpenBLAS picks its
    kernels by the column count, so on small forms an entry may differ from
    the all-columns product in the last bit (bit for bit at B = 1338).

    The block, kept as it is, is then cut into its Bloch sectors (see
    ``_bloch_sectors``), one per pair {h, -h} of lattice momenta, merged
    where a coordinate spans two: 36, 38, 44 and 50 coordinates at
    B = 1338.
    """
    block = gs.spec.n_ions * gs.spec.dimension
    # Re(R^H W R) = S^T S with S the real and imaginary parts of sqrt(W) R
    # stacked; numpy hands A.T @ A to syrk, so the product is exactly symmetric
    columns, response = _response_map(gs)
    response *= np.sqrt(_coulomb_weights(gs.spec))[:, None]
    stacked = np.concatenate([response.real, response.imag])
    live = np.flatnonzero(stacked.any(axis=0))
    part, coupled = stacked[:, live], columns[live]
    diagonal = np.concatenate([
        2.0 * gs.basis.kinetic, 2.0 * gs.basis.kinetic,
        np.zeros(block), np.full(block, 1.0 / gs.mass),
    ])
    product = part.T @ part
    product[np.diag_indices(coupled.size)] += diagonal[coupled]
    rotation, indices = _bloch_sectors(gs, part, coupled)
    return HessianForm(gs, diagonal, coupled, product,
                       _sectors(product, rotation, indices), rotation)


@dataclass(eq=False)
class SpectrumResult:
    eigenvalues: np.ndarray
    kernel_dim: int
    lambda_min: float
    tolerance: float


def _block_diagonal(squares: list) -> np.ndarray:
    if len(squares) == 1:
        return squares[0]
    size = sum(len(square) for square in squares)
    out = np.zeros((size, size))
    start = 0
    for square in squares:
        stop = start + len(square)
        out[start:stop, start:stop] = square
        start = stop
    return out


def _constrained_eigenvalues(form: HessianForm) -> tuple:
    """The eigenvalues of the constrained form per group, and the
    coordinates the groups cover.

    The groups are the sectors and the uncoupled coordinates the removed
    directions touch (the support of the gauge and radial directions).
    Each removed direction is read in each group's frame; a direction that
    reaches two groups joins them, and a group it reaches is projected on
    the complement of what reaches it, by SVD.  A component below 1e-12 of
    the largest removed direction counts as zero, the rank cut of that SVD:
    a translation's components off the h = 0 sector are such rounding.  A
    sector no direction reaches keeps the eigenvalues of the full spectrum.
    """
    spanned = _removed_directions(form.gs)
    loose = spanned.any(axis=0)
    loose[form.coupled] = False
    loose = np.flatnonzero(loose)
    squares = [sector.block for sector in form.sectors]
    squares.append(np.diag(form.diagonal[loose]))
    spectra = list(form.sector_eigenvalues) + [form.diagonal[loose]]
    rotated = _rotate(spanned[:, form.coupled], form.rotation)
    removed = [rotated[:, sector.index] for sector in form.sectors]
    removed.append(spanned[:, loose])
    floor = 1e-12 * float(np.linalg.norm(spanned, axis=1).max())
    reach = np.array([np.linalg.norm(part, axis=1) > floor for part in removed])
    group = np.arange(len(squares))
    for column in reach.T:
        if column.sum() > 1:
            _join(group, column)
    values = []
    for label in np.flatnonzero(group == np.arange(len(group))):
        members = np.flatnonzero(group == label)
        if not reach[members].any():  # then the group is one sector alone
            values.append(spectra[label])
            continue
        square = _block_diagonal([squares[i] for i in members])
        _, singular, vh = np.linalg.svd(
            np.hstack([removed[i] for i in members]), full_matrices=True)
        complement = vh[int((singular > floor).sum()):]
        values.append(np.linalg.eigvalsh(complement @ square @ complement.T))
    return values, np.concatenate([form.coupled, loose])


def hessian_spectrum(
    form: HessianForm,
    subspace: str = "full",
    kernel_rtol: float = 1e-9,
) -> SpectrumResult:
    """Eigenvalues of the form, optionally on N_S S intersect T_S M.

    The constrained subspace removes the gauge and translation directions
    and the radial direction normal to the charge constraint; on it the
    form is positive definite exactly when no flat ion space exists.
    Eigenvalues with |lambda| <= kernel_rtol * max |lambda| count as kernel.

    The spectrum is the uncoupled diagonal entries together with the
    eigenvalues of each sector of ``form.sectors`` (``sector_eigenvalues``,
    computed once per form): one small ``eigvalsh`` per Bloch sector of an
    assembled form, the whole block for a form with the default sector, and
    never the dense n x n matrix.  The rotation is orthonormal, so this is
    a similarity, exact up to the rounding-level entries between sectors.
    On the constrained subspace each translation is the h = 0 Bloch wave of
    its axis, and the gauge and radial directions touch only uncoupled
    support coordinates, so the projection runs per group of sectors
    (see ``_constrained_eigenvalues``); on a form with the one default
    sector it is the projection of the coupled block widened by those
    coordinates.
    """
    if subspace == "constrained":
        parts, index = _constrained_eigenvalues(form)
    elif subspace == "full":
        parts, index = list(form.sector_eigenvalues), form.coupled
    else:
        raise ValueError(f"unknown subspace {subspace!r}")
    eigenvalues = np.sort(np.concatenate([np.delete(form.diagonal, index), *parts]))
    scale = float(np.abs(eigenvalues).max(initial=0.0))
    tolerance = kernel_rtol * max(scale, 1e-300)
    kernel_dim = int((np.abs(eigenvalues) <= tolerance).sum())
    return SpectrumResult(eigenvalues, kernel_dim, float(eigenvalues.min()), tolerance)


def first_variation_residual(gs: GroundState, y: TangentVector, h: float = 1e-5) -> float:
    """Centered directional derivative of E at S along Y.

    Vanishes on directions tangent to the charge constraint; along the
    radial direction psi_alpha itself it equals 2 omega0 Z, which is why
    criticality of S is only meaningful relative to the constraint.
    """
    plus = _displaced_state(gs, y, h)
    minus = _displaced_state(gs, y, -h)
    return (energy(plus, gs.sigma) - energy(minus, gs.sigma)) / (2.0 * h)


def _displaced_state(gs: GroundState, y: TangentVector, scale: float) -> CrystalState:
    psi = CIVector(gs.basis, gs.psi_alpha().values + scale * y.phi.values)
    q = np.tile(gs.r, (gs.spec.n_ions, 1)) + scale * y.kappa
    p = scale * y.pi
    return CrystalState(psi, IonState(q, p, gs.mass))


def perturbed_state(gs: GroundState, y: TangentVector, delta: float) -> CrystalState:
    """S + delta Y, then a one-time rescaling of psi back to the charge Q = Z.

    A charge that overflows a float would rescale psi to zero, so it is
    refused; ``evolve`` refuses a state whose energy is not finite.
    """
    state = _displaced_state(gs, y, delta)
    with np.errstate(over="ignore"):
        q_val = state.psi.charge()
    if not np.isfinite(q_val):
        raise AdmissibilityError(
            f"perturbed state at delta = {delta:.6g} has charge {q_val:.3g}: "
            "|C + delta phi|^2 is not a finite float")
    if q_val <= 0.0:
        raise AdmissibilityError("perturbed state has vanishing charge")
    state.psi.values *= np.sqrt(gs.Z / q_val)
    return state


@dataclass(eq=False)
class DistanceResult:
    distance: float
    alpha: float
    r: np.ndarray
    psi_part: float
    ion_part: float
    momentum_part: float


def distance_to_manifold(state: CrystalState, gs: GroundState) -> DistanceResult:
    """d(X, S): infimum over phase and lattice shift of the orbit metric.

    The phase minimizer is closed form, alpha = arg <psi, psi0>_{H^1}, and so
    is the shift, one axis at a time (see ``_distance``).  The state is
    measured as a batch of one.
    """
    if state.psi.basis is not gs.basis:
        raise DimensionMismatchError("state and ground state use different bases")
    distance, alpha, r, psi_part, ion_part, momentum_part = _distance(
        state.psi.values[None], state.ions.q[None], state.ions.p[None], gs)
    return DistanceResult(float(distance[0]), float(alpha[0]), r[0],
                          float(psi_part[0]), float(ion_part[0]),
                          float(momentum_part[0]))


def _distance(c, q, p, gs: GroundState) -> tuple:
    """The parts of ``DistanceResult`` for R rows at once, each an array over
    the rows: c is (R, B), q and p are (R, m, d) with m ions.

    Per axis the shift minimizes f(r) = sum_n wrap(q_n - r)^2.  Between its
    kinks at q_n + N/2, which are concave, f is the quadratic
    sum_n (s_n + j_n N - r)^2 in s = q mod N with fixed integers j_n, so its
    minimum is a vertex mean(s) + k N / m, k = sum_n j_n: the smallest f over
    k = 0, ..., m - 1, the first on ties.  Every reduction runs over the
    last, contiguous axis, so each row gets the bits of its single-row call.
    """
    weight, psi0 = 1.0 + gs.basis.ksq_total, gs.psi0.values
    z = (weight * c * np.conj(psi0)).sum(axis=-1)
    alpha = np.where(z != 0, np.angle(z), 0.0)
    diff = c - np.exp(1j * alpha)[:, None] * psi0
    psi_part = np.sqrt((weight * np.abs(diff) ** 2).sum(axis=-1))

    n, n_ions = gs.spec.cells_per_axis, q.shape[1]
    half = n / 2.0
    ions = np.ascontiguousarray(q.transpose(0, 2, 1))  # (R, d, m)
    mean = (ions % n).sum(axis=-1) / n_ions
    candidates = (mean[..., None] + np.arange(n_ions) * (n / n_ions)) % n
    wrapped = (ions[:, :, None, :] - candidates[..., None] + half) % n - half
    f = np.vecdot(wrapped, wrapped)  # (R, d, candidates)
    best = np.argmin(f, axis=-1)[..., None]
    r_best = np.take_along_axis(candidates, best, axis=-1)[..., 0]
    ion_part = np.sqrt(f.min(axis=-1).sum(axis=-1))
    momenta = p.reshape(len(p), -1)
    momentum_part = np.sqrt(np.vecdot(momenta, momenta))
    return (psi_part + ion_part + momentum_part, alpha, r_best,
            psi_part, ion_part, momentum_part)


def sample_tangent_perturbation(gs: GroundState, rng: np.random.Generator) -> TangentVector:
    """A random direction orthogonal to T_S S and tangent to the charge manifold,
    normalized to unit |.|_V."""
    b = gs.basis.size
    block = gs.spec.n_ions * gs.spec.dimension
    vector = rng.standard_normal(2 * b + 2 * block)
    removed = _removed_directions(gs)
    # two passes: plain Gram-Schmidt against a non-orthogonal family
    for _ in range(2):
        for row in removed:
            norm_sq = float(row @ row)
            if norm_sq > 0.0:
                vector -= (vector @ row) / norm_sq * row
    y = unpack_tangent(gs.basis, vector)
    scale = y.v_norm()
    if scale <= 0.0:
        raise AdmissibilityError("sampled perturbation collapsed to zero")
    y.phi.values /= scale
    y.kappa /= scale
    y.pi /= scale
    return y


def translation_perturbation(gs: GroundState, axis: int) -> TangentVector:
    """Unit-|.|_V rigid translation direction along one axis."""
    kappa = np.zeros((gs.spec.n_ions, gs.spec.dimension))
    kappa[:, axis] = 1.0
    kappa /= np.linalg.norm(kappa)
    return TangentVector(CIVector.zeros(gs.basis), kappa, np.zeros_like(kappa))


@dataclass(eq=False)
class TrajectoryRecord:
    label: str
    delta: float
    t: np.ndarray
    distance: np.ndarray
    energy: np.ndarray
    charge: np.ndarray

    @property
    def sup_distance(self) -> float:
        return float(self.distance.max())

    @property
    def final_distance(self) -> float:
        return float(self.distance[-1])

    def max_energy_drift(self) -> float:
        return float(np.abs(self.energy - self.energy[0]).max())

    def max_charge_drift(self) -> float:
        return float(np.abs(self.charge - self.charge[0]).max())


def _run_rows(gs: GroundState, rows: Sequence[tuple], duration: float,
              dt: float, method: str, fp_tol: float,
              max_iterations: int) -> list:
    """Evolve the rows (label, perturbation, delta) as one batch, tracking
    each row's distance to S; one record per row, in row order.

    The observer buffers the R row states of each record and measures them
    with one batched distance, building the record's arrays at its last row.
    """
    initial = [
        gs.state() if perturbation is None or delta == 0.0
        else perturbed_state(gs, perturbation, delta)
        for _, perturbation, delta in rows
    ]
    distances, pending = [], []

    def observer(t, state):
        pending.append(state)
        if len(pending) == len(rows):
            # np.array of a list of equal-shape rows: np.stack's result,
            # without its per-row checks
            c = np.array([s.psi.values for s in pending])
            q = np.array([s.ions.q for s in pending])
            p = np.array([s.ions.p for s in pending])
            distances.append(_distance(c, q, p, gs)[0])
            pending.clear()

    _, log = evolve(initial, gs.sigma, dt, duration, method=method,
                    fp_tol=fp_tol, max_iterations=max_iterations,
                    observer=observer)
    distance = np.array(distances)
    return [
        TrajectoryRecord(label, float(delta), log.t, distance[:, row],
                         log.energy[:, row], log.charge[:, row])
        for row, (label, _, delta) in enumerate(rows)
    ]


def run_trajectory(
    gs: GroundState,
    perturbation: Optional[TangentVector],
    delta: float,
    duration: float,
    dt: float,
    method: str = "implicit_midpoint",
    fp_tol: float = 1e-13,
    label: str = "",
    max_iterations: int = 50,
) -> TrajectoryRecord:
    """Evolve one perturbed ground state, tracking the distance to S: a batch
    of one."""
    row = (label or "trajectory", perturbation, delta)
    return _run_rows(gs, [row], duration, dt, method, fp_tol, max_iterations)[0]


def ProcessPoolExecutor(max_workers: int, mp_context: str):
    """A ``concurrent.futures.ProcessPoolExecutor`` whose workers start by
    the ``multiprocessing`` start method named ``mp_context``.

    Only sweeps with ``workers`` above 1 need a pool, so both modules are
    imported here and importing the package loads neither.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(max_workers=max_workers, mp_context=multiprocessing.get_context(mp_context))


@dataclass(eq=False)
class StabilityResult:
    records: list

    def sup_distance_per_delta(self) -> dict:
        """Worst sup-distance over perturbations, keyed by delta."""
        out: dict = {}
        for record in self.records:
            if record.label.startswith("perturbation"):
                key = record.delta
                out[key] = max(out.get(key, 0.0), record.sup_distance)
        return out


def stability_experiment(
    gs: GroundState,
    deltas: Sequence[float],
    n_perturbations: int = 8,
    duration: float = 10.0,
    dt: float = 1e-3,
    seed: int = 0,
    method: str = "implicit_midpoint",
    fp_tol: float = 1e-13,
    include_controls: bool = True,
    workers: int = 1,
    max_iterations: int = 50,
) -> StabilityResult:
    """Seeded batch of perturbation runs plus zero and translation controls.

    Perturbation directions are drawn once per index from spawned seed
    streams and reused across all deltas, so the map delta -> sup-distance
    is meaningful direction by direction.  The records come in row order:
    the controls first, then each direction's runs in index order, one per
    delta.  All rows step in lock-step as one batched ``evolve`` call.
    With ``workers`` above 1 the directions split into contiguous chunks,
    at most one per direction, and each chunk (the first with the
    controls) runs as one batch in its own process.  Every row has the bits
    of its own single run, so the records, and every output, are the same
    for any number of workers.  The workers are spawned and re-import the
    calling script, so a script must call this with ``workers`` above 1 under
    ``if __name__ == "__main__":``, or the pool dies with ``BrokenProcessPool``.
    """
    streams = np.random.SeedSequence(seed).spawn(n_perturbations)
    directions = [
        sample_tangent_perturbation(gs, np.random.default_rng(stream))
        for stream in streams
    ]
    controls = []
    if include_controls:
        controls.append(("zero", None, 0.0))
        controls.extend(
            (f"translation-{axis}", translation_perturbation(gs, axis), max(deltas))
            for axis in range(gs.spec.dimension))
    pool_size = min(workers, n_perturbations)
    chunks = np.array_split(np.arange(n_perturbations), max(pool_size, 1))
    batches = [
        [(f"perturbation-{index}", directions[index], delta)
         for index in chunk for delta in deltas]
        for chunk in chunks
    ]
    batches[0] = controls + batches[0]
    batches = [batch for batch in batches if batch]
    runs = partial(_run_rows, gs, duration=duration, dt=dt, method=method,
                   fp_tol=fp_tol, max_iterations=max_iterations)
    if pool_size > 1:
        # spawned, not forked: a forked child inherits the parent's threads'
        # locks, and each worker is handed everything it needs anyway
        with ProcessPoolExecutor(max_workers=pool_size, mp_context="spawn") as pool:
            results = list(pool.map(runs, batches))
    else:
        results = map(runs, batches)
    return StabilityResult([record for batch in results for record in batch])
