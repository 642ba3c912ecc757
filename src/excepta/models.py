"""Coefficient tables of the concrete oscillator systems.

Three families share the synthetic parameter point g = (gamma, chi, kappa):

* theoretical  -- balanced gain/loss pair with nonreciprocal coupling,
* experimental -- same pair with a constant background loss gamma0,
* lattice      -- Bloch form of a 3D two-sublattice mass-spring crystal,
                  where g is replaced by the wavevector k.

`coefficients` evaluates a family over a stack of points at once; every QMP
a model hands out, `builder`'s included, is a view of such a table.

Also here: the quasi-degenerate two-band reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import numkernel as nk
from .qep import QuadraticMatrixPolynomial, Table

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class TheoreticalParams:
    """Balanced-gain/loss pair; kbar and dchi stay fixed while g varies."""

    m0: float = 1.0
    kbar: float = 1.0
    dchi: float = -0.05
    gamma: float = 0.0
    chi: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.m0 < np.inf:  # so the mass m0 I is nonsingular
            raise ValueError("m0 must be positive and finite")
        if self.kbar <= 0:
            raise ValueError("kbar must be positive")

    @property
    def g(self) -> np.ndarray:
        return np.array([self.gamma, self.chi, self.kappa])

    def at(self, g) -> "TheoreticalParams":
        g = np.asarray(g, dtype=float)
        return replace(self, gamma=g[0], chi=g[1], kappa=g[2])


@dataclass(frozen=True)
class ExperimentalParams:
    """Loss-biased pair: constant loss gamma0 added on both oscillators."""

    m0: float = 1.0
    kappa0: float = 1.0
    gamma0: float = 0.085
    dchi: float = -0.073
    gamma: float = 0.0
    chi: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.m0 < np.inf:  # so the mass m0 I is nonsingular
            raise ValueError("m0 must be positive and finite")
        if self.kappa0 <= 0:
            raise ValueError("kappa0 must be positive")
        if self.gamma0 < 0:
            raise ValueError("gamma0 must be nonnegative")

    @property
    def g(self) -> np.ndarray:
        return np.array([self.gamma, self.chi, self.kappa])

    def at(self, g) -> "ExperimentalParams":
        g = np.asarray(g, dtype=float)
        return replace(self, gamma=g[0], chi=g[1], kappa=g[2])


@dataclass(frozen=True)
class LatticeParams:
    """Two-sublattice orthorhombic lattice, Bloch wavevector k in rad/cell."""

    m: float = 1.0
    kappa0: float = 1.0
    kappa1: float = 1.3
    kappa2: float = -0.7
    chi: float = 0.5
    dchi: float = 0.4
    gamma: float = 0.7
    kx: float = 0.0
    ky: float = 0.0
    kz: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.m < np.inf:  # so the mass m I is nonsingular
            raise ValueError("m must be positive and finite")
        for name in ("kx", "ky", "kz"):
            if abs(getattr(self, name)) > np.pi + 1e-9:
                raise ValueError(f"{name} outside the first Brillouin zone")


def _matrices(n: int, *entries) -> np.ndarray:
    """(n, 2, 2) complex stack from its four row-major entries, each a scalar or an (n,) array."""
    out = np.empty((n, 4), dtype=complex)
    for j, entry in enumerate(entries):
        out[:, j] = entry
    return out.reshape(n, 2, 2)


# d/d(gamma, chi, kappa) of K and G, each (3, 2, 2), entry by entry: both
# models are affine in g, so the derivatives are constants.
_THEORETICAL = _matrices(3, (0, 0, 0.5), (0, -1, 0), (0, -1, 0), (0, 0, -0.5)), _matrices(3, (0.5, 0, 0), 0, 0, (-0.5, 0, 0))
_EXPERIMENTAL = _matrices(3, (0, 1, 0), (0, -1, 0), (0, -1, 0), (0, 1, -1)), _THEORETICAL[1]


def _theoretical(p: TheoreticalParams, g: np.ndarray) -> Table:
    """M = m0 I, K with nonreciprocal coupling, trace-free damping.

    K = [[kbar + kappa/2, -chi], [-chi - dchi, kbar - kappa/2]],
    G = diag(gamma/2, -gamma/2).
    """
    (gamma, chi, kappa), n = g.T, len(g)
    half_kappa, half_gamma, minus_chi = kappa / 2.0, gamma / 2.0, -chi
    k = _matrices(n, p.kbar + half_kappa, minus_chi, minus_chi - p.dchi, p.kbar - half_kappa)
    gg = _matrices(n, half_gamma, 0.0, 0.0, -half_gamma)
    return Table(p.m0 * SIGMA_0, k, gg, lambda: tuple(d[None].repeat(n, axis=0) for d in _THEORETICAL))


def _experimental(p: ExperimentalParams, g: np.ndarray) -> Table:
    """K = [[k0+chi, -chi], [-chi-dchi, k0-kappa+chi]], G = gamma0 +- gamma/2."""
    (gamma, chi, kappa), n = g.T, len(g)
    half_gamma, minus_chi = gamma / 2.0, -chi
    k = _matrices(n, p.kappa0 + chi, minus_chi, minus_chi - p.dchi, p.kappa0 - kappa + chi)
    gg = _matrices(n, p.gamma0 + half_gamma, 0.0, 0.0, p.gamma0 - half_gamma)
    return Table(p.m0 * SIGMA_0, k, gg, lambda: tuple(d[None].repeat(n, axis=0) for d in _EXPERIMENTAL))


def _lattice(p: LatticeParams, k: np.ndarray) -> Table:
    """Bloch coefficients of the 3D lattice at wavevectors k.

    K = c0 I - cx sigma_x - cy sigma_y with
        c0 = kappa0 + kappa1 + kappa2 + 4 chi
        cx = kappa1 + kappa2 cos kz + 4 chi cos kx cos ky
        cy = kappa2 sin kz + 4 i dchi sin kx sin ky
    and G = -gamma sigma_z.  The dchi term makes K non-Hermitian except on
    the planes where sin kx sin ky = 0.  dK follows from the trig
    derivatives of cx and cy.  Every k must lie in the first Brillouin zone.
    """
    if np.abs(k).max(initial=0.0) > np.pi + 1e-9:
        raise ValueError(f"{('kx', 'ky', 'kz')[np.abs(k).max(axis=0).argmax()]} outside the first Brillouin zone")
    n, (sin_x, sin_y, sin_z), (cos_x, cos_y, cos_z) = len(k), np.sin(k).T, np.cos(k).T
    c0 = p.kappa0 + p.kappa1 + p.kappa2 + 4.0 * p.chi
    cx = p.kappa1 + p.kappa2 * cos_z + 4.0 * p.chi * cos_x * cos_y
    cy = p.kappa2 * sin_z + 4.0j * p.dchi * sin_x * sin_y
    stiffness = c0 * SIGMA_0 - cx[:, None, None] * SIGMA_X - cy[:, None, None] * SIGMA_Y
    damping = (-p.gamma * SIGMA_Z)[None].repeat(n, axis=0)

    def derive():
        dcx = np.stack([-4.0 * p.chi * sin_x * cos_y, -4.0 * p.chi * cos_x * sin_y, -p.kappa2 * sin_z], axis=1)
        dcy = np.stack([4.0j * p.dchi * cos_x * sin_y, 4.0j * p.dchi * sin_x * cos_y, p.kappa2 * cos_z], axis=1)
        dk = -dcx[..., None, None] * SIGMA_X - dcy[..., None, None] * SIGMA_Y
        return dk, np.broadcast_to(0j, dk.shape)  # dG = 0, read-only

    return Table(p.m * SIGMA_0, stiffness, damping, derive)


def coefficients(params, points) -> Table:
    """The model of params at a (P, 3) array of points (g, or k for the lattice), validated once.

    The params dataclass has validated the mass; finiteness is checked once
    per stack, and the lattice's Brillouin zone once on its extreme |k|.
    """
    table = _TABLES[type(params)](params, np.asarray(points, dtype=float).reshape(-1, 3))
    if not (np.isfinite(table.stiffness).all() and np.isfinite(table.damping).all()):
        raise ValueError("model coefficients have non-finite entries")
    return table


def theoretical_qmp(p: TheoreticalParams) -> QuadraticMatrixPolynomial:
    """The theoretical model at p's own point g."""
    return coefficients(p, p.g).qmp(0)


def experimental_qmp(p: ExperimentalParams) -> QuadraticMatrixPolynomial:
    """The experimental model at p's own point g."""
    return coefficients(p, p.g).qmp(0)


def experimental_shifted_qmp(p: ExperimentalParams) -> QuadraticMatrixPolynomial:
    """Frequency-shifted form of the experimental QMP.

    Writing w = w' - i gamma0 / (2 m0) absorbs the common loss: the shifted
    system has the balanced damping G' = diag(gamma/2, -gamma/2) and
    K' = K - (gamma0 / 2 m0) G' - (gamma0^2 / 4 m0) I, so its spectrum is the
    raw spectrum displaced by +i gamma0 / (2 m0).  On the plane
    kappa = gamma0 gamma / (2 m0) the shifted K' has equal diagonals, which
    is what restores the swap-adjoint structure there.
    """
    q = experimental_qmp(p)
    g_bal = np.diag([p.gamma / 2.0, -p.gamma / 2.0]).astype(complex)
    k_shift = q.stiffness - (p.gamma0 / (2.0 * p.m0)) * g_bal - (p.gamma0**2 / (4.0 * p.m0)) * SIGMA_0
    return QuadraticMatrixPolynomial(mass=q.mass, stiffness=k_shift, damping=g_bal)


def lattice_bloch_qmp(p: LatticeParams) -> QuadraticMatrixPolynomial:
    """The lattice's Bloch QMP at p's own wavevector."""
    return coefficients(p, (p.kx, p.ky, p.kz)).qmp(0)


class Model(NamedTuple):
    params: type
    qmp: Callable


# name -> (params dataclass, whose fields are the config fields; QMP at the params' own point)
MODELS = {
    "theoretical": Model(TheoreticalParams, theoretical_qmp),
    "experimental": Model(ExperimentalParams, experimental_qmp),
    "lattice": Model(LatticeParams, lattice_bloch_qmp),
}
_TABLES = {TheoreticalParams: _theoretical, ExperimentalParams: _experimental, LatticeParams: _lattice}


def _built(points, table: Table):
    return table.qmp(0) if np.ndim(points) == 1 else table


def builder(params):
    """Closure at the fixed (non-point) fields of params: a (3,) point -> its QMP, the view of a one-point
    table; a (P, 3) stack -> the `coefficients` table, which `qep.solve` solves in one LAPACK call."""
    return lambda points: _built(points, coefficients(params, points))


def theoretical_builder(m0=1.0, kbar=1.0, dchi=-0.05, delta_k=None):
    """`builder` of the theoretical model, point -> QMP and stack -> Table; delta_k breaks the symmetries.

    delta_k is a table edit (`replace`, broadcast over the stack: the table's H and eigenvalues are the
    edited K's); the derivatives stay exact."""
    params = TheoreticalParams(m0=m0, kbar=kbar, dchi=dchi)
    if delta_k is None:
        return builder(params)
    delta_k = nk.as_matrix(delta_k)
    return lambda g: _built(g, replace(t := coefficients(params, g), stiffness=t.stiffness + delta_k))


@dataclass(frozen=True)
class EffectiveTwoBand:
    """Quasi-degenerate two-level reduction around omega0.

    Eigenvalues of h_eff are the frequency shifts delta-omega away from
    omega0; valid_radius is an informational size of the small parameters
    relative to m0 omega0^2.
    """

    h_eff: np.ndarray
    omega0: float
    valid_radius: float

    @property
    def shifts(self) -> np.ndarray:
        return np.sort_complex(np.linalg.eigvals(self.h_eff))


def effective_two_band(q: QuadraticMatrixPolynomial, omega0: float | None = None) -> EffectiveTwoBand:
    """h_eff = (delta_K - i omega0 G) / (2 omega0 m0), delta_K = K - m0 omega0^2.

    Requires N = 2 and scalar mass.  Default omega0 = sqrt(tr K / (2 m0)).
    The reduction drops second-order terms, so its eigenvalue splitting
    differs from the exact QEP splitting at O(eps^2).
    """
    if q.dim != 2:
        raise ValueError("effective reduction is defined for N = 2")
    m0 = q.mass[0, 0].real
    if np.abs(q.mass - m0 * SIGMA_0).max() > 1e-12 * max(1.0, abs(m0)):
        raise ValueError("mass matrix must be a positive scalar multiple of identity")
    if m0 <= 0:
        raise ValueError("mass must be positive")
    if omega0 is None:
        omega0 = float(np.sqrt(np.trace(q.stiffness).real / (2.0 * m0)))
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    delta_k = q.stiffness - m0 * omega0**2 * SIGMA_0
    h_eff = (delta_k - 1j * omega0 * q.damping) / (2.0 * omega0 * m0)
    radius = max(
        np.abs(delta_k).max(), omega0 * np.abs(q.damping).max()
    ) / (m0 * omega0**2)
    return EffectiveTwoBand(h_eff=h_eff, omega0=omega0, valid_radius=float(radius))
