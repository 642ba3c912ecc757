"""Constructors for the concrete oscillator systems.

Three families share the synthetic parameter point g = (gamma, chi, kappa):

* theoretical  -- balanced gain/loss pair with nonreciprocal coupling,
* experimental -- same pair with a constant background loss gamma0,
* lattice      -- Bloch form of a 3D two-sublattice mass-spring crystal,
                  where g is replaced by the wavevector k.

Also here: the quasi-degenerate two-band reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import numkernel as nk
from .qep import QuadraticMatrixPolynomial

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
        if self.m0 <= 0:
            raise ValueError("m0 must be positive")
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
        if self.m0 <= 0:
            raise ValueError("m0 must be positive")
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
        if self.m <= 0:
            raise ValueError("m must be positive")
        for name in ("kx", "ky", "kz"):
            if abs(getattr(self, name)) > np.pi + 1e-9:
                raise ValueError(f"{name} outside the first Brillouin zone")

    def at(self, k) -> "LatticeParams":
        k = np.asarray(k, dtype=float)
        return replace(self, kx=k[0], ky=k[1], kz=k[2])


def theoretical_qmp(p: TheoreticalParams) -> QuadraticMatrixPolynomial:
    """M = m0 I, K with nonreciprocal coupling, trace-free damping.

    K = [[kbar + kappa/2, -chi], [-chi - dchi, kbar - kappa/2]],
    G = diag(gamma/2, -gamma/2).
    """
    k = np.array(
        [
            [p.kbar + p.kappa / 2.0, -p.chi],
            [-p.chi - p.dchi, p.kbar - p.kappa / 2.0],
        ],
        dtype=complex,
    )
    g = np.diag([p.gamma / 2.0, -p.gamma / 2.0]).astype(complex)
    return QuadraticMatrixPolynomial(mass=p.m0 * SIGMA_0, stiffness=k, damping=g, derivatives=lambda: _THEORETICAL)


def experimental_qmp(p: ExperimentalParams) -> QuadraticMatrixPolynomial:
    """K = [[k0+chi, -chi], [-chi-dchi, k0-kappa+chi]], G = gamma0 +- gamma/2."""
    k = np.array(
        [
            [p.kappa0 + p.chi, -p.chi],
            [-p.chi - p.dchi, p.kappa0 - p.kappa + p.chi],
        ],
        dtype=complex,
    )
    g = np.diag([p.gamma0 + p.gamma / 2.0, p.gamma0 - p.gamma / 2.0]).astype(complex)
    return QuadraticMatrixPolynomial(mass=p.m0 * SIGMA_0, stiffness=k, damping=g, derivatives=lambda: _EXPERIMENTAL)


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
    k_shift = (
        q.stiffness
        - (p.gamma0 / (2.0 * p.m0)) * g_bal
        - (p.gamma0**2 / (4.0 * p.m0)) * SIGMA_0
    )
    return QuadraticMatrixPolynomial(mass=q.mass, stiffness=k_shift, damping=g_bal)


def lattice_bloch_qmp(p: LatticeParams) -> QuadraticMatrixPolynomial:
    """Bloch QMP of the 3D lattice at wavevector k.

    K = c0 I - cx sigma_x - cy sigma_y with
        c0 = kappa0 + kappa1 + kappa2 + 4 chi
        cx = kappa1 + kappa2 cos kz + 4 chi cos kx cos ky
        cy = kappa2 sin kz + 4 i dchi sin kx sin ky
    and G = -gamma sigma_z.  The dchi term makes K non-Hermitian except on
    the planes where sin kx sin ky = 0.
    """
    c0 = p.kappa0 + p.kappa1 + p.kappa2 + 4.0 * p.chi
    cx = p.kappa1 + p.kappa2 * np.cos(p.kz) + 4.0 * p.chi * np.cos(p.kx) * np.cos(p.ky)
    cy = p.kappa2 * np.sin(p.kz) + 4.0j * p.dchi * np.sin(p.kx) * np.sin(p.ky)
    k = c0 * SIGMA_0 - cx * SIGMA_X - cy * SIGMA_Y
    return QuadraticMatrixPolynomial(
        mass=p.m * SIGMA_0, stiffness=k, damping=-p.gamma * SIGMA_Z, derivatives=lambda: _lattice_derivatives(p)
    )


# d/d(gamma, chi, kappa) of K and G, each (3, 2, 2): both models are affine
# in the point, so the derivatives are constants.
_D_GAMMA, _D_CHI, _D_KAPPA = np.eye(3)[:, :, None, None]
_HALF_SIGMA_Z = 0.5 * SIGMA_Z
_THEORETICAL = (
    _D_CHI * np.array([[0.0, -1.0], [-1.0, 0.0]]) + _D_KAPPA * _HALF_SIGMA_Z,
    _D_GAMMA * _HALF_SIGMA_Z,
)
_EXPERIMENTAL = (
    _D_CHI * np.array([[1.0, -1.0], [-1.0, 1.0]]) + _D_KAPPA * np.array([[0.0, 0.0], [0.0, -1.0]]),
    _D_GAMMA * _HALF_SIGMA_Z,
)
for _shared in (*_THEORETICAL, *_EXPERIMENTAL):
    _shared.flags.writeable = False


def _lattice_derivatives(p: LatticeParams):
    """d/d(kx, ky, kz) of K = c0 I - cx sigma_x - cy sigma_y; G does not depend on k."""
    sin, cos = np.sin([p.kx, p.ky, p.kz]), np.cos([p.kx, p.ky, p.kz])
    dcx = np.array([-4.0 * p.chi * sin[0] * cos[1], -4.0 * p.chi * cos[0] * sin[1], -p.kappa2 * sin[2]])
    dcy = np.array([4.0j * p.dchi * cos[0] * sin[1], 4.0j * p.dchi * sin[0] * cos[1], p.kappa2 * cos[2]])
    dk = -dcx[:, None, None] * SIGMA_X - dcy[:, None, None] * SIGMA_Y
    return dk, np.zeros_like(dk)


def perturb_stiffness(q: QuadraticMatrixPolynomial, delta_k) -> QuadraticMatrixPolynomial:
    """Return a copy with K -> K + delta_k (symmetry-breaking probe).

    The copy keeps q's point derivatives, which holds for a delta_k that
    does not depend on the point.
    """
    return QuadraticMatrixPolynomial(
        mass=q.mass, stiffness=q.stiffness + nk.as_matrix(delta_k), damping=q.damping,
        derivatives=q.derivatives,
    )


def perturb_damping(q: QuadraticMatrixPolynomial, delta_g) -> QuadraticMatrixPolynomial:
    """Return a copy with G -> G + delta_g (e.g. unbalanced loss).

    The copy keeps q's point derivatives, which holds for a delta_g that
    does not depend on the point.
    """
    return QuadraticMatrixPolynomial(
        mass=q.mass, stiffness=q.stiffness, damping=q.damping + nk.as_matrix(delta_g),
        derivatives=q.derivatives,
    )


class Model(NamedTuple):
    params: type
    qmp: Callable


# name -> (parameter dataclass, QMP constructor); the dataclass fields are
# the model's config fields.
MODELS = {
    "theoretical": Model(TheoreticalParams, theoretical_qmp),
    "experimental": Model(ExperimentalParams, experimental_qmp),
    "lattice": Model(LatticeParams, lattice_bloch_qmp),
}


def builder(params):
    """point -> QMP closure at the fixed (non-point) fields of params.

    The point is g = (gamma, chi, kappa) for the synthetic-dimension models
    and the wavevector k for the lattice.
    """
    qmp = next(m.qmp for m in MODELS.values() if type(params) is m.params)
    return lambda point: qmp(params.at(point))


def theoretical_builder(m0=1.0, kbar=1.0, dchi=-0.05, delta_k=None):
    """g -> QMP closure for path/plane sweeps; delta_k breaks the symmetries."""
    build = builder(TheoreticalParams(m0=m0, kbar=kbar, dchi=dchi))
    if delta_k is None:
        return build
    return lambda g: perturb_stiffness(build(g), delta_k)


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
