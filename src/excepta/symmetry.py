"""Numerical verification of QMP symmetry relations and latent symmetries.

A relation states U_left T(Q(w, g)) U_right = Q(a w(*) + b, A g + c) with T
one of {identity, entrywise conjugate, conjugate transpose}.  A latent
symmetry instead constrains every power of the linearized Hamiltonian on a
sub-block: L (H^n)_SS L^-1 = ((H^n)_SS)^dagger.  The two views are tied
together by the isospectral reduction R_S(H, w), and the crosscheck here
verifies that equivalence numerically in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkernel as nk
from .models import SIGMA_X
from .qep import QuadraticMatrixPolynomial, evaluate

UNITARY_TOL = 1e-12


class PoleError(RuntimeError, nk.NumericalError):
    """Reduction evaluated at an eigenvalue of the complement block."""


@dataclass(frozen=True)
class SymmetryRelation:
    """One side-by-side transformation law for a parameterized QMP family.

    omega_map: w -> omega_coeff * (w* if omega_conj else w) + omega_shift
    param_map: g -> param_matrix @ g + param_shift
    """

    name: str
    u_left: np.ndarray
    u_right: np.ndarray
    conj: bool = False
    adjoint: bool = False
    omega_conj: bool = True
    omega_coeff: complex = 1.0
    omega_shift: complex = 0.0
    param_matrix: np.ndarray = field(default_factory=lambda: np.eye(3))
    param_shift: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for u in (self.u_left, self.u_right):
            u = nk.as_matrix(u)
            if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > UNITARY_TOL:
                raise ValueError(f"relation {self.name}: unitary part is not unitary")
        if self.conj and self.adjoint:
            raise ValueError("conj and adjoint are mutually exclusive")

    def map_omega(self, omega: complex) -> complex:
        w = np.conj(omega) if self.omega_conj else omega
        return self.omega_coeff * w + self.omega_shift

    def map_params(self, g) -> np.ndarray:
        return np.asarray(self.param_matrix) @ np.asarray(g, dtype=float) + np.asarray(
            self.param_shift
        )


def _flip(axis: int) -> np.ndarray:
    m = np.eye(3)
    m[axis, axis] = -1.0
    return m


def builtin_relation(name: str, gamma0: float = 0.0, m0: float = 1.0) -> SymmetryRelation:
    """Named relations addressable from the CLI.

    gamma / kappa act on the synthetic point (gamma, chi, kappa); the -sub
    variants are the loss-biased subspace versions (valid only on their
    planes, which the caller's samples must respect); C2xT / C2yT /
    MzDagger act on the Bloch wavevector.
    """
    i2 = np.eye(2)
    shift = -1j * gamma0 / m0
    table = {
        "gamma": SymmetryRelation("gamma", i2, i2, conj=True, param_matrix=_flip(0)),
        "kappa": SymmetryRelation("kappa", SIGMA_X, SIGMA_X, adjoint=True, param_matrix=_flip(2)),
        "gamma-sub": SymmetryRelation("gamma-sub", i2, i2, conj=True, omega_shift=shift),
        "kappa-sub": SymmetryRelation(
            "kappa-sub", SIGMA_X, SIGMA_X, adjoint=True, omega_shift=shift
        ),
        "C2xT": SymmetryRelation("C2xT", SIGMA_X, SIGMA_X, conj=True, param_matrix=_flip(0)),
        "C2yT": SymmetryRelation("C2yT", SIGMA_X, SIGMA_X, conj=True, param_matrix=_flip(1)),
        "MzDagger": SymmetryRelation(
            "MzDagger", SIGMA_X, SIGMA_X, adjoint=True, param_matrix=_flip(2)
        ),
    }
    if name not in table:
        raise KeyError(f"unknown relation {name!r}; choose from {sorted(table)}")
    return table[name]


def relation_residual(build, rel: SymmetryRelation, samples) -> float:
    """Max Frobenius-normalized mismatch of the relation over (omega, g) samples."""
    worst = 0.0
    for omega, g in samples:
        qw = evaluate(build(np.asarray(g, dtype=float)), omega)
        if rel.adjoint:
            lhs = rel.u_left @ qw.conj().T @ rel.u_right
        elif rel.conj:
            lhs = rel.u_left @ qw.conj() @ rel.u_right
        else:
            lhs = rel.u_left @ qw @ rel.u_right
        rhs = evaluate(build(rel.map_params(g)), rel.map_omega(omega))
        denom = np.linalg.norm(qw) or 1.0
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / denom))
    return worst


def _partition(h: np.ndarray, s: tuple[int, ...]):
    n = h.shape[0]
    s = tuple(s)
    if not s or len(s) >= n:
        raise ValueError("contributing set must be a nonempty proper subset")
    sbar = tuple(i for i in range(n) if i not in s)
    return np.asarray(s), np.asarray(sbar)


def isospectral_reduction(h, s: tuple[int, ...], omega: complex) -> np.ndarray:
    """R_S(H, w) = H_SS - H_SSbar (H_SbarSbar - w I)^-1 H_SbarS."""
    m = nk.as_matrix(h)
    si, bi = _partition(m, s)
    h_ss = m[np.ix_(si, si)]
    h_sb = m[np.ix_(si, bi)]
    h_bs = m[np.ix_(bi, si)]
    h_bb = m[np.ix_(bi, bi)]
    core = h_bb - omega * np.eye(len(bi), dtype=complex)
    sv = np.linalg.svd(core, compute_uv=False)
    if sv[-1] < 1e-12 * max(sv[0], 1.0):
        raise PoleError(f"omega={omega} is an eigenvalue of the complement block")
    return h_ss - h_sb @ np.linalg.solve(core, h_bs)


def velocity_block(n: int) -> tuple[int, ...]:
    """Indices of the velocity half of a 2N-dimensional companion state."""
    return tuple(range(n, 2 * n))


def latent_residual(h_mapped, h, l, s: tuple[int, ...], n_max: int) -> float:
    """Max over n <= n_max of the latent-symmetry defect.

    Checks L (h_mapped^n)_SS L^-1 = ((h^n)_SS)^dagger, each term normalized
    by the Frobenius norm of h^n.  h_mapped is the Hamiltonian at the
    symmetry-mapped parameter point (equal to h when the map is trivial).
    By Cayley-Hamilton, powers beyond the matrix dimension add nothing, but
    checking one past the bound is cheap insurance.
    """
    a = nk.as_matrix(h_mapped)
    b = nk.as_matrix(h)
    lmat = nk.as_matrix(l)
    linv = np.linalg.inv(lmat)
    si, _ = _partition(b, s)
    idx = np.ix_(si, si)
    worst = 0.0
    pa = np.eye(a.shape[0], dtype=complex)
    pb = np.eye(b.shape[0], dtype=complex)
    for _ in range(1, n_max + 1):
        pa = pa @ a
        pb = pb @ b
        defect = lmat @ pa[idx] @ linv - pb[idx].conj().T
        denom = np.linalg.norm(pb) or 1.0
        worst = max(worst, float(np.linalg.norm(defect) / denom))
    return worst


def reduction_residual(h_mapped, h, l, s: tuple[int, ...], omegas) -> float:
    """Max defect of L R_S(h_mapped, w) L^-1 = R_S(h, w*)^dagger over w samples."""
    lmat = nk.as_matrix(l)
    linv = np.linalg.inv(lmat)
    worst = 0.0
    for w in omegas:
        lhs = lmat @ isospectral_reduction(h_mapped, s, w) @ linv
        rhs = isospectral_reduction(h, s, np.conj(w)).conj().T
        denom = np.linalg.norm(rhs) or 1.0
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / denom))
    return worst


@dataclass(frozen=True)
class Theorem2Result:
    latent: float
    reduction: float
    tol: float

    @property
    def latent_ok(self) -> bool:
        return self.latent < self.tol

    @property
    def reduction_ok(self) -> bool:
        return self.reduction < self.tol

    @property
    def passed(self) -> bool:
        return self.latent_ok and self.reduction_ok

    @property
    def one_sided(self) -> bool:
        return self.latent_ok != self.reduction_ok


def theorem2_crosscheck(
    h_mapped,
    h,
    l,
    s: tuple[int, ...],
    omegas=None,
    n_max: int | None = None,
    tol: float = 1e-10,
) -> Theorem2Result:
    """Evaluate both faces of the latent/reduction equivalence.

    Default omega samples sit on a circle of twice the spectral radius so
    the Neumann expansion of the reduction converges; default n_max is one
    past the Cayley-Hamilton bound.
    """
    b = nk.as_matrix(h)
    dim = b.shape[0]
    if n_max is None:
        n_max = dim  # one beyond the Cayley-Hamilton sufficiency bound
    if omegas is None:
        radius = 2.0 * max(np.abs(np.linalg.eigvals(b)).max(), 1e-3)
        omegas = radius * np.exp(2j * np.pi * np.arange(12) / 12)
    lat = latent_residual(h_mapped, h, l, s, n_max)
    red = reduction_residual(h_mapped, h, l, s, omegas)
    return Theorem2Result(latent=lat, reduction=red, tol=tol)


def velocity_reduction_closed_form(q: QuadraticMatrixPolynomial, omega: complex) -> np.ndarray:
    """-i M^-1 G + (1/w) M^-1 K: the reduction of the companion form over velocities.

    Plugging it into the nonlinear eigenproblem recovers the original QEP:
    R - w = -(1/w) M^-1 Q(w).
    """
    minv_g = np.linalg.solve(q.mass, q.damping)
    minv_k = np.linalg.solve(q.mass, q.stiffness)
    return -1j * minv_g + minv_k / omega
