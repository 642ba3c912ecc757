"""Quadratic matrix polynomials Q(w) = w^2 M - K + i w G and their spectra.

A system of N coupled damped oscillators yields a 2N-eigenvalue quadratic
problem Q(w) psi = 0.  Real coefficient matrices force the eigenfrequency
pairing (w, -w*); only the positive-real-frequency half is observable.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import numkernel as nk

REAL_TOL = 1e-14
PF_GAP_RTOL = 1e-6
EP_OMEGA_RTOL = 1e-6
EP_OVERLAP = 1.0 - 1e-6


class SpectralGapError(RuntimeError):
    """No real line gap at Re(w) = 0."""


@dataclass(frozen=True)
class QuadraticMatrixPolynomial:
    """Coefficient triple (mass, stiffness, damping), all N x N, mass nonsingular."""

    mass: np.ndarray
    stiffness: np.ndarray
    damping: np.ndarray

    def __post_init__(self):
        m = nk.as_matrix(self.mass)
        k = nk.as_matrix(self.stiffness)
        g = nk.as_matrix(self.damping)
        if not (m.shape == k.shape == g.shape) or m.shape[0] != m.shape[1]:
            raise ValueError("mass, stiffness, damping must be square and same shape")
        s = np.linalg.svd(m, compute_uv=False)
        if s[0] == 0.0 or s[-1] < 1e-12 * s[0]:
            raise ValueError("mass matrix is singular")
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "stiffness", k)
        object.__setattr__(self, "damping", g)

    @property
    def dim(self) -> int:
        return self.mass.shape[0]

    @property
    def is_real(self) -> bool:
        return max(
            np.abs(self.mass.imag).max(),
            np.abs(self.stiffness.imag).max(),
            np.abs(self.damping.imag).max(),
        ) < REAL_TOL


@dataclass(frozen=True)
class EigenPair:
    omega: complex
    right: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """All 2N eigenfrequencies of a QMP, sorted by (Re, Im).

    The eigenpairs and `ep_clusters` are computed from `qmp` once, on first
    access, so frequency-only callers never pay for eigenvectors.
    `ep_clusters` lists index groups whose eigenvectors coalesced
    (near-defective: the exceptional-point signal); degenerate groups with
    orthogonal vectors are diabolic and not listed.
    """

    omegas: np.ndarray
    pf_gap_ok: bool
    qmp: QuadraticMatrixPolynomial = field(repr=False)
    _eigen: tuple | None = field(default=None, repr=False)

    def _eigensystem(self) -> tuple:
        if self._eigen is None:
            object.__setattr__(self, "_eigen", _eigenpairs(self.qmp, self.omegas))
        return self._eigen

    @property
    def pairs(self) -> tuple[EigenPair, ...]:
        return self._eigensystem()[0]

    @property
    def ep_clusters(self) -> tuple[tuple[int, ...], ...]:
        return self._eigensystem()[1]


def evaluate(q: QuadraticMatrixPolynomial, omega: complex) -> np.ndarray:
    """Q(w) = w^2 M - K + i w G."""
    return omega**2 * q.mass - q.stiffness + 1j * omega * q.damping


def linearize(q: QuadraticMatrixPolynomial) -> np.ndarray:
    """First-order companion form H = i [[0, 1], [-M^-1 K, -M^-1 G]].

    Eigenvalues of H are the QEP eigenfrequencies; eigenvectors stack as
    (psi, -i w psi).  For real M, K, G it satisfies H* = -H entrywise.
    """
    n = q.dim
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, n:] = np.eye(n)
    h[n:] = -np.linalg.solve(q.mass, np.hstack([q.stiffness, q.damping]))
    return 1j * h


def _pf_gap_ok(omegas: np.ndarray) -> bool:
    # Relative gap test plus an absolute floor: a double root at the origin
    # is only located to about sqrt(machine epsilon), so tinier real parts are
    # indistinguishable from the axis (frequencies in natural units).
    top = np.abs(omegas).max()
    if top == 0.0:
        return False
    floor = 1e-6 * max(1.0, top)
    return bool(np.abs(omegas.real).min() > max(PF_GAP_RTOL * top, floor))


def solve(q: QuadraticMatrixPolynomial) -> Spectrum:
    """Eigenfrequencies of the QEP from its companion linearization.

    LAPACK's eigenvalues of `linearize(q)` are backward stable (Tisseur and
    Meerbergen, SIAM Review 43, 2001); eigenvectors wait for first access
    to `pairs` or `ep_clusters`.
    """
    omegas = np.linalg.eigvals(linearize(q))
    omegas = omegas[np.lexsort((omegas.imag, omegas.real))]
    return Spectrum(omegas=omegas, pf_gap_ok=_pf_gap_ok(omegas), qmp=q)


def frequency_clusters(omegas: np.ndarray) -> list[list[int]]:
    """Index groups of sorted eigenfrequencies closer than EP_OMEGA_RTOL * max(1, max|w|)."""
    return nk.cluster_indices(omegas, EP_OMEGA_RTOL * max(1.0, np.abs(omegas).max()))


def simple_vectors(mass, stiffness, damping, omegas) -> np.ndarray:
    """Unit gauge-fixed right vectors of Q(w) at simple eigenfrequencies.

    Each vector is the smallest right singular vector of Q(w).  The
    coefficient arrays broadcast against omegas[..., None, None], so a whole
    stack of frequencies (and of QMPs) takes one SVD call, bit-identical to
    one call per matrix.
    """
    w = np.asarray(omegas)[..., None, None]
    # np.power rounds like the scalar w**2 of `evaluate`; array w**2 does not.
    _, _, vh = np.linalg.svd(np.power(w, 2) * mass - stiffness + 1j * w * damping)
    return nk.gauge_fix(vh[..., -1, :].conj())


def _eigenpairs(q: QuadraticMatrixPolynomial, omegas: np.ndarray) -> tuple:
    """(pairs, ep_clusters) for sorted eigenfrequencies of q.

    Right vectors are unit-norm gauge-fixed nullspace vectors of Q(w_n) from
    an SVD: one stacked SVD for all single roots, one nullspace SVD per
    cluster.  Clusters closer than EP_OMEGA_RTOL whose nullspace dimension
    falls short of the multiplicity are flagged as exceptional when the
    extracted vectors overlap above EP_OVERLAP (orthogonal vectors mean a
    diabolic point).
    """
    clusters = frequency_clusters(omegas)
    singles = [c[0] for c in clusters if len(c) == 1]
    right = dict(zip(singles, simple_vectors(q.mass, q.stiffness, q.damping, omegas[singles])))
    multiple = [c for c in clusters if len(c) > 1]
    ep_clusters: list[tuple[int, ...]] = []
    if multiple:
        scale = max(1.0, np.abs(omegas).max())
        # Coefficient scale: Q(w) evaluated exactly at a degeneracy can be the
        # zero matrix (diabolic case), so the nullspace threshold must not be
        # relative to Q(w) itself.
        coeff_scale = max(
            np.linalg.norm(q.mass, 2) * scale**2,
            np.linalg.norm(q.stiffness, 2),
            np.linalg.norm(q.damping, 2) * scale,
        )
    for cluster in multiple:
        basis = nk.nullspace(evaluate(q, omegas[cluster].mean()), coeff_scale)
        mult = len(cluster)
        dim = basis.shape[1]
        if dim >= mult:
            vecs = [nk.gauge_fix(basis[:, dim - mult + j]) for j in range(mult)]
        else:
            vecs = [nk.gauge_fix(basis[:, -1])] * mult
            ep_clusters.append(tuple(cluster))
        right.update(zip(cluster, vecs))
    pairs = tuple(EigenPair(omega=complex(w), right=right[i]) for i, w in enumerate(omegas))
    # Coalescence vs diabolic: only keep clusters whose vectors overlap.
    confirmed = []
    for cluster in ep_clusters:
        v0 = pairs[cluster[0]].right
        if all(abs(np.vdot(v0, pairs[i].right)) > EP_OVERLAP for i in cluster[1:]):
            confirmed.append(cluster)
    return pairs, tuple(confirmed)


def particle_hole_residual(spectrum: Spectrum) -> float:
    """Optimal-assignment distance between {w_n} and {-w_n*}.

    Zero (below 1e-9) for the spectrum of any real QMP.
    """
    w = spectrum.omegas
    target = -w.conj()
    return float(np.abs(w - target[nk.min_cost_assignment(w, target, 1)]).max())


def pf_omegas(spectrum: Spectrum) -> np.ndarray:
    """The positive-real-frequency half of the eigenfrequencies, sorted by (Re, Im)."""
    if not spectrum.pf_gap_ok:
        raise SpectralGapError("no real line gap at Re(w) = 0")
    return spectrum.omegas[spectrum.omegas.real > 0]


def pf_bands(spectrum: Spectrum) -> list[EigenPair]:
    """The positive-real-frequency eigenpairs, in the order of `pf_omegas`."""
    if not spectrum.pf_gap_ok:
        raise SpectralGapError("no real line gap at Re(w) = 0")
    return [p for p in spectrum.pairs if p.omega.real > 0]


def csv_text(header, rows) -> str:
    """CSV text (comma, LF): floats with 12 significant digits, other values verbatim."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, (float, np.floating)) else v for v in row])
    return buf.getvalue()

