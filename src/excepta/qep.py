"""Quadratic matrix polynomials Q(w) = w^2 M - K + i w G and their spectra.

A system of N coupled damped oscillators yields a 2N-eigenvalue quadratic
problem Q(w) psi = 0.  Real coefficient matrices force the eigenfrequency
pairing (w, -w*); only the positive-real-frequency half is observable.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import numkernel as nk

PF_GAP_RTOL = 1e-6
EP_OMEGA_RTOL = 1e-6
# |D+| a traced exceptional-line vertex reaches; a pair of frequencies split
# by up to its square root, relative to max(1, max|w|), is a candidate EP.
VERTEX_TOL = 1e-8
# The response-spectrum parameters `retrieval` fits.  They live here, in a
# module every command loads, so the CLI's `synth` schema can list them
# without importing `retrieval`.
PARAM_NAMES = ("kappa0", "gamma0", "chi", "dchi", "kappa", "gamma", "c")


class SpectralGapError(RuntimeError, nk.NumericalError):
    """No real line gap at Re(w) = 0."""


@dataclass(frozen=True)
class QuadraticMatrixPolynomial:
    """Coefficient triple (mass, stiffness, damping), all N x N, mass nonsingular.

    Every QMP is row `row` of its coefficient `table`, which makes its H, sorted eigenvalues, gap
    flag and point derivatives.  A model's QMPs are views of its validated table (`Table.qmp`); the
    public constructor, and so `dataclasses.replace`, validates its arrays and gives them their own
    one-row table, without derivatives.
    """

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
        self.__dict__.update(mass=m, stiffness=k, damping=g, table=Table(m, k[None], g[None]), row=0)  # frozen

    @property
    def dim(self) -> int:
        return self.mass.shape[0]

    def derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """(dK, dG), each (3, N, N): the derivatives of K and G along the point coordinates, the table's row."""
        dk, dg = self.table.derivatives
        return dk[self.row], dg[self.row]


@dataclass(frozen=True)
class Table:
    """One model over P points: mass (N, N) shared, stiffness and damping (P, N, N).

    Each made once, on first use, and read-only: `derivatives`, `derive()`'s (dK, dG) along the 3 point
    coordinates, each (P, 3, N, N); `companion`, the stack linearize(table); `eigenvalues`, its eigenvalues
    from one LAPACK call, each row sorted by (Re, Im), and `pf_gap_ok`, each row's gap flag (`sorted_spectra`).
    """

    mass: np.ndarray
    stiffness: np.ndarray
    damping: np.ndarray
    derive: Callable | None = field(default=None, repr=False, compare=False)

    @cached_property
    def derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        return self.derive()

    @cached_property
    def companion(self) -> np.ndarray:
        h = linearize(self)
        h.flags.writeable = False
        return h

    @cached_property
    def _spectra(self) -> tuple[np.ndarray, tuple[bool, ...]]:
        w, ok = sorted_spectra(np.linalg.eigvals(self.companion))
        w.flags.writeable = False
        return w, ok

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectra[0]

    @property
    def pf_gap_ok(self) -> tuple[bool, ...]:
        return self._spectra[1]

    def qmp(self, i: int) -> QuadraticMatrixPolynomial:
        """The QMP at point i: a view of the stack that stores only its arrays, this table and i."""
        q = object.__new__(QuadraticMatrixPolynomial)
        q.__dict__.update(mass=self.mass, stiffness=self.stiffness[i], damping=self.damping[i], table=self, row=i)
        return q


@dataclass(frozen=True)
class EigenPair:
    omega: complex
    right: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """All 2N eigenfrequencies of a QMP, sorted by (Re, Im).

    The eigenpairs are computed from `qmp` once, on first access, so
    frequency-only callers never pay for eigenvectors.  `ep_clusters` is
    `exceptional_pairs(qmp, omegas)`, the one exceptional-versus-diabolic
    rule: a close pair is exceptional when Q at its centre keeps rank N - 1.
    It needs no eigenvectors.
    """

    omegas: np.ndarray
    pf_gap_ok: bool
    qmp: QuadraticMatrixPolynomial = field(repr=False)
    _pairs: tuple | None = field(default=None, repr=False)

    @property
    def pairs(self) -> tuple[EigenPair, ...]:
        if self._pairs is None:
            object.__setattr__(self, "_pairs", _eigenpairs(self.qmp, self.omegas))
        return self._pairs

    @property
    def ep_clusters(self) -> tuple[tuple[int, int], ...]:
        return exceptional_pairs(self.qmp, self.omegas)


def evaluate(q: QuadraticMatrixPolynomial, omega: complex) -> np.ndarray:
    """Q(w) = w^2 M - K + i w G."""
    return omega**2 * q.mass - q.stiffness + 1j * omega * q.damping


def linearize(q) -> np.ndarray:
    """First-order companion form H = i [[0, 1], [-M^-1 K, -M^-1 G]].

    Eigenvalues of H are the QEP eigenfrequencies; eigenvectors stack as
    (psi, -i w psi).  For real M, K, G it satisfies H* = -H entrywise.
    Of a `Table`: the (P, 2N, 2N) stack from one stacked solve over the shared mass, equal bit for
    bit per point.  Of a QMP: its row of its table's read-only `companion`, so only tables run this.
    """
    if isinstance(q, QuadraticMatrixPolynomial):
        return q.table.companion[q.row]
    n = q.mass.shape[0]
    h = np.zeros(q.stiffness.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    h[..., :n, n:] = np.eye(n)
    h[..., n:, :n], h[..., n:, n:] = q.stiffness, q.damping
    np.negative(np.linalg.solve(q.mass, h[..., n:, :]), out=h[..., n:, :])
    return np.multiply(h, 1j, out=h)


def _pf_gap_ok(omegas: np.ndarray) -> bool:
    # Relative gap test plus an absolute floor: a double root at the origin is only located to about
    # sqrt(machine epsilon), so tinier real parts are indistinguishable from the axis (frequencies in
    # natural units).  A zero or non-finite spectrum (sum |w| 0, inf or nan) has no gap.
    w = omegas.tolist()
    mags = [abs(z) for z in w]
    top = max(mags)
    return 0.0 < sum(mags) < np.inf and min(abs(z.real) for z in w) > max(PF_GAP_RTOL * top, 1e-6 * max(1.0, top))


def sorted_spectra(w: np.ndarray) -> tuple[np.ndarray, tuple[bool, ...]]:
    """The rows of a (P, 2N) eigenvalue stack sorted by (Re, Im), and each row's gap flag.

    Equal bit for bit to sorting each row alone and testing it with `_pf_gap_ok`: a stack of several
    rows is sorted by one lexsort along its last axis and gap-tested column by column, summing |w|
    left to right and taking |w| by np.hypot, as the Python rule does.
    """
    # One row keeps the Python rule: on a 4-frequency row it costs about 4 us a call against 24 us for
    # the stacked path, and `exceptional` solves 640 one-point tables a pass (Newton steps, bisection
    # midpoints), while `needle` solves 4,096-row tables.
    if len(w) == 1:
        row = w[0]
        row = row[np.lexsort((row.imag, row.real))]
        return row[None], (_pf_gap_ok(row),)
    w = np.take_along_axis(w, np.lexsort((w.imag, w.real), axis=-1), axis=-1)
    mags = np.hypot(w.real, w.imag)
    top, total = mags.max(axis=-1), sum(mags.T)
    ok = (0.0 < total) & (total < np.inf)
    ok &= np.abs(w.real).min(axis=-1) > np.maximum(PF_GAP_RTOL * top, 1e-6 * np.maximum(1.0, top))
    return w, tuple(ok.tolist())


def solve(q):
    """Eigenfrequencies of the QEP from its companion linearization.

    LAPACK's eigenvalues of `linearize` are backward stable (Tisseur and
    Meerbergen, SIAM Review 43, 2001); eigenvectors wait for first access
    to `pairs`.  Of a QMP: a `Spectrum` of its row of its table's sorted
    eigenvalue stack and its gap flag, both made for the whole table in one
    call each on first use.  Of a `Table`: an iterator over its P per-point
    `Spectrum`s, rows of one `eigvals` call and one `lexsort` made now, each
    equal bit for bit to solving that point alone and made as it is read, so
    a caller holds only the rows it keeps.
    """
    if isinstance(q, Table):
        rows = zip(q.eigenvalues, q.pf_gap_ok)
        return (Spectrum(omegas=w, pf_gap_ok=ok, qmp=q.qmp(i)) for i, (w, ok) in enumerate(rows))
    return Spectrum(omegas=q.table.eigenvalues[q.row], pf_gap_ok=q.table.pf_gap_ok[q.row], qmp=q)


def _coefficient_scale(q: QuadraticMatrixPolynomial, omegas: np.ndarray) -> float:
    # Q(w) evaluated exactly at a diabolic degeneracy can be the zero matrix,
    # so thresholds on it are relative to the coefficients, not to Q(w).
    scale = max(1.0, np.abs(omegas).max())
    return max(
        np.linalg.norm(q.mass, 2) * scale**2,
        np.linalg.norm(q.stiffness, 2),
        np.linalg.norm(q.damping, 2) * scale,
    )


def exceptional_pairs(q: QuadraticMatrixPolynomial, omegas: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Index pairs (i < j) of eigenfrequencies of q that coalesce at an exceptional point.

    A pair is a candidate when |w_i - w_j| <= sqrt(VERTEX_TOL) * max(1, max|w|).
    At the pair centre c, Q(c) of a diabolic pair has a two-dimensional
    near-nullspace, so its second-smallest singular value is at most
    splitting * ||Q'(c)||; an exceptional pair keeps rank N - 1 (Seyranian,
    Kirillova and Mailybaev, J. Phys. A 38, 2005).  The pair is exceptional
    when sigma_{N-1} > 10 * max(splitting * ||Q'||, floor), with the floor
    at rounding level relative to the coefficients, so an exactly degenerate
    diabolic pair stays diabolic.  A double root of N = 1 is always
    exceptional.
    """
    scale = max(1.0, np.abs(omegas).max())
    close = np.abs(omegas[:, None] - omegas[None, :]) <= np.sqrt(VERTEX_TOL) * scale
    candidates = [tuple(ij) for ij in np.argwhere(np.triu(close, 1)).tolist()]
    if q.dim == 1 or not candidates:
        return tuple(candidates)
    floor = 1e-13 * _coefficient_scale(q, omegas)
    pairs = []
    for i, j in candidates:
        center = 0.5 * (omegas[i] + omegas[j])
        dq_norm = np.linalg.norm(2.0 * center * q.mass + 1j * q.damping, 2)
        sigmas = np.linalg.svd(evaluate(q, center), compute_uv=False)
        if sigmas[-2] > 10.0 * max(abs(omegas[i] - omegas[j]) * dq_norm, floor):
            pairs.append((i, j))
    return tuple(pairs)


def close_neighbours(omegas: np.ndarray) -> np.ndarray:
    """(..., 2N - 1) flags: whether each adjacent pair of a sorted (..., 2N) stack of finite frequencies
    lies closer than EP_OMEGA_RTOL * max(1, max|w|) of its row.  Runs of close neighbours are frequency
    clusters, which share one nullspace SVD for their eigenvectors; |w| is np.hypot, which rounds like abs()."""
    d = np.diff(omegas, axis=-1)
    tol = EP_OMEGA_RTOL * np.maximum(1.0, np.hypot(omegas.real, omegas.imag).max(axis=-1))
    return np.hypot(d.real, d.imag) < tol[..., None]


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


def _eigenpairs(q: QuadraticMatrixPolynomial, omegas: np.ndarray) -> tuple[EigenPair, ...]:
    """Eigenpairs for sorted eigenfrequencies of q.

    Right vectors are unit-norm gauge-fixed nullspace vectors of Q(w_n) from
    an SVD: one stacked SVD for all single roots, one nullspace SVD per
    frequency cluster.  A cluster whose nullspace is smaller than its
    multiplicity (a defective pair) repeats its one vector.
    """
    clusters = [c.tolist() for c in np.split(np.arange(len(omegas)), np.flatnonzero(~close_neighbours(omegas)) + 1)]
    singles = [c[0] for c in clusters if len(c) == 1]
    right = dict(zip(singles, simple_vectors(q.mass, q.stiffness, q.damping, omegas[singles])))
    multiple = [c for c in clusters if len(c) > 1]
    if multiple:
        coeff_scale = _coefficient_scale(q, omegas)
    for cluster in multiple:
        basis = nk.nullspace(evaluate(q, omegas[cluster].mean()), coeff_scale)
        mult = len(cluster)
        dim = basis.shape[1]
        if dim >= mult:
            vecs = [nk.gauge_fix(basis[:, dim - mult + j]) for j in range(mult)]
        else:
            vecs = [nk.gauge_fix(basis[:, -1])] * mult
        right.update(zip(cluster, vecs))
    return tuple(EigenPair(omega=complex(w), right=right[i]) for i, w in enumerate(omegas))


def pair_gradient(spectrum: Spectrum, dcoeffs) -> np.ndarray:
    """Gradient of D+ = (wa - wb)^2 over the point coordinates, for the one PF pair.

    `dcoeffs` is (dK, dG), each (P, N, N), as `QuadraticMatrixPolynomial.derivatives()`
    returns it.  With s = wa + wb and p = wa wb, one SVD of H^2 - sH + pI gives
    the right and left invariant subspaces X, Y of the pair, which stay
    two-dimensional where the pair coalesces.  On them T = (Y^H X)^-1 Y^H H X
    and dT = (Y^H X)^-1 Y^H dH X, and D+ = tr(T)^2 - 4 det T gives
    dD+ = 2 tr T tr dT - 4 tr(adj T dT) (Lancaster, Numer. Math. 6, 1964;
    Andrew, Chu and Lancaster, SIAM J. Matrix Anal. Appl. 14, 1993).  Unlike
    the simple-eigenvalue formula it stays exact at an exceptional point.
    Raises ValueError unless the spectrum has exactly one PF pair.
    """
    w = pf_omegas(spectrum)
    if len(w) != 2:
        raise ValueError(f"pair_gradient needs exactly one PF pair, not {len(w)} PF frequencies")
    q = spectrum.qmp
    n = q.dim
    h = linearize(q)
    u, _, vh = np.linalg.svd(h @ h - (w[0] + w[1]) * h + w[0] * w[1] * np.eye(2 * n))
    x, yh = vh[-2:].conj().T, u[:, -2:].conj().T
    yx = yh @ x
    t = np.linalg.solve(yx, yh @ h @ x)
    # dH = i [[0, 0], [-M^-1 dK, -M^-1 dG]] has only its lower block row.
    dk, dg = dcoeffs
    dhx = -1j * np.linalg.solve(q.mass, dk @ x[:n] + dg @ x[n:])
    dt = np.linalg.solve(yx, yh[:, n:] @ dhx)
    adj = np.array([[t[1, 1], -t[0, 1]], [-t[1, 0], t[0, 0]]])
    return 2.0 * np.trace(t) * np.trace(dt, axis1=-2, axis2=-1) - 4.0 * np.einsum("ij,pji->p", adj, dt)


def particle_hole_residual(spectrum: Spectrum) -> float:
    """Optimal-assignment distance between {w_n} and {-w_n*}.

    Zero (below 1e-9) for the spectrum of any real QMP.  The assignment is
    exact up to numkernel.MAX_ASSIGNMENT frequencies (N <= 3); larger spectra
    raise ValueError.
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

