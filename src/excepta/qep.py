"""Quadratic matrix polynomials Q(w) = w^2 M - K + i w G and their spectra.

A system of N coupled damped oscillators yields a 2N-eigenvalue quadratic
problem Q(w) psi = 0.  Real coefficient matrices force the eigenfrequency
pairing (w, -w*); only the positive-real-frequency half is observable.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
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

    `derivatives`, when a model sets it, is a zero-argument callable
    returning (dK, dG), each (P, N, N): the derivatives of K and G along the
    P coordinates of the point the QMP was built at (M is constant).  A
    model's QMPs are views of its validated table (`models.coefficients`)
    that carry its H, its sorted eigenvalues and its gap flags.
    """

    mass: np.ndarray
    stiffness: np.ndarray
    damping: np.ndarray
    derivatives: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = nk.as_matrix(self.mass)
        k = nk.as_matrix(self.stiffness)
        g = nk.as_matrix(self.damping)
        if not (m.shape == k.shape == g.shape) or m.shape[0] != m.shape[1]:
            raise ValueError("mass, stiffness, damping must be square and same shape")
        s = np.linalg.svd(m, compute_uv=False)
        if s[0] == 0.0 or s[-1] < 1e-12 * s[0]:
            raise ValueError("mass matrix is singular")
        self.__dict__.update(mass=m, stiffness=k, damping=g)  # frozen: bypass __setattr__

    @classmethod
    def _from_table(cls, mass, stiffness, damping, derivatives, h, spectrum) -> "QuadraticMatrixPolynomial":
        """A QMP of validated arrays, taken as they are; `h()` gives its read-only H and `spectrum()` its
        read-only sorted eigenvalues and gap flag (not fields, so `dataclasses.replace` drops them)."""
        q = object.__new__(cls)
        q.__dict__.update(mass=mass, stiffness=stiffness, damping=damping, derivatives=derivatives, _companion=h,
                          _spectrum=spectrum)
        return q

    @property
    def dim(self) -> int:
        return self.mass.shape[0]


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
    Of a `models.Table`: the (P, 2N, 2N) stack, equal bit for bit per point; of its view: the table's H.
    """
    companion = getattr(q, "_companion", None)
    if companion is not None:
        return companion()
    n = q.mass.shape[0]
    h = np.zeros(q.stiffness.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    h[..., :n, n:] = np.eye(n)
    h[..., n:, :n], h[..., n:, n:] = q.stiffness, q.damping
    np.negative(np.linalg.solve(q.mass, h[..., n:, :]), out=h[..., n:, :])
    return np.multiply(h, 1j, out=h)


def companion_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Unsorted eigenvalues of a companion matrix H, or of a (P, 2N, 2N) stack in one LAPACK call,
    equal bit for bit to one call per matrix: the QEP eigenfrequencies."""
    return np.linalg.eigvals(h)


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

    Equal bit for bit to sorting each row alone and testing it with `_pf_gap_ok`.  One row keeps
    that Python rule, which costs less than numpy's fixed overhead there; a larger stack is sorted by
    one lexsort along its last axis and gap-tested column by column, summing |w| left to right and
    taking |w| by np.hypot, as the Python rule does.
    """
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

    LAPACK's eigenvalues of `linearize(q)` are backward stable (Tisseur and
    Meerbergen, SIAM Review 43, 2001); eigenvectors wait for first access
    to `pairs`.  A view of a `models.Table` reads its row of the table's
    sorted eigenvalue stack and its gap flag, both made for the whole table
    in one call each on first use; only the `Spectrum` is per point.  Of a
    whole `models.Table` (a stiffness stack): an iterator over its P
    per-point `Spectrum`s, rows of one `eigvals` call and one `lexsort` made
    now, each equal bit for bit to solving that point alone and made as it
    is read, so a caller holds only the rows it keeps.  Any other QMP sorts
    and gap-tests its own eigenvalues as a one-row stack.
    """
    if q.stiffness.ndim == 3:
        rows = zip(q.eigenvalues, q.pf_gap_ok)
        return (Spectrum(omegas=w, pf_gap_ok=ok, qmp=q.qmp(i)) for i, (w, ok) in enumerate(rows))
    view = getattr(q, "_spectrum", None)
    if view is not None:
        omegas, gap_ok = view()
    else:
        w, ok = sorted_spectra(companion_eigenvalues(linearize(q))[None])
        omegas, gap_ok = w[0], ok[0]
    return Spectrum(omegas=omegas, pf_gap_ok=gap_ok, qmp=q)


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


def frequency_clusters(omegas: np.ndarray) -> list[list[int]]:
    """Index groups of sorted eigenfrequencies closer than EP_OMEGA_RTOL * max(1, max|w|).

    Frequencies this close share one nullspace SVD for their eigenvectors.
    """
    w = omegas.tolist()
    return nk.cluster_indices(w, EP_OMEGA_RTOL * max(1.0, *map(abs, w)))


def has_frequency_cluster(omegas: np.ndarray) -> np.ndarray:
    """Whether each row of a sorted (..., 2N) stack of finite frequencies has a `frequency_clusters`
    group of two or more, by the same arithmetic: adjacent differences, and |w| by np.hypot like abs()."""
    d = np.diff(omegas, axis=-1)
    tol = EP_OMEGA_RTOL * np.maximum(1.0, np.hypot(omegas.real, omegas.imag).max(axis=-1))
    return (np.hypot(d.real, d.imag) < tol[..., None]).any(axis=-1)


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
    clusters = frequency_clusters(omegas)
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

    `dcoeffs` is (dK, dG), each (P, N, N), as `QuadraticMatrixPolynomial.derivatives`
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

