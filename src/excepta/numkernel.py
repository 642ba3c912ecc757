"""Dense complex linear-algebra and polynomial root-finding kernels.

Everything in this module is deterministic: fixed initial guesses, fixed
iteration order, no randomness.  Identical inputs give bit-identical
outputs, which the golden-file tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Irrational rotation of the initial root circle; breaks polynomial
# symmetries (e.g. pure even/odd) without randomness.
GOLDEN_ANGLE = np.pi * (np.sqrt(5.0) - 1.0)

MAX_DENSE_DIM = 64


class ConvergenceError(RuntimeError):
    """Iteration cap reached; carries the best iterate and its residual."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class SingularMatrixError(RuntimeError):
    """Pivot/singular value below tolerance; carries the estimated rank."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


def as_matrix(a) -> np.ndarray:
    """Validate and return a finite complex 2-D array."""
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def as_poly(coeffs) -> np.ndarray:
    """Validate ascending-order polynomial coefficients (nonzero leading)."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size < 2:
        raise ValueError("polynomial must have degree >= 1")
    if not np.all(np.isfinite(c)):
        raise ValueError("polynomial has non-finite coefficients")
    if abs(c[-1]) == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    return c


def poly_eval(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of ascending-order coefficients at points z."""
    acc = np.zeros_like(z, dtype=complex) + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def poly_deriv(coeffs: np.ndarray) -> np.ndarray:
    n = np.arange(1, len(coeffs))
    return coeffs[1:] * n


def poly_roots(coeffs, tol: float = 1e-12, max_iter: int = 500) -> np.ndarray:
    """All roots of a complex polynomial by Aberth-Ehrlich simultaneous iteration.

    Parameters
    ----------
    coeffs : array_like
        Ascending-order coefficients c0 + c1 w + ... + cn w^n.
    tol : float
        Convergence: max step below tol*(1+|root|), or every normalized
        residual |p(root)| / max|c| below tol (multiple roots stall the
        step criterion at the float noise floor long after the residual
        contract is met).

    Returns
    -------
    ndarray of the `degree` roots, with multiplicity, in a reproducible
    order fixed by the deterministic initial circle.
    """
    c = as_poly(coeffs)
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = len(c) - 1
    if n == 1:
        return np.array([-c[0] / c[1]])

    cmax = np.max(np.abs(c))
    dc = poly_deriv(c)
    # Cauchy-style radius, initial guesses equispaced with irrational twist.
    radius = 1.0 + np.max(np.abs(c[:-1] / c[-1]))
    angles = 2.0 * np.pi * np.arange(n) / n + GOLDEN_ANGLE
    z = radius * np.exp(1j * angles)

    for _ in range(max_iter):
        p = poly_eval(c, z)
        dp = poly_eval(dc, z)
        # Guard exact-zero derivative (multiple-root collision) with a nudge.
        bad = np.abs(dp) == 0.0
        if np.any(bad):
            z = np.where(bad, z * (1.0 + 1e-12) + 1e-12, z)
            p = poly_eval(c, z)
            dp = poly_eval(dc, z)
        newton = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        repulse = inv.sum(axis=1)
        denom = 1.0 - newton * repulse
        denom = np.where(np.abs(denom) == 0.0, 1e-300, denom)
        step = newton / denom
        z = z - step
        if np.max(np.abs(step) / (1.0 + np.abs(z))) < tol:
            return z
        if np.max(np.abs(poly_eval(c, z))) / cmax < tol:
            return z

    resid = np.max(np.abs(poly_eval(c, z))) / cmax
    if resid < tol:
        return z
    raise ConvergenceError(
        f"Aberth-Ehrlich did not converge in {max_iter} iterations "
        f"(residual {resid:.3e})",
        best=z,
        residual=resid,
    )


def nullspace(a, rtol: float = 1e-7, scale: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Near-nullspace basis of A from its SVD.

    Returns (vectors, sigmas): columns of `vectors` are right singular
    vectors whose singular value falls below rtol * scale (scale defaults
    to sigma_max; at least the single smallest vector is always returned),
    and `sigmas` are all singular values in descending order.
    """
    m = as_matrix(a)
    _, s, vh = np.linalg.svd(m)
    if scale is None:
        scale = s[0] if s[0] > 0 else 1.0
    keep = s < rtol * scale
    if not np.any(keep):
        keep = np.zeros_like(keep)
        keep[-1] = True
    return vh[keep].conj().T, s


def gauge_fix(v: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Rotate phase so the first non-negligible component is real positive."""
    v = np.asarray(v, dtype=complex)
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        raise ValueError("cannot gauge-fix a zero vector")
    idx = int(np.argmax(mags > tol * top))
    phase = v[idx] / abs(v[idx])
    return v * phase.conjugate()


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues with unit-norm gauge-fixed right eigenvectors (columns).

    `near_defective` lists index clusters whose nullspace dimension fell
    short of the algebraic multiplicity; the shared best vector is
    replicated across such a cluster.  This is the exceptional-point
    signature, not a failure.
    """

    values: np.ndarray
    vectors: np.ndarray
    near_defective: tuple[tuple[int, ...], ...]


def cluster_indices(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group already-sorted values into clusters of mutual distance < tol."""
    clusters: list[list[int]] = []
    for i in range(len(values)):
        if clusters and abs(values[i] - values[clusters[-1][-1]]) < tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def eig_dense(a, tol: float = 1e-9) -> EigenDecomposition:
    """Dense eigendecomposition with rank-revealing eigenvector extraction.

    Eigenvalues come from LAPACK; each eigenvector is the smallest right
    singular vector of (A - lambda I), so repeated eigenvalues either get an
    orthonormal nullspace basis (diabolic degeneracy) or are flagged
    near-defective (coalesced vectors).
    """
    m = as_matrix(a)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if n > MAX_DENSE_DIM:
        raise ValueError(f"dimension {n} exceeds desk-scale cap {MAX_DENSE_DIM}")
    scale = np.linalg.norm(m, 2) or 1.0

    values = np.linalg.eigvals(m)
    order = np.lexsort((values.imag, values.real))
    values = values[order]

    vectors = np.zeros((n, n), dtype=complex)
    defective: list[tuple[int, ...]] = []
    eye = np.eye(n, dtype=complex)
    for cluster in cluster_indices(values, 1e-6 * max(1.0, scale)):
        center = values[cluster].mean()
        basis, _ = nullspace(m - center * eye, rtol=1e-7, scale=scale)
        mult = len(cluster)
        dim = basis.shape[1]
        if dim >= mult:
            for j, idx in enumerate(cluster):
                vectors[:, idx] = gauge_fix(basis[:, dim - mult + j])
        else:
            best = gauge_fix(basis[:, -1])
            for idx in cluster:
                vectors[:, idx] = best
            defective.append(tuple(cluster))
    return EigenDecomposition(values=values, vectors=vectors, near_defective=tuple(defective))


def solve_linear(a, b, rcond: float = 1e-12) -> np.ndarray:
    """Solve A x = b for square nonsingular A.

    Raises SingularMatrixError (with the estimated rank) when the smallest
    singular value falls below rcond * sigma_max.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    rhs = np.asarray(b, dtype=complex)
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0 or s[-1] < rcond * s[0]:
        rank = int(np.sum(s > rcond * (s[0] or 1.0)))
        raise SingularMatrixError(
            f"matrix singular within pivot tolerance (estimated rank {rank})",
            rank=rank,
        )
    return np.linalg.solve(m, rhs)
