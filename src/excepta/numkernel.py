"""Matrix validation, the nullspace SVD and gauge fix behind eigenvectors,
polynomial root finding, and the exact minimum-cost assignment behind band
matching, by enumeration up to MAX_ASSIGNMENT entries.

`gauge_fix` acts along the last axis of a stack of vectors, bit-identical
to fixing them one at a time.

There is no dense eigendecomposition or linear solve here: eigenvalues come
from one LAPACK `eigvals` call per coefficient table (`qep.Table`).
Everything in this module is deterministic: fixed initial guesses, fixed
iteration order, no randomness.  Identical inputs give bit-identical
outputs, which the golden-file tests rely on.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Irrational rotation of the initial root circle; breaks polynomial
# symmetries (e.g. pure even/odd) without randomness.
GOLDEN_ANGLE = np.pi * (np.sqrt(5.0) - 1.0)

NULLSPACE_RTOL = 1e-7

# Largest assignment min_cost_assignment enumerates: the six frequencies of an
# N = 3 spectrum, 720 orders.
MAX_ASSIGNMENT = 6
_PERMUTATIONS = [tuple(itertools.permutations(range(n))) for n in range(MAX_ASSIGNMENT + 1)]


class NumericalError(Exception):
    """Marker base of every numerical failure the library raises (the CLI's exit 3)."""


class ConvergenceError(RuntimeError, NumericalError):
    """Iteration cap reached; carries the best iterate and its residual."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


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


def nullspace(a, scale: float) -> np.ndarray:
    """Near-nullspace basis of A from its SVD.

    Columns are the right singular vectors whose singular value falls below
    NULLSPACE_RTOL * scale; at least the single smallest one is returned.
    """
    _, s, vh = np.linalg.svd(as_matrix(a))
    keep = s < NULLSPACE_RTOL * scale
    if not np.any(keep):
        keep[-1] = True
    return vh[keep].conj().T


def gauge_fix(v: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Rotate phase so the first non-negligible component is real positive.

    Acts on each vector along the last axis of a stack.
    """
    v = np.asarray(v, dtype=complex)
    mags = np.abs(v)
    top = mags.max(axis=-1, keepdims=True)
    if np.any(top == 0.0):
        raise ValueError("cannot gauge-fix a zero vector")
    lead = np.take_along_axis(v, np.argmax(mags > tol * top, axis=-1)[..., None], axis=-1)
    # np.hypot rounds like the scalar abs(); np.abs on an array does not always.
    phase = lead / np.hypot(lead.real, lead.imag)
    return v * phase.conjugate()


# `topology.match_band_grid` repeats this function's two-band arithmetic on whole arrays and must round
# like it: np.hypot equals abs(complex) and np.float_power(x, 2) equals x ** 2 bit for bit, which np.abs
# and np.square do not always (tests/test_numkernel.py guards both equalities).
def min_cost_assignment(a: np.ndarray, b: np.ndarray, power: int) -> np.ndarray:
    """Column order of `b` minimizing sum |a_i - b_col(i)|**power, exact by enumeration.

    Every permutation is tried in lexicographic order, identity first, and a
    later one wins only on a strictly smaller sum, so exact ties keep the
    identity.  Raises ValueError for lengths that differ or exceed
    MAX_ASSIGNMENT, and when the costs do not have a finite sum.
    """
    n = len(a)
    if n != len(b) or n > MAX_ASSIGNMENT:
        raise ValueError(f"assignment needs equal lengths of at most {MAX_ASSIGNMENT}, got {n} and {len(b)}")
    y = b.tolist()
    try:
        cost = [[abs(p - q) ** power for q in y] for p in a.tolist()]
    except OverflowError:  # float ** and complex abs raise where finite inputs give an infinite cost
        raise ValueError("assignment costs must be finite") from None
    if not math.isfinite(sum(map(sum, cost))):  # so is every permutation's sum
        raise ValueError("assignment costs must be finite")
    best, order = math.inf, None
    for perm in _PERMUTATIONS[n]:
        total = sum(map(list.__getitem__, cost, perm))
        if total < best:
            best, order = total, perm
    return np.array(order, dtype=int)
