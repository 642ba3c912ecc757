"""Synthetic response spectra and least-squares parameter retrieval.

The observable is the driven steady-state magnitude |c G_mn(2 pi f)| of the
transfer matrix G = Q^-1 for excitation at oscillator n and readout at m.
Fitting those four magnitude curves recovers the stiffness/damping
parameters of the loss-biased two-oscillator model; magnitudes only, as
phases are not used.  The fit starts from a linear solve of the magnitude
ratios and polishes by projected Levenberg-Marquardt on the exact Jacobian
d|G_mn|, which follows from dG = -G dQ G.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from .numkernel import ConvergenceError
from .qep import PARAM_NAMES, csv_text


@dataclass(frozen=True)
class ResponseSpectra:
    """|response| magnitude curves on a common frequency axis (Hz)."""

    freqs: np.ndarray
    curves: np.ndarray  # (2, 2, F): [probe m, source n, frequency]
    noise_level: float = 0.0

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        c = np.asarray(self.curves, dtype=float)
        if f.ndim != 1 or not np.all(np.isfinite(f)) or np.any(np.diff(f) <= 0):
            raise ValueError("freqs must be finite and strictly increasing")
        if c.shape != (2, 2, len(f)):
            raise ValueError("curves must have shape (2, 2, len(freqs))")
        if not np.all(np.isfinite(c)) or np.any(c < 0):
            raise ValueError("magnitudes must be finite and nonnegative")
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "curves", c)


# The loss-biased pair at m0 = 1, defined once: Q = w^2 - K + i w G is linear
# in every parameter p but the response scale c, with dQ/dp = A + i w B
# (stiffness terms enter -K, damping terms i w G).  _ENTRY_MAP holds the same
# table as Q entries (k11, k22, g11, g22, q12, q21) per unit of each
# parameter, where q_ii = w^2 - k_ii + i w g_ii.
_DQ = {
    "kappa0": ([[-1.0, 0.0], [0.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]]),
    "gamma0": ([[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]),
    "chi": ([[-1.0, 1.0], [1.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]]),
    "dchi": ([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
    "kappa": ([[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]),
    "gamma": ([[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [0.0, -0.5]]),
}
_ENTRY_MAP = np.array([[-a[0][0], -a[1][1], b[0][0], b[1][1], a[0][1], a[1][0]] for a, b in _DQ.values()]).T


def _transfer(params: dict, freqs) -> np.ndarray:
    """G(2 pi f) = Q^-1 for the loss-biased pair at m0 = 1, shape (2, 2, F).

    Closed-form 2x2 inverse vectorized over the frequency axis.
    """
    w = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    k11, k22, g11, g22, q12, q21 = _ENTRY_MAP @ [params[p] for p in _DQ]
    q11 = w**2 - k11 + 1j * w * g11
    q22 = w**2 - k22 + 1j * w * g22
    det = q11 * q22 - q12 * q21
    return np.array([[q22 / det, -q12 / det], [-q21 / det, q11 / det]])


def response_magnitudes(params: dict, freqs) -> np.ndarray:
    """c |G_mn(2 pi f)| for the loss-biased pair at m0 = 1."""
    return params["c"] * np.abs(_transfer(params, freqs))


def _jacobian(params: dict, freqs, free) -> np.ndarray:
    """d(c |G_mn(2 pi f)|)/d(free), shape (4 F, len(free)), rows in (m, n, f) order.

    dG = -G dQ G gives d|G| = Re(conj(G) dG) / |G|.  Where |G_mn| = 0 (the
    G_21 zero at chi + dchi = 0 lies inside usual bounds) the magnitude has
    no derivative; its column entries are set to 0.
    """
    w = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    g = _transfer(params, freqs)
    mag = np.abs(g)
    names = [p for p in free if p != "c"]
    a = np.array([_DQ[p][0] for p in names]).reshape(-1, 2, 2, 1)
    b = np.array([_DQ[p][1] for p in names]).reshape(-1, 2, 2, 1)
    dg = -np.einsum("maf,pabf,bnf->pmnf", g, a + 1j * w * b, g)
    num = np.real(np.conj(g) * dg)
    dmag = np.divide(num, mag, out=np.zeros_like(num), where=mag > 0)
    columns = dict(zip(names, params["c"] * dmag), c=mag)
    return np.stack([columns[p].reshape(-1) for p in free], axis=1)


def synth_response(params: dict, freqs, noise: float = 0.0, seed: int = 0) -> ResponseSpectra:
    """Noisy synthetic spectra: multiplicative (1 + noise * u), u ~ U(-1, 1).

    The uniform draws come from a seeded generator in a fixed (m, n, f)
    order, so identical seeds give identical spectra.
    """
    clean = response_magnitudes(params, freqs)
    if noise:
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.0, 1.0, size=clean.shape)
        clean = clean * (1.0 + noise * u)
    return ResponseSpectra(freqs=np.asarray(freqs, dtype=float), curves=clean, noise_level=noise)


@dataclass(frozen=True)
class FitModel:
    """Free parameters with finite bounds; everything else pinned in `fixed`.

    The response scale c is always free (magnitude data cannot pin the
    absolute excitation strength any other way).
    """

    free: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    fixed: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if "c" not in self.free:
            raise ValueError("the response scale 'c' must be a free parameter")
        for name in self.free:
            if name not in PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r}")
            if name not in self.bounds:
                raise ValueError(f"free parameter {name!r} has no bounds")
            lo, hi = self.bounds[name]
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"bounds for {name!r} must be finite with lo < hi")
        for name in self.fixed:
            if name not in PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r}")

    def assemble(self, theta) -> dict:
        params = {name: 0.0 for name in PARAM_NAMES}
        params.update(self.fixed)
        params.update(dict(zip(self.free, theta)))
        return params


@dataclass(frozen=True)
class FitResult:
    params: dict
    rms_residual: float
    curvature: dict


# Sanathanan-Koerner reweightings of the linear start.  A polish starts at
# LM_DAMPING (relative to the column-scaled normal matrix) and stops when a
# step moves x or lowers the sum of squares by less than LM_TOL relative, when
# no damping up to LM_MAX_DAMPING lowers it, or after LM_MAX_STEPS Jacobians.
REWEIGHTINGS = 4
LM_DAMPING, LM_MAX_DAMPING, LM_MAX_STEPS, LM_TOL = 1e-3, 1e12, 100, 1e-14


def _linear_start(data: ResponseSpectra) -> np.ndarray:
    """|(k11, k22, g11, g22, chi, chi + dchi)| from the magnitude ratios.

    chi^2 (y11/y12)^2 = |q22|^2 = w^4 + (g22^2 - 2 k22) w^2 + k22^2, and its
    twin in (y22/y12)^2 and q11, are linear in chi^2, g^2 - 2k and k^2: one
    least-squares solve (Levy 1959), then REWEIGHTINGS more, each row divided
    by its last |q|^2 against the noise bias (Sanathanan and Koerner 1963).
    """
    y = data.curves
    if not np.all(y[0, 1] > 0):
        raise ValueError("|G12| vanishes at some frequency; the fit needs chi != 0")
    w2 = (2.0 * np.pi * data.freqs) ** 2
    one, zero = np.ones_like(w2), np.zeros_like(w2)
    r22, r11 = (y[0, 0] / y[0, 1]) ** 2, (y[1, 1] / y[0, 1]) ** 2
    design = np.concatenate([np.stack([r22, -w2, -one, zero, zero], 1), np.stack([r11, zero, zero, -w2, -one], 1)])
    rhs, weight = np.concatenate([w2**2, w2**2]), np.ones(2 * len(w2))
    for _ in range(REWEIGHTINGS + 1):
        rows = design / weight[:, None]
        norms = np.linalg.norm(rows, axis=0)
        norms[norms == 0] = 1.0  # an all-zero ratio column (y11 or y22 zero throughout)
        u = np.linalg.lstsq(rows / norms, rhs / weight, rcond=None)[0] / norms
        k = np.sqrt(np.maximum(u[[2, 4]], 0.0))  # k22, k11
        g2 = np.maximum(u[[1, 3]] + 2.0 * k, 0.0)
        weight = ((w2 - k[:, None]) ** 2 + g2[:, None] * w2).reshape(-1)
        weight += 1e-12 * weight.max()
    chi, ratio = np.sqrt(max(u[0], 0.0)), (y[1, 0] @ y[0, 1]) / (y[0, 1] @ y[0, 1])  # |chi + dchi| / |chi|
    return np.array([k[1], k[0], np.sqrt(g2[1]), np.sqrt(g2[0]), chi, ratio * chi])


def _polish(residuals, jacobian, x, lo, hi) -> tuple[float, tuple]:
    """(sum of squares, parameters) after Levenberg-Marquardt from x, column-scaled (More 1978).

    A parameter on a bound that descent pushes outward stays there; a step is
    clipped into [lo, hi] and taken only if it lowers the sum of squares.
    """
    r = residuals(x)
    fx, damping, scale = float(r @ r), LM_DAMPING, np.zeros(len(x))
    for _ in range(LM_MAX_STEPS):
        jac = jacobian(x)
        scale = np.maximum(scale, np.linalg.norm(jac, axis=0))
        d = np.where(scale > 0, scale, 1.0)
        grad = (jac / d).T @ r
        move = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        normal = ((jac / d).T @ (jac / d))[np.ix_(move, move)]
        while damping <= LM_MAX_DAMPING:
            step = np.zeros(len(x))
            step[move] = np.linalg.solve(normal + damping * np.eye(len(normal)), -grad[move])
            trial = np.clip(x + step / d, lo, hi)
            if np.linalg.norm(d * (trial - x)) <= LM_TOL * np.linalg.norm(d * x):
                return fx, tuple(x)
            r_trial = residuals(trial)
            f_trial = float(r_trial @ r_trial)
            if f_trial < fx:
                break
            damping *= 10.0
        else:
            return fx, tuple(x)
        x, r, fx, gain, damping = trial, r_trial, f_trial, fx - f_trial, damping / 10.0
        if gain <= LM_TOL * (fx + gain):
            break
    return fx, tuple(x)


def fit_parameters(data: ResponseSpectra, model: FitModel, starts: int = 16, seed: int = 0) -> FitResult:
    """Bounded least squares over the free parameters, from an algebraic start.

    Magnitudes cannot tell the signs of chi, of chi + dchi relative to chi,
    of g11 or of g22: each of the 16 sign choices of the linear start maps to
    the free parameters by least squares given the fixed ones, is projected
    into the bounds and gets its least-squares c.  The first `starts` distinct
    candidates, by sum of squares then parameters, are each polished once;
    the winner is the (residual, then lexicographic-parameter) minimum.
    Nothing is random: `seed` is accepted and changes nothing.

    Raises ValueError when |G12| vanishes, and ConvergenceError when no
    polish improves on the best candidate unless it already fits to rounding.
    """
    if starts < 1:
        raise ValueError("need at least one start")
    if len(data.freqs) < 50:
        raise ValueError("need at least 50 frequency samples")
    lo = np.array([model.bounds[n][0] for n in model.free])
    hi = np.array([model.bounds[n][1] for n in model.free])

    def residuals(theta):
        return (response_magnitudes(model.assemble(theta), data.freqs) - data.curves).reshape(-1)

    def f(theta):
        return float(np.sum(residuals(theta) ** 2))

    def jacobian(theta):
        return _jacobian(model.assemble(theta), data.freqs, model.free)

    mags = _linear_start(data)
    ci, others = model.free.index("c"), [i for i, p in enumerate(model.free) if p != "c"]
    to_free = np.linalg.pinv(_ENTRY_MAP[:, [list(_DQ).index(model.free[i]) for i in others]])
    pinned = _ENTRY_MAP @ [model.assemble(np.zeros(len(lo)))[p] for p in _DQ]
    candidates = {}
    for s_chi, s_rel, s11, s22 in itertools.product((1.0, -1.0), repeat=4):
        x = np.ones(len(lo))
        x[others] = to_free @ (mags * [1.0, 1.0, s11, s22, s_chi, s_chi * s_rel] - pinned)
        x = np.clip(x, lo, hi)
        x[ci] = 1.0
        shape = response_magnitudes(model.assemble(x), data.freqs)
        x[ci] = np.clip(np.sum(shape * data.curves) / np.sum(shape**2), lo[ci], hi[ci])
        candidates[tuple(x)] = float(np.sum((x[ci] * shape - data.curves) ** 2))
    ranked = sorted((f0, x) for x, f0 in candidates.items())
    fx, x = min(_polish(residuals, jacobian, np.array(x), lo, hi) for _, x in ranked[:starts])
    x = np.array(x)
    # A start that already fits to rounding cannot improve, and is no failure.
    if fx >= ranked[0][0] and fx > (8.0 * np.finfo(float).eps) ** 2 * np.sum(data.curves**2):
        raise ConvergenceError(
            "no start improved on its initial residual", best=model.assemble(x), residual=fx
        )

    n_data = data.curves.size
    curvature = {}
    for i, name in enumerate(model.free):
        h = max(abs(x[i]), 1e-6) * 1e-4
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        curvature[name] = float((f(xp) - 2.0 * fx + f(xm)) / h**2)
    return FitResult(
        params=model.assemble(x),
        rms_residual=float(np.sqrt(fx / n_data)),
        curvature=curvature,
    )


def chi_parabola_fit(points) -> tuple[float, float, float]:
    """Least squares of chi = a0 + a2 r^2 over (r, chi) points.

    Returns (a0, a2, rms_residual).  Two distinct |r| values determine the
    fit exactly.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("need at least two (r, chi) points")
    r2 = pts[:, 0] ** 2
    y = pts[:, 1]
    design = np.stack([np.ones_like(r2), r2], axis=1)
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise ValueError("degenerate abscissae: r values do not determine the fit")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = design @ coef - y
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(coef[0]), float(coef[1]), rms


def spectra_to_csv(spectra: ResponseSpectra) -> str:
    """CSV with header f,|t11|,|t12|,|t21|,|t22| (12 significant digits)."""
    rows = (
        [f] + [spectra.curves[m, n, i] for m in range(2) for n in range(2)]
        for i, f in enumerate(spectra.freqs)
    )
    return csv_text(["f", "|t11|", "|t12|", "|t21|", "|t22|"], rows)


def spectra_from_csv(text: str) -> ResponseSpectra:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header[:1] != ["f"] or len(header) != 5:
        raise ValueError("expected header f,|t11|,|t12|,|t21|,|t22|")
    rows = [list(map(float, row)) for row in reader if row]
    arr = np.array(rows)
    curves = np.empty((2, 2, len(arr)))
    curves[0, 0] = arr[:, 1]
    curves[0, 1] = arr[:, 2]
    curves[1, 0] = arr[:, 3]
    curves[1, 1] = arr[:, 4]
    return ResponseSpectra(freqs=arr[:, 0], curves=curves)
