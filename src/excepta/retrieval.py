"""Synthetic response spectra and least-squares parameter retrieval.

The observable is the driven steady-state magnitude |c G_mn(2 pi f)| of the
transfer matrix G = Q^-1 for excitation at oscillator n and readout at m.
Fitting those four magnitude curves recovers the stiffness/damping
parameters of the loss-biased two-oscillator model; magnitudes only, as
phases are not used.  The fit is bounded trust-region least squares on the
exact Jacobian d|G_mn|, which follows from dG = -G dQ G.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .numkernel import ConvergenceError
from .qep import csv_text

PARAM_NAMES = ("kappa0", "gamma0", "chi", "dchi", "kappa", "gamma", "c")


@dataclass(frozen=True)
class ResponseSpectra:
    """|response| magnitude curves on a common frequency axis (Hz)."""

    freqs: np.ndarray
    curves: np.ndarray  # (2, 2, F): [probe m, source n, frequency]
    noise_level: float = 0.0

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        c = np.asarray(self.curves, dtype=float)
        if f.ndim != 1 or np.any(np.diff(f) <= 0):
            raise ValueError("freqs must be strictly increasing")
        if c.shape != (2, 2, len(f)):
            raise ValueError("curves must have shape (2, 2, len(freqs))")
        if np.any(c < 0):
            raise ValueError("magnitudes must be nonnegative")
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "curves", c)


def _transfer(params: dict, freqs) -> np.ndarray:
    """G(2 pi f) = Q^-1 for the loss-biased pair at m0 = 1, shape (2, 2, F).

    Closed-form 2x2 inverse vectorized over the frequency axis.
    """
    w = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    k11 = params["kappa0"] + params["chi"]
    k12 = -params["chi"]
    k21 = -params["chi"] - params["dchi"]
    k22 = params["kappa0"] - params["kappa"] + params["chi"]
    g11 = params["gamma0"] + params["gamma"] / 2.0
    g22 = params["gamma0"] - params["gamma"] / 2.0
    q11 = w**2 - k11 + 1j * w * g11
    q12 = -k12 + 0j * w
    q21 = -k21 + 0j * w
    q22 = w**2 - k22 + 1j * w * g22
    det = q11 * q22 - q12 * q21
    return np.array([[q22 / det, -q12 / det], [-q21 / det, q11 / det]])


def response_magnitudes(params: dict, freqs) -> np.ndarray:
    """c |G_mn(2 pi f)| for the loss-biased pair at m0 = 1."""
    return params["c"] * np.abs(_transfer(params, freqs))


# dQ/dp = A + i w B for every parameter p but the response scale c, with Q
# as in `_transfer`: stiffness terms enter -K, damping terms i w G.
_DQ = {
    "kappa0": ([[-1.0, 0.0], [0.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]]),
    "gamma0": ([[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]),
    "chi": ([[-1.0, 1.0], [1.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]]),
    "dchi": ([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
    "kappa": ([[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]),
    "gamma": ([[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [0.0, -0.5]]),
}


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
    a = np.array([_DQ[p][0] for p in names])[..., None]
    b = np.array([_DQ[p][1] for p in names])[..., None]
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


# Simplex evaluations per free parameter before the trust-region phase.
# Trust-region descents straight from the Sobol starts often settle in the
# sign-flipped chi + dchi basin; a short bounded Nelder-Mead walk first
# moves most starts out of it.  The walk is a fixed budget, not a
# tolerance: least squares does the converging.
SIMPLEX_EVALS_PER_PARAM = 10


def fit_parameters(data: ResponseSpectra, model: FitModel, starts: int = 16, seed: int = 0) -> FitResult:
    """Multi-start bounded least squares over the free parameters.

    Starts come from a scrambled Sobol sequence inside the bounds, seeded.
    Each runs a short bounded Nelder-Mead walk, then the trust-region
    reflective least-squares method (Branch, Coleman and Li, 1999) on the
    exact Jacobian of the magnitudes.  The winner is the (residual, then
    lexicographic-parameter) minimum, so results are reproducible.
    """
    from scipy.optimize import least_squares, minimize  # imported here so synthesis alone loads no scipy
    from scipy.stats import qmc

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

    # Scrambled low-discrepancy starts cover the box far more evenly than
    # iid draws, which matters when a secondary least-squares basin exists.
    sobol = qmc.Sobol(d=len(model.free), scramble=True, seed=seed)
    draw = sobol.random(int(2 ** np.ceil(np.log2(max(starts, 2)))))[:starts]
    start_points = lo + (hi - lo) * draw

    nm_options = {"maxfev": SIMPLEX_EVALS_PER_PARAM * len(model.free)}
    best = []
    f_init_best = min(f(s) for s in start_points)
    for s in start_points:
        walk = minimize(f, s, method="Nelder-Mead", bounds=list(zip(lo, hi)), options=nm_options)
        res = least_squares(
            residuals, walk.x, jac=jacobian, bounds=(lo, hi), method="trf", x_scale="jac",
            ftol=1e-15, xtol=1e-15, gtol=1e-15,
        )
        best.append((f(res.x), tuple(res.x)))
    best.sort(key=lambda t: (t[0], t[1]))
    fx, x = best[0]
    x = np.array(x)
    if fx >= f_init_best:
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
