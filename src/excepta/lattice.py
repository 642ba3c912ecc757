"""3D lattice bands, the analytic chain point, and needle-pulse dynamics.

The Bloch problem is a 2x2 QMP per wavevector.  On the ky axis the chain
point of the exceptional-line network has a closed-form location; around
it the real parts of the two positive-frequency bands cross linearly along
kz and the imaginary parts along kx.  A wavepacket built from both bands
around that point splits into two counter-propagating pulses whose
transverse growth is set by the imaginary-band edge of the truncation
window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .models import LatticeParams, builder, coefficients
from .numkernel import NumericalError
from .qep import close_neighbours, csv_text, pf_bands, pf_omegas, simple_vectors, solve
from .topology import match_band_grid
from .tracer import newton_on_line

BOUNDARY_TOL = 1e-6


class ChainPointError(ValueError, NumericalError):
    """The closed form has no solution on the ky axis for these parameters."""


def chain_point_coords(p: LatticeParams) -> np.ndarray:
    """Closed-form chain-point wavevector (0, ky, 0).

    On the ky axis the two PF bands collide where the transverse coupling
    matches the damping: cx = gamma * sqrt(c0/m - gamma^2/(4 m^2)) with
    c0 = kappa0 + kappa1 + kappa2 + 4 chi and
    cx = kappa1 + kappa2 + 4 chi cos ky, giving

        ky = arccos[ (-(kappa1+kappa2) + gamma sqrt(c0/m - gamma^2/(4m^2))) / (4 chi) ]
    """
    c0 = p.kappa0 + p.kappa1 + p.kappa2 + 4.0 * p.chi
    inner = c0 / p.m - p.gamma**2 / (4.0 * p.m**2)
    if inner < 0:
        raise ChainPointError("no chain point on this axis for these parameters")
    arg = (-(p.kappa1 + p.kappa2) + p.gamma * np.sqrt(inner)) / (4.0 * p.chi)
    if abs(arg) > 1.0:
        raise ChainPointError("no chain point on this axis for these parameters")
    return np.array([0.0, float(np.arccos(arg)), 0.0])


@dataclass(frozen=True)
class BandField:
    """PF bands tracked over a fixed-ky (kx, kz) grid.

    `bad_cells` marks grid nodes whose sorted spectrum has a frequency
    cluster (a pair of `qep.close_neighbours`), where band identity is
    ambiguous: EL punctures of the slice.  `vectors`, the (nx, nz, 2, 2)
    right eigenvectors (band, component), is made by `_vectors()` on first
    access, so frequency-only callers never compute it.
    """

    kx: np.ndarray
    kz: np.ndarray
    ky: float
    omegas: np.ndarray  # (nx, nz, 2), column-continuous
    bad_cells: tuple[tuple[int, int], ...]
    _vectors: Callable = field(repr=False, compare=False)

    @cached_property
    def vectors(self) -> np.ndarray:
        return self._vectors()


def band_slice(
    p: LatticeParams,
    ky: float,
    grid: tuple[int, int] = (32, 32),
    window: tuple = ((-np.pi, np.pi), (-np.pi, np.pi)),
) -> BandField:
    """Track the two PF bands over a (kx, kz) grid at fixed ky.

    Rows are matched left-to-right and each row to the one before it by
    minimal |delta omega| (`topology.match_band_grid`, the `match_bands`
    scan as whole-grid array operations); nodes with a frequency cluster are
    recorded in bad_cells rather than aborting.  One table holds the model
    over the grid, and solves, sorts and gap-tests it in one stacked call
    each; the loop solves each node's view for its PF frequencies only, and
    keeps a node's `Spectrum` only where the table's sorted row has a
    frequency cluster.  On first access to `vectors`, the eigenvectors of
    every tracked band come from one stacked SVD of the table, and a node
    with a frequency cluster (an EP puncture) takes its vectors from its
    own `pf_bands` instead.
    """
    nx, nz = grid
    if nx < 2 or nz < 2:
        raise ValueError("grid must be at least 2 x 2")
    (kx0, kx1), (kz0, kz1) = window
    kxs = np.linspace(kx0, kx1, nx)
    kzs = np.linspace(kz0, kz1, nz)
    kx, kz = np.meshgrid(kxs, kzs, indexing="ij")
    table = coefficients(p, np.stack([kx, np.full_like(kx, ky), kz], axis=-1))
    pf = np.empty((nx * nz, 2), dtype=complex)
    clustered = {}  # cell -> spectrum
    for k, cluster in enumerate(close_neighbours(table.eigenvalues).any(-1).tolist()):
        spectrum = solve(table.qmp(k))
        pf[k] = pf_omegas(spectrum)
        if cluster:
            clustered[divmod(k, nz)] = spectrum
    pf = pf.reshape(nx, nz, 2)
    swapped = match_band_grid(pf)
    omegas = np.where(swapped[..., None], pf[..., ::-1], pf)

    node = (nx, nz, 1, 2, 2)
    mass, stiffness, damping = table.mass, table.stiffness.reshape(node), table.damping.reshape(node)

    def vectors() -> np.ndarray:
        v = simple_vectors(mass, stiffness, damping, omegas)
        for cell, spectrum in clustered.items():
            right = np.array([pair.right for pair in pf_bands(spectrum)])
            v[cell] = right[::-1] if swapped[cell] else right
        return v

    return BandField(kx=kxs, kz=kzs, ky=ky, omegas=omegas, bad_cells=tuple(clustered), _vectors=vectors)


def crossing_slopes(p: LatticeParams, center, axis: str, half_range: float, n: int = 9):
    """Fitted linear rates of the PF band splitting along one coordinate axis.

    Returns (re_slope, im_slope): least-squares coefficients of
    |Re(w1 - w2)| = re_slope * |t| and likewise for the imaginary part.
    At a chain point exactly one of the two is nonzero per axis (the bands
    cross linearly in Re along kz and in Im along kx).
    """
    center = np.asarray(center, dtype=float)
    ax = {"x": 0, "y": 1, "z": 2}[axis]
    ts = np.concatenate([np.linspace(-half_range, -half_range / n, n), np.linspace(half_range / n, half_range, n)])
    ks = np.tile(center, (len(ts), 1))
    ks[:, ax] += ts
    table = coefficients(p, ks)
    split = np.array([np.subtract(*pf_omegas(solve(table.qmp(i)))) for i in range(len(ts))])
    tt = np.abs(ts)
    denom = float(np.dot(tt, tt))
    return float(np.dot(tt, np.abs(split.real)) / denom), float(np.dot(tt, np.abs(split.imag)) / denom)


def refine_chain_point_on_axis(p: LatticeParams, ky0: float, tol: float = 1e-12) -> float:
    """1D Newton zero of the (real) PF discriminant along the ky axis."""
    return float(newton_on_line(builder(p), np.zeros(3), (0.0, 1.0, 0.0), ky0, tol)[1])


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian k-space profile, hard rectangular cutoff, grid resolution.

    The initial amplitude exp(-(kx^2+kz^2)/(4 q^2)) is shared by both PF
    bands and vanishes identically outside |kx|,|kz| <= kmax/2.
    """

    q: float = 0.05 * np.pi
    kmax: float = 0.4 * np.pi
    grid: tuple[int, int] = (64, 64)

    def __post_init__(self):
        if self.q <= 0 or self.kmax <= 0:
            raise ValueError("q and kmax must be positive")
        if min(self.grid) < 8:
            raise ValueError("k-grid must be at least 8 x 8")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        nx, nz = self.grid
        half = 0.5 * self.kmax
        return np.linspace(-half, half, nx), np.linspace(-half, half, nz)

    def amplitude(self, kx: np.ndarray, kz: np.ndarray) -> np.ndarray:
        kx2 = kx[:, None] ** 2
        kz2 = kz[None, :] ** 2
        return np.exp(-(kx2 + kz2) / (4.0 * self.q**2))


@dataclass(frozen=True)
class WaveField:
    """Snapshot of the slab field as its two per-band 4-component arrays.

    Components are (u_A, u_B, du_A/dt, du_B/dt) per site.  Only the bands are
    stored, 2 x 4 x Lx x Lz complex values; `total`, their sum, is computed
    again on each access and never kept.  a_ref is the peak amplitude of the
    t = 0 field used to normalize growth curves.
    """

    t: float
    x: np.ndarray
    z: np.ndarray
    bands: tuple[np.ndarray, np.ndarray]  # each (4, Lx, Lz)
    a_ref: float
    boundary_contaminated: bool

    @property
    def total(self) -> np.ndarray:
        """The full field, bands[0] + bands[1], as a new (4, Lx, Lz) array on every access."""
        return self.bands[0] + self.bands[1]


@dataclass(frozen=True)
class PulseMetrics:
    centroid_z: float
    log_amplitude: float
    width_x: float
    width_z: float
    aspect: float


def _window_bands(p: LatticeParams, spec: WavepacketSpec) -> BandField:
    """The PF bands tracked over the k window at the chain-point ky."""
    kxs, kzs = spec.axes()
    ky = float(chain_point_coords(p)[1])
    return band_slice(p, ky, grid=spec.grid, window=((kxs[0], kxs[-1]), (kzs[0], kzs[-1])))


def _state_vectors(bands: BandField) -> tuple[np.ndarray, np.ndarray]:
    """The bands' frequencies and unit 4-component eigenvectors (psi, -i w psi), with the
    displacement gauge inherited from the solver."""
    omegas, psis = bands.omegas, bands.vectors  # (nx, nz, 2), (nx, nz, 2, 2)
    full = np.zeros((*psis.shape[:2], 2, 4), dtype=complex)
    full[..., :2] = psis
    full[..., 2:] = -1j * omegas[..., None] * psis
    full /= np.linalg.norm(full, axis=-1, keepdims=True)
    return omegas, full


def evolve_wavepacket(
    p: LatticeParams,
    spec: WavepacketSpec,
    times,
    slab: tuple[int, int] = (256, 256),
) -> list[WaveField]:
    """Spectral time evolution of the two-band wavepacket over a slab at the chain-point ky.

    Field(t; x, z) = sum_n sum_k w_k A0(k) e^{-i w_n(k) t} |Psi_n(k)> e^{i k r},
    evaluated as two matrix products per band, each stacked over the four
    components and bit-identical to one product per component (the k-sum is
    separable in x and z).  Trapezoid weights on the fixed k-grid make the
    quadrature deterministic; evolving 2 A0 gives exactly doubled fields.
    A snapshot is boundary-contaminated when its largest edge amplitude
    exceeds BOUNDARY_TOL of its peak.  Snapshots keep only their band arrays,
    and the peak and edge amplitudes of their sum are read one component or
    edge at a time, so no full-slab sum is made.
    """
    lx, lz = slab
    xs = np.arange(lx) - lx // 2
    zs = np.arange(lz) - lz // 2
    kxs, kzs = spec.axes()
    omegas, vecs = _state_vectors(_window_bands(p, spec))

    wx = np.ones(len(kxs))
    wx[0] = wx[-1] = 0.5
    wz = np.ones(len(kzs))
    wz[0] = wz[-1] = 0.5
    dk = (kxs[1] - kxs[0]) * (kzs[1] - kzs[0])
    weights = dk * np.outer(wx, wz) * spec.amplitude(kxs, kzs)

    ex = np.exp(1j * np.outer(kxs, xs))  # (nx, Lx)
    ez = np.exp(1j * np.outer(kzs, zs))  # (nz, Lz)

    def field_at(t: float):
        parts = []
        for band in range(2):
            phase = weights * np.exp(-1j * omegas[..., band] * t)
            parts.append(ex.T @ (phase * np.moveaxis(vecs[..., band, :], -1, 0)) @ ez)  # (4, Lx, Lz)
        return parts

    edges = (np.s_[:, 0, :], np.s_[:, -1, :], np.s_[:, :, 0], np.s_[:, :, -1])  # of a (4, Lx, Lz) field

    def peak(parts) -> float:
        return np.max([np.abs(parts[0][c] + parts[1][c]).max() for c in range(len(parts[0]))])

    base = field_at(0.0)
    a_ref = float(max(peak(base), 1e-300))

    out = []
    for t in times:
        parts = field_at(float(t)) if t != 0.0 else base
        edge = max(np.abs(parts[0][s] + parts[1][s]).max() for s in edges)
        contaminated = edge > BOUNDARY_TOL * peak(parts)
        out.append(
            WaveField(
                t=float(t),
                x=xs,
                z=zs,
                bands=(parts[0], parts[1]),
                a_ref=a_ref,
                boundary_contaminated=bool(contaminated),
            )
        )
    return out


def max_growth_rates(p: LatticeParams, spec: WavepacketSpec) -> tuple[float, float]:
    """Largest Im(omega) of each band over the truncation window at the chain-point ky."""
    omegas = _window_bands(p, spec).omegas
    return (
        float(omegas[..., 0].imag.max()),
        float(omegas[..., 1].imag.max()),
    )


def field_to_csv(w: WaveField) -> str:
    """Plain-text dump: x, z, then Re/Im of the 4 field components per site."""
    header = ["x", "z"] + [f"{p}_{c}" for c in ("uA", "uB", "vA", "vB") for p in ("re", "im")]
    total = w.total  # once: the property sums the bands on every access
    rows = (
        [float(x), float(z)] + [part for u in total[:, i, j] for part in (u.real, u.imag)]
        for i, x in enumerate(w.x)
        for j, z in enumerate(w.z)
    )
    return csv_text(header, rows)


def pulse_metrics(w: WaveField, band: int) -> PulseMetrics:
    """Centroid, growth, and RMS shape diagnostics of one band's pulse.

    Intensity is the displacement-component power |u_A|^2 + |u_B|^2;
    log_amplitude is ln(max|field| / a_ref); widths are RMS second moments
    along x and z and aspect their ratio.
    """
    if band not in (1, 2):
        raise ValueError("band must be 1 or 2")
    f = w.bands[band - 1]
    intensity = (np.abs(f[0]) ** 2 + np.abs(f[1]) ** 2).real
    total = intensity.sum()
    if total <= 0:
        raise ValueError("zero field")
    px = intensity.sum(axis=1) / total
    pz = intensity.sum(axis=0) / total
    cx = float(np.dot(px, w.x))
    cz = float(np.dot(pz, w.z))
    width_x = float(np.sqrt(np.dot(px, (w.x - cx) ** 2)))
    width_z = float(np.sqrt(np.dot(pz, (w.z - cz) ** 2)))
    amp = float(np.sqrt(intensity.max()))
    return PulseMetrics(
        centroid_z=cz,
        log_amplitude=float(np.log(max(amp, 1e-300) / w.a_ref)),
        width_x=width_x,
        width_z=width_z,
        aspect=width_x / width_z if width_z > 0 else np.inf,
    )
