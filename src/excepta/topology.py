"""Band continuation along parameter paths and braiding/winding invariants.

The central quantities are phase windings of continuous band differences:

* energy vorticity: winding of arg(w_m - w_n) along a closed loop, in
  half-integer units;
* the PF discriminant number: winding of the product of squared
  differences of the positive-frequency (PF) bands;
* the open-arc variant, quantized only when the arc's endpoints sit on
  the high-symmetry line where the PF discriminant is real.

Windings are accumulated from principal-value increments per segment;
adaptive path refinement keeps every increment well below pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import NumericalError, min_cost_assignment
from .qep import Spectrum, pf_omegas, solve

QUANTIZATION_TOL = 1e-3
JUMP_FRACTION = 0.1
MIN_SEPARATION = 1e-8
MAX_BISECTIONS = 48
ARC_ENDPOINT_TOL = 1e-10


class TrackingError(RuntimeError, NumericalError):
    """Band continuation failed (EP on path or refinement exhausted)."""


class IsolationError(RuntimeError, NumericalError):
    """A probe loop cannot isolate a single puncture."""


@dataclass(frozen=True)
class ParameterPath:
    """Ordered polyline in the 3D parameter (or wavevector) space."""

    points: np.ndarray
    closed: bool = False

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[1] != 3:
            raise ValueError("path points must be 3-vectors")
        if len(pts) < 16:
            raise ValueError("path needs at least 16 points")
        object.__setattr__(self, "points", pts)


def _frame(normal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed orthonormal frame (u, v, n) with deterministic u choice."""
    n = np.asarray(normal, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0:
        raise ValueError("normal must be nonzero")
    n = n / norm
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(n)))] = 1.0
    u = np.cross(seed, n)
    u = u / np.linalg.norm(u)
    v = np.cross(n, u)
    return u, v, n


def circle_path(center, normal, radius: float, n: int = 64) -> ParameterPath:
    """Closed circle oriented counterclockwise about `normal` (right-hand rule)."""
    if n < 16:
        raise ValueError("need at least 16 samples on a loop")
    u, v, _ = _frame(normal)
    center = np.asarray(center, dtype=float)
    t = 2.0 * np.pi * np.arange(n) / n
    pts = center + radius * (np.outer(np.cos(t), u) + np.outer(np.sin(t), v))
    return ParameterPath(points=pts, closed=True)


def rect_path(center, u_axis, v_axis, half_u: float, half_v: float, n_per_edge: int = 16) -> ParameterPath:
    """Closed rectangle traversed counterclockwise in the (u, v) frame."""
    if n_per_edge < 4:
        raise ValueError("need at least 4 samples per edge")
    center = np.asarray(center, dtype=float)
    u = np.asarray(u_axis, dtype=float) * half_u
    v = np.asarray(v_axis, dtype=float) * half_v
    corners = [center + u + v, center - u + v, center - u - v, center + u - v]
    pts = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        for s in np.linspace(0.0, 1.0, n_per_edge, endpoint=False):
            pts.append((1 - s) * a + s * b)
    return ParameterPath(points=np.array(pts), closed=True)


def arc_path(start, end, via_direction, bulge: float, n: int = 64) -> ParameterPath:
    """Open half-ellipse from start to end bulging along via_direction."""
    if n < 16:
        raise ValueError("need at least 16 samples on an arc")
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    chord = end - start
    mid = 0.5 * (start + end)
    out = np.asarray(via_direction, dtype=float)
    out = out / np.linalg.norm(out)
    t = np.linspace(0.0, np.pi, n)
    pts = mid - 0.5 * np.cos(t)[:, None] * chord + bulge * np.sin(t)[:, None] * out
    return ParameterPath(points=pts, closed=False)


@dataclass(frozen=True)
class TrackedBands:
    """Column-continuous band frequencies along a (refined) path.

    For closed paths the final row is the starting spectrum in continued
    order, so `omegas[-1] = omegas[0][permutation]`.
    """

    points: np.ndarray
    omegas: np.ndarray
    closed: bool
    permutation: np.ndarray

    @property
    def n_bands(self) -> int:
        return self.omegas.shape[1]


def match_bands(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Column order of `new` minimizing sum |delta w|^2 against `prev`.

    Exact for up to numkernel.MAX_ASSIGNMENT bands (the PF bands of N <= 6
    oscillators); more bands raise ValueError.
    """
    return min_cost_assignment(prev, new, 2)


def _xor_scan(start: np.ndarray, flips: np.ndarray, resets: np.ndarray) -> np.ndarray:
    """Flags along the last axis: `start`, then at each later position the flag before XOR its flip,
    or False where it resets."""
    x = np.concatenate([start[..., None], flips], axis=-1)
    reset = np.concatenate([np.ones_like(x[..., :1]), resets], axis=-1)
    last = np.maximum.accumulate(np.where(reset, np.arange(x.shape[-1]), 0), axis=-1)
    count = np.cumsum(x, axis=-1)
    # The flag is the parity of the flips from the last reset on; a reset's own flip is its value.
    return (count - np.take_along_axis(count - x, last, axis=-1)) % 2 == 1


def match_band_grid(w: np.ndarray) -> np.ndarray:
    """Swap flags of two bands over an (nx, nz, 2) grid, equal to scanning it with `match_bands`.

    The scan matches each node to its left neighbour, and the first node of
    each row to the first node of the row before, each time against the
    neighbour's matched order; node (0, 0) keeps its order.  A flag is True
    where `match_bands` returns [1, 0].  For two bands no sequential pass is
    needed: an edge's bit says that its swap cost is strictly below its
    identity cost on the unmatched rows.  A swapped neighbour exchanges the
    two sums (IEEE addition is commutative), so a node's flag is its
    neighbour's XOR the bit, except that an exact tie keeps the identity and
    so resets the flag to False.  The costs repeat `min_cost_assignment`'s
    arithmetic, so the flags are exact, and non-finite costs raise ValueError
    as it does.
    """
    def edges(prev, new):
        d = prev[..., :, None] - new[..., None, :]
        cost = np.float_power(np.hypot(d.real, d.imag), 2)
        same, swap = cost[..., 0, 0] + cost[..., 1, 1], cost[..., 0, 1] + cost[..., 1, 0]
        # The total `min_cost_assignment` checks, summed in its order.
        if not np.isfinite((cost[..., 0, 0] + cost[..., 0, 1]) + (cost[..., 1, 0] + cost[..., 1, 1])).all():
            raise ValueError("assignment costs must be finite")
        return swap < same, swap == same

    first = _xor_scan(np.array(False), *edges(w[:-1, 0], w[1:, 0]))
    return _xor_scan(first, *edges(w[:, :-1], w[:, 1:]))


def min_separation(w: np.ndarray) -> float:
    """Smallest |w_i - w_j| over pairs of frequencies (inf below two), whatever their order."""
    if len(w) < 2:
        return np.inf
    diff = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


def track_bands(build, path: ParameterPath) -> TrackedBands:
    """Continue the PF bands along the path, bisecting segments adaptively.

    `build` takes a (3,) point to its QMP and a (P, 3) stack to its
    `qep.Table`.  The path's points (a closed path's start again at its
    end) are solved as one table; midpoints are solved one at a time, as the
    sequential scan needs them.  A segment is accepted once the largest
    per-band jump is below JUMP_FRACTION of the smaller endpoint band
    separation; paths passing within MIN_SEPARATION of a degeneracy raise
    TrackingError with advice to perturb the path.
    """
    pts = np.vstack([path.points, path.points[:1]]) if path.closed else path.points
    spectra = solve(build(pts))
    w, sep = _sample(next(spectra))
    out_points, out_omegas, out_seps = [pts[0]], [w], [sep]
    for target, spectrum in zip(pts[1:], spectra):
        _extend_segment(build, out_points, out_omegas, out_seps, target, _sample(spectrum), 0)

    omegas = np.array(out_omegas)
    if path.closed:
        perm = match_bands(omegas[-1], omegas[0])
    else:
        perm = np.arange(omegas.shape[1])
    return TrackedBands(
        points=np.array(out_points), omegas=omegas, closed=path.closed, permutation=perm
    )


def _sample(spectrum: Spectrum) -> tuple[np.ndarray, float]:
    """PF frequencies of a solved point and their band separation, which does not depend on band order."""
    w = pf_omegas(spectrum)
    return w, min_separation(w)


def _extend_segment(build, out_points, out_omegas, out_seps, target, sample, depth):
    """Append `target`, solved as `sample`, (and any needed midpoints) continuing the last sample."""
    prev_pt = out_points[-1]
    prev_w = out_omegas[-1]
    new_w, new_sep = sample
    new_w = new_w[match_bands(prev_w, new_w)]
    sep = min(out_seps[-1], new_sep)
    if sep < MIN_SEPARATION:
        raise TrackingError(
            "exceptional point lies on the path (band separation "
            f"{sep:.2e}); perturb the path away from it"
        )
    jump = float(np.abs(new_w - prev_w).max())
    if jump > JUMP_FRACTION * sep and not np.all(target == prev_pt):  # a repeated point needs no bisection
        if depth >= MAX_BISECTIONS:
            raise TrackingError("refinement exhausted without resolving band jump")
        mid = 0.5 * (prev_pt + target)
        _extend_segment(build, out_points, out_omegas, out_seps, mid, _sample(solve(build(mid))), depth + 1)
        _extend_segment(build, out_points, out_omegas, out_seps, target, sample, depth + 1)
        return
    out_points.append(target)
    out_omegas.append(new_w)
    out_seps.append(new_sep)


def _winding(values: np.ndarray) -> float:
    """Total unwrapped argument change / 2pi along a discrete trajectory."""
    ratio = values[1:] / values[:-1]
    inc = np.angle(ratio)
    if np.any(np.abs(inc) > 0.9 * np.pi):
        raise TrackingError("phase increment too close to pi; refine the path")
    return float(inc.sum() / (2.0 * np.pi))


def energy_vorticity(tb: TrackedBands, m: int = 0, n: int = 1) -> float:
    """Winding of arg(w_m - w_n) along a closed tracked loop, in turns.

    Half-quantized when the loop's band permutation maps the pair {m, n}
    onto itself, which always holds for two bands: twice the value then
    counts the pair's net braid exchanges.  Otherwise the difference ends
    on another pair of bands and the value need not be a half-integer: one
    loop of an N = 3 model winds by 0.592, 0.5 and 0.408 over its pairs.
    """
    if not tb.closed:
        raise ValueError("energy vorticity is defined on closed loops")
    if m == n:
        raise ValueError("bands m and n must differ")
    return _winding(tb.omegas[:, m] - tb.omegas[:, n])


def pf_discriminant(spectrum: Spectrum) -> complex:
    """Product of squared PF band differences (order-independent)."""
    return discriminant(pf_omegas(spectrum))


def discriminant(w: np.ndarray) -> complex:
    """Product of squared differences of the frequencies w (order-independent)."""
    acc = 1.0 + 0.0j
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            acc *= (w[i] - w[j]) ** 2
    return complex(acc)


def _pairwise_winding_sum(tb: TrackedBands) -> float:
    total = 0.0
    for i in range(tb.n_bands):
        for j in range(i + 1, tb.n_bands):
            total += _winding(tb.omegas[:, i] - tb.omegas[:, j])
    return total


def discriminant_number(build, path: ParameterPath) -> float:
    """Winding of the PF discriminant along a closed loop.

    Computed as twice the sum of pairwise band-difference windings, which
    keeps every per-segment increment small regardless of band count.
    """
    if not path.closed:
        raise ValueError("discriminant numbers are defined on closed loops")
    return 2.0 * _pairwise_winding_sum(track_bands(build, path))


def arc_invariant(build, arc: ParameterPath) -> float:
    """PF-discriminant winding along an open arc ending on the gamma=kappa=0 line.

    On that line the PF discriminant is real, so the accumulated phase is
    pinned to multiples of pi at both ends and the value is half-quantized;
    twice its magnitude counts chain points between the endpoints, the sign
    their chirality.  Breaking the protecting symmetries detunes the value
    off the half-integer lattice.
    """
    if arc.closed:
        raise ValueError("arc invariant wants an open path")
    for end in (arc.points[0], arc.points[-1]):
        if max(abs(end[0]), abs(end[2])) > 1e-9:
            raise ValueError("arc endpoints must lie on the gamma = kappa = 0 line")
    for label, end in zip(("start", "end"), solve(build(arc.points[[0, -1]]))):
        if abs(pf_discriminant(end)) < ARC_ENDPOINT_TOL:
            raise ValueError(f"arc {label}point is degenerate (|discriminant| < {ARC_ENDPOINT_TOL})")
    return 2.0 * _pairwise_winding_sum(track_bands(build, arc))


@dataclass(frozen=True)
class SurfaceMesh:
    """Closed oriented quad/triangle surface used by the source-free audit."""

    vertices: np.ndarray
    faces: tuple[tuple[int, ...], ...]
    kind: str

    def euler_characteristic(self) -> int:
        edges = set()
        for face in self.faces:
            for a, b in zip(face, face[1:] + face[:1]):
                edges.add((min(a, b), max(a, b)))
        return len(self.vertices) - len(edges) + len(self.faces)


@dataclass(frozen=True)
class BoxSurface:
    """Axis-aligned box; loops around punctures live in the face planes."""

    lo: np.ndarray
    hi: np.ndarray
    mesh: SurfaceMesh

    def face_of(self, point, tol=1e-8) -> tuple[int, float]:
        p = np.asarray(point, dtype=float)
        for axis in range(3):
            for side, val in ((-1.0, self.lo[axis]), (1.0, self.hi[axis])):
                if abs(p[axis] - val) < tol:
                    return axis, side
        raise ValueError("point does not lie on the box surface")

    def loop_around(self, point, radius: float, n: int = 64) -> ParameterPath:
        axis, side = self.face_of(point)
        normal = np.zeros(3)
        normal[axis] = side
        return circle_path(point, normal, radius, n)


@dataclass(frozen=True)
class SphereSurface:
    center: np.ndarray
    radius: float
    mesh: SurfaceMesh

    def loop_around(self, point, radius: float, n: int = 64) -> ParameterPath:
        p = np.asarray(point, dtype=float)
        normal = p - self.center
        flat = circle_path(p, normal, radius, n)
        # Re-project the loop onto the sphere to keep it on the surface.
        rel = flat.points - self.center
        rel *= self.radius / np.linalg.norm(rel, axis=1)[:, None]
        return ParameterPath(points=self.center + rel, closed=True)


def box_surface(lo, hi, n_per_edge: int = 8) -> BoxSurface:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        raise ValueError("box must have positive extent")
    n = max(2, n_per_edge)
    verts: list[np.ndarray] = []
    faces: list[tuple[int, ...]] = []
    index: dict[tuple[float, ...], int] = {}

    def vid(p):
        key = tuple(np.round(p, 12))
        if key not in index:
            index[key] = len(verts)
            verts.append(np.asarray(p))
        return index[key]

    for axis in range(3):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        for side_val, orient in ((lo[axis], -1), (hi[axis], 1)):
            us = np.linspace(lo[u], hi[u], n)
            vs = np.linspace(lo[v], hi[v], n)
            for i in range(n - 1):
                for j in range(n - 1):
                    quad = []
                    for du, dv in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        p = np.zeros(3)
                        p[axis] = side_val
                        p[u] = us[i + du]
                        p[v] = vs[j + dv]
                        quad.append(vid(p))
                    if orient < 0:
                        quad = quad[::-1]
                    faces.append(tuple(quad))
    mesh = SurfaceMesh(vertices=np.array(verts), faces=tuple(faces), kind="box")
    return BoxSurface(lo=lo, hi=hi, mesh=mesh)


def sphere_surface(center, radius: float, n_theta: int = 8, n_phi: int = 16) -> SphereSurface:
    center = np.asarray(center, dtype=float)
    if radius <= 0:
        raise ValueError("radius must be positive")
    verts = [center + np.array([0.0, 0.0, radius])]
    rings = []
    thetas = np.linspace(0.0, np.pi, n_theta + 1)[1:-1]
    for th in thetas:
        ring = []
        for ph in 2.0 * np.pi * np.arange(n_phi) / n_phi:
            ring.append(len(verts))
            verts.append(
                center
                + radius
                * np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
            )
        rings.append(ring)
    south = len(verts)
    verts.append(center + np.array([0.0, 0.0, -radius]))

    faces: list[tuple[int, ...]] = []
    for j in range(n_phi):
        faces.append((0, rings[0][j], rings[0][(j + 1) % n_phi]))
    for a, b in zip(rings, rings[1:]):
        for j in range(n_phi):
            jn = (j + 1) % n_phi
            faces.append((a[j], b[j], b[jn], a[jn]))
    for j in range(n_phi):
        jn = (j + 1) % n_phi
        faces.append((south, rings[-1][jn], rings[-1][j]))
    mesh = SurfaceMesh(vertices=np.array(verts), faces=tuple(faces), kind="sphere")
    return SphereSurface(center=center, radius=radius, mesh=mesh)


@dataclass(frozen=True)
class AuditResult:
    pfdns: tuple[int, ...]
    total: int


def surface_audit(build, surface, punctures, loop_radius: float | None = None, n: int = 64) -> AuditResult:
    """Sum of PF discriminant numbers of outward-oriented loops at punctures.

    The source-free contract: the total is zero on any closed surface whose
    PF/NF bands stay line-gapped.  Raises IsolationError when punctures are
    too close for the probe radius to separate them.
    """
    pts = [np.asarray(p, dtype=float) for p in punctures]
    if not pts:
        return AuditResult(pfdns=(), total=0)
    scale = float(np.linalg.norm(np.ptp(surface.mesh.vertices, axis=0)))
    if loop_radius is None:
        loop_radius = 0.05 * scale
    if len(pts) > 1:
        gaps = [np.linalg.norm(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]]
        if min(gaps) < 3.0 * loop_radius:
            raise IsolationError(
                f"puncture spacing {min(gaps):.3e} cannot isolate loops of radius "
                f"{loop_radius:.3e}; refine the mesh or shrink the radius"
            )
    pfdns = []
    for p in pts:
        loop = surface.loop_around(p, loop_radius, n)
        val = discriminant_number(build, loop)
        rounded = int(round(val))
        if abs(val - rounded) > QUANTIZATION_TOL:
            raise TrackingError(f"puncture PFDN {val} is not integer-quantized")
        pfdns.append(rounded)
    return AuditResult(pfdns=tuple(pfdns), total=int(sum(pfdns)))
