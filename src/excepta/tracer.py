"""Locate exceptional points, trace exceptional lines, assemble chains.

The zero set of the PF discriminant is a family of curves (exceptional
lines).  On a symmetry plane the discriminant is real there, so the
in-plane zero set is a codimension-1 curve reached by a pseudo-inverse
Newton iteration; off the planes both real components vanish only on the
lines themselves.  Chain points are junctions where lines from different
planes touch; they are found by proximity of traced polylines and refined
along the high-symmetry intersection line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import topology as topo
from .numkernel import NumericalError
from .qep import VERTEX_TOL, SpectralGapError, pair_gradient, pf_omegas, solve
from .topology import circle_path, discriminant_number

# Newton iterations of one refine_ep or newton_on_line call, and the
# steepest-descent step used when the Newton step vanishes.
REFINE_MAX_ITER = 60
REFINE_STEP_FLOOR = 1e-10
# Components of the exact gradient of D+ below this fraction of its norm are
# treated as zero: a component that vanishes by symmetry is rounding noise
# about eps times the norm, far below it.
GRADIENT_RTOL = 1e-9
# Smallest |c.t| / (|grad Re D+| |grad Im D+|), c = grad Re D+ x grad Im D+,
# at which a vertex's local degree orients its line: the two gradients at
# least 30 degrees from parallel with the tangent within 60 degrees of c.
ORIENT_MARGIN = 0.5
# Predictor-corrector steps per direction of one trace_el march.
TRACE_MAX_STEPS = 4000


class DiabolicPointError(RuntimeError, NumericalError):
    """Degeneracy with two independent eigenvectors: not exceptional."""


class DuplicateLineError(ValueError):
    """Two lines given to assemble_chain trace the same exceptional line."""


class RefineError(RuntimeError, NumericalError):
    """Newton + fallback failed to reach the discriminant zero set."""

    def __init__(self, message, point=None, value=None):
        super().__init__(message)
        self.point = point
        self.value = value


@dataclass(frozen=True)
class PlaneSpec:
    """Affine 2-plane origin + a*u + b*v with a label for bookkeeping."""

    origin: np.ndarray
    u: np.ndarray
    v: np.ndarray
    tag: str = "free"

    def __post_init__(self):
        for name in ("origin", "u", "v"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def point(self, a: float, b: float) -> np.ndarray:
        return self.origin + a * self.u + b * self.v

    def coords(self, point) -> np.ndarray:
        rel = np.asarray(point, dtype=float) - self.origin
        basis = np.stack([self.u, self.v], axis=1)
        sol, *_ = np.linalg.lstsq(basis, rel, rcond=None)
        return sol


def plane_gamma0() -> PlaneSpec:
    return PlaneSpec(origin=np.zeros(3), u=np.array([0.0, 1.0, 0.0]), v=np.array([0.0, 0.0, 1.0]), tag="gamma=0")


def plane_kappa0() -> PlaneSpec:
    return PlaneSpec(origin=np.zeros(3), u=np.array([1.0, 0.0, 0.0]), v=np.array([0.0, 1.0, 0.0]), tag="kappa=0")


def plane_oblique(gamma0: float, m0: float = 1.0) -> PlaneSpec:
    """Plane kappa = gamma0 gamma / (2 m0) spanned by chi and the tilted axis."""
    slope = gamma0 / (2.0 * m0)
    u = np.array([1.0, 0.0, slope])
    return PlaneSpec(origin=np.zeros(3), u=u / np.linalg.norm(u), v=np.array([0.0, 1.0, 0.0]), tag="kappa=g0*gamma/2m0")


def plane_wavevector(axis: str, value: float = 0.0) -> PlaneSpec:
    """Constant-k_i plane of the Brillouin zone, e.g. plane_wavevector('x')."""
    axes = {"x": 0, "y": 1, "z": 2}
    if axis not in axes:
        raise ValueError("axis must be one of 'x', 'y', 'z'")
    i = axes[axis]
    origin = np.zeros(3)
    origin[i] = value
    u = np.zeros(3)
    v = np.zeros(3)
    u[(i + 1) % 3] = 1.0
    v[(i + 2) % 3] = 1.0
    return PlaneSpec(origin=origin, u=u, v=v, tag=f"k{axis}={value:g}")


@dataclass(frozen=True)
class CandidateCell:
    index: tuple[int, int]
    center: np.ndarray
    min_delta: float
    min_separation: float


def scan_plane(build, plane: PlaneSpec, grid: tuple[int, int], window) -> list[CandidateCell]:
    """Grid search for EP-bearing cells on a plane window.

    A cell is a candidate when the PF band separation at some corner drops
    below 5% of the window's median, when it holds a local minimum of
    |discriminant| below 1e-3 of the median, or when the real part of the
    discriminant changes sign across its corners while staying small (on a
    symmetry plane the discriminant is real, so that pins a zero crossing
    at any grid resolution).  Far from all lines nothing is flagged.
    """
    n1, n2 = grid
    if n1 < 16 or n2 < 16:
        raise ValueError("scan grid must be at least 16 x 16")
    (a0, a1), (b0, b1) = window
    avals = np.linspace(a0, a1, n1 + 1)
    bvals = np.linspace(b0, b1, n2 + 1)
    sep = np.full((n1 + 1, n2 + 1), np.inf)
    delta = np.full((n1 + 1, n2 + 1), np.inf)
    re_delta = np.full((n1 + 1, n2 + 1), np.nan)
    # The grid as one table, row-major in (a, b); each node is plane.point(a, b) bit for bit.
    a, b = (x.reshape(-1, 1) for x in np.meshgrid(avals, bvals, indexing="ij"))
    for (i, j), spectrum in zip(np.ndindex(sep.shape), solve(build(plane.origin + a * plane.u + b * plane.v))):
        if not spectrum.pf_gap_ok:
            continue  # gapless node: no PF statistics there
        sep[i, j] = topo.min_separation(pf_omegas(spectrum))
        disc = topo.pf_discriminant(spectrum)
        delta[i, j] = abs(disc)
        re_delta[i, j] = disc.real
    finite = np.isfinite(sep)
    if not np.any(finite):
        return []
    sep_thresh = 0.05 * np.median(sep[finite])
    delta_med = np.median(delta[finite])
    delta_small = 0.5 * delta_med

    local_min = np.ones_like(delta, dtype=bool)
    for shift_ax, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        rolled = np.roll(delta, shift, axis=shift_ax)
        if shift == 1:
            rolled[(0,) if shift_ax == 0 else (slice(None), 0)] = np.inf
        else:
            rolled[(-1,) if shift_ax == 0 else (slice(None), -1)] = np.inf
        local_min &= delta <= rolled
    hot = (sep < sep_thresh) | (local_min & (delta < 1e-3 * delta_med))

    cells = []
    for i in range(n1):
        for j in range(n2):
            corner_hot = hot[i : i + 2, j : j + 2]
            block = delta[i : i + 2, j : j + 2]
            # On a symmetry plane the discriminant is real, so a corner sign
            # change pins a zero crossing inside the cell regardless of how
            # coarse the grid is.  The smallness filter keeps distant phase
            # boundaries of other band pairs from triggering.
            signs = np.sign(re_delta[i : i + 2, j : j + 2])
            sign_change = np.isfinite(block).all() and signs.max() > 0 > signs.min()
            if np.any(corner_hot) or (sign_change and block.min() < delta_small):
                cells.append(
                    CandidateCell(
                        index=(i, j),
                        center=plane.point(
                            0.5 * (avals[i] + avals[i + 1]), 0.5 * (bvals[j] + bvals[j + 1])
                        ),
                        min_delta=float(block.min()),
                        min_separation=float(sep[i : i + 2, j : j + 2].min()),
                    )
                )
    return cells


def _solve_at(build, point):
    """Spectrum at one point, from a QMP that carries its point derivatives."""
    q = build(np.asarray(point, dtype=float))
    if q.derivatives is None:
        raise ValueError("the builder's QMP carries no point derivatives (see models.builder)")
    return solve(q)


def _gradient(spectrum) -> np.ndarray:
    """Complex gradient of D+ over the 3 point coordinates at a solved point."""
    return pair_gradient(spectrum, spectrum.qmp.derivatives())


def _basis(plane: PlaneSpec | None) -> np.ndarray:
    """(3, d) map from local coordinates to point displacements."""
    return np.eye(3) if plane is None else np.stack([plane.u, plane.v], axis=1)


def refine_ep(
    build,
    seed,
    plane: PlaneSpec | None = None,
    delta_tol: float = 1e-12,
    check_coalescence: bool = True,
) -> np.ndarray:
    """Damped Newton root-solve of (Re D+, Im D+) = 0 from a candidate seed.

    The Jacobian at each iterate is the exact pair gradient of D+
    (`qep.pair_gradient`) at the spectrum already solved there, so one
    Newton step costs the solves of its damping trials and nothing more.
    In-plane the second component vanishes identically, so the
    pseudo-inverse step lands on the nearest point of the zero curve.
    Stagnating Newton falls back to steepest descent of |D+|^2.  With
    check_coalescence the converged PF pair must be among the final
    spectrum's `ep_clusters`, which separates exceptional from diabolic
    degeneracies.  The builder's QMPs must carry point derivatives
    (ValueError otherwise).
    """
    seed = np.asarray(seed, dtype=float)
    basis = _basis(plane)
    if plane is not None:
        x = plane.coords(seed)
        to_point = lambda x: plane.point(x[0], x[1])
    else:
        x = seed.copy()
        to_point = lambda x: x

    def evaluate(x):
        """(|D+|, D+, spectrum) at x; |D+| is inf where the line gap closes."""
        spectrum = _solve_at(build, to_point(x))
        try:
            d = topo.pf_discriminant(spectrum)
        except SpectralGapError:
            return np.inf, None, spectrum
        return abs(d), d, spectrum

    current, d, spectrum = evaluate(x)
    if not np.isfinite(current):
        raise RefineError("seed lies outside the line-gapped region", point=seed)
    for _ in range(REFINE_MAX_ITER):
        if current < delta_tol:
            break
        f0 = np.array([d.real, d.imag])
        grad = _gradient(spectrum) @ basis
        jac = np.array([grad.real, grad.imag])
        # On a symmetry plane Im D+ vanishes identically and its gradient row
        # is rounding noise.  The cutoff drops that row, so the step solves
        # only Re D+ = 0 and lands on the nearest point of the zero curve
        # instead of following the noise.
        step = -np.linalg.pinv(jac, rcond=GRADIENT_RTOL) @ f0
        accepted = False
        for damp in (1.0, 0.5, 0.25, 0.125, 1 / 16, 1 / 32, 1 / 64):
            trial = x + damp * step
            evaluated = evaluate(trial)
            if evaluated[0] < current:
                x, (current, d, spectrum) = trial, evaluated
                accepted = True
                break
        if not accepted:
            # Steepest descent of |D|^2 along -J^T f, bisected.
            direction = -jac.T @ f0
            norm = np.linalg.norm(direction)
            if norm == 0:
                break
            direction /= norm
            scale = np.linalg.norm(step) or REFINE_STEP_FLOOR
            for damp in (1.0, 0.5, 0.25, 0.125, 1 / 16, 1 / 32):
                trial = x + damp * scale * direction
                evaluated = evaluate(trial)
                if evaluated[0] < current:
                    x, (current, d, spectrum) = trial, evaluated
                    accepted = True
                    break
            if not accepted:
                break
    if current >= delta_tol:
        raise RefineError(
            f"EP refinement stalled at |D+| = {current:.3e}", point=to_point(x), value=current
        )
    point = to_point(x)
    if check_coalescence:
        pf = spectrum.omegas.real > 0
        if not any(pf[i] and pf[j] for i, j in spectrum.ep_clusters):
            raise DiabolicPointError(
                f"degeneracy at {point} keeps a two-dimensional nullspace (diabolic): not exceptional"
            )
    return np.asarray(point, dtype=float)


@dataclass(frozen=True)
class ExceptionalLine:
    """Oriented polyline of order-2 exceptional points."""

    polyline: np.ndarray
    closed: bool
    plane_tag: str
    orientation: int = 0

    def __post_init__(self):
        object.__setattr__(self, "polyline", np.atleast_2d(np.asarray(self.polyline, dtype=float)))

    @property
    def midpoint_index(self) -> int:
        return len(self.polyline) // 2

    def tangent_at(self, idx: int) -> np.ndarray:
        pts = self.polyline
        lo = max(0, idx - 1)
        hi = min(len(pts) - 1, idx + 1)
        t = pts[hi] - pts[lo]
        return t / np.linalg.norm(t)


def _tangent_from_jacobian(build, point, plane):
    """Unit null direction of the exact (Re D+, Im D+) Jacobian at `point`."""
    basis = _basis(plane)
    grad = _gradient(_solve_at(build, point)) @ basis
    _, _, vh = np.linalg.svd(np.array([grad.real, grad.imag]))
    t = basis @ vh[-1]
    return t / np.linalg.norm(t)


def probe_orientation(build, point, tangent, radius: float, n: int = 64) -> int:
    """Right-hand-rule orientation of the line through `point` along `tangent`.

    A counterclockwise probe loop about the tangent carries PFDN +1 when
    the directed line follows the tangent, -1 when it opposes it.
    """
    loop = circle_path(point, tangent, radius, n)
    val = discriminant_number(build, loop)
    rounded = int(round(val))
    if rounded not in (-1, 1) or abs(val - rounded) > topo.QUANTIZATION_TOL:
        raise RefineError(f"probe loop PFDN {val} does not identify a single line")
    return rounded


def _orient(build, line: ExceptionalLine, radius: float) -> ExceptionalLine:
    """`line` oriented by its local degree sign((grad Re D+ x grad Im D+) . t).

    Near a simple line D+ is linear across it, so a counterclockwise loop
    about t winds D+ by sign(c . t), c = grad Re D+ x grad Im D+ (the 3-D
    gradient, also for lines in a plane): the PFDN `probe_orientation`
    reads, from one solve.  The walk goes outwards from the midpoint to the
    first vertex whose margin |c . t| / (|grad Re D+| |grad Im D+|) clears
    ORIENT_MARGIN; next to a chain point, where the lines meeting there make
    D+ vanish to higher order, the margin falls.  If no vertex clears it,
    probe loops of `radius` orient the line, walking outwards in the same
    order to the first vertex that gives PFDN +-1.
    """
    mid = line.midpoint_index
    order = sorted(range(len(line.polyline)), key=lambda i: (abs(i - mid), i))
    for idx in order:
        try:
            grad = _gradient(_solve_at(build, line.polyline[idx]))
        except SpectralGapError:
            continue
        c = np.cross(grad.real, grad.imag)
        ct = float(c @ line.tangent_at(idx))
        if abs(ct) > ORIENT_MARGIN * np.linalg.norm(grad.real) * np.linalg.norm(grad.imag):
            return replace(line, orientation=1 if ct > 0 else -1)
    failure = None
    for idx in order:
        try:
            sign = probe_orientation(build, line.polyline[idx], line.tangent_at(idx), radius=radius)
        except RefineError as exc:
            failure = failure or exc
            continue
        return replace(line, orientation=sign)
    raise failure


def _in_window(point, window) -> bool:
    lo, hi = window
    p = np.asarray(point, dtype=float)
    return bool(np.all(p >= np.asarray(lo) - 1e-12) and np.all(p <= np.asarray(hi) + 1e-12))


def _segment_point_distance(a, b, p) -> float:
    ab = b - a
    denom = float(np.dot(ab, ab))
    t = 0.0 if denom == 0 else float(np.clip(np.dot(p - a, ab) / denom, 0.0, 1.0))
    return float(np.linalg.norm(a + t * ab - p))


def trace_el(
    build,
    start,
    step: float,
    window,
    plane: PlaneSpec | None = None,
) -> ExceptionalLine:
    """Predictor-corrector continuation of an exceptional line.

    Stops on loop closure (a new segment passing the start point) or when
    leaving the axis-aligned `window` (lo, hi).  Open traces run both
    directions from the start and are concatenated.  The launch tangent is
    the null direction of the exact Jacobian at the refined start, every
    vertex is corrector-refined to |D+| < VERTEX_TOL by `refine_ep`'s
    Newton, and `_orient` orients the line from the pair gradient at one
    vertex (probe loops of radius 3 * step only as its fallback).
    """
    start = refine_ep(build, start, plane=plane, check_coalescence=False)
    launch = _tangent_from_jacobian(build, start, plane)

    def march(direction_sign):
        pts = [start]
        # Jacobian tangent to launch, secant tangents while marching; the
        # corrector keeps the polyline on the zero set either way.
        tangent = launch * direction_sign
        for _ in range(TRACE_MAX_STEPS):
            current = pts[-1]
            local_step = step
            for _ in range(7):
                predictor = current + local_step * tangent
                try:
                    corrected = refine_ep(
                        build, predictor, plane=plane, delta_tol=VERTEX_TOL * 1e-2,
                        check_coalescence=False,
                    )
                    if np.linalg.norm(corrected - current) > 1e-3 * step:
                        break
                except RefineError:
                    pass
                local_step *= 0.5
            else:
                return pts, False
            if not _in_window(corrected, window):
                return pts, False
            new_tangent = corrected - current
            new_tangent = new_tangent / np.linalg.norm(new_tangent)
            if np.dot(new_tangent, tangent) < 0:
                new_tangent = -new_tangent
            closing = len(pts) > 8 and _segment_point_distance(current, corrected, start) < 0.6 * step
            pts.append(corrected)
            tangent = new_tangent
            if closing:
                return pts, True
        return pts, False

    forward, closed = march(+1.0)
    if closed:
        polyline = np.array(forward[:-1]) if np.linalg.norm(forward[-1] - start) < 0.5 * step else np.array(forward)
        line = ExceptionalLine(polyline=polyline, closed=True, plane_tag=plane.tag if plane else "free")
    else:
        backward, _ = march(-1.0)
        polyline = np.array(backward[::-1] + forward[1:])
        line = ExceptionalLine(polyline=polyline, closed=False, plane_tag=plane.tag if plane else "free")
    return _orient(build, line, 3.0 * step)


@dataclass(frozen=True)
class ChainNode:
    position: np.ndarray
    n_in: int
    n_out: int

    @property
    def balanced(self) -> bool:
        return self.n_in == self.n_out


@dataclass(frozen=True)
class GraphEdge:
    line: ExceptionalLine
    start_node: int | None
    end_node: int | None


@dataclass(frozen=True)
class ChainGraph:
    nodes: tuple[ChainNode, ...]
    edges: tuple[GraphEdge, ...]
    valid: bool
    unbalanced: tuple[int, ...] = ()


def _closest_approach(a: np.ndarray, b: np.ndarray):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    i, j = np.unravel_index(np.argmin(d), d.shape)
    return d[i, j], i, j


def newton_on_line(build, origin, direction, t0, tol=1e-12):
    """1-D Newton for the zero of Re D+ on the line origin + t * direction.

    The slope d Re D+ / dt is the pair gradient of D+ along the direction, at
    the spectrum solved for the iterate, so each iteration is one solve.
    Returns the point once a step falls below tol * (1 + |t|).  Raises
    RefineError with the iterate's point and |D+| when the slope is zero
    (at most GRADIENT_RTOL |grad D+|) or not finite, when the line gap
    closes, or when REFINE_MAX_ITER iterations pass without convergence.
    """
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    origin = np.asarray(origin, dtype=float)
    t = float(t0)
    for _ in range(REFINE_MAX_ITER):
        point = origin + t * direction
        spectrum = _solve_at(build, point)
        try:
            d = topo.pf_discriminant(spectrum)
        except SpectralGapError as exc:
            raise RefineError(f"Newton on the line left the line-gapped region at {point}", point=point) from exc
        grad = _gradient(spectrum)
        slope = float((grad @ direction).real)
        if not (np.isfinite(slope) and abs(slope) > GRADIENT_RTOL * np.linalg.norm(grad)):
            raise RefineError(f"discriminant slope {slope} along the line gives no Newton step",
                              point=point, value=abs(d))
        step = -d.real / slope
        t += step
        if abs(step) < tol * (1.0 + abs(t)):
            return origin + t * direction
    raise RefineError(f"Newton on the line did not converge in {REFINE_MAX_ITER} iterations",
                      point=point, value=abs(d))


def _distance_to_line(points: np.ndarray, line: ExceptionalLine) -> np.ndarray:
    """Distance from each point to the nearest segment of `line`."""
    a = line.polyline
    # Segment ends; a closed line has the one back to its start, and a lone
    # vertex is a segment of length zero.
    b = np.roll(a, -1, axis=0) if line.closed or len(a) == 1 else a[1:]
    ab, rel = b - a[: len(b)], points[:, None, :] - a[None, : len(b), :]
    t = np.einsum("psk,sk->ps", rel, ab) / np.maximum(np.einsum("sk,sk->s", ab, ab), np.finfo(float).tiny)
    return np.linalg.norm(rel - np.clip(t, 0.0, 1.0)[..., None] * ab, axis=2).min(axis=1)


def _split_polyline(line: ExceptionalLine, hits: list[tuple[int, np.ndarray]]) -> list[tuple[np.ndarray, int | None, int | None]]:
    """Cut a polyline at (vertex index, node id) hits; returns (pts, start_node, end_node)."""
    pts = line.polyline
    if not hits:
        return [(pts, None, None)]
    hits = sorted(hits, key=lambda h: h[0])
    pieces = []
    if line.closed:
        order = [h[0] for h in hits]
        ids = [h[1] for h in hits]
        for a in range(len(hits)):
            b = (a + 1) % len(hits)
            ia, ib = order[a], order[b]
            if b == 0:
                seg = np.vstack([pts[ia:], pts[: ib + 1]])
            else:
                seg = pts[ia : ib + 1]
            pieces.append((seg, ids[a], ids[b]))
    else:
        prev_idx, prev_node = 0, None
        for idx, node in hits:
            seg = pts[prev_idx : idx + 1]
            if len(seg) >= 2:
                pieces.append((seg, prev_node, node))
            prev_idx, prev_node = idx, node
        tail = pts[prev_idx:]
        if len(tail) >= 2:
            pieces.append((tail, prev_node, None))
    return pieces


def assemble_chain(
    build,
    edges: list[ExceptionalLine],
    junction_tol: float,
    refine_line: tuple | None = None,
) -> ChainGraph:
    """Merge traced lines into a junction graph with flux bookkeeping.

    Junction nodes come from closest approaches (and endpoint collisions)
    between distinct lines within `junction_tol`; optionally each node is
    re-refined along a given high-symmetry line (origin, direction).  Edges
    are split at the nodes, re-oriented by `_orient` (local degree near their
    midpoints; probe loops of radius three median steps only as its
    fallback), and each node's in/out counts are compared;
    an unbalanced node flags the graph invalid, which is the detection
    mechanism for broken symmetry.
    Raises DuplicateLineError when all vertices of one input line lie within
    half a step of another, i.e. the same line was traced twice, and
    RefineError when a node refined along the line moves more than
    2 * junction_tol from its candidate.
    """
    median_step = float(np.median([np.median(np.linalg.norm(np.diff(l.polyline, axis=0), axis=1)) for l in edges]))
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            pa, pb = edges[a], edges[b]
            gap = min(_distance_to_line(pa.polyline, pb).max(), _distance_to_line(pb.polyline, pa).max())
            if gap < 0.5 * median_step:
                raise DuplicateLineError(f"lines {a} and {b} trace the same exceptional line")
    # Stable sorts on keys that solver noise cannot move: lines by plane tag
    # (then input order), nodes by rounded position.
    lines = sorted(edges, key=lambda e: e.plane_tag)
    # Collect junction candidate positions from pairwise closest approaches.
    candidates = []
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            dist, i, j = _closest_approach(lines[a].polyline, lines[b].polyline)
            if dist < junction_tol:
                candidates.append(0.5 * (lines[a].polyline[i] + lines[b].polyline[j]))
    # Cluster candidates into node positions.
    nodes: list[np.ndarray] = []
    for c in candidates:
        for k, n in enumerate(nodes):
            if np.linalg.norm(c - n) < 2.0 * junction_tol:
                nodes[k] = 0.5 * (n + c)
                break
        else:
            nodes.append(c)
    if refine_line is not None:
        origin, direction = refine_line
        direction = np.asarray(direction, dtype=float)
        direction /= np.linalg.norm(direction)
        refined = []
        for n in nodes:
            t0 = float(np.dot(n - np.asarray(origin, dtype=float), direction))
            node = newton_on_line(build, origin, direction, t0)
            if np.linalg.norm(node - n) > 2.0 * junction_tol:
                raise RefineError(
                    f"chain node refined along the line moved {np.linalg.norm(node - n):.3e} from its candidate "
                    f"{n}, more than 2 * junction_tol", point=node,
                )
            refined.append(node)
        nodes = refined
    nodes.sort(key=lambda n: tuple(np.round(n, 6)))

    # Split the edges at the nodes and snap the cut vertices.
    graph_edges: list[GraphEdge] = []
    for line in lines:
        hits = []
        for node_id, node in enumerate(nodes):
            d = np.linalg.norm(line.polyline - node, axis=1)
            idx = int(np.argmin(d))
            if d[idx] < 2.0 * junction_tol:
                hits.append((idx, node_id))
        pieces = _split_polyline(line, hits)
        for pts, start_node, end_node in pieces:
            pts = pts.copy()
            if start_node is not None:
                pts[0] = nodes[start_node]
            if end_node is not None:
                pts[-1] = nodes[end_node]
            sub = ExceptionalLine(
                polyline=pts,
                closed=line.closed and start_node is None and end_node is None,
                plane_tag=line.plane_tag,
            )
            sub = _orient(build, sub, 3.0 * median_step)
            graph_edges.append(GraphEdge(line=sub, start_node=start_node, end_node=end_node))

    # Flux bookkeeping per node.
    counts = [[0, 0] for _ in nodes]
    for ge in graph_edges:
        if ge.end_node is not None:
            counts[ge.end_node][0 if ge.line.orientation > 0 else 1] += 1
        if ge.start_node is not None:
            counts[ge.start_node][1 if ge.line.orientation > 0 else 0] += 1
    chain_nodes = tuple(
        ChainNode(position=np.asarray(n), n_in=c[0], n_out=c[1]) for n, c in zip(nodes, counts)
    )
    unbalanced = tuple(k for k, n in enumerate(chain_nodes) if not n.balanced)
    return ChainGraph(
        nodes=chain_nodes,
        edges=tuple(graph_edges),
        valid=len(unbalanced) == 0,
        unbalanced=unbalanced,
    )
