import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment


def multiset_distance(a, b) -> float:
    """Max matched distance between two complex multisets (optimal assignment)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.shape == b.shape
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def frequency_clusters(omegas) -> list[list[int]]:
    """Index groups of sorted eigenfrequencies closer than EP_OMEGA_RTOL * max(1, max|w|), by Python's
    abs() over tolist(): the scalar reference of `qep.close_neighbours`, one row at a time."""
    from excepta.qep import EP_OMEGA_RTOL

    w = omegas.tolist()
    tol = EP_OMEGA_RTOL * max(1.0, *map(abs, w))
    clusters = []
    for i, v in enumerate(w):
        if clusters and abs(v - w[i - 1]) < tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


@pytest.fixture(scope="session")
def theoretical_build():
    from excepta.models import theoretical_builder

    return theoretical_builder(m0=1.0, kbar=1.0, dchi=-0.05)


# Reference copies of the per-point model constructors and their hand-written
# point derivatives, as they stood before the models became coefficient
# tables (models.coefficients); test_models checks the tables against them.
S0, SX = np.eye(2, dtype=complex), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY, SZ = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex), np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_D_GAMMA, _D_CHI, _D_KAPPA = np.eye(3)[:, :, None, None]


def reference_theoretical(p, g):
    gamma, chi, kappa = np.asarray(g, dtype=float)
    k = np.array([[p.kbar + kappa / 2.0, -chi], [-chi - p.dchi, p.kbar - kappa / 2.0]], dtype=complex)
    damping = np.diag([gamma / 2.0, -gamma / 2.0]).astype(complex)
    derivatives = (_D_CHI * np.array([[0.0, -1.0], [-1.0, 0.0]]) + _D_KAPPA * (0.5 * SZ), _D_GAMMA * (0.5 * SZ))
    return (p.m0 * S0, k, damping), derivatives


def reference_experimental(p, g):
    gamma, chi, kappa = np.asarray(g, dtype=float)
    k = np.array([[p.kappa0 + chi, -chi], [-chi - p.dchi, p.kappa0 - kappa + chi]], dtype=complex)
    damping = np.diag([p.gamma0 + gamma / 2.0, p.gamma0 - gamma / 2.0]).astype(complex)
    derivatives = (
        _D_CHI * np.array([[1.0, -1.0], [-1.0, 1.0]]) + _D_KAPPA * np.array([[0.0, 0.0], [0.0, -1.0]]),
        _D_GAMMA * (0.5 * SZ),
    )
    return (p.m0 * S0, k, damping), derivatives


def reference_lattice(p, k):
    kx, ky, kz = np.asarray(k, dtype=float)
    c0 = p.kappa0 + p.kappa1 + p.kappa2 + 4.0 * p.chi
    cx = p.kappa1 + p.kappa2 * np.cos(kz) + 4.0 * p.chi * np.cos(kx) * np.cos(ky)
    cy = p.kappa2 * np.sin(kz) + 4.0j * p.dchi * np.sin(kx) * np.sin(ky)
    sin, cos = np.sin([kx, ky, kz]), np.cos([kx, ky, kz])
    dcx = np.array([-4.0 * p.chi * sin[0] * cos[1], -4.0 * p.chi * cos[0] * sin[1], -p.kappa2 * sin[2]])
    dcy = np.array([4.0j * p.dchi * cos[0] * sin[1], 4.0j * p.dchi * sin[0] * cos[1], p.kappa2 * cos[2]])
    dk = -dcx[:, None, None] * SX - dcy[:, None, None] * SY
    return (p.m * S0, c0 * S0 - cx * SX - cy * SY, -p.gamma * SZ), (dk, np.zeros_like(dk))


# Reference copies of the per-point paths that `track_bands` and `scan_plane`
# replaced with one stacked build: one `build(point)` and one `solve` per
# point, each bisected target solved again.  test_point_stacks checks the
# library against them bit for bit, and test_work_counts counts their solves.
def reference_track_bands(build, path):
    from excepta import topology as topo
    from excepta.qep import pf_omegas, solve

    pts = list(path.points)
    if path.closed:
        pts = pts + [path.points[0]]
    out_points = [np.asarray(pts[0], dtype=float)]
    out_omegas = [pf_omegas(solve(build(pts[0])))]

    def extend(target, depth):
        prev_pt = out_points[-1]
        prev_w = out_omegas[-1]
        new_w = pf_omegas(solve(build(target)))
        new_w = new_w[topo.match_bands(prev_w, new_w)]
        sep = min(topo.min_separation(prev_w), topo.min_separation(new_w))
        if sep < topo.MIN_SEPARATION:
            raise topo.TrackingError(f"exceptional point lies on the path (band separation {sep:.2e})")
        jump = float(np.abs(new_w - prev_w).max())
        if jump > topo.JUMP_FRACTION * sep and not bool(np.all(target == prev_pt)):
            if depth >= topo.MAX_BISECTIONS:
                raise topo.TrackingError("refinement exhausted without resolving band jump")
            extend(0.5 * (prev_pt + target), depth + 1)
            extend(target, depth + 1)
            return
        out_points.append(target)
        out_omegas.append(new_w)

    for target in pts[1:]:
        extend(np.asarray(target, float), 0)
    omegas = np.array(out_omegas)
    perm = topo.match_bands(omegas[-1], omegas[0]) if path.closed else np.arange(omegas.shape[1])
    return topo.TrackedBands(points=np.array(out_points), omegas=omegas, closed=path.closed, permutation=perm)


def reference_scan_plane(build, plane, grid, window):
    from excepta import topology as topo
    from excepta.qep import pf_omegas, solve
    from excepta.tracer import CandidateCell

    n1, n2 = grid
    (a0, a1), (b0, b1) = window
    avals = np.linspace(a0, a1, n1 + 1)
    bvals = np.linspace(b0, b1, n2 + 1)
    sep = np.full((n1 + 1, n2 + 1), np.inf)
    delta = np.full((n1 + 1, n2 + 1), np.inf)
    re_delta = np.full((n1 + 1, n2 + 1), np.nan)
    for i, a in enumerate(avals):
        for j, b in enumerate(bvals):
            spectrum = solve(build(plane.point(a, b)))
            if not spectrum.pf_gap_ok:
                continue
            w = pf_omegas(spectrum)
            d = np.abs(w[:, None] - w[None, :])
            np.fill_diagonal(d, np.inf)
            sep[i, j] = d.min()
            disc = topo.pf_discriminant(spectrum)
            delta[i, j] = abs(disc)
            re_delta[i, j] = disc.real
    finite = np.isfinite(sep)
    if not np.any(finite):
        return []
    sep_thresh = 0.05 * np.median(sep[finite])
    delta_med = np.median(delta[finite])
    local_min = np.ones_like(delta, dtype=bool)
    for shift_ax, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        rolled = np.roll(delta, shift, axis=shift_ax)
        edge = 0 if shift == 1 else -1
        rolled[(edge,) if shift_ax == 0 else (slice(None), edge)] = np.inf
        local_min &= delta <= rolled
    hot = (sep < sep_thresh) | (local_min & (delta < 1e-3 * delta_med))
    cells = []
    for i in range(n1):
        for j in range(n2):
            block = delta[i : i + 2, j : j + 2]
            signs = np.sign(re_delta[i : i + 2, j : j + 2])
            sign_change = np.isfinite(block).all() and signs.max() > 0 > signs.min()
            if np.any(hot[i : i + 2, j : j + 2]) or (sign_change and block.min() < 0.5 * delta_med):
                center = plane.point(0.5 * (avals[i] + avals[i + 1]), 0.5 * (bvals[j] + bvals[j + 1]))
                cells.append(CandidateCell((i, j), center, float(block.min()), float(sep[i : i + 2, j : j + 2].min())))
    return cells
