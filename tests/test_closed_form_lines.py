"""Traced exceptional lines against the closed-form lines of the theoretical model.

For the 2x2 theoretical model (M = I) write Q(w) = a(w) I + b(w) . sigma, so
det Q = u^2 - a^2 - c with u = w^2 - kbar, a = kappa/2 - i w gamma/2 and
c = chi (chi + dchi).  An exceptional point is a double root of det Q, which
puts the lines on the two symmetry planes (ROADMAP item 26):

- gamma = 0: the ring (chi + dchi/2)^2 + kappa^2/4 = dchi^2/4;
- kappa = 0: chi (chi + dchi) = kbar gamma^2/4 - gamma^4/64.

Each curve is F = 0 over the two in-plane coordinates of a point
(gamma, chi, kappa).  A point's distance to it is the first-order in-plane
distance |F| / |grad F| combined with its distance to the plane; the
curvature is that of the level set.  The tests hold the tracer to these
curves and to the chain graph they imply, whatever its step.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pytest

from excepta import tracer

DCHI, KBAR = -0.05, 1.0
WIN = (np.array([-0.3, -0.25, -0.2]), np.array([0.3, 0.3, 0.2]))
STEPS = (0.006, 0.01)


@dataclass(frozen=True)
class Curve:
    """F = 0 on the plane point[normal] = 0; `level` gives F, grad F and Hess F there.

    `kappa_max` is the largest curvature of the curve, from its closed form.
    """

    normal: int
    level: Callable
    kappa_max: float

    def _in_plane(self, point):
        point = np.asarray(point, dtype=float)
        return point[self.normal], *self.level(*np.delete(point, self.normal))

    def distance(self, point) -> float:
        off, f, grad, _ = self._in_plane(point)
        return float(np.hypot(off, abs(f) / np.linalg.norm(grad)))

    def curvature(self, point) -> float:
        _, _, grad, hess = self._in_plane(point)
        along = np.array([-grad[1], grad[0]])
        return float(abs(along @ hess @ along) / np.linalg.norm(grad) ** 3)


# The gamma = 0 ring over (chi, kappa): an ellipse with semi-axes a = |dchi|/2
# along chi and b = |dchi| along kappa, so its curvature peaks at b / a^2 =
# 4 / |dchi| at kappa = +-|dchi|.
RING = Curve(0, lambda chi, kappa: (
    (chi + DCHI / 2) ** 2 + kappa**2 / 4 - DCHI**2 / 4,
    np.array([2 * chi + DCHI, kappa / 2]),
    np.diag([2.0, 0.5]),
), 4 / abs(DCHI))
# The two kappa = 0 lines over (gamma, chi): the branches of a hyperbola-like
# curve, most curved at their vertices, the chain points at gamma = 0.
KAPPA0 = Curve(2, lambda gamma, chi: (
    chi * (chi + DCHI) - KBAR * gamma**2 / 4 + gamma**4 / 64,
    np.array([-KBAR * gamma / 2 + gamma**3 / 16, 2 * chi + DCHI]),
    np.diag([-KBAR / 2 + 3 * gamma**2 / 16, 2.0]),
), KBAR / (2 * abs(DCHI)))
# (plane, seed, curve): the three lines of configs/chain_theoretical.json, then
# the lower kappa = 0 line traced free in three dimensions.
TRACES = (
    (tracer.plane_gamma0(), (0.0, 0.049, 0.004), RING),
    (tracer.plane_kappa0(), (0.2, -0.056, 0.0), KAPPA0),
    (tracer.plane_kappa0(), (0.2, 0.106, 0.0), KAPPA0),
    (None, (0.15, -0.04, 0.0), KAPPA0),
)


@pytest.fixture(scope="module")
def traced(theoretical_build):
    """step -> the lines of TRACES at that step, each traced once for the module."""
    cache = {}

    def lines(step, count=len(TRACES)):
        for k in range(len(cache.setdefault(step, [])), count):
            plane, seed, _ = TRACES[k]
            cache[step].append(tracer.trace_el(theoretical_build, seed, step, WIN, plane=plane))
        return cache[step][:count]

    return lines


def test_closed_forms_peak_curvature():
    ring_top, ring_node, kappa0_node = (0.0, -DCHI / 2, abs(DCHI)), (0.0, 0.0, 0.0), (0.0, -DCHI, 0.0)
    assert RING.distance(ring_top) == RING.distance(ring_node) == KAPPA0.distance(kappa0_node) == 0.0
    assert RING.curvature(ring_top) == pytest.approx(RING.kappa_max) and RING.kappa_max == pytest.approx(80.0)
    # The ring is least curved at the chain points, a / b^2 = 10.
    assert RING.curvature(ring_node) == pytest.approx(10.0)
    assert KAPPA0.curvature(kappa0_node) == pytest.approx(KAPPA0.kappa_max)
    assert KAPPA0.kappa_max == pytest.approx(10.0)
    # Away from its vertices each kappa = 0 branch is less curved.
    for gamma in (0.05, 0.15, 0.3):
        for sign in (1, -1):
            chi = -DCHI / 2 + sign * np.sqrt(DCHI**2 / 4 + KBAR * gamma**2 / 4 - gamma**4 / 64)
            assert KAPPA0.distance((gamma, chi, 0.0)) < 1e-15
            assert KAPPA0.curvature((gamma, chi, 0.0)) < KAPPA0.kappa_max


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("k", range(len(TRACES)))
def test_vertices_segments_and_chords_follow_the_curve(traced, k, step):
    line, curve = traced(step)[k], TRACES[k][2]
    pts = line.polyline
    assert line.closed == (curve is RING)
    assert max(curve.distance(p) for p in pts) < 1e-8
    ends = np.vstack([pts[1:], pts[:1]]) if line.closed else pts[1:]
    lengths = np.linalg.norm(ends - pts[: len(ends)], axis=1)
    if line.closed:
        # The closing segment joins the last vertex to the start, at most 1.5 steps.
        assert lengths[-1] <= 1.5 * step
        lengths = lengths[:-1]
    assert lengths.max() <= step * (1 + 1e-6)
    # A chord of length h on a curve of curvature at most kappa_max sags by
    # about kappa_max h^2 / 8 from it; the bound allows twice that.
    sag = max(curve.distance(m) for m in 0.5 * (pts[: len(ends)] + ends))
    assert sag <= curve.kappa_max * step**2 / 4


def chain_key(graph):
    """(nodes as (chi, in, out), directed edges as (plane, from chi, to chi)), in sorted order.

    An edge runs along its polyline when its orientation is +1 and against it
    when -1; an open end has no node.
    """
    def chi(i):
        return "open" if i is None else round(float(graph.nodes[i].position[1]), 6) + 0.0

    nodes = sorted((chi(i), n.n_in, n.n_out) for i, n in enumerate(graph.nodes))
    edges = []
    for e in graph.edges:
        ends = (chi(e.start_node), chi(e.end_node))
        edges.append((e.line.plane_tag, *(ends if e.line.orientation > 0 else ends[::-1])))
    return nodes, sorted(edges, key=str)


def test_chain_graph_does_not_depend_on_the_step(theoretical_build, traced):
    keys = []
    for step in (0.004, 0.006, 0.01):
        graph = tracer.assemble_chain(
            theoretical_build, traced(step, 3), junction_tol=2 * step, refine_line=((0, 0, 0), (0, 1, 0))
        )
        assert graph.valid
        for node in graph.nodes:
            assert abs(node.position[0]) < 1e-12 and abs(node.position[2]) < 1e-12
        keys.append(chain_key(graph))
    nodes, edges = keys[0]
    assert nodes == [(0.0, 2, 2), (0.05, 2, 2)]
    # Both ring halves carry the flux from chi = -dchi to chi = 0; each kappa = 0
    # line runs in to the node at -dchi and out of the node at 0.
    assert edges == sorted([
        ("gamma=0", 0.05, 0.0), ("gamma=0", 0.05, 0.0), ("kappa=0", 0.0, "open"), ("kappa=0", 0.0, "open"),
        ("kappa=0", "open", 0.05), ("kappa=0", "open", 0.05),
    ], key=str)
    assert keys[1] == keys[0] and keys[2] == keys[0]
