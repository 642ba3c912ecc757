import csv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from excepta import lattice, models, qep, topology, tracer
from excepta import numkernel as nk

WIN = (np.array([-0.3, -0.25, -0.2]), np.array([0.3, 0.3, 0.2]))
TRACE_ER_CSV = Path(__file__).resolve().parent.parent / "goldens" / "trace_er.csv"


def pf_delta(build, point) -> complex:
    """PF discriminant at one parameter point."""
    return topology.pf_discriminant(qep.solve(build(np.asarray(point, dtype=float))))


@pytest.fixture(scope="module")
def chain_lines(theoretical_build):
    """ER plus the two in-plane lines, traced once for the whole module."""
    er = tracer.trace_el(
        theoretical_build, (0.0, 0.049, 0.004), step=0.006, window=WIN, plane=tracer.plane_gamma0()
    )
    el_b = tracer.trace_el(
        theoretical_build, (0.2, -0.056, 0.0), step=0.006, window=WIN, plane=tracer.plane_kappa0()
    )
    el_a = tracer.trace_el(
        theoretical_build, (0.2, 0.106, 0.0), step=0.006, window=WIN, plane=tracer.plane_kappa0()
    )
    return er, el_b, el_a


class TestScanPlane:
    def test_finds_in_plane_branches(self, theoretical_build):
        cells = tracer.scan_plane(
            theoretical_build, tracer.plane_kappa0(), (20, 20), ((-0.3, 0.3), (-0.15, 0.2))
        )
        assert cells
        centers = np.array([c.center for c in cells])
        # Candidates on both branches: coupling below zero and above 0.05.
        assert np.any(centers[:, 1] < 0.02)
        assert np.any(centers[:, 1] > 0.04)

    def test_far_window_empty(self, theoretical_build):
        cells = tracer.scan_plane(
            theoretical_build, tracer.plane_kappa0(), (16, 16), ((-0.25, 0.25), (0.3, 0.5))
        )
        assert cells == []

    def test_ring_on_gain_loss_plane(self, theoretical_build):
        cells = tracer.scan_plane(
            theoretical_build, tracer.plane_gamma0(), (20, 20), ((-0.1, 0.2), (-0.1, 0.1))
        )
        centers = np.array([c.center for c in cells])
        radii = np.abs(centers[:, 1] - 0.025 + 1j * centers[:, 2] / 2.0)
        # Ring radius set by the nonreciprocity: |dchi|/2.
        assert np.all(radii < 0.09)
        assert np.any(radii > 0.01)

    def test_grid_minimum(self, theoretical_build):
        with pytest.raises(ValueError):
            tracer.scan_plane(theoretical_build, tracer.plane_kappa0(), (8, 8), ((-1, 1), (-1, 1)))


class TestRefineEP:
    def test_converges_to_chain_points(self, theoretical_build):
        p1 = tracer.refine_ep(theoretical_build, (0.0, 0.012, 0.0), plane=tracer.plane_kappa0())
        p2 = tracer.refine_ep(theoretical_build, (0.0, 0.043, 0.0), plane=tracer.plane_kappa0())
        assert np.abs(p1 - [0.0, 0.0, 0.0]).max() < 1e-7
        assert np.abs(p2 - [0.0, 0.05, 0.0]).max() < 1e-7
        assert abs(pf_delta(theoretical_build, p1)) < 1e-12

    def test_rejects_diabolic_degeneracy(self):
        diabolic = models.theoretical_builder(dchi=0.0)
        with pytest.raises(tracer.DiabolicPointError):
            tracer.refine_ep(diabolic, (0.0, 0.002, 0.0), plane=tracer.plane_kappa0())

    def test_rejects_exactly_degenerate_diabolic_seed(self):
        # K = I, G = 0 at the seed: |D+| is already 0 and the splitting is 0.
        diabolic = models.theoretical_builder(dchi=0.0)
        with pytest.raises(tracer.DiabolicPointError):
            tracer.refine_ep(diabolic, (0.0, 0.0, 0.0), plane=tracer.plane_kappa0())

    def test_solve_and_refine_agree_on_traced_vertices(self):
        # configs/trace_er.json: the gamma = 0 ring of the theoretical model.
        build = models.builder(models.TheoreticalParams(dchi=-0.05))
        with TRACE_ER_CSV.open() as fh:
            vertices = [np.array([float(row[k]) for k in ("x0", "x1", "x2")]) for row in csv.DictReader(fh)]
        missed = []
        for v in vertices:
            spectrum = qep.solve(build(v))
            pf_pair = tuple(np.flatnonzero(spectrum.omegas.real > 0).tolist())
            if pf_pair not in spectrum.ep_clusters:
                missed.append(v)
            tracer.refine_ep(build, v, plane=tracer.plane_gamma0(), check_coalescence=True)
        assert len(vertices) == 50
        assert missed == []

    def test_experimental_oblique_plane_matches_dense_sweep(self):
        g0 = 0.085
        build = models.builder(models.ExperimentalParams(gamma0=g0, dchi=-0.073))
        plane = tracer.plane_oblique(g0)
        found = tracer.refine_ep(build, plane.point(0.02, 0.01), plane=plane)
        assert abs(pf_delta(build, found)) < 1e-12
        # Dense-sweep oracle: minimize the PF splitting along the plane's
        # coupling coordinate at the found tilted coordinate.  The window
        # stays within +-0.01 of the found point: a wider one can hold the
        # second exceptional line at the same tilted coordinate, whose
        # square-root cusp the grid may sample deeper.
        a = plane.coords(found)[0]
        chis = np.linspace(found[1] - 0.01, found[1] + 0.01, 161)
        splits = []
        for chi in chis:
            pf = qep.pf_bands(qep.solve(build(plane.point(a, chi))))
            splits.append(abs(pf[0].omega - pf[1].omega))
        assert abs(found[1] - chis[int(np.argmin(splits))]) < 2e-4

    def test_3d_mode_converges(self, theoretical_build):
        p = tracer.refine_ep(theoretical_build, (0.201, -0.0565, 0.001), plane=None)
        assert abs(pf_delta(theoretical_build, p)) < 1e-12
        assert abs(p[2]) < 1e-7  # lands on the kappa = 0 plane


class TestTraceEL:
    def test_ring_closes(self, chain_lines):
        er = chain_lines[0]
        assert er.closed
        assert np.abs(er.polyline[:, 0]).max() < 1e-10  # stays in gamma = 0

    def test_vertices_on_zero_set(self, theoretical_build, chain_lines):
        for line in chain_lines:
            deltas = [abs(pf_delta(theoretical_build, p)) for p in line.polyline[::5]]
            assert max(deltas) < 1e-8

    def test_open_lines_span_window(self, chain_lines):
        _, el_b, el_a = chain_lines
        for line in (el_b, el_a):
            assert not line.closed
            assert line.polyline[:, 0].min() < -0.28
            assert line.polyline[:, 0].max() > 0.28

    def test_kappa_confinement_in_free_mode(self, theoretical_build):
        win = (np.array([-0.25, -0.2, -0.12]), np.array([0.25, 0.3, 0.12]))
        line = tracer.trace_el(theoretical_build, (0.15, -0.04, 0.0), step=0.008, window=win, plane=None)
        assert np.abs(line.polyline[:, 2]).max() < 1e-8

    def test_orientation_probe_is_half_quantized(self, chain_lines):
        for line in chain_lines:
            assert line.orientation in (-1, 1)


class TestAssembleChain:
    def test_two_balanced_junctions(self, theoretical_build, chain_lines):
        graph = tracer.assemble_chain(
            theoretical_build, list(chain_lines), junction_tol=0.012, refine_line=((0, 0, 0), (0, 1, 0))
        )
        assert graph.valid
        assert len(graph.nodes) == 2
        chis = sorted(n.position[1] for n in graph.nodes)
        assert abs(chis[0] - 0.0) < 1e-8
        assert abs(chis[1] - 0.05) < 1e-8
        for node in graph.nodes:
            assert (node.n_in, node.n_out) == (2, 2)

    def test_ring_halves_reverse_orientation(self, theoretical_build, chain_lines):
        graph = tracer.assemble_chain(
            theoretical_build, list(chain_lines), junction_tol=0.012, refine_line=((0, 0, 0), (0, 1, 0))
        )
        ring_edges = [e for e in graph.edges if e.line.plane_tag == "gamma=0"]
        assert len(ring_edges) == 2
        assert ring_edges[0].line.orientation == -ring_edges[1].line.orientation

    def test_closed_ring_alone_has_no_nodes(self, theoretical_build, chain_lines):
        graph = tracer.assemble_chain(theoretical_build, [chain_lines[0]], junction_tol=0.012)
        assert len(graph.nodes) == 0
        assert len(graph.edges) == 1
        assert graph.edges[0].line.closed
        assert graph.valid

    def test_same_line_twice_rejected(self, theoretical_build, chain_lines):
        er, el_b, _ = chain_lines
        # The ring traced again from another of its vertices: same line, other vertices.
        again = tracer.trace_el(
            theoretical_build, er.polyline[len(er.polyline) // 3], step=0.006, window=WIN,
            plane=tracer.plane_gamma0(),
        )
        for lines, pair in (([er, el_b, er], "0 and 2"), ([el_b, er, again], "1 and 2")):
            with pytest.raises(tracer.DuplicateLineError, match=f"lines {pair} trace the same"):
                tracer.assemble_chain(theoretical_build, lines, junction_tol=0.012)

    def test_single_broken_symmetry_keeps_junction(self):
        # Asymmetric velocity damping (odd in gamma) breaks only the
        # swap-adjoint relation: the lines leave the kappa = 0 plane but the
        # junctions persist, displaced from the high-symmetry line.
        def build(g):
            q = models.theoretical_qmp(models.TheoreticalParams(dchi=-0.05).at(g))
            # The perturbation depends on gamma, so its derivative joins the model's.
            dk, dg = q.derivatives()
            dg = dg + np.multiply.outer([1.0, 0.0, 0.0], np.diag([0.1, 0.0]))
            return replace(q, damping=q.damping + np.diag([0.1 * g[0], 0.0]), derivatives=lambda: (dk, dg))

        win = (np.array([-0.22, -0.2, -0.12]), np.array([0.22, 0.3, 0.12]))
        er = tracer.trace_el(build, (0.0, 0.049, 0.004), step=0.006, window=win, plane=tracer.plane_gamma0())
        el_b = tracer.trace_el(build, (0.15, -0.04, 0.0), step=0.006, window=win, plane=None)
        el_a = tracer.trace_el(build, (0.15, 0.095, 0.0), step=0.006, window=win, plane=None)
        assert er.closed
        for el in (el_b, el_a):
            assert np.abs(el.polyline[:, 2]).max() > 1e-4  # genuinely off-plane
        graph = tracer.assemble_chain(build, [er, el_b, el_a], junction_tol=0.012)
        assert graph.valid
        assert len(graph.nodes) == 2
        for node in graph.nodes:
            assert (node.n_in, node.n_out) == (2, 2)

    def test_both_broken_chain_unties(self):
        # Complex coupling breaks both relations: the formerly closed ring
        # reconnects with the other lines into open curves that leave both
        # symmetry planes (the arc invariant's de-quantization is the
        # quantitative counterpart in test_topology).
        broken = models.theoretical_builder(delta_k=np.array([[0, 0.01j], [0.0, 0]]))
        win = (np.array([-0.22, -0.2, -0.12]), np.array([0.22, 0.3, 0.12]))
        lines = []
        for seed in ((0.0, 0.049, 0.004), (0.15, -0.04, 0.0)):
            lines.append(tracer.trace_el(broken, seed, step=0.006, window=win, plane=None))
        for line in lines:
            assert not line.closed
            assert np.abs(line.polyline[:, 2]).max() > 0.01


class TestObliquePlane:
    def test_trace_el_on_loss_biased_plane(self):
        # The loss-biased model's out-of-plane lines live on the tilted
        # plane kappa = gamma0 gamma / (2 m0); trace one and check both the
        # plane constraint and agreement with dense splitting minima.
        g0 = 0.085
        build = models.builder(models.ExperimentalParams(gamma0=g0, dchi=-0.073))
        plane = tracer.plane_oblique(g0)
        win = (np.array([-0.3, -0.1, -0.05]), np.array([0.3, 0.2, 0.05]))
        start = tracer.refine_ep(build, plane.point(0.05, 0.0), plane=plane)
        line = tracer.trace_el(build, start, step=0.006, window=win, plane=plane)
        assert len(line.polyline) > 20
        kappa_defect = np.abs(line.polyline[:, 2] - g0 * line.polyline[:, 0] / 2.0).max()
        assert kappa_defect < 1e-10
        for vertex in line.polyline[:: max(1, len(line.polyline) // 4)]:
            a = plane.coords(vertex)[0]
            chis = np.linspace(vertex[1] - 0.01, vertex[1] + 0.01, 161)
            splits = []
            for chi in chis:
                pf = qep.pf_bands(qep.solve(build(plane.point(a, chi))))
                splits.append(abs(pf[0].omega - pf[1].omega))
            assert abs(vertex[1] - chis[int(np.argmin(splits))]) < 2e-4


class TestFrequencyOnlyPath:
    def test_tracking_and_refinement_compute_no_eigenvectors(self, theoretical_build, monkeypatch):
        # Discriminants, tracking and EP refinement read frequencies only, so
        # neither SVD of the eigenvector path (per cluster or stacked) runs.
        def forbidden(*args, **kwargs):
            raise AssertionError("eigenvector SVD on a frequency-only path")

        monkeypatch.setattr(nk, "nullspace", forbidden)
        monkeypatch.setattr(qep, "simple_vectors", forbidden)
        loop = topology.circle_path((0.0, 0.025, 0.0), (0.0, -1.0, 0.0), 0.1, 64)
        tb = topology.track_bands(theoretical_build, loop)
        assert abs(topology.energy_vorticity(tb) - 1.0) < 1e-3
        assert abs(pf_delta(theoretical_build, (0.0, 0.05, 0.0))) < 1e-12
        p = tracer.refine_ep(theoretical_build, (0.0, 0.043, 0.0), plane=tracer.plane_kappa0())
        assert np.abs(p - [0.0, 0.05, 0.0]).max() < 1e-7


def degree_sign(build, point, tangent) -> int:
    """sign((grad Re D+ x grad Im D+) . t) from the exact pair gradient."""
    q = build(np.asarray(point, dtype=float))
    grad = qep.pair_gradient(qep.solve(q), q.derivatives())
    return int(np.sign(np.cross(grad.real, grad.imag) @ tangent))


def assert_degree_matches_probes(build, lines, nodes, step):
    """At every vertex more than 2 steps from a node, the degree sign equals a probe loop of radius step."""
    checked = 0
    for line in lines:
        for i, vertex in enumerate(line.polyline):
            if min((np.linalg.norm(vertex - n) for n in nodes), default=np.inf) <= 2.0 * step:
                continue
            t = line.tangent_at(i)
            assert degree_sign(build, vertex, t) == tracer.probe_orientation(build, vertex, t, radius=step), vertex
            checked += 1
    return checked


class TestExactDerivatives:
    def test_builder_called_once_per_solve(self, theoretical_build, chain_lines, monkeypatch):
        calls = {"build": 0, "solve": 0}

        def build(g):
            calls["build"] += 1
            return theoretical_build(g)

        def counted(q):
            calls["solve"] += 1
            return qep.solve(q)

        monkeypatch.setattr(tracer, "solve", counted)
        monkeypatch.setattr(topology, "solve", counted)
        tracer.refine_ep(build, (0.0, 0.043, 0.0), plane=tracer.plane_kappa0())
        tracer.trace_el(build, (0.0, 0.049, 0.004), step=0.006, window=WIN, plane=tracer.plane_gamma0())
        tracer.assemble_chain(build, list(chain_lines), junction_tol=0.012, refine_line=((0, 0, 0), (0, 1, 0)))
        assert calls["build"] == calls["solve"] > 0

    def test_lines_and_chain_pieces_need_no_probe_loops(self, theoretical_build, chain_lines, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("probe loop run although a vertex clears ORIENT_MARGIN")

        monkeypatch.setattr(tracer, "probe_orientation", forbidden)
        tracer.trace_el(theoretical_build, (0.2, 0.106, 0.0), step=0.006, window=WIN, plane=tracer.plane_kappa0())
        graph = tracer.assemble_chain(
            theoretical_build, list(chain_lines), junction_tol=0.012, refine_line=((0, 0, 0), (0, 1, 0))
        )
        assert graph.valid

    def test_qmp_without_derivatives_raises(self, theoretical_build):
        def bare(g):
            q = theoretical_build(g)
            return qep.QuadraticMatrixPolynomial(mass=q.mass, stiffness=q.stiffness, damping=q.damping)

        with pytest.raises(ValueError, match="derivatives"):
            tracer.refine_ep(bare, (0.0, 0.043, 0.0), plane=tracer.plane_kappa0())

    def test_degree_sign_equals_probe_on_chain_lines(self, theoretical_build, chain_lines):
        nodes = [np.zeros(3), np.array([0.0, 0.05, 0.0])]
        assert assert_degree_matches_probes(theoretical_build, chain_lines, nodes, 0.006) > 200

    def test_degree_sign_equals_probe_on_lattice_lines(self):
        # The two confined lines of acceptance criterion 9.
        p = models.LatticeParams()
        build = models.builder(p)
        kcp = lattice.chain_point_coords(p)
        win = (kcp + np.array([-0.3, -0.35, -0.3]), kcp + np.array([0.3, 0.35, 0.3]))
        lines = [
            tracer.trace_el(build, kcp + np.array([0.0, 0.1, 0.05]), step=0.01, window=win, plane=None),
            tracer.trace_el(build, kcp + np.array([0.05, -0.1, 0.0]), step=0.01, window=win, plane=None),
        ]
        assert assert_degree_matches_probes(build, lines, [kcp], 0.01) > 100


class TestNewtonOnLine:
    def test_zero_slope_raises_with_point_and_value(self, theoretical_build):
        # Re D+ is even in gamma, so its slope along gamma vanishes on gamma = 0.
        with pytest.raises(tracer.RefineError) as info:
            tracer.newton_on_line(theoretical_build, (0.0, 0.02, 0.0), (1.0, 0.0, 0.0), 0.0)
        assert np.array_equal(info.value.point, [0.0, 0.02, 0.0])
        assert info.value.value == pytest.approx(6.0e-4, rel=1e-3)

    def test_converges_to_the_chain_point(self, theoretical_build):
        point = tracer.newton_on_line(theoretical_build, (0.0, 0.0, 0.0), (0.0, 1.0, 0.0), 0.043)
        assert np.abs(point - [0.0, 0.05, 0.0]).max() < 1e-12

    def test_node_moved_past_junction_tol_raises(self, theoretical_build, chain_lines):
        # At kappa = 0.04 the line along chi meets the ring at chi = 0.01, 0.04 away from the node at 0.
        with pytest.raises(tracer.RefineError, match="junction_tol") as info:
            tracer.assemble_chain(
                theoretical_build, list(chain_lines), junction_tol=0.012, refine_line=((0, 0, 0.04), (0, 1, 0))
            )
        assert np.abs(info.value.point - [0.0, 0.01, 0.04]).max() < 1e-9
