"""Callers that solve the points they know in advance as one table, against the per-point path.

`track_bands` (the path's own points), `scan_plane` (its grid), the
`arc_invariant` endpoints and `cli sweep` (its ramp) each build one
`models.Table` and solve it with one `qep.solve` call.  The references in
conftest are the per-point paths they replaced; every result must agree bit
for bit, samples included, in the same order.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_scan_plane, reference_track_bands
from excepta import cli, models, qep, topology, tracer

REPO = Path(__file__).resolve().parent.parent


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_tracking(build, path):
    got, want = topology.track_bands(build, path), reference_track_bands(build, path)
    assert same_bits(got.points, want.points)
    assert same_bits(got.omegas, want.omegas)
    assert same_bits(got.permutation, want.permutation) and got.closed == want.closed
    return got


def config(stem: str) -> dict:
    raw = json.loads((REPO / "configs" / f"{stem}.json").read_text())
    return cli.load(cli.SCHEMAS[raw["command"]], raw)


def exceptional_workload(seed: int = 1):
    """The benchmark's `exceptional` workload, read from bench/workloads.py."""
    spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.Exceptional(seed)


@pytest.fixture(scope="module")
def workload_calls():
    """(track_bands calls, scan_plane calls) of one pass of the `exceptional` workload, each with its result."""
    tracks, scans = [], []
    track_bands, scan_plane = topology.track_bands, tracer.scan_plane

    def recorded_track(build, path):
        tracks.append((build, path, track_bands(build, path)))
        return tracks[-1][2]

    def recorded_scan(build, plane, grid, window):
        scans.append((build, plane, grid, window, scan_plane(build, plane, grid, window)))
        return scans[-1][4]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "track_bands", recorded_track)
        mp.setattr(tracer, "scan_plane", recorded_scan)
        for op in exceptional_workload().operations():
            assert op.check(op.run()) == [], op.kind
    return tracks, scans


class TestTrackBands:
    def test_every_loop_of_the_exceptional_workload(self, workload_calls):
        tracks, _ = workload_calls
        # 4 vorticity loops and 4 audit punctures, with the probe loops of the traces if they orient by one.
        assert len(tracks) >= 8
        assert sum(len(got.points) for *_, got in tracks) > sum(len(path.points) + 1 for _, path, _ in tracks)
        for build, path, got in tracks:
            want = reference_track_bands(build, path)
            assert same_bits(got.points, want.points) and same_bits(got.omegas, want.omegas)
            assert same_bits(got.permutation, want.permutation)

    @pytest.mark.parametrize("stem", ["vorticity_fig1_loops", "vorticity_chain_loop"])
    def test_vorticity_config_loops(self, stem):
        cfg = config(stem)
        build = models.builder(cfg["model"][1])
        specs = cfg["loops"] or [{"loop": cfg["loop"]}]
        refined = [len(assert_same_tracking(build, cli.parse_path(s["loop"])).points) for s in specs]
        assert refined  # every loop compared

    def test_lattice_loop(self):
        build = models.builder(models.LatticeParams())
        path = topology.circle_path((0.4, 0.5, 0.3), (1.0, 1.0, 0.0), 0.3, 48)
        assert_same_tracking(build, path)

    def test_broken_symmetry_loop(self):
        build = models.theoretical_builder(dchi=-0.05, delta_k=np.array([[0.0, 0.01j], [0.0, 0.0]]))
        tb = assert_same_tracking(build, topology.circle_path((0.0, -0.01, 0.0), (0, 1, 0), 0.1, 24))
        assert len(tb.points) > 25  # the loop bisects, so reused targets are compared too

    def test_open_path(self, theoretical_build):
        arc = topology.arc_path((0.0, -0.0125, 0.0), (0.0, 0.0375, 0.0), (1.0, 0.0, 1.0), 0.03, 48)
        assert_same_tracking(theoretical_build, arc)

    def test_errors_keep_their_order(self, theoretical_build):
        # The path runs through the chain point at chi = 0 before it reaches a gapless point
        # at kappa = 3: the per-point scan stops at the first, and so does the table's.
        pts = [[0.0, -0.02 + 0.0025 * i, 0.0] for i in range(16)] + [[0.0, 0.0, 3.0]]
        path = topology.ParameterPath(points=pts, closed=False)
        for track in (topology.track_bands, reference_track_bands):
            with pytest.raises(topology.TrackingError):
                track(theoretical_build, path)


def test_scan_plane_cells(workload_calls, theoretical_build):
    _, scans = workload_calls
    window = ((-0.25, 0.3), (-0.2, 0.2))
    runs = [*scans, (theoretical_build, tracer.plane_kappa0(), (16, 18), window, None)]
    for build, plane, grid, window, got in runs:
        got = got if got is not None else tracer.scan_plane(build, plane, grid, window)
        want = reference_scan_plane(build, plane, grid, window)
        assert got and len(got) == len(want)
        for a, b in zip(got, want):
            assert a.index == b.index and same_bits(a.center, b.center)
            assert same_bits(a.min_delta, b.min_delta) and same_bits(a.min_separation, b.min_separation)


def test_arc_invariant():
    cfg = config("arc_one_chain")
    build = models.builder(cfg["model"][1])
    a = cfg["arc"]
    arc = topology.arc_path(a["start"], a["end"], a["via"], a["bulge"], a["n"])
    for end in (arc.points[0], arc.points[-1]):
        assert abs(topology.pf_discriminant(qep.solve(build(end)))) >= topology.ARC_ENDPOINT_TOL
    want = 2.0 * topology._pairwise_winding_sum(reference_track_bands(build, arc))
    assert same_bits(topology.arc_invariant(build, arc), want)


def test_sweep_csv():
    cfg = config("sweep_experimental_chi")
    params, ramp = cfg["model"][1], cfg["ramp"]
    build, axis = models.builder(params), cli.AXES.index(ramp["param"])
    rows, prev = [], None
    for v in np.linspace(ramp["from"], ramp["to"], max(ramp["n"], 1)):
        g = params.g.copy()
        g[axis] = v
        w = qep.pf_omegas(qep.solve(build(g)))
        if prev is not None:
            w = w[topology.match_bands(prev, w)]
        prev = w
        rows.append([v] + [x for wi in w for x in (wi.real, wi.imag)])
    want = qep.csv_text(["param", "re_w1", "im_w1", "re_w2", "im_w2"], rows)
    (_, [(_, got)]) = cli.cmd_sweep(cfg, 1)
    assert got == want


class TestBuilderContract:
    @pytest.mark.parametrize("make", [
        lambda: models.builder(models.ExperimentalParams()),
        lambda: models.builder(models.LatticeParams()),
        lambda: models.theoretical_builder(dchi=-0.05, delta_k=np.array([[0.01, 0.02j], [0.0, -0.01]])),
    ])
    def test_point_gives_a_view_and_stack_gives_its_table(self, make):
        build = make()
        points = np.random.default_rng(41).uniform(-0.3, 0.3, (12, 3))
        table = build(points)
        assert isinstance(table, models.Table) and table.stiffness.shape == (12, 2, 2)
        spectra = list(qep.solve(table))  # an iterator, one Spectrum per point
        assert len(spectra) == 12
        for point, spectrum in zip(points, spectra):
            view = build(point)
            assert isinstance(view, qep.QuadraticMatrixPolynomial)
            alone = qep.solve(view)
            assert same_bits(spectrum.omegas, alone.omegas) and spectrum.pf_gap_ok is alone.pf_gap_ok
            assert same_bits(spectrum.qmp.stiffness, view.stiffness)
            assert same_bits(qep.linearize(spectrum.qmp), qep.linearize(view))
