"""The work counts a traced benchmark run checks (`check_bindings` in bench/run.py).

Every binding of `qep.solve` in the excepta modules is counted, as the
benchmark's span recorder counts it, so a library change that adds or drops
a solve on these paths fails here instead of raising `BindingError` in
`bench/run.py --trace 1`.  A build may be one point or a stack of them (one
table, one solve), so the points solved are counted beside the builds.
"""

import sys

import numpy as np
import pytest

from conftest import reference_scan_plane, reference_track_bands
from excepta import lattice, models, qep, topology, tracer


@pytest.fixture
def solves(monkeypatch):
    count = [0]
    solve = qep.solve

    def counted(q):
        count[0] += 1
        return solve(q)

    for name, module in list(sys.modules.items()):
        if name == "excepta" or name.startswith("excepta."):
            for key, value in list(vars(module).items()):
                if value is solve:
                    monkeypatch.setattr(module, key, counted)
    return count


def test_needle_pass_solves_once_per_band_slice_kpoint(solves, monkeypatch):
    kpoints = []
    band_slice = lattice.band_slice

    def counted_slice(*args, **kwargs):
        field = band_slice(*args, **kwargs)
        kpoints.append(len(field.kx) * len(field.kz))
        return field

    monkeypatch.setattr(lattice, "band_slice", counted_slice)
    params, spec = models.LatticeParams(), lattice.WavepacketSpec(grid=(12, 10))
    fields = lattice.evolve_wavepacket(params, spec, [0.0, 20.0], slab=(16, 16))
    lattice.max_growth_rates(params, spec)
    for field in fields:
        for band in (1, 2):
            lattice.pulse_metrics(field, band)
    assert kpoints == [120, 120]
    assert solves[0] == sum(kpoints)


def test_exceptional_pass_builds_once_per_solve(solves, theoretical_build, monkeypatch):
    builds, points = [0], [0]

    def build(g):
        builds[0] += 1
        points[0] += len(np.atleast_2d(g))  # a (P, 3) stack's P, or one point
        return theoretical_build(g)

    def calls(build):
        window = (np.array([-0.3, -0.25, -0.2]), np.array([0.3, 0.3, 0.2]))
        tracer.scan_plane(build, tracer.plane_gamma0(), (16, 16), ((-0.25, 0.3), (-0.2, 0.2)))
        tracer.refine_ep(build, (0.0, 0.043, 0.0), plane=tracer.plane_kappa0())
        tracer.trace_el(build, (0.2, -0.056, 0.0), step=0.03, window=window, plane=tracer.plane_kappa0())
        loop = topology.circle_path(np.array([0.0, 0.025, 0.0]), (0, -1, 0), 0.1, 32)
        before = builds[0], points[0]
        tracked = topology.track_bands(build, loop)
        topology.energy_vorticity(tracked)
        return tracked, builds[0] - before[0], points[0] - before[1]

    tracked, loop_builds, loop_points = calls(build)
    assert builds[0] == solves[0] > 0
    # The closed 32-point loop: one table of its points and its start again, then one
    # one-point table per bisected midpoint; every solved point is a sample.
    midpoints = len(tracked.points) - 33
    assert midpoints > 0
    assert loop_builds == 1 + midpoints and loop_points == len(tracked.points)
    # The same calls on the per-point paths the stacks replaced, one point per build.
    solved = points[0]
    builds[0] = points[0] = 0
    monkeypatch.setattr(topology, "track_bands", reference_track_bands)
    monkeypatch.setattr(tracer, "scan_plane", reference_scan_plane)
    calls(build)
    assert builds[0] == points[0]
    assert solved <= points[0]


def test_traced_lines_solve_and_differentiate_little_per_vertex(solves, theoretical_build, monkeypatch):
    # The three lines of configs/chain_theoretical.json at its step.  The
    # arclength corrector makes most vertices in one Newton step: the
    # predictor's solve, one pair gradient and the corrected point's solve.
    gradients = [0]
    pair_gradient = tracer.pair_gradient

    def counted(*args):
        gradients[0] += 1
        return pair_gradient(*args)

    monkeypatch.setattr(tracer, "pair_gradient", counted)
    window = (np.array([-0.3, -0.25, -0.2]), np.array([0.3, 0.3, 0.2]))
    traces = ((tracer.plane_gamma0(), (0.0, 0.049, 0.004)), (tracer.plane_kappa0(), (0.2, -0.056, 0.0)),
              (tracer.plane_kappa0(), (0.2, 0.106, 0.0)))
    vertices = sum(len(tracer.trace_el(theoretical_build, seed, 0.006, window, plane=plane).polyline)
                   for plane, seed in traces)
    assert solves[0] <= 2.4 * vertices
    assert gradients[0] <= 1.4 * vertices
