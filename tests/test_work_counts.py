"""The work counts a traced benchmark run checks (`check_bindings` in bench/run.py).

Every binding of `qep.solve` in the excepta modules is counted, as the
benchmark's span recorder counts it, so a library change that adds or drops
a solve on these paths fails here instead of raising `BindingError` in
`bench/run.py --trace 1`.
"""

import sys

import numpy as np
import pytest

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


def test_exceptional_pass_builds_once_per_solve(solves, theoretical_build):
    builds = [0]

    def build(g):
        builds[0] += 1
        return theoretical_build(g)

    window = (np.array([-0.3, -0.25, -0.2]), np.array([0.3, 0.3, 0.2]))
    tracer.scan_plane(build, tracer.plane_gamma0(), (16, 16), ((-0.25, 0.3), (-0.2, 0.2)))
    tracer.refine_ep(build, (0.0, 0.043, 0.0), plane=tracer.plane_kappa0())
    tracer.trace_el(build, (0.2, -0.056, 0.0), step=0.03, window=window, plane=tracer.plane_kappa0())
    loop = topology.circle_path(np.array([0.0, 0.025, 0.0]), (0, -1, 0), 0.1, 32)
    topology.energy_vorticity(topology.track_bands(build, loop))
    assert builds[0] == solves[0] > 0
