import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import frequency_clusters, multiset_distance
from excepta import cli, lattice, models, numkernel as nk, qep, topology as topo

REPO = Path(__file__).resolve().parents[1]

P = models.LatticeParams()  # kappa1=1.3, kappa2=-0.7, chi=0.5, dchi=0.4, gamma=0.7
SMALL_SPEC = lattice.WavepacketSpec(grid=(16, 16))
KY_CP = float(lattice.chain_point_coords(P)[1])
NEEDLE_KX, NEEDLE_KZ = lattice.WavepacketSpec().axes()
# (grid, window) at the chain-point ky; the odd 9 x 9 grid has a node on the
# chain point itself, so one node's spectrum holds a frequency cluster.
SLICES = {
    "needle_window": ((64, 64), ((NEEDLE_KX[0], NEEDLE_KX[-1]), (NEEDLE_KZ[0], NEEDLE_KZ[-1]))),
    "full_zone": ((16, 16), ((-np.pi, np.pi), (-np.pi, np.pi))),
    "chain_point_odd": ((9, 9), ((-0.2, 0.2), (-0.2, 0.2))),
}


def per_point_vectors(field):
    """Each node's own `pf_bands` vectors in the tracked band order, and the
    number of nodes at an EP."""
    vectors = np.empty_like(field.vectors)
    eps = 0
    for i, kx in enumerate(field.kx):
        for j, kz in enumerate(field.kz):
            spectrum = qep.solve(models.builder(P)((kx, field.ky, kz)))
            pairs = qep.pf_bands(spectrum)
            omegas = [pair.omega for pair in pairs]
            vectors[i, j] = [pairs[omegas.index(w)].right for w in field.omegas[i, j]]
            eps += bool(spectrum.ep_clusters)
    return vectors, eps


class TestChainPoint:
    def test_closed_form_value(self):
        k = lattice.chain_point_coords(P)
        assert k[0] == 0.0 and k[2] == 0.0
        assert k[1] == pytest.approx(1.2104, abs=2e-4)

    def test_matches_numeric_zero(self):
        ky = lattice.chain_point_coords(P)[1]
        ky_num = lattice.refine_chain_point_on_axis(P, ky + 0.01)
        assert abs(ky_num - ky) < 1e-6

    def test_symmetric_cancellation_limit(self):
        p = models.LatticeParams(kappa1=0.7, kappa2=-0.7, gamma=1e-10)
        assert lattice.chain_point_coords(p)[1] == pytest.approx(np.pi / 2, abs=1e-6)

    def test_out_of_range_raises(self):
        p = models.LatticeParams(kappa1=2.0, kappa2=2.0, chi=0.05, gamma=0.01)
        with pytest.raises(lattice.ChainPointError):
            lattice.chain_point_coords(p)

    def test_moves_continuously_with_gamma(self):
        ky0 = lattice.chain_point_coords(P)[1]
        h = 1e-3
        slope_fd = (lattice.chain_point_coords(dataclasses.replace(P, gamma=P.gamma + h))[1] - ky0) / h
        h2 = 1e-6
        slope_ref = (lattice.chain_point_coords(dataclasses.replace(P, gamma=P.gamma + h2))[1] - ky0) / h2
        assert slope_fd == pytest.approx(slope_ref, abs=1e-3)


class TestBandSlice:
    def test_linear_crossings_at_chain_point(self):
        kcp = lattice.chain_point_coords(P)
        re_z, im_z = lattice.crossing_slopes(P, kcp, "z", 0.02)
        re_x, im_x = lattice.crossing_slopes(P, kcp, "x", 0.02)
        assert re_z > 1e-3 and im_z < 1e-6
        assert im_x > 1e-3 and re_x < 1e-6

    def test_far_slice_gapped(self):
        field = lattice.band_slice(P, np.pi, grid=(12, 12), window=((-0.4, 0.4), (-0.4, 0.4)))
        split = np.abs(field.omegas[..., 0] - field.omegas[..., 1])
        assert split.min() > 1e-3
        assert field.bad_cells == ()

    def test_loop_around_chain_point_braids_twice(self):
        kcp = lattice.chain_point_coords(P)
        build = models.builder(P)
        loop = topo.circle_path(kcp, normal=(0, 1, 0), radius=0.06, n=64)
        nu = topo.energy_vorticity(topo.track_bands(build, loop))
        assert abs(abs(nu) - 1.0) < 1e-3

    @pytest.mark.parametrize("name", sorted(SLICES))
    def test_vectors_equal_per_point_pairs(self, name):
        grid, window = SLICES[name]
        field = lattice.band_slice(P, KY_CP, grid=grid, window=window)
        vectors, eps = per_point_vectors(field)
        assert np.array_equal(field.vectors, vectors)
        assert eps == int(name == "chain_point_odd")

    def test_equals_per_node_reference_loop(self):
        # 33 x 31 nodes at the chain-point ky: the kx = kz = 0 node is the EP.
        field = lattice.band_slice(P, KY_CP, grid=(33, 31), window=((-0.3, 0.3), (-0.3, 0.3)))
        build = models.builder(P)
        omegas = np.zeros_like(field.omegas)
        bad = []
        for i, kx in enumerate(field.kx):
            for j, kz in enumerate(field.kz):
                spectrum = qep.solve(build((kx, field.ky, kz)))
                w = qep.pf_omegas(spectrum)
                if (i, j) != (0, 0):
                    w = w[topo.match_bands(omegas[i, j - 1] if j > 0 else omegas[i - 1, j], w)]
                omegas[i, j] = w
                if len(frequency_clusters(spectrum.omegas)) < len(spectrum.omegas):
                    bad.append((i, j))
        assert field.bad_cells == tuple(bad) == ((16, 15),)
        assert omegas.tobytes() == field.omegas.tobytes()
        vectors, eps = per_point_vectors(field)
        assert vectors.tobytes() == field.vectors.tobytes() and eps == 1

    def test_one_solve_per_node_and_nullspace_only_at_clusters(self, monkeypatch):
        spectra, nullspaces = [], []
        nullspace = nk.nullspace
        monkeypatch.setattr(lattice, "solve", lambda q: spectra.append(qep.solve(q)) or spectra[-1])
        monkeypatch.setattr(nk, "nullspace", lambda *args: nullspaces.append(args) or nullspace(*args))
        grid, window = SLICES["chain_point_odd"]
        field = lattice.band_slice(P, KY_CP, grid=grid, window=window)
        assert len(spectra) == 81 and not nullspaces  # vectors wait for first access
        assert field.vectors.shape == (9, 9, 2, 2)
        calls = len(nullspaces)
        # One EP node: its PF pair and the mirrored pair, one nullspace each.
        assert [s.ep_clusters for s in spectra if s.ep_clusters] == [((0, 1), (2, 3))]
        assert calls == 2

    def test_frequency_only_callers_make_no_vectors(self, monkeypatch, tmp_path):
        calls = []

        def counted(module):
            simple_vectors = module.simple_vectors
            return lambda *args: calls.append(module.__name__) or simple_vectors(*args)

        for module in (lattice, qep):
            monkeypatch.setattr(module, "simple_vectors", counted(module))
        lattice.max_growth_rates(P, SMALL_SPEC)
        cli.run("lattice-bands", str(REPO / "configs" / "lattice_bands_small.json"), str(tmp_path))
        assert calls == []
        lattice.evolve_wavepacket(P, SMALL_SPEC, times=[0.0, 5.0], slab=(16, 16))
        assert calls == ["excepta.lattice"]

    def test_band_continuity(self):
        kcp = lattice.chain_point_coords(P)
        field = lattice.band_slice(
            P, kcp[1], grid=(24, 24), window=((-0.25, 0.25), (-0.25, 0.25))
        )
        jumps_x = np.abs(np.diff(field.omegas, axis=0)).max()
        jumps_z = np.abs(np.diff(field.omegas, axis=1)).max()
        assert max(jumps_x, jumps_z) < 0.08


class TestSymmetriesAtK:
    def test_particle_hole_pairs_across_k_inversion(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            k = rng.uniform(-np.pi, np.pi, size=3)
            w_plus = qep.solve(models.builder(P)(k)).omegas
            w_minus = qep.solve(models.builder(P)(-k)).omegas
            assert multiset_distance(w_plus, -w_minus.conj()) < 1e-9

    def test_fixed_k_frequency_inversion(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            k = rng.uniform(-np.pi, np.pi, size=3)
            w = qep.solve(models.builder(P)(k)).omegas
            assert multiset_distance(w, -w) < 1e-9

    def test_fixed_k_particle_hole_on_symmetry_planes(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            k = rng.uniform(-np.pi, np.pi, size=3)
            k[int(rng.integers(3))] = 0.0
            w = qep.solve(models.builder(P)(k)).omegas
            assert multiset_distance(w, -w.conj()) < 1e-9


class TestWavepacket:
    def test_amplitude_window(self):
        kx, kz = SMALL_SPEC.axes()
        a = SMALL_SPEC.amplitude(kx, kz)
        assert a.max() <= 1.0
        assert abs(kx).max() == pytest.approx(SMALL_SPEC.kmax / 2)

    def test_linearity_exact_doubling(self):
        fields = lattice.evolve_wavepacket(P, SMALL_SPEC, times=[7.0], slab=(64, 64))
        doubled = lattice.evolve_wavepacket(
            P, dataclasses.replace(SMALL_SPEC), times=[7.0], slab=(64, 64)
        )
        # Same spec twice is bit-identical; doubling the input amplitude is
        # exactly a doubled field because the quadrature is linear.
        assert np.array_equal(fields[0].total, doubled[0].total)

        class Doubled(lattice.WavepacketSpec):
            def amplitude(self, kx, kz):
                return 2.0 * super().amplitude(kx, kz)

        spec2 = Doubled(grid=(16, 16))
        f2 = lattice.evolve_wavepacket(P, spec2, times=[7.0], slab=(64, 64))
        assert np.array_equal(f2[0].total, 2.0 * fields[0].total)

    def test_initial_pulse_localized(self):
        fields = lattice.evolve_wavepacket(P, SMALL_SPEC, times=[0.0], slab=(64, 64))
        m1 = lattice.pulse_metrics(fields[0], 1)
        m2 = lattice.pulse_metrics(fields[0], 2)
        for m in (m1, m2):
            assert abs(m.centroid_z) < 1.0
            assert m.aspect == pytest.approx(1.0, abs=0.1)
            assert 2.0 < m.width_z < 5.0  # ~ 1 / (2 q)

    def test_total_is_band_sum(self):
        fields = lattice.evolve_wavepacket(P, SMALL_SPEC, times=[3.0], slab=(64, 64))
        f = fields[0]
        assert np.abs(f.total - (f.bands[0] + f.bands[1])).max() < 1e-300 or np.array_equal(
            f.total, f.bands[0] + f.bands[1]
        )

    def test_pulses_separate_oppositely(self):
        fields = lattice.evolve_wavepacket(P, SMALL_SPEC, times=[0.0, 12.0, 24.0], slab=(96, 96))
        c1 = [lattice.pulse_metrics(f, 1).centroid_z for f in fields]
        c2 = [lattice.pulse_metrics(f, 2).centroid_z for f in fields]
        assert c1[-1] > c1[0] + 1.0
        assert c2[-1] < c2[0] - 1.0

    def test_growth_tracks_window_maximum(self):
        g1, g2 = lattice.max_growth_rates(P, SMALL_SPEC)
        assert g1 == pytest.approx(g2, rel=1e-9)
        fields = lattice.evolve_wavepacket(P, SMALL_SPEC, times=[60.0, 80.0], slab=(96, 96))
        la = [lattice.pulse_metrics(f, 1).log_amplitude for f in fields]
        slope = (la[1] - la[0]) / 20.0
        assert slope == pytest.approx(g1, rel=0.15)

    def test_fields_equal_per_band_and_component_products(self):
        spec, slab, times = lattice.WavepacketSpec(grid=(12, 10)), (16, 18), [0.0, 4.5, 31.0]
        fields = lattice.evolve_wavepacket(P, spec, times, slab=slab)
        omegas, vecs = lattice._state_vectors(lattice._window_bands(P, spec))
        kxs, kzs = spec.axes()
        wx, wz = np.ones(len(kxs)), np.ones(len(kzs))
        wx[[0, -1]] = wz[[0, -1]] = 0.5
        weights = (kxs[1] - kxs[0]) * (kzs[1] - kzs[0]) * np.outer(wx, wz) * spec.amplitude(kxs, kzs)
        ex = np.exp(1j * np.outer(kxs, np.arange(slab[0]) - slab[0] // 2))
        ez = np.exp(1j * np.outer(kzs, np.arange(slab[1]) - slab[1] // 2))
        for t, field in zip(times, fields):
            bands = np.empty((2, 4, *slab), dtype=complex)
            for band in range(2):
                phase = weights * np.exp(-1j * omegas[..., band] * t)
                for c in range(4):
                    bands[band, c] = ex.T @ (phase * vecs[..., band, c]) @ ez
            assert np.stack(field.bands).tobytes() == bands.tobytes()
            assert field.total.tobytes() == (bands[0] + bands[1]).tobytes()

    def test_snapshots_keep_only_their_bands(self):
        # t = 0 twice: both snapshots share the one t = 0 evaluation, so three are distinct.
        spec, slab, times = lattice.WavepacketSpec(grid=(16, 16)), (72, 64), [0.0, 5.0, 0.0, 11.0]
        band_bytes = 4 * slab[0] * slab[1] * np.dtype(complex).itemsize
        lattice.evolve_wavepacket(P, spec, times, slab=slab)  # fill any first-call caches
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fields = lattice.evolve_wavepacket(P, spec, times, slab=slab)
            retained, peak = (n - before for n in tracemalloc.get_traced_memory())
        finally:
            if not tracing:
                tracemalloc.stop()
        distinct = len({id(f.bands[0]) for f in fields})
        assert distinct == 3
        assert abs(retained - distinct * 2 * band_bytes) < 16_384
        # The transients (one component's sum and abs, the (4, Lx, nz) matmul product)
        # stay below one band array here; a full-slab sum and abs would add 1.5 of them.
        assert peak < retained + band_bytes
        f = fields[1]
        total = f.bands[0] + f.bands[1]
        header = ["x", "z"] + [f"{p}_{c}" for c in ("uA", "uB", "vA", "vB") for p in ("re", "im")]
        rows = (
            [float(x), float(z)] + [part for u in total[:, i, j] for part in (u.real, u.imag)]
            for i, x in enumerate(f.x)
            for j, z in enumerate(f.z)
        )
        assert lattice.field_to_csv(f) == qep.csv_text(header, rows)
        assert all(np.array_equal(g.total, g.bands[0] + g.bands[1]) for g in fields)
        assert not any("total" in vars(g) for g in fields)  # read above, yet not kept

    def test_zero_field_error(self):
        fields = lattice.evolve_wavepacket(P, SMALL_SPEC, times=[0.0], slab=(64, 64))
        f = fields[0]
        empty = lattice.WaveField(
            t=0.0,
            x=f.x,
            z=f.z,
            bands=(np.zeros_like(f.total), np.zeros_like(f.total)),
            a_ref=1.0,
            boundary_contaminated=False,
        )
        with pytest.raises(ValueError):
            lattice.pulse_metrics(empty, 1)

    def test_band_argument_validation(self):
        fields = lattice.evolve_wavepacket(P, SMALL_SPEC, times=[0.0], slab=(64, 64))
        with pytest.raises(ValueError):
            lattice.pulse_metrics(fields[0], 3)
