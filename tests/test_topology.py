import numpy as np
import pytest
from conftest import multiset_distance
from scipy.optimize import linear_sum_assignment

from excepta import models, numkernel, qep, topology as topo

DIAG = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)


def er_loop(sign=+1, radius=0.1):
    """Circle threading the full exceptional ring; sign=-1 gives nu = -1."""
    return topo.circle_path(center=(0, 0.025, 0), normal=(0, -sign, 0), radius=radius, n=64)


def strand_loop(kappa_sign):
    return topo.circle_path(center=(0, 0.025, kappa_sign * 0.05), normal=(0, 1, 0), radius=0.03, n=64)


def in_plane_el_loop(gamma):
    s = gamma**2 / 4 - gamma**4 / 64
    chi = (0.05 - np.sqrt(0.0025 + 4 * s)) / 2
    return topo.circle_path(center=(gamma, chi, 0), normal=(1, 0, 0), radius=0.05, n=64)


class TestPaths:
    def test_circle_orientation_frame(self):
        path = topo.circle_path((0, 0, 0), (0, 0, 1), 1.0, n=16)
        assert path.closed
        cross = np.cross(path.points[0], path.points[4])
        assert cross[2] > 0  # counterclockwise about +z

    def test_min_samples(self):
        with pytest.raises(ValueError):
            topo.circle_path((0, 0, 0), (0, 0, 1), 1.0, n=8)

    def test_rect_closed(self):
        path = topo.rect_path((0, 0, 0), (1, 0, 0), (0, 1, 0), 0.5, 0.3, n_per_edge=5)
        assert path.closed and len(path.points) == 20


class TestTrackBands:
    def test_constant_path(self, theoretical_build):
        pts = np.tile([0.1, 0.07, 0.02], (16, 1))
        tb = topo.track_bands(theoretical_build, topo.ParameterPath(points=pts, closed=True))
        assert np.abs(tb.omegas - tb.omegas[0]).max() < 1e-12
        assert np.array_equal(tb.permutation, [0, 1])

    def test_single_el_loop_swaps_bands(self, theoretical_build):
        tb = topo.track_bands(theoretical_build, in_plane_el_loop(0.3))
        assert np.array_equal(tb.permutation, [1, 0])

    def test_er_loop_identity_permutation(self, theoretical_build):
        tb = topo.track_bands(theoretical_build, er_loop())
        assert np.array_equal(tb.permutation, [0, 1])

    def test_ep_on_path_raises(self, theoretical_build):
        # Path passing straight through the chain point at the origin.
        pts = np.zeros((17, 3))
        pts[:, 1] = np.linspace(-0.02, 0.02, 17)
        with pytest.raises(topo.TrackingError):
            topo.track_bands(theoretical_build, topo.ParameterPath(points=pts, closed=False))


class TestMatchBands:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_reaches_the_optimal_cost(self, n):
        rng = np.random.default_rng(40 + n)
        rows = np.arange(n)
        for trial in range(60):
            if trial % 2:  # a coarse grid, so equal-cost assignments are common
                prev = rng.integers(-1, 2, n) + 1j * rng.integers(-1, 2, n)
                new = rng.integers(-1, 2, n) + 1j * rng.integers(-1, 2, n)
            else:
                prev = rng.normal(size=n) + 1j * rng.normal(size=n)
                new = rng.normal(size=n) + 1j * rng.normal(size=n)
            cost = np.abs(prev[:, None] - new[None, :]) ** 2
            cols = topo.match_bands(prev, new)
            assert sorted(cols.tolist()) == rows.tolist()
            best = cost[rows, linear_sum_assignment(cost)[1]].sum()
            assert cost[rows, cols].sum() == pytest.approx(best, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("w", [[1.0], [1.0, 1.0], [2 + 1j, 2 + 1j]])
    def test_exact_tie_keeps_identity(self, w):
        w = np.array(w, dtype=complex)
        assert topo.match_bands(w, w.copy()).tolist() == list(range(len(w)))

    def test_non_finite_frequency_raises_like_scipy(self):
        with pytest.raises(ValueError):
            topo.match_bands(np.array([np.nan, 1.0]), np.array([1.0, 2.0]))

    def test_infinite_frequency_raises(self):
        with pytest.raises(ValueError, match="finite"):
            topo.match_bands(np.array([1.0, 2.0, 3.0]), np.array([1.0, np.inf, 3.0]))

    def test_overflowing_cost_raises(self):
        # Both frequencies are finite, but |1 - 1e300| ** 2 is not.
        with pytest.raises(ValueError, match="finite"):
            topo.match_bands(np.array([1.0, 2.0]), np.array([1e300, 2.0]))

    def test_raises_above_the_cap(self):
        w = np.arange(numkernel.MAX_ASSIGNMENT + 1, dtype=complex)
        with pytest.raises(ValueError, match="at most"):
            topo.match_bands(w, w.copy())

    @pytest.mark.parametrize("n", [2, 3, 8, 24])  # 4, 6, 16 and 48 eigenfrequencies
    def test_particle_hole_residual_is_the_multiset_distance(self, n):
        # Exact up to the assignment cap; larger spectra raise, and only the
        # oracle checks their pairing.
        rng = np.random.default_rng(n)
        for _ in range(5):
            q = qep.QuadraticMatrixPolynomial(
                mass=np.diag(rng.uniform(0.5, 2, n)),
                stiffness=rng.normal(size=(n, n)),
                damping=0.4 * rng.normal(size=(n, n)),
            )
            s = qep.solve(q)
            distance = multiset_distance(s.omegas, -s.omegas.conj())
            if 2 * n <= numkernel.MAX_ASSIGNMENT:
                assert qep.particle_hole_residual(s) == distance
            else:
                assert distance < 1e-9
                with pytest.raises(ValueError):
                    qep.particle_hole_residual(s)


def scan_match_bands(w):
    """The sequential scan of `lattice.band_slice`'s reference loop: each node against its
    left neighbour's matched order, a row's first node against the row before."""
    omegas = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            new = w[i, j]
            if (i, j) != (0, 0):
                new = new[topo.match_bands(omegas[i, j - 1] if j > 0 else omegas[i - 1, j], new)]
            omegas[i, j] = new
    return omegas


class TestMatchBandGrid:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_sequential_scan_with_ties(self, seed):
        rng = np.random.default_rng(380 + seed)
        nx, nz = rng.integers(2, 12, 2)
        # Coarse dyadic values, so many edges tie exactly: equal bands, repeated nodes, swapped
        # duplicates, and differences at right angles (|a0-b0|^2 + |a1-b1|^2 = |a0-b1|^2 + |a1-b0|^2).
        w = (rng.integers(-2, 3, (nx, nz, 2)) + 1j * rng.integers(-2, 3, (nx, nz, 2))) / 2.0
        w[rng.random((nx, nz)) < 0.2] = w[0, 0]
        swap = rng.random((nx, nz)) < 0.2
        w[swap] = w[0, 0, ::-1]
        fine = rng.random((nx, nz)) < 0.3  # generic values, some one ulp from a tie
        w[fine] = rng.normal(size=(fine.sum(), 2)) + 1j * rng.normal(size=(fine.sum(), 2))
        w[fine & (rng.random((nx, nz)) < 0.5), 0] *= np.nextafter(1.0, 2.0)
        expected = scan_match_bands(w)
        flags = topo.match_band_grid(w)
        assert np.where(flags[..., None], w[..., ::-1], w).tobytes() == expected.tobytes()

    def test_tie_after_a_swap_keeps_the_identity(self):
        # Node (0, 1) swaps; the edge to (0, 2) ties exactly, so (0, 2) keeps its order.
        w = np.array([[[1, 2], [2, 1], [1.5 + 1j, 1.5 + 2j]]], dtype=complex)
        assert topo.match_band_grid(w).tolist() == [[False, True, False]]
        assert np.where(topo.match_band_grid(w)[..., None], w[..., ::-1], w).tobytes() == scan_match_bands(w).tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1.0, -np.inf)])
    def test_non_finite_costs_raise(self, bad):
        w = np.ones((2, 3, 2), dtype=complex)
        w[1, 2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            scan_match_bands(w)
        with pytest.raises(ValueError, match="finite"):
            topo.match_band_grid(w)


class TestEnergyVorticity:
    def test_er_loop_full_braid(self, theoretical_build):
        nu = topo.energy_vorticity(topo.track_bands(theoretical_build, er_loop()))
        assert abs(nu - 1.0) < 1e-3

    def test_strand_loops_half_quantized_same_sign(self, theoretical_build):
        # The ring reverses direction at the chain points, so both strands
        # pierce a chi-slice with the same signed flux.
        nu_up = topo.energy_vorticity(topo.track_bands(theoretical_build, strand_loop(+1)))
        nu_dn = topo.energy_vorticity(topo.track_bands(theoretical_build, strand_loop(-1)))
        assert abs(abs(nu_up) - 0.5) < 1e-3
        assert abs(nu_up - nu_dn) < 1e-3

    def test_mirror_loops_opposite_sign(self, theoretical_build):
        nu_pos = topo.energy_vorticity(topo.track_bands(theoretical_build, in_plane_el_loop(0.3)))
        nu_neg = topo.energy_vorticity(topo.track_bands(theoretical_build, in_plane_el_loop(-0.3)))
        assert abs(nu_pos + nu_neg) < 1e-3
        assert abs(abs(nu_pos) - 0.5) < 1e-3

    def test_reversal_flips_sign_exactly(self, theoretical_build):
        loop = in_plane_el_loop(0.3)
        nu = topo.energy_vorticity(topo.track_bands(theoretical_build, loop))
        reversed_loop = topo.ParameterPath(points=loop.points[::-1], closed=True)
        nu_rev = topo.energy_vorticity(topo.track_bands(theoretical_build, reversed_loop))
        assert nu_rev == -nu

    def test_half_quantization_random_loops(self, theoretical_build):
        rng = np.random.default_rng(11)
        count = 0
        for _ in range(50):
            center = np.array([rng.normal() * 0.2, rng.uniform(-0.1, 0.15), rng.normal() * 0.15])
            normal = rng.normal(size=3)
            radius = rng.uniform(0.02, 0.08)
            loop = topo.circle_path(center, normal, radius, n=32)
            try:
                nu = topo.energy_vorticity(topo.track_bands(theoretical_build, loop))
            except (topo.TrackingError, qep.SpectralGapError):
                continue  # loop strayed onto a line or out of the gapped region
            count += 1
            assert abs(nu - round(nu * 2) / 2) < 1e-3
        assert count >= 40


class TestDiscriminants:
    def test_pf_discriminant_zero_at_ep(self):
        q = models.theoretical_qmp(models.TheoreticalParams(chi=0.05, dchi=-0.05))
        assert abs(topo.pf_discriminant(qep.solve(q))) < 1e-10

    def test_pf_discriminant_split_value(self):
        q = models.theoretical_qmp(models.TheoreticalParams(chi=0.1, dchi=-0.05))
        val = topo.pf_discriminant(qep.solve(q))
        expected = (np.sqrt(1 + np.sqrt(0.005)) - np.sqrt(1 - np.sqrt(0.005))) ** 2
        assert val == pytest.approx(expected, rel=1e-9)
        assert val == pytest.approx(5.006e-3, rel=1e-3)

    def test_real_valued_on_high_symmetry_line(self, theoretical_build):
        for chi in (-0.1, -0.02, 0.02, 0.049, 0.08, 0.2):
            val = topo.pf_discriminant(qep.solve(theoretical_build((0.0, chi, 0.0))))
            assert abs(val.imag) < 1e-10 * max(1.0, abs(val))

    def test_pf_number_equals_twice_vorticity(self, theoretical_build):
        for loop in (er_loop(), in_plane_el_loop(0.3), strand_loop(+1)):
            nu = topo.energy_vorticity(topo.track_bands(theoretical_build, loop))
            dn = topo.discriminant_number(theoretical_build, loop)
            assert abs(dn - 2 * nu) < 1e-9


class TestArcInvariant:
    def arc(self, chi_a, chi_b, bulge=0.03):
        return topo.arc_path((0, chi_a, 0), (0, chi_b, 0), DIAG, bulge, n=96)

    def test_one_chain_point_half(self, theoretical_build):
        val = topo.arc_invariant(theoretical_build, self.arc(-0.0125, 0.0375))
        assert abs(abs(val) - 0.5) < 1e-3

    def test_opposite_chirality_at_other_point(self, theoretical_build):
        a = topo.arc_invariant(theoretical_build, self.arc(-0.0125, 0.0375))
        b = topo.arc_invariant(theoretical_build, self.arc(0.02, 0.08))
        assert abs(a + b) < 1e-3

    def test_no_chain_point_zero(self, theoretical_build):
        val = topo.arc_invariant(theoretical_build, self.arc(0.015, 0.035, bulge=0.02))
        assert abs(val) < 1e-3

    def test_spanning_both_gives_signed_sum(self, theoretical_build):
        # Oracle: dense re-sampling of the same geometry at 4x resolution.
        coarse = self.arc(-0.02, 0.07, bulge=0.04)
        fine = topo.arc_path((0, -0.02, 0), (0, 0.07, 0), DIAG, 0.04, n=384)
        v1 = topo.arc_invariant(theoretical_build, coarse)
        v2 = topo.arc_invariant(theoretical_build, fine)
        assert abs(v1 - v2) < 1e-6
        assert abs(v1) < 1e-3  # opposite-chirality pair cancels

    def test_dequantized_when_both_symmetries_broken(self):
        broken = models.theoretical_builder(delta_k=np.array([[0, 0.01j], [0, 0]]))
        val = topo.arc_invariant(broken, self.arc(-0.0125, 0.0375))
        assert abs(val - round(2 * val) / 2) > 1e-2

    def test_requires_endpoints_on_line(self, theoretical_build):
        bad = topo.arc_path((0.01, -0.01, 0), (0, 0.04, 0), DIAG, 0.03)
        with pytest.raises(ValueError):
            topo.arc_invariant(theoretical_build, bad)

    def test_degenerate_endpoint_rejected(self, theoretical_build):
        with pytest.raises(ValueError):
            topo.arc_invariant(theoretical_build, self.arc(0.0, 0.03))


class TestSurfaces:
    def test_box_euler_characteristic(self):
        box = topo.box_surface((-1, -1, -1), (1, 1, 1), n_per_edge=4)
        assert box.mesh.euler_characteristic() == 2

    def test_sphere_euler_characteristic(self):
        sphere = topo.sphere_surface((0, 0, 0), 1.0, n_theta=6, n_phi=10)
        assert sphere.mesh.euler_characteristic() == 2

    def test_box_audit_chain_point(self, theoretical_build):
        h = 0.02
        box = topo.box_surface((-h, -h, -h), (h, h, h), n_per_edge=4)
        chi_er = 0.025 - np.sqrt(0.000625 - h * h / 4)
        s = h * h / 4 - h**4 / 64
        chi_el = (0.05 - np.sqrt(0.0025 + 4 * s)) / 2
        punctures = [(0, chi_er, h), (0, chi_er, -h), (h, chi_el, 0), (-h, chi_el, 0)]
        res = topo.surface_audit(theoretical_build, box, punctures, loop_radius=0.004)
        assert res.total == 0
        assert sorted(res.pfdns) == [-1, -1, 1, 1]

    def test_sphere_no_punctures(self, theoretical_build):
        sphere = topo.sphere_surface((0.0, 0.12, 0.0), 0.02)
        res = topo.surface_audit(theoretical_build, sphere, [])
        assert res.total == 0 and res.pfdns == ()

    def test_transversal_el_box(self, theoretical_build):
        def chi_of(g):
            s = g * g / 4 - g**4 / 64
            return (0.05 - np.sqrt(0.0025 + 4 * s)) / 2

        box = topo.box_surface((0.25, chi_of(0.3) - 0.05, -0.05), (0.35, chi_of(0.3) + 0.05, 0.05), 4)
        punctures = [(0.25, chi_of(0.25), 0.0), (0.35, chi_of(0.35), 0.0)]
        res = topo.surface_audit(theoretical_build, box, punctures, loop_radius=0.012)
        assert res.total == 0
        assert sorted(res.pfdns) == [-1, 1]

    def test_isolation_error(self, theoretical_build):
        box = topo.box_surface((-0.02,) * 3, (0.02,) * 3, 4)
        close = [(0.0, 0.001, 0.02), (0.0, 0.003, 0.02)]
        with pytest.raises(topo.IsolationError):
            topo.surface_audit(theoretical_build, box, close, loop_radius=0.004)


def test_path_minimum_sample_count():
    with pytest.raises(ValueError):
        topo.ParameterPath(points=np.zeros((8, 3)))
