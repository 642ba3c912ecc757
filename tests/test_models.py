import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import multiset_distance, reference_experimental, reference_lattice, reference_theoretical
from excepta import lattice, models, qep, symmetry

# name -> (params, reference constructor from conftest, half-width of the sampled cube)
REFERENCES = {
    "theoretical": (models.TheoreticalParams(dchi=-0.05), reference_theoretical, 0.4),
    "experimental": (models.ExperimentalParams(), reference_experimental, 0.4),
    "lattice": (models.LatticeParams(), reference_lattice, np.pi),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCoefficientTables:
    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_stack_views_and_reference_agree(self, name):
        params, reference, half = REFERENCES[name]
        rng = np.random.default_rng(34)
        points = rng.uniform(-half, half, (96, 3))
        # Exact zeros and zone edges, where signed zeros and rounding order show.
        points[rng.random(points.shape) < 0.2] = 0.0
        points[:4] = [[half, -half, 0.0], [-half, 0.0, half], [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]]
        table = models.coefficients(params, points)
        build = models.builder(params)
        for i, point in enumerate(points):
            view = build(point)
            (mass, stiffness, damping), (dk, dg) = reference(params, point)
            stacked = (table.mass, table.stiffness[i], table.damping[i], *(d[i] for d in table.derivatives))
            viewed = (view.mass, view.stiffness, view.damping, *view.derivatives())
            assert all(same_bits(a, b) for a, b in zip(stacked, viewed))
            assert same_bits(view.mass, mass) and same_bits(view.stiffness, stiffness)
            assert same_bits(view.damping, damping)
            # The derivatives are exact; the affine models' constant rows may
            # differ from the old hand-written ones only in the sign of a zero.
            assert np.array_equal(table.derivatives[0][i], dk) and np.array_equal(table.derivatives[1][i], dg)
            if name == "lattice":
                assert same_bits(table.derivatives[0][i], dk)  # 0 ulp apart

    @staticmethod
    def gradients_equal_public_path(view) -> int:
        """Assert the view's H, frequencies and pair gradient equal those of the public
        constructor on the view's arrays, bit for bit; return how many gradients were compared."""
        public = qep.QuadraticMatrixPolynomial(view.mass, view.stiffness, view.damping)
        h = qep.linearize(view)
        assert not h.flags.writeable
        assert same_bits(h, qep.linearize(public))
        spectrum, reference = qep.solve(view), qep.solve(public)
        assert same_bits(spectrum.omegas, reference.omegas) and spectrum.pf_gap_ok == reference.pf_gap_ok
        if not spectrum.pf_gap_ok:
            return 0
        d = view.derivatives()
        assert same_bits(qep.pair_gradient(spectrum, d), qep.pair_gradient(reference, d))
        return 1

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_views_carry_the_companion_of_their_arrays(self, name):
        params, _, half = REFERENCES[name]
        rng = np.random.default_rng(35)
        points = rng.uniform(-half, half, (64, 3))
        points[rng.random(points.shape) < 0.2] = 0.0
        table = models.coefficients(params, points)
        build = models.builder(params)
        compared = 0
        for i, point in enumerate(points):
            view, single = table.qmp(i), build(point)
            assert same_bits(qep.linearize(view), qep.linearize(single))  # stacked = P = 1
            compared += self.gradients_equal_public_path(view) + self.gradients_equal_public_path(single)
        assert compared > len(points)

    def test_edits_never_carry_a_stale_companion(self):
        params = models.TheoreticalParams(dchi=-0.05)
        delta_k = np.array([[0.01, -0.02], [0.03, -0.01]])
        edited_build, plain_build = models.theoretical_builder(dchi=-0.05, delta_k=delta_k), models.builder(params)
        points = np.random.default_rng(36).uniform(-0.4, 0.4, (32, 3))
        table = models.coefficients(params, points)
        # Both caches are made before the edit below.
        assert not table.companion.flags.writeable and not table.eigenvalues.flags.writeable
        edited_table = dataclasses.replace(table, stiffness=table.stiffness + delta_k)
        compared = 0
        for i, point in enumerate(points):
            edited, plain = edited_build(point), plain_build(point)
            assert same_bits(edited.stiffness, plain.stiffness + delta_k)
            assert not np.array_equal(qep.linearize(edited), qep.linearize(plain))
            assert same_bits(qep.linearize(edited_table.qmp(i)), qep.linearize(edited))
            compared += self.gradients_equal_public_path(edited) + self.gradients_equal_public_path(edited_table.qmp(i))
            plain_omegas = qep.solve(plain).omegas  # the view is solved before it is replaced
            edited_omegas = qep.solve(edited).omegas
            assert not np.array_equal(edited_omegas, plain_omegas)
            assert same_bits(qep.solve(edited_table.qmp(i)).omegas, edited_omegas)
            # A replaced view is a public QMP: it linearizes and solves its own arrays.
            replaced = dataclasses.replace(plain, stiffness=plain.stiffness + delta_k)
            assert same_bits(qep.linearize(replaced), qep.linearize(edited))
            assert same_bits(qep.solve(replaced).omegas, edited_omegas)
        assert compared > len(points)

    def test_views_store_only_their_table_and_row(self):
        # All 441 views of one table, held at once, each cost at most 1,000 bytes: two ndarray views
        # and a row index, not closures over the table (three of them cost about 1,276 bytes a view).
        points = np.random.default_rng(43).uniform(-0.3, 0.3, (441, 3))
        table = models.coefficients(models.TheoreticalParams(dchi=-0.05), points)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            views = [table.qmp(i) for i in range(len(points))]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(views) == 441 and held <= 1000 * len(views)

    @pytest.mark.parametrize("n", [2, 8, 24])
    def test_stacked_eigenvalues_equal_per_point_solves(self, n):
        rng = np.random.default_rng(37 + n)
        points = 16
        mass = (np.eye(n) + 0.2 * rng.standard_normal((n, n))).astype(complex)
        stiffness = rng.standard_normal((points, n, n)) + 0.5 * 1j * rng.standard_normal((points, n, n))
        stiffness += 4.0 * n * np.eye(n)  # positive diagonal: a real line gap at most points
        damping = 0.3 * rng.standard_normal((points, n, n)).astype(complex)
        stiffness[1] = damping[1] = 0.0  # an all-zero spectrum, which has no gap
        stiffness[2] = -np.abs(stiffness[2])  # negative stiffness: a gapless row
        table = qep.Table(mass, stiffness, damping, lambda: None)
        gaps = []
        for i in range(points):
            # The P = 16 table and this point's own P = 1 table take the two sides of the size selection.
            single = qep.Table(mass, stiffness[i:i + 1], damping[i:i + 1], lambda: None)
            reference = qep.solve(qep.QuadraticMatrixPolynomial(mass, stiffness[i], damping[i]))
            for stack, row in ((table, i), (single, 0)):
                spectrum = qep.solve(stack.qmp(row))
                assert spectrum.omegas.tobytes() == stack.eigenvalues[row].tobytes() == reference.omegas.tobytes()
                assert spectrum.pf_gap_ok is stack.pf_gap_ok[row] is reference.pf_gap_ok
            assert not single.eigenvalues.flags.writeable and single.eigenvalues.shape == (1, 2 * n)
            gaps.append(reference.pf_gap_ok)
        assert not table.eigenvalues.flags.writeable and table.eigenvalues.shape == (points, 2 * n)
        assert not gaps[1] and not gaps[2] and sum(gaps) > points // 2

    def test_lattice_window_views_carry_their_companion(self, monkeypatch):
        views = []
        monkeypatch.setattr(lattice, "solve", lambda q: views.append(q) or qep.solve(q))
        params = models.LatticeParams()
        ky = float(lattice.chain_point_coords(params)[1])
        # The odd grid has a node on the chain point, an exceptional point.
        lattice.band_slice(params, ky, grid=(9, 7), window=((-0.2, 0.2), (-0.3, 0.3)))
        lattice.crossing_slopes(params, (0.0, ky, 0.0), "x", 0.1, n=5)
        assert len(views) == 9 * 7 + 10
        assert sum(map(self.gradients_equal_public_path, views)) == len(views)

    @pytest.mark.parametrize("name", sorted(models.MODELS))
    def test_non_finite_point_raises(self, name):
        params = models.MODELS[name].params()
        with pytest.raises(ValueError, match="non-finite"):
            models.builder(params)((0.1, np.nan, 0.2))
        with pytest.raises(ValueError, match="non-finite"):
            models.coefficients(params, [(0.1, 0.2, 0.3), (0.0, 0.0, np.nan), (0.2, 0.1, 0.0)])

    @pytest.mark.parametrize("name", sorted(models.MODELS))
    @pytest.mark.parametrize("mass", [0.0, -1.0, np.inf, np.nan])
    def test_mass_is_validated_with_the_params(self, name, mass):
        with pytest.raises(ValueError, match="must be positive and finite"):
            models.MODELS[name].params(**{"m" if name == "lattice" else "m0": mass})

    def test_wavevector_outside_the_zone_raises(self):
        kz = np.pi + 1e-6
        with pytest.raises(ValueError, match="kz outside the first Brillouin zone"):
            models.builder(models.LatticeParams())((0.1, 0.2, kz))
        with pytest.raises(ValueError, match="kz outside the first Brillouin zone"):
            lattice.band_slice(models.LatticeParams(), 0.2, grid=(4, 5), window=((-0.1, 0.1), (-kz, kz)))


class TestTheoretical:
    def test_decoupled_limit(self):
        q = models.theoretical_qmp(models.TheoreticalParams(dchi=0.0))
        assert np.allclose(q.stiffness, np.eye(2))
        assert np.abs(q.damping).max() == 0.0

    def test_stiffness_entries(self):
        q = models.theoretical_qmp(models.TheoreticalParams(dchi=-0.05, chi=0.1))
        assert np.allclose(q.stiffness, [[1.0, -0.1], [-0.05, 1.0]])

    def test_damping_trace_free(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = models.TheoreticalParams(gamma=rng.normal(), chi=rng.normal(), kappa=rng.normal())
            assert abs(np.trace(models.theoretical_qmp(p).damping)) < 1e-15

    def test_invariants(self):
        with pytest.raises(ValueError):
            models.TheoreticalParams(m0=-1.0)
        with pytest.raises(ValueError):
            models.TheoreticalParams(kbar=0.0)

    def test_gamma_symmetry_relation(self, theoretical_build):
        rng = np.random.default_rng(1)
        samples = [(complex(rng.normal(), rng.normal()), rng.normal(size=3) * 0.3) for _ in range(100)]
        rel = symmetry.builtin_relation("gamma")
        assert symmetry.relation_residual(theoretical_build, rel, samples) < 1e-12

    def test_kappa_symmetry_relation(self, theoretical_build):
        rng = np.random.default_rng(2)
        samples = [(complex(rng.normal(), rng.normal()), rng.normal(size=3) * 0.3) for _ in range(100)]
        rel = symmetry.builtin_relation("kappa")
        assert symmetry.relation_residual(theoretical_build, rel, samples) < 1e-12


class TestExperimental:
    def test_decoupled_damped(self):
        p = models.ExperimentalParams(gamma0=0.1, dchi=0.0, chi=0.0, kappa=0.2)
        q = models.experimental_qmp(p)
        assert np.allclose(q.stiffness, np.diag([1.0, 0.8]))
        assert np.allclose(q.damping, 0.1 * np.eye(2))

    def test_damping_average(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = models.ExperimentalParams(gamma0=0.085, gamma=rng.normal())
            g = models.experimental_qmp(p).damping
            assert np.trace(g).real / 2 == pytest.approx(0.085, abs=1e-15)

    def test_fitted_set_resonates_near_ten_hz(self):
        # kappa0/m0 = 4330 puts the pair of PF resonances near sqrt(4330)/2pi.
        p = models.ExperimentalParams(
            kappa0=4330.0, gamma0=0.085 * np.sqrt(4330.0), dchi=-0.073 * 4330.0
        )
        pf = qep.pf_bands(qep.solve(models.experimental_qmp(p)))
        freqs = [b.omega.real / (2 * np.pi) for b in pf]
        assert all(9.0 < f < 12.0 for f in freqs)

    def test_gamma_sub_relation_on_plane(self):
        build = models.builder(models.ExperimentalParams(gamma0=0.085))
        rng = np.random.default_rng(4)
        samples = [
            (complex(rng.normal(), rng.normal()), np.array([0.0, rng.normal() * 0.3, rng.normal() * 0.3]))
            for _ in range(100)
        ]
        rel = symmetry.builtin_relation("gamma-sub", gamma0=0.085)
        assert symmetry.relation_residual(build, rel, samples) < 1e-12

    def test_kappa_sub_relation_on_oblique_plane(self):
        g0 = 0.085
        build = models.builder(models.ExperimentalParams(gamma0=g0))
        rng = np.random.default_rng(5)
        samples = []
        for _ in range(100):
            gam = rng.normal() * 0.3
            samples.append(
                (complex(rng.normal(), rng.normal()), np.array([gam, rng.normal() * 0.3, g0 * gam / 2.0]))
            )
        rel = symmetry.builtin_relation("kappa-sub", gamma0=g0)
        assert symmetry.relation_residual(build, rel, samples) < 1e-12

    def test_shifted_form_displaces_spectrum(self):
        p = models.ExperimentalParams(gamma0=0.085, dchi=-0.073, chi=0.02, gamma=0.1)
        raw = qep.solve(models.experimental_qmp(p)).omegas
        shifted = qep.solve(models.experimental_shifted_qmp(p)).omegas
        assert multiset_distance(shifted - 1j * 0.085 / 2.0, raw) < 1e-9


class TestLattice:
    def test_gamma_point_real_symmetric(self):
        p = models.LatticeParams()
        k = models.lattice_bloch_qmp(p).stiffness
        off = -(p.kappa1 + p.kappa2 + 4 * p.chi)
        assert np.allclose(k, [[p.kappa0 + p.kappa1 + p.kappa2 + 4 * p.chi, off], [off, p.kappa0 + p.kappa1 + p.kappa2 + 4 * p.chi]])
        assert np.abs(k.imag).max() == 0.0

    def test_damping_is_minus_gamma_sigma_z(self):
        q = models.lattice_bloch_qmp(models.LatticeParams(gamma=0.7))
        assert np.allclose(q.damping, [[-0.7, 0.0], [0.0, 0.7]])

    def test_crystalline_relations(self):
        p = models.LatticeParams()
        build = models.builder(p)
        rng = np.random.default_rng(6)
        samples = [(complex(rng.normal(), rng.normal()), rng.uniform(-np.pi, np.pi, 3)) for _ in range(100)]
        for name in ("C2xT", "C2yT", "MzDagger"):
            rel = symmetry.builtin_relation(name)
            assert symmetry.relation_residual(build, rel, samples) < 1e-12

    def test_brillouin_zone_bounds(self):
        with pytest.raises(ValueError):
            models.LatticeParams(kx=3.5)

    def test_is_real_only_on_symmetry_planes(self):
        # K is Hermitian exactly where sin kx sin ky = 0 (lattice_bloch_qmp's docstring).
        p = models.LatticeParams()

        def anti_hermitian(k):
            stiffness = models.builder(p)(k).stiffness
            return np.abs(stiffness - stiffness.conj().T).max()

        for k in [(0.3, 0.0, 0.2), (0.0, -0.4, 1.1), (np.pi, 0.4, -0.2), (0.3, -np.pi, 0.2)]:
            assert anti_hermitian(k) < 1e-15
        assert anti_hermitian((0.3, 0.4, 0.2)) > 0.1


class TestEffectiveTwoBand:
    def test_trivial_reduction(self):
        q = qep.QuadraticMatrixPolynomial(
            mass=np.eye(2), stiffness=np.eye(2), damping=np.zeros((2, 2))
        )
        eff = models.effective_two_band(q, omega0=1.0)
        assert np.abs(eff.h_eff).max() == 0.0
        assert np.abs(eff.shifts).max() == 0.0

    def test_split_model_against_closed_form(self):
        q = models.theoretical_qmp(models.TheoreticalParams(chi=0.1, dchi=-0.05))
        eff = models.effective_two_band(q, omega0=1.0)
        half = (eff.shifts[1] - eff.shifts[0]).real / 2
        assert half == pytest.approx(np.sqrt(0.1 * 0.05) / 2, abs=1e-12)
        assert half == pytest.approx(0.035355, abs=1e-6)
        pf = qep.pf_bands(qep.solve(q))
        exact_half = (pf[1].omega - pf[0].omega).real / 2
        assert exact_half == pytest.approx(0.035378, abs=1e-6)
        assert abs(half - exact_half) / exact_half < 1e-3

    def test_default_omega0_from_stiffness_trace(self):
        q = models.theoretical_qmp(models.TheoreticalParams(kbar=2.0))
        eff = models.effective_two_band(q)
        assert eff.omega0 == pytest.approx(np.sqrt(2.0))

    def test_experimental_differs_by_identity_part(self):
        chi, kappa, gamma = 0.08, 0.03, 0.05
        qt = models.theoretical_qmp(models.TheoreticalParams(chi=chi, kappa=kappa, gamma=gamma, dchi=-0.05))
        qe = models.experimental_qmp(
            models.ExperimentalParams(gamma0=0.02, chi=chi, kappa=kappa, gamma=gamma, dchi=-0.05)
        )
        ht = models.effective_two_band(qt, omega0=1.0).h_eff
        he = models.effective_two_band(qe, omega0=1.0).h_eff
        diff = he - ht
        assert np.abs(diff - diff[0, 0] * np.eye(2)).max() < 1e-14
        st = np.linalg.eigvals(ht)
        se = np.linalg.eigvals(he)
        assert abs((st[1] - st[0]) - (se[1] - se[0])) < 1e-12 or abs((st[1] - st[0]) + (se[1] - se[0])) < 1e-12

    def test_convergence_order_at_least_two(self):
        errs = []
        eps_list = [0.1, 0.05, 0.025]
        for eps in eps_list:
            p = models.TheoreticalParams(
                dchi=-0.05 * eps, gamma=0.08 * eps, chi=0.10 * eps, kappa=0.06 * eps
            )
            q = models.theoretical_qmp(p)
            eff = models.effective_two_band(q, omega0=1.0)
            d_eff = eff.shifts[1] - eff.shifts[0]
            pf = qep.pf_bands(qep.solve(q))
            d_exact = pf[1].omega - pf[0].omega
            errs.append(abs(d_eff - d_exact))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert slope >= 1.9

    def test_requires_scalar_mass(self):
        q = qep.QuadraticMatrixPolynomial(
            mass=np.diag([1.0, 2.0]), stiffness=np.eye(2), damping=np.zeros((2, 2))
        )
        with pytest.raises(ValueError):
            models.effective_two_band(q, omega0=1.0)
