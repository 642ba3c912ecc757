import numpy as np
import pytest

from excepta import models, qep, retrieval as rt

K0 = 4330.0
TRUTH = dict(
    kappa0=K0,
    gamma0=0.085 * np.sqrt(K0),
    chi=0.082 * K0,
    dchi=-0.073 * K0,
    kappa=0.0,
    gamma=0.0,
    c=1.0,
)
FREQS = np.linspace(2.0, 22.0, 400)
MODEL = rt.FitModel(
    free=("kappa0", "gamma0", "chi", "dchi", "c"),
    bounds={
        "kappa0": (3000.0, 6000.0),
        "gamma0": (1.0, 20.0),
        "chi": (100.0, 800.0),
        "dchi": (-800.0, -10.0),
        "c": (0.2, 5.0),
    },
    fixed={"kappa": 0.0, "gamma": 0.0},
)


class TestSynth:
    def test_uncoupled_reciprocal_off_diagonals_vanish(self):
        params = dict(TRUTH, chi=0.0, dchi=0.0)
        s = rt.synth_response(params, FREQS)
        assert np.abs(s.curves[0, 1]).max() == 0.0
        assert np.abs(s.curves[1, 0]).max() == 0.0

    def test_matches_greens_magnitudes(self):
        # Dual route: the vectorized closed form against the generic inverse.
        p = models.ExperimentalParams(
            kappa0=K0, gamma0=TRUTH["gamma0"], dchi=TRUTH["dchi"], chi=TRUTH["chi"]
        )
        q = models.experimental_qmp(p)
        s = rt.synth_response(TRUTH, FREQS[:40])
        for i, f in enumerate(FREQS[:40]):
            g = np.linalg.inv(qep.evaluate(q, 2 * np.pi * f))
            for m in range(2):
                for n in range(2):
                    assert s.curves[m, n, i] == pytest.approx(abs(g[m, n]), rel=1e-10)

    def test_transfer_inverts_q(self):
        # The complex G, phases included, which the Jacobian differentiates.
        params = dict(TRUTH, kappa=40.0, gamma=1.5)
        p = models.ExperimentalParams(
            kappa0=K0, gamma0=TRUTH["gamma0"], dchi=TRUTH["dchi"], chi=TRUTH["chi"], kappa=40.0, gamma=1.5
        )
        q = models.experimental_qmp(p)
        g = rt._transfer(params, FREQS)
        for i, f in enumerate(FREQS):
            assert np.abs(g[:, :, i] @ qep.evaluate(q, 2 * np.pi * f) - np.eye(2)).max() < 1e-10

    def test_peaks_near_pf_resonances(self):
        # Resonances resolve only when the splitting beats the linewidth
        # gamma0 / 2; the strongest-coupling setting does.
        wide = dict(TRUTH, chi=0.140 * K0)
        s = rt.synth_response(wide, FREQS)
        p = models.ExperimentalParams(
            kappa0=K0, gamma0=wide["gamma0"], dchi=wide["dchi"], chi=wide["chi"]
        )
        pf = qep.pf_bands(qep.solve(models.experimental_qmp(p)))
        mag = s.curves[0, 0]
        peaks = [
            FREQS[i]
            for i in range(1, len(FREQS) - 1)
            if mag[i] > mag[i - 1] and mag[i] > mag[i + 1]
        ]
        assert len(peaks) == 2
        for peak, band in zip(sorted(peaks), pf):
            assert abs(peak - band.omega.real / (2 * np.pi)) < 0.2

    def test_nonreciprocal_asymmetry(self):
        s = rt.synth_response(TRUTH, FREQS)
        assert np.abs(s.curves[0, 1] - s.curves[1, 0]).max() > 1e-4

    def test_noise_deterministic_per_seed(self):
        a = rt.synth_response(TRUTH, FREQS, noise=0.01, seed=3)
        b = rt.synth_response(TRUTH, FREQS, noise=0.01, seed=3)
        c = rt.synth_response(TRUTH, FREQS, noise=0.01, seed=4)
        assert np.array_equal(a.curves, b.curves)
        assert not np.array_equal(a.curves, c.curves)


class TestJacobian:
    # Central-difference steps: absolute, sized to each parameter's scale.
    STEPS = dict(kappa0=1e-3, gamma0=1e-6, chi=1e-3, dchi=1e-3, kappa=1e-3, gamma=1e-6, c=1e-6)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = dict(
                kappa0=rng.uniform(3000.0, 6000.0),
                gamma0=rng.uniform(1.0, 20.0),
                chi=rng.uniform(100.0, 800.0),
                dchi=rng.uniform(-800.0, -10.0),
                kappa=rng.uniform(-100.0, 100.0),
                gamma=rng.uniform(-2.0, 2.0),
                c=rng.uniform(0.2, 5.0),
            )
            jac = rt._jacobian(p, FREQS, rt.PARAM_NAMES)
            for i, name in enumerate(rt.PARAM_NAMES):
                h = self.STEPS[name]
                up = rt.response_magnitudes(dict(p, **{name: p[name] + h}), FREQS)
                down = rt.response_magnitudes(dict(p, **{name: p[name] - h}), FREQS)
                fd = ((up - down) / (2 * h)).reshape(-1)
                assert np.abs(jac[:, i] - fd).max() < 1e-7 * np.abs(fd).max(), name

    def test_finite_where_g21_vanishes(self):
        # chi + dchi = 0 lies inside the default bounds; |G_21| is 0 there.
        p = dict(TRUTH, dchi=-TRUTH["chi"])
        assert rt.response_magnitudes(p, FREQS)[1, 0].max() == 0.0
        assert np.all(np.isfinite(rt._jacobian(p, FREQS, MODEL.free)))


class TestFit:
    def test_zero_noise_round_trip(self):
        data = rt.synth_response(TRUTH, FREQS)
        res = rt.fit_parameters(data, MODEL, starts=8, seed=3)
        for name in MODEL.free:
            assert abs(res.params[name] - TRUTH[name]) / abs(TRUTH[name]) < 1e-6
        assert res.rms_residual < 1e-12

    def test_scale_consistency(self):
        data = rt.synth_response(TRUTH, FREQS)
        scaled = rt.ResponseSpectra(freqs=data.freqs, curves=3.7 * data.curves)
        r1 = rt.fit_parameters(data, MODEL, starts=6, seed=5)
        r2 = rt.fit_parameters(scaled, MODEL, starts=6, seed=5)
        assert r2.params["c"] / r1.params["c"] == pytest.approx(3.7, rel=1e-8)
        for name in ("kappa0", "gamma0", "chi", "dchi"):
            assert abs(r2.params[name] - r1.params[name]) / abs(r1.params[name]) < 1e-8

    def test_noisy_recovery_smoke(self):
        data = rt.synth_response(TRUTH, FREQS, noise=0.01, seed=2)
        res = rt.fit_parameters(data, MODEL, starts=8, seed=100)
        assert abs(res.params["dchi"] - TRUTH["dchi"]) / abs(TRUTH["dchi"]) < 0.05
        assert abs(res.params["gamma0"] - TRUTH["gamma0"]) / abs(TRUTH["gamma0"]) < 0.05

    def test_requires_c_free(self):
        with pytest.raises(ValueError):
            rt.FitModel(free=("kappa0",), bounds={"kappa0": (1.0, 2.0)})

    def test_requires_a_start(self):
        data = rt.synth_response(TRUTH, FREQS)
        for starts in (0, -3):
            with pytest.raises(ValueError, match="at least one start"):
                rt.fit_parameters(data, MODEL, starts=starts)

    def test_requires_enough_samples(self):
        data = rt.synth_response(TRUTH, FREQS[:30])
        with pytest.raises(ValueError):
            rt.fit_parameters(data, MODEL)


class TestParabola:
    def test_exact_recovery(self):
        rs = np.array([0.0, 0.01, 0.02, 0.03, 0.04, 0.05])
        pts = np.stack([rs, 0.042 + 85.0 * rs**2], axis=1)
        a0, a2, resid = rt.chi_parabola_fit(pts)
        assert a0 == pytest.approx(0.042, abs=1e-10)
        assert a2 == pytest.approx(85.0, abs=1e-8)
        assert resid < 1e-12

    def test_two_points_exact_interpolation(self):
        pts = np.array([[0.01, 0.05], [0.03, 0.13]])
        a0, a2, resid = rt.chi_parabola_fit(pts)
        assert resid < 1e-14
        for r, y in pts:
            assert a0 + a2 * r**2 == pytest.approx(y, abs=1e-12)

    def test_degenerate_abscissae(self):
        with pytest.raises(ValueError):
            rt.chi_parabola_fit([[0.02, 1.0], [0.02, 2.0]])


class TestCsv:
    def test_round_trip(self):
        s = rt.synth_response(TRUTH, FREQS[:60], noise=0.01, seed=9)
        text = rt.spectra_to_csv(s)
        s2 = rt.spectra_from_csv(text)
        assert np.allclose(s2.freqs, s.freqs)
        assert np.abs(s2.curves - s.curves).max() < 1e-11 * s.curves.max()
        assert text.endswith("\n") and "\r" not in text

    def test_rejects_non_finite_magnitudes(self):
        lines = rt.spectra_to_csv(rt.synth_response(TRUTH, FREQS[:60])).splitlines()
        lines[5] = ",".join(lines[5].split(",")[:-1] + ["nan"])
        with pytest.raises(ValueError, match="finite"):
            rt.spectra_from_csv("\n".join(lines))


class TestCouplingSweep:
    def test_three_connection_settings_recovered(self):
        # Truth couplings for the three connection radii; each noisy data
        # set must give the coupling back within a few noise-level spreads.
        for chi_over_k0 in (0.038, 0.082, 0.140):
            truth = dict(TRUTH, chi=chi_over_k0 * K0)
            data = rt.synth_response(truth, FREQS, noise=0.01, seed=7)
            res = rt.fit_parameters(data, MODEL, starts=8, seed=70)
            assert abs(res.params["chi"] - truth["chi"]) / truth["chi"] < 0.05

    def test_no_fit_stops_above_the_truth_residual(self):
        # The sign-flipped chi + dchi basin holds a local minimum about 25
        # times the noise floor; a fit that ends there has a larger residual
        # than the true parameters themselves.
        for chi_over_k0 in (0.038, 0.082, 0.140):
            truth = dict(TRUTH, chi=chi_over_k0 * K0)
            for seed in range(10):
                data = rt.synth_response(truth, FREQS, noise=0.01, seed=seed)
                res = rt.fit_parameters(data, MODEL, starts=8, seed=1000 + seed)
                at_truth = np.sum((rt.response_magnitudes(truth, FREQS) - data.curves) ** 2)
                assert res.rms_residual**2 * data.curves.size <= at_truth, (chi_over_k0, seed)


class TestAlgebraicStart:
    BOUNDS = dict(
        kappa0=(3000.0, 6000.0), gamma0=(1.0, 20.0), chi=(100.0, 800.0), dchi=(-800.0, -10.0),
        kappa=(-100.0, 100.0), gamma=(-2.0, 2.0), c=(0.2, 5.0),
    )

    def test_no_random_truth_ends_above_its_residual(self):
        # All seven parameters free; the four best sign candidates are polished.
        model = rt.FitModel(free=rt.PARAM_NAMES, bounds=self.BOUNDS)
        rng = np.random.default_rng(2024)
        for i in range(30):
            truth = {name: rng.uniform(*self.BOUNDS[name]) for name in rt.PARAM_NAMES}
            data = rt.synth_response(truth, FREQS, noise=0.01, seed=i)
            res = rt.fit_parameters(data, model, starts=4)
            at_truth = np.sum((rt.response_magnitudes(truth, FREQS) - data.curves) ** 2)
            assert res.rms_residual**2 * data.curves.size <= at_truth, i

    def test_vanishing_return_coupling(self):
        # chi + dchi = 0: |G21| is identically zero and the ratio y21/y12 is 0.
        truth = dict(TRUTH, dchi=-TRUTH["chi"])
        data = rt.synth_response(truth, FREQS, noise=0.01, seed=1)
        assert data.curves[1, 0].max() == 0.0
        res = rt.fit_parameters(data, MODEL)
        at_truth = np.sum((rt.response_magnitudes(truth, FREQS) - data.curves) ** 2)
        assert res.rms_residual**2 * data.curves.size <= at_truth
        assert abs(res.params["chi"] + res.params["dchi"]) < 1e-3 * truth["chi"]

    def test_exact_start_is_not_a_failure(self):
        # With everything but c pinned at the truth, the linear c is already exact.
        model = rt.FitModel(free=("c",), bounds={"c": (0.2, 5.0)}, fixed={k: v for k, v in TRUTH.items() if k != "c"})
        res = rt.fit_parameters(rt.synth_response(TRUTH, FREQS), model)
        assert res.params["c"] == pytest.approx(1.0, rel=1e-15)
        assert res.rms_residual < 1e-15

    def test_vanishing_g12_raises(self):
        data = rt.synth_response(dict(TRUTH, chi=0.0), FREQS)
        with pytest.raises(ValueError, match="G12"):
            rt.fit_parameters(data, MODEL)

    def test_seed_does_not_change_the_result(self):
        data = rt.synth_response(TRUTH, FREQS, noise=0.01, seed=5)
        a = rt.fit_parameters(data, MODEL, starts=4, seed=0)
        b = rt.fit_parameters(data, MODEL, starts=4, seed=99)
        assert a == b
