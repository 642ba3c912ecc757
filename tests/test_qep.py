import numpy as np
import pytest
import scipy.linalg

from conftest import frequency_clusters, multiset_distance
from excepta import models, qep, topology
from excepta.numkernel import MAX_ASSIGNMENT
from excepta.models import ExperimentalParams, TheoreticalParams, experimental_qmp, theoretical_qmp
from excepta.qep import QuadraticMatrixPolynomial as QMP


def uncoupled():
    return theoretical_qmp(TheoreticalParams(chi=0.0, dchi=0.0))


def split_model():
    return theoretical_qmp(TheoreticalParams(chi=0.1, dchi=-0.05))


def ep_model():
    return theoretical_qmp(TheoreticalParams(chi=0.05, dchi=-0.05))


# Closed form for the gamma = kappa = 0 family: w = +-sqrt(kbar +- sqrt(chi (chi + dchi)))
SPLIT_OMEGAS = sorted(
    [
        np.sqrt(1 + np.sqrt(0.1 * 0.05)),
        np.sqrt(1 - np.sqrt(0.1 * 0.05)),
        -np.sqrt(1 + np.sqrt(0.1 * 0.05)),
        -np.sqrt(1 - np.sqrt(0.1 * 0.05)),
    ],
    key=lambda x: x,
)


class TestConstruction:
    def test_requires_square_same_shape(self):
        with pytest.raises(ValueError):
            QMP(mass=np.eye(2), stiffness=np.eye(3), damping=np.zeros((2, 2)))

    def test_rejects_singular_mass(self):
        for mass in (np.zeros((2, 2)), np.ones((2, 2))):
            with pytest.raises(ValueError, match="singular"):
                QMP(mass=mass, stiffness=np.eye(2), damping=np.zeros((2, 2)))


class TestEvaluate:
    def test_omega_zero_gives_minus_stiffness(self):
        q = split_model()
        assert np.allclose(qep.evaluate(q, 0.0), -q.stiffness)

    def test_unit_everything_vanishes(self):
        q = QMP(mass=np.eye(2), stiffness=np.eye(2), damping=np.zeros((2, 2)))
        assert np.abs(qep.evaluate(q, 1.0)).max() == 0.0

    def test_rank_one_at_ep_parameters(self):
        q = ep_model()
        val = qep.evaluate(q, 1.0)
        assert np.allclose(val, [[0.0, 0.05], [0.0, 0.0]])
        assert np.linalg.matrix_rank(val) == 1


class TestLinearize:
    def test_single_oscillator(self):
        q = QMP(mass=np.eye(1), stiffness=np.eye(1), damping=np.zeros((1, 1)))
        h = qep.linearize(q)
        assert np.allclose(h, 1j * np.array([[0, 1], [-1, 0]]))
        assert multiset_distance(np.linalg.eigvals(h), [1.0, -1.0]) < 1e-12

    def test_split_model_eigenvalues(self):
        h = qep.linearize(split_model())
        assert multiset_distance(np.linalg.eigvals(h), SPLIT_OMEGAS) < 1e-10

    def test_real_qmp_gives_antireal_hamiltonian(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = QMP(
                mass=np.diag(rng.uniform(0.5, 2, 2)),
                stiffness=rng.normal(size=(2, 2)),
                damping=rng.normal(size=(2, 2)),
            )
            h = qep.linearize(q)
            assert np.abs(h.conj() + h).max() < 1e-14

    def test_stacked_eigenvector_form(self):
        q = split_model()
        h = qep.linearize(q)
        s = qep.solve(q)
        for p in s.pairs:
            stacked = np.concatenate([p.right, -1j * p.omega * p.right])
            assert np.linalg.norm(h @ stacked - p.omega * stacked) < 1e-8


class TestSolve:
    def test_uncoupled_doubly_degenerate(self):
        s = qep.solve(uncoupled())
        # Double roots are located to about sqrt(machine epsilon).
        assert multiset_distance(s.omegas, [1.0, 1.0, -1.0, -1.0]) < 5e-6
        assert s.ep_clusters == ()  # diabolic, not exceptional

    def test_split_model_distinct_vectors(self):
        s = qep.solve(split_model())
        assert multiset_distance(s.omegas, SPLIT_OMEGAS) < 1e-10
        pf = qep.pf_bands(s)
        assert abs(np.vdot(pf[0].right, pf[1].right)) < 1 - 1e-3

    def test_damped_exact_diabolic_pair_not_exceptional(self):
        # Q(w) is a scalar times I: every root is a double root with two vectors.
        s = qep.solve(QMP(mass=np.eye(2), stiffness=1.7 * np.eye(2), damping=0.1 * np.eye(2)))
        assert s.ep_clusters == ()

    def test_single_oscillator_double_root_is_exceptional(self):
        # Critical damping g^2 = 4 m k: the double root w = -i is defective.
        s = qep.solve(QMP(mass=np.eye(1), stiffness=np.eye(1), damping=2.0 * np.eye(1)))
        assert s.ep_clusters == ((0, 1),)

    def test_ep_clusters_need_no_eigenvectors(self, monkeypatch):
        monkeypatch.setattr(qep, "_eigenpairs", lambda *args: pytest.fail("eigenvectors computed"))
        assert qep.solve(ep_model()).ep_clusters == ((0, 1), (2, 3))

    def test_ep_flagged_with_coalesced_vector(self):
        s = qep.solve(ep_model())
        assert multiset_distance(s.omegas, [1.0, 1.0, -1.0, -1.0]) < 1e-6
        assert len(s.ep_clusters) == 2  # PF and NF copies

    def test_residual_contract(self):
        q = theoretical_qmp(TheoreticalParams(gamma=0.2, chi=0.08, kappa=0.05))
        s = qep.solve(q)
        for p in s.pairs:
            qn = qep.evaluate(q, p.omega)
            assert np.linalg.norm(qn @ p.right) < 1e-9 * max(np.linalg.norm(qn), 1.0)


def random_real_qmp(rng, n):
    return QMP(
        mass=np.diag(rng.uniform(0.5, 2, n)),
        stiffness=rng.normal(size=(n, n)),
        damping=0.4 * rng.normal(size=(n, n)),
    )


def pencil_eigvals(q):
    """QZ eigenvalues of A x = w B x with x = (psi, w psi): no M^-1, no companion matrix."""
    n = q.dim
    zero, eye = np.zeros((n, n)), np.eye(n)
    a = np.block([[zero, eye], [q.stiffness, -1j * q.damping]])
    b = np.block([[eye, zero], [zero, q.mass]])
    return scipy.linalg.eigvals(a, b)


class TestKernel:
    @pytest.mark.parametrize("n", [2, 8, 24, 64])
    def test_matches_pencil_up_to_dimension_cap(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            q = random_real_qmp(rng, n)
            s = qep.solve(q)
            ref = pencil_eigvals(q)
            assert multiset_distance(s.omegas, ref) < 1e-9 * np.abs(ref).max()
            if 2 * n <= MAX_ASSIGNMENT:
                assert qep.particle_hole_residual(s) < 1e-9
            else:  # above the assignment cap the library raises; the oracle checks the pairing
                assert multiset_distance(s.omegas, -s.omegas.conj()) < 1e-9
                with pytest.raises(ValueError):
                    qep.particle_hole_residual(s)

    def test_sorted_by_real_then_imaginary(self):
        w = qep.solve(random_real_qmp(np.random.default_rng(10), 8)).omegas
        assert np.array_equal(w, w[np.lexsort((w.imag, w.real))])

    def test_repeated_calls_bit_identical(self):
        q = random_real_qmp(np.random.default_rng(11), 24)
        a, b = qep.solve(q), qep.solve(q)
        assert np.array_equal(a.omegas, b.omegas)
        assert a.ep_clusters == b.ep_clusters
        assert all(np.array_equal(x.right, y.right) for x, y in zip(a.pairs, b.pairs))

    def test_pf_omegas_match_pf_bands(self):
        s = qep.solve(theoretical_qmp(TheoreticalParams(gamma=0.2, chi=0.08, kappa=0.05)))
        assert np.array_equal(qep.pf_omegas(s), [p.omega for p in qep.pf_bands(s)])


class TestParticleHole:
    def test_trivial_pair(self):
        s = qep.solve(QMP(mass=np.eye(1), stiffness=np.eye(1), damping=np.zeros((1, 1))))
        assert qep.particle_hole_residual(s) < 1e-12

    def test_real_split_spectrum_self_paired(self):
        assert qep.particle_hole_residual(qep.solve(split_model())) < 1e-10

    def test_lossy_spectrum_pairs_across_sign(self):
        p = ExperimentalParams(gamma0=0.1, dchi=-0.05, chi=0.03)
        s = qep.solve(experimental_qmp(p))
        assert qep.particle_hole_residual(s) < 1e-10

    def test_random_real_qmps(self):
        rng = np.random.default_rng(9)
        for i in range(200):
            n = 2 if i % 2 == 0 else 3
            q = QMP(
                mass=np.diag(rng.uniform(0.5, 2, n)),
                stiffness=rng.normal(size=(n, n)),
                damping=0.5 * rng.normal(size=(n, n)),
            )
            assert qep.particle_hole_residual(qep.solve(q)) < 1e-9


class TestPfBands:
    def test_split_model(self):
        pf = qep.pf_bands(qep.solve(split_model()))
        assert pf[0].omega.real == pytest.approx(0.963996, abs=1e-6)
        assert pf[1].omega.real == pytest.approx(1.034752, abs=1e-6)

    def test_degenerate_pf_pair(self):
        pf = qep.pf_bands(qep.solve(uncoupled()))
        assert len(pf) == 2
        assert all(abs(p.omega - 1.0) < 5e-6 for p in pf)

    def test_gap_violation_raises(self):
        # One oscillator with zero stiffness: eigenfrequencies at 0.
        q = QMP(mass=np.eye(1), stiffness=np.zeros((1, 1)), damping=np.zeros((1, 1)))
        s = qep.solve(q)
        assert not s.pf_gap_ok
        with pytest.raises(qep.SpectralGapError):
            qep.pf_bands(s)
        with pytest.raises(qep.SpectralGapError):
            qep.pf_omegas(s)

    def test_gap_rule_on_python_floats_matches_numpy(self):
        def numpy_rule(w):
            top = np.abs(w).max()
            return top != 0.0 and bool(np.abs(w.real).min() > max(qep.PF_GAP_RTOL * top, 1e-6 * max(1.0, top)))

        rng = np.random.default_rng(35)
        outcomes, spectra = [], []
        for _ in range(2000):
            # Real parts from 1e-9 to 1 of the scale straddle both thresholds.
            w = 10.0 ** rng.uniform(-8, 4) * (rng.normal(size=4) * 10.0 ** rng.uniform(-9, 0, 4) + 1j * rng.normal(size=4))
            outcomes.append(qep._pf_gap_ok(w))
            assert outcomes[-1] == numpy_rule(w)
            spectra.append(w)
        assert 0 < sum(outcomes) < len(outcomes)
        assert not qep._pf_gap_ok(np.zeros(4, complex))
        spectra.append(np.zeros(4, complex))
        for bad in (np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(np.inf, 1.0)):
            for i in range(4):
                w = np.array([-2.0, -1.0, 1.0, 2.0], dtype=complex)
                w[i] = bad
                assert not qep._pf_gap_ok(w)
                spectra.append(w)
        # The same spectra as one stack: the vectorized rule agrees row by row.
        rows, flags = qep.sorted_spectra(np.array(spectra))
        for w, row, flag in zip(spectra, rows, flags):
            assert row.tobytes() == w[np.lexsort((w.imag, w.real))].tobytes()
            assert flag is qep._pf_gap_ok(row) is qep._pf_gap_ok(w)
        assert list(flags[:2000]) == outcomes and not any(flags[2000:])


    def test_stacked_cluster_rule_matches_the_scalar_rule(self):
        # Neighbours placed at the tolerance, a few ulps either side, where the rules could round apart.
        rng = np.random.default_rng(44)
        rows, placed = [], 0
        for _ in range(400):
            w = 10.0 ** rng.uniform(-2, 3) * (rng.normal(size=6) + 1j * rng.normal(size=6))
            w[0] *= 2.0 * np.abs(w).max() / abs(w[0])  # the largest |w|, which sets the tolerance
            tol = qep.EP_OMEGA_RTOL * max(1.0, abs(w[0]))
            for j in sorted(rng.choice(np.arange(1, 5), size=rng.integers(1, 4), replace=False).tolist()):
                step = tol * (1.0 + rng.integers(-2, 3) * 2.0**-52)
                if rng.random() < 0.5:  # a real step off a purely imaginary frequency: |difference| is step exactly
                    w[j] = 1j * w[j].imag
                else:
                    step *= np.exp(1j * rng.uniform(-1.5, 1.5))
                w[j + 1] = w[j] + step
                placed += 1
            rows.append(w[np.lexsort((w.imag, w.real))])
        stacked = qep.close_neighbours(np.array(rows))
        for w, close in zip(rows, stacked.tolist()):
            scalar = [len(c) > 1 and i < len(c) - 1 for c in frequency_clusters(w) for i in range(len(c))]
            assert close == scalar[:-1]
        assert 0 < stacked.sum() < placed


class TestPairGradient:
    # (builder, half-width of the sampled cube) for every model that carries derivatives.
    BUILDERS = {
        "theoretical": (lambda: models.theoretical_builder(dchi=-0.05), 0.3),
        "experimental": (lambda: models.builder(ExperimentalParams()), 0.3),
        "lattice": (lambda: models.builder(models.LatticeParams()), np.pi),
        "theoretical_delta_k": (
            lambda: models.theoretical_builder(dchi=-0.05, delta_k=np.array([[0.0, 0.01j], [0.003, 0.0]])),
            0.3,
        ),
    }

    @staticmethod
    def gradient(build, point):
        q = build(np.asarray(point, dtype=float))
        return qep.pair_gradient(qep.solve(q), q.derivatives())

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_matches_central_differences(self, name):
        make, half = self.BUILDERS[name]
        build = make()

        def delta(x):
            return topology.pf_discriminant(qep.solve(build(x)))

        rng = np.random.default_rng(33)
        for _ in range(12):
            x = rng.uniform(-half, half, 3)
            fd = np.zeros(3, dtype=complex)
            for k in range(3):
                h = np.zeros(3)
                h[k] = 1e-6 * (1.0 + abs(x[k]))
                fd[k] = (delta(x + h) - delta(x - h)) / (2.0 * h[k])
            assert np.abs(self.gradient(build, x) - fd).max() <= 1e-7 * np.abs(fd).max()

    def test_exact_at_the_exceptional_chain_point(self):
        # D+ = 0 here, where the simple-eigenvalue formula breaks down.
        grad = self.gradient(models.theoretical_builder(dchi=-0.05), (0.0, 0.05, 0.0))
        assert np.abs(grad - np.array([0.0, 0.05, 0.0])).max() < 1e-12

    def test_more_than_one_pf_pair_raises(self):
        q = QMP(mass=np.eye(3), stiffness=np.diag([1.0, 2.0, 3.0]), damping=0.01 * np.eye(3))
        with pytest.raises(ValueError, match="one PF pair"):
            qep.pair_gradient(qep.solve(q), (np.zeros((1, 3, 3)), np.zeros((1, 3, 3))))

    def test_perturbations_keep_the_derivatives(self):
        # delta_k is a table edit: it shifts every K by a point-independent
        # matrix, so the table's derivatives stay exact.
        g = np.array([0.2, 0.08, 0.05])
        plain = models.theoretical_builder(dchi=-0.05)(g)
        probed = models.theoretical_builder(dchi=-0.05, delta_k=0.01 * np.eye(2))(g)
        assert np.array_equal(probed.stiffness, plain.stiffness + 0.01 * np.eye(2))
        for d_probed, d_plain in zip(probed.derivatives(), plain.derivatives()):
            assert np.array_equal(d_probed, d_plain)
