from dataclasses import replace

import numpy as np
import pytest

from conftest import multiset_distance
from excepta import models, qep, symmetry
from excepta.models import SIGMA_X
from excepta.symmetry import velocity_block


def h_theoretical(g, dchi=-0.05, perturb_k=None):
    return qep.linearize(models.theoretical_builder(dchi=dchi, delta_k=perturb_k)(g))


class TestRelationResidual:
    def test_detects_unbalanced_loss(self, theoretical_build):
        def broken(g):
            q = theoretical_build(g)
            return replace(q, damping=q.damping + np.diag([0.01, 0.0]))

        rng = np.random.default_rng(0)
        samples = [(complex(rng.normal(), rng.normal()), rng.normal(size=3) * 0.3) for _ in range(100)]
        res = symmetry.relation_residual(broken, symmetry.builtin_relation("gamma"), samples)
        assert res > 1e-4

    def test_unknown_relation(self):
        with pytest.raises(KeyError):
            symmetry.builtin_relation("nope")

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            symmetry.SymmetryRelation("bad", 2.0 * np.eye(2), np.eye(2))


class TestIsospectralReduction:
    def test_block_diagonal_is_plain_block(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        for w in (0.3 + 0.1j, -1.2, 2.5j):
            r = symmetry.isospectral_reduction(h, (2, 3), w)
            assert np.allclose(r, np.diag([3.0, 4.0]))

    def test_velocity_block_closed_form(self):
        q = models.theoretical_qmp(models.TheoreticalParams(gamma=0.1, chi=0.07, kappa=0.03))
        h = qep.linearize(q)
        for w in (0.9 + 0.1j, 1.3, -0.4 + 0.8j):
            r = symmetry.isospectral_reduction(h, velocity_block(2), w)
            assert np.abs(r - symmetry.velocity_reduction_closed_form(q, w)).max() < 1e-12

    def test_nonlinear_eigenproblem_matches_qep(self):
        q = models.theoretical_qmp(models.TheoreticalParams(gamma=0.15, chi=0.06, kappa=0.02))
        h = qep.linearize(q)
        for w in qep.solve(q).omegas:
            r = symmetry.isospectral_reduction(h, velocity_block(2), w)
            assert abs(np.linalg.det(r - w * np.eye(2))) < 1e-10

    def test_pole_error(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        with pytest.raises(symmetry.PoleError):
            symmetry.isospectral_reduction(h, (2, 3), 1.0)


class TestLatentResidual:
    def test_theoretical_model_passes(self):
        g = np.array([0.13, 0.07, 0.04])
        gm = g * np.array([1.0, 1.0, -1.0])
        res = symmetry.latent_residual(h_theoretical(gm), h_theoretical(g), SIGMA_X, velocity_block(2), 4)
        assert res < 1e-12

    def test_experimental_on_oblique_plane(self):
        p = models.ExperimentalParams(gamma0=0.085, dchi=-0.073)
        gam, chi = 0.2, 0.1
        g = np.array([gam, chi, 0.085 * gam / 2.0])
        h = qep.linearize(models.experimental_shifted_qmp(p.at(g)))
        assert symmetry.latent_residual(h, h, SIGMA_X, velocity_block(2), 4) < 1e-12

    def test_experimental_off_plane_fails(self):
        p = models.ExperimentalParams(gamma0=0.085, dchi=-0.073)
        g = np.array([0.2, 0.1, 0.05])
        h = qep.linearize(models.experimental_shifted_qmp(p.at(g)))
        assert symmetry.latent_residual(h, h, SIGMA_X, velocity_block(2), 4) > 1e-4

    def test_uncompensated_coupling_shift_detected(self):
        # Perturbing K12 in the system but not in the nominal mapped family
        # shifts the antisymmetric coupling channel linearly.
        g = np.array([0.13, 0.07, 0.04])
        gm = g * np.array([1.0, 1.0, -1.0])
        res = symmetry.latent_residual(
            h_theoretical(gm),
            h_theoretical(g, perturb_k=[[0.0, 0.01], [0.0, 0.0]]),
            SIGMA_X,
            velocity_block(2),
            4,
        )
        assert res > 1e-4

    def test_reabsorbable_perturbation_keeps_symmetry(self):
        # The same real K12 shift applied on both sides of the map is a
        # reparameterization of (chi, dchi) and must NOT be flagged.
        g = np.array([0.13, 0.07, 0.04])
        gm = g * np.array([1.0, 1.0, -1.0])
        dk = [[0.0, 0.01], [0.0, 0.0]]
        res = symmetry.latent_residual(
            h_theoretical(gm, perturb_k=dk),
            h_theoretical(g, perturb_k=dk),
            SIGMA_X,
            velocity_block(2),
            4,
        )
        assert res < 1e-12


class TestTheorem2:
    def test_symmetric_model_passes_both(self):
        g = np.array([0.13, 0.07, 0.04])
        gm = g * np.array([1.0, 1.0, -1.0])
        res = symmetry.theorem2_crosscheck(h_theoretical(gm), h_theoretical(g), SIGMA_X, velocity_block(2))
        assert res.passed and not res.one_sided

    def test_broken_model_fails_both(self):
        g = np.array([0.13, 0.07, 0.04])
        gm = g * np.array([1.0, 1.0, -1.0])
        res = symmetry.theorem2_crosscheck(
            h_theoretical(gm),
            h_theoretical(g, perturb_k=[[0.0, 0.01], [0.0, 0.0]]),
            SIGMA_X,
            velocity_block(2),
        )
        assert (not res.latent_ok) and (not res.reduction_ok)

    def test_hermitian_block_diagonal_trivially_true(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        res = symmetry.theorem2_crosscheck(h, h, np.eye(2), (2, 3))
        assert res.passed

    def test_equivalence_no_one_sided(self):
        rng = np.random.default_rng(42)
        outcomes = []
        for i in range(60):
            if i % 2 == 0:
                kbar = rng.uniform(0.5, 2.0)
                dchi = rng.normal() * 0.1
                g = np.array([rng.normal() * 0.3, rng.normal() * 0.3, rng.normal() * 0.3])
                gm = g * np.array([1.0, 1.0, -1.0])
                q = models.theoretical_qmp(models.TheoreticalParams(kbar=kbar, dchi=dchi).at(g))
                qm = models.theoretical_qmp(models.TheoreticalParams(kbar=kbar, dchi=dchi).at(gm))
                ha, hb = qep.linearize(qm), qep.linearize(q)
            else:
                hb = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                ha = hb
            res = symmetry.theorem2_crosscheck(ha, hb, SIGMA_X, velocity_block(2))
            outcomes.append((res.latent_ok, res.reduction_ok, i % 2 == 0))
        assert all(l == r for l, r, _ in outcomes)
        assert all(l for l, _, sym in outcomes if sym)
        assert not any(l for l, _, sym in outcomes if not sym)


class TestSpectralConsequences:
    def test_kappa_plane_real_or_conjugate_pairs(self, theoretical_build):
        rng = np.random.default_rng(7)
        for _ in range(40):
            g = np.array([rng.normal() * 0.3, rng.normal() * 0.3, 0.0])
            w = qep.solve(theoretical_build(g)).omegas
            assert multiset_distance(w, w.conj()) < 1e-9

    def test_oblique_plane_pairing(self):
        g0 = 0.085
        build = models.builder(models.ExperimentalParams(gamma0=g0, dchi=-0.073))
        rng = np.random.default_rng(8)
        for _ in range(40):
            gam = rng.normal() * 0.3
            g = np.array([gam, rng.normal() * 0.3, g0 * gam / 2.0])
            w = qep.solve(build(g)).omegas
            assert multiset_distance(w, w.conj() - 1j * g0) < 1e-9
