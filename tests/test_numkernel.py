import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excepta import numkernel as nk
from excepta import qep


def poly_from_roots(roots, lead=1.0):
    acc = np.array([lead], dtype=complex)
    for r in roots:
        acc = np.convolve(acc, [-r, 1.0])
    return acc


class TestPolyRoots:
    def test_quadratic_factorable(self):
        roots = sorted(nk.poly_roots([-1.0, 0.0, 1.0]), key=lambda z: z.real)
        assert np.allclose(roots, [-1.0, 1.0], atol=1e-12)

    def test_biquadratic_against_quadratic_formula(self):
        # Oracle: w^4 - (a+b) w^2 + ab factors over w^2.
        a, b = 1.070711, 0.929289
        expected = sorted(
            [np.sqrt(a), -np.sqrt(a), np.sqrt(b), -np.sqrt(b)], key=lambda z: z.real
        )
        got = np.sort_complex(nk.poly_roots([a * b, 0.0, -(a + b), 0.0, 1.0]))
        assert multimax(got, expected) < 1e-10
        assert np.allclose(sorted(abs(r) for r in got), [0.963996, 0.963996, 1.034752, 1.034752], atol=1e-6)

    def test_triple_root_residual(self):
        c = poly_from_roots([1 + 2j] * 3)
        roots = nk.poly_roots(c)
        resid = np.max(np.abs(nk.poly_eval(c, roots))) / np.max(np.abs(c))
        assert resid < 1e-12
        assert np.allclose(roots, 1 + 2j, atol=1e-3)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.complex_numbers(min_magnitude=0, max_magnitude=3, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=8,
        )
    )
    def test_reconstruction(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        c[-1] = c[-1] if abs(c[-1]) > 0.1 else 1.0
        roots = nk.poly_roots(c)
        recon = poly_from_roots(roots, lead=c[-1])
        assert np.max(np.abs(recon - c)) / np.max(np.abs(c)) < 1e-8

    def test_deterministic(self):
        c = [0.3 - 1j, 2.0, -0.5j, 1.0]
        r1 = nk.poly_roots(c)
        r2 = nk.poly_roots(c)
        assert np.array_equal(r1, r2)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            nk.poly_roots([1.0])

    def test_rejects_zero_leading(self):
        with pytest.raises(ValueError):
            nk.poly_roots([1.0, 2.0, 0.0])


def multimax(a, b):
    return float(np.max(np.abs(np.sort_complex(np.asarray(a)) - np.sort_complex(np.asarray(b)))))


class TestHelpers:
    def test_gauge_fix_first_component_real_positive(self):
        v = np.array([0.0, 1j, 1.0])
        g = nk.gauge_fix(v)
        assert g[1].imag == pytest.approx(0.0, abs=1e-15)
        assert g[1].real > 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=11))
    def test_gauge_fix_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        g = nk.gauge_fix(v)
        assert np.abs(nk.gauge_fix(g) - g).max() < 1e-14

    def test_gauge_fix_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(5, 2, 3)) + 1j * rng.normal(size=(5, 2, 3))
        v[0, 0, 0] = 0.0
        stacked = nk.gauge_fix(v)
        for idx in np.ndindex(5, 2):
            assert np.array_equal(stacked[idx], nk.gauge_fix(v[idx]))

    def test_as_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            nk.as_matrix([[1.0, np.inf], [0.0, 1.0]])

    def test_array_rules_round_like_scalar_abs_and_square(self):
        # The vectorized gap, cluster and band-matching rules rely on these two equalities.
        rng = np.random.default_rng(38)
        scale = 10.0 ** rng.uniform(-150, 150, (2, 100_000))
        z = rng.normal(size=100_000) * scale[0] + 1j * rng.normal(size=100_000) * scale[1]
        mags = np.hypot(z.real, z.imag)
        assert mags.tobytes() == np.array([abs(v) for v in z.tolist()]).tobytes()
        x = mags[mags < 1e150]
        assert np.float_power(x, 2).tobytes() == np.array([v**2 for v in x.tolist()]).tobytes()


@pytest.mark.parametrize(
    "a, b, power",
    [
        ([1.0, 2.0], [1e300, 2.0], 2),  # |1 - 1e300| ** 2 overflows a float power
        ([1.7e308 + 1.7e308j, 0.0], [0.0, 0.0], 1),  # the complex abs overflows
    ],
)
def test_min_cost_assignment_overflowing_costs_raise_value_error(a, b, power):
    with pytest.raises(ValueError, match="finite"):
        nk.min_cost_assignment(np.array(a, dtype=complex), np.array(b, dtype=complex), power)


def test_solve_on_companion_form():
    # The two-oscillator problem at gamma = kappa = 0, chi = 0.1,
    # dchi = -0.05: K eigenvalues kbar +- sqrt(chi (chi + dchi)), frequencies
    # their square roots, from the companion form inside qep.solve.
    k = np.array([[1.0, -0.1], [-0.05, 1.0]])
    spectrum = qep.solve(qep.QuadraticMatrixPolynomial(mass=np.eye(2), stiffness=k, damping=np.zeros((2, 2))))
    expected = sorted(
        [np.sqrt(1 + np.sqrt(0.005)), np.sqrt(1 - np.sqrt(0.005))], key=abs
    )
    expected = [-expected[1], -expected[0], expected[0], expected[1]]
    assert multimax(spectrum.omegas, expected) < 1e-10
