import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment


def multiset_distance(a, b) -> float:
    """Max matched distance between two complex multisets (optimal assignment)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.shape == b.shape
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@pytest.fixture(scope="session")
def theoretical_build():
    from excepta.models import theoretical_builder

    return theoretical_builder(m0=1.0, kbar=1.0, dchi=-0.05)


# Reference copies of the per-point model constructors and their hand-written
# point derivatives, as they stood before the models became coefficient
# tables (models.coefficients); test_models checks the tables against them.
S0, SX = np.eye(2, dtype=complex), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY, SZ = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex), np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_D_GAMMA, _D_CHI, _D_KAPPA = np.eye(3)[:, :, None, None]


def reference_theoretical(p, g):
    gamma, chi, kappa = np.asarray(g, dtype=float)
    k = np.array([[p.kbar + kappa / 2.0, -chi], [-chi - p.dchi, p.kbar - kappa / 2.0]], dtype=complex)
    damping = np.diag([gamma / 2.0, -gamma / 2.0]).astype(complex)
    derivatives = (_D_CHI * np.array([[0.0, -1.0], [-1.0, 0.0]]) + _D_KAPPA * (0.5 * SZ), _D_GAMMA * (0.5 * SZ))
    return (p.m0 * S0, k, damping), derivatives


def reference_experimental(p, g):
    gamma, chi, kappa = np.asarray(g, dtype=float)
    k = np.array([[p.kappa0 + chi, -chi], [-chi - p.dchi, p.kappa0 - kappa + chi]], dtype=complex)
    damping = np.diag([p.gamma0 + gamma / 2.0, p.gamma0 - gamma / 2.0]).astype(complex)
    derivatives = (
        _D_CHI * np.array([[1.0, -1.0], [-1.0, 1.0]]) + _D_KAPPA * np.array([[0.0, 0.0], [0.0, -1.0]]),
        _D_GAMMA * (0.5 * SZ),
    )
    return (p.m0 * S0, k, damping), derivatives


def reference_lattice(p, k):
    kx, ky, kz = np.asarray(k, dtype=float)
    c0 = p.kappa0 + p.kappa1 + p.kappa2 + 4.0 * p.chi
    cx = p.kappa1 + p.kappa2 * np.cos(kz) + 4.0 * p.chi * np.cos(kx) * np.cos(ky)
    cy = p.kappa2 * np.sin(kz) + 4.0j * p.dchi * np.sin(kx) * np.sin(ky)
    sin, cos = np.sin([kx, ky, kz]), np.cos([kx, ky, kz])
    dcx = np.array([-4.0 * p.chi * sin[0] * cos[1], -4.0 * p.chi * cos[0] * sin[1], -p.kappa2 * sin[2]])
    dcy = np.array([4.0j * p.dchi * cos[0] * sin[1], 4.0j * p.dchi * sin[0] * cos[1], p.kappa2 * cos[2]])
    dk = -dcx[:, None, None] * SX - dcy[:, None, None] * SY
    return (p.m * S0, c0 * S0 - cx * SX - cy * SY, -p.gamma * SZ), (dk, np.zeros_like(dk))
