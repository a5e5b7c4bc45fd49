import math

import numpy as np
import pytest

from sawqubit import pipeline
from sawqubit.constants import CONSTANTS
from sawqubit.oracles import interaction_hamiltonian, time_ordered_propagator
from sawqubit.twoqubit import (NoExchangeCouplingError, PauliCoefficients,
                               QuadraticExpansionWarning,
                               coulomb_pauli_coefficients, gate_fidelity,
                               gate_time_for_iswap, interaction_propagator,
                               iswap_propagator, rwa_fidelity)

UNITARITY_TOL = 1e-10
GROUP_TOL = 1e-12
SCALE_TOL = 1e-12

# Frozen values for the built-in reference matrix elements at d = 1 um.
RATIO_ZZ_XX = 0.005088108198668759
C_XX_REFERENCE = -7.369704578814214e-25  # J
GATE_TIME_REFERENCE = 2.2477394022645526e-10  # s

# The reference and solved dots sit well inside the quadratic Coulomb
# expansion: the guard must stay silent for them.
pytestmark = pytest.mark.filterwarnings(
    "error::sawqubit.twoqubit.QuadraticExpansionWarning")


def _reference_coeffs(d=1e-6):
    return coulomb_pauli_coefficients(
        pipeline.REFERENCE_Z_UPPER, pipeline.REFERENCE_Z_LOWER, d,
        omega=pipeline.REFERENCE_QUBIT_SPLITTING / CONSTANTS.hbar)


def _synthetic_coeffs(c_xx, lam):
    return PauliCoefficients(cu_z=0.0, cl_z=0.0, cu_x=0.0, cl_x=0.0,
                             c_zz=0.0, c_xx=c_xx, c_zx=0.0, c_xz=0.0,
                             lambda_u=lam, lambda_l=lam)


def _unitarity_defect(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(4))))


def test_reference_coupling_ratio():
    coeffs = _reference_coeffs()
    ratio = abs(coeffs.c_zz / coeffs.c_xx)
    assert ratio == pytest.approx(RATIO_ZZ_XX, rel=1e-9)
    assert ratio < 1e-2  # the weak-dispersive conclusion
    # formula substitution reproduces the expected value to 1%
    assert ratio == pytest.approx(5.1e-3, rel=1e-2)
    assert coeffs.c_xx == pytest.approx(C_XX_REFERENCE, rel=1e-9, abs=0)


def test_identical_dots_cancel_single_qubit_terms():
    z = np.array([[-1e-8, -5e-9], [-5e-9, -2e-8]])
    coeffs = coulomb_pauli_coefficients(z, z, 1e-6)
    assert coeffs.cu_z == coeffs.cl_z == 0.0
    assert coeffs.cu_x == coeffs.cl_x == 0.0
    assert coeffs.c_zz != 0.0 and coeffs.c_xx != 0.0


def test_vanishing_transition_element():
    zu = np.array([[-1e-8, 0.0], [0.0, -2e-8]])
    zl = np.array([[-3e-8, -4e-9], [-4e-9, -1e-8]])
    coeffs = coulomb_pauli_coefficients(zu, zl, 1e-6)
    assert coeffs.c_xx == 0.0
    assert coeffs.c_xz == 0.0  # carries zu[0, 1]
    assert coeffs.c_zx != 0.0


def test_inverse_cube_distance_scaling():
    zu = np.array([[-1e-8, -5e-9], [-5e-9, -2e-8]])
    zl = np.array([[-3e-8, -4e-9], [-4e-9, -1e-8]])
    a = coulomb_pauli_coefficients(zu, zl, 1e-6)
    b = coulomb_pauli_coefficients(zu, zl, 2e-6)
    for name in ("cu_z", "cl_z", "cu_x", "cl_x", "c_zz", "c_xx",
                 "c_zx", "c_xz"):
        assert getattr(b, name) == pytest.approx(getattr(a, name) / 8.0,
                                                 rel=SCALE_TOL, abs=0)


def test_dot_swap_symmetry():
    zu = np.array([[-1e-8, -5e-9], [-5e-9, -2e-8]])
    zl = np.array([[-3e-8, -4e-9], [-4e-9, -1e-8]])
    ab = coulomb_pauli_coefficients(zu, zl, 1e-6)
    ba = coulomb_pauli_coefficients(zl, zu, 1e-6)
    assert ab.cu_z == ba.cl_z and ab.cl_z == ba.cu_z
    assert ab.cu_x == ba.cl_x and ab.cl_x == ba.cu_x
    assert ab.c_zx == ba.c_xz and ab.c_xz == ba.c_zx
    assert ab.c_zz == ba.c_zz
    assert ab.c_xx == ba.c_xx


def test_expansion_guard_warns_on_wide_dots(qubit_solution):
    zu = np.array([[-4e-7, -5e-8], [-5e-8, -4.1e-7]])
    zl = np.array([[4e-7, -5e-8], [-5e-8, 4.1e-7]])
    with pytest.warns(QuadraticExpansionWarning):
        coulomb_pauli_coefficients(zu, zl, 1e-6)
    # far from the channel center, but no relative displacement
    coulomb_pauli_coefficients(zu, zu, 1e-6)
    sol = qubit_solution
    z = sol.levels.matrix(sol.levels.grid.points) * sol.scales.natural_length
    coulomb_pauli_coefficients(z, z, 1e-6,
                               omega=sol.splitting / CONSTANTS.hbar)


def test_rejects_nonpositive_separation():
    z = np.array([[0.0, 1e-9], [1e-9, 0.0]])
    with pytest.raises(ValueError):
        coulomb_pauli_coefficients(z, z, 0.0)


def test_iswap_identity_at_zero():
    coeffs = _synthetic_coeffs(c_xx=1e-25, lam=4e-23)
    u = iswap_propagator(coeffs, 0.0)
    np.testing.assert_array_equal(u, np.eye(4, dtype=complex))


def test_iswap_group_property():
    coeffs = _synthetic_coeffs(c_xx=1e-25, lam=4e-23)
    t1, t2 = 3.1e-10, 7.7e-11
    u1 = iswap_propagator(coeffs, t1)
    u2 = iswap_propagator(coeffs, t2)
    u12 = iswap_propagator(coeffs, t1 + t2)
    assert np.max(np.abs(u1 @ u2 - u12)) <= GROUP_TOL


def test_iswap_point_mapping():
    coeffs = _synthetic_coeffs(c_xx=1e-25, lam=4e-23)
    t = gate_time_for_iswap(coeffs)
    u = iswap_propagator(coeffs, t)
    assert _unitarity_defect(u) <= UNITARITY_TOL
    expected = np.eye(4, dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.0
    sign = -1j * np.sign(coeffs.c_xx)
    expected[1, 2] = expected[2, 1] = sign
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_gate_time_inverse_proportionality():
    a = gate_time_for_iswap(_synthetic_coeffs(c_xx=1e-25, lam=4e-23))
    b = gate_time_for_iswap(_synthetic_coeffs(c_xx=2e-25, lam=4e-23))
    assert a == pytest.approx(2.0 * b, rel=1e-12, abs=0)
    assert gate_time_for_iswap(_reference_coeffs()) == pytest.approx(
        GATE_TIME_REFERENCE, rel=1e-9, abs=0)
    with pytest.raises(NoExchangeCouplingError):
        gate_time_for_iswap(_synthetic_coeffs(c_xx=0.0, lam=4e-23))


def test_full_propagator_trivial_case():
    coeffs = _synthetic_coeffs(c_xx=0.0, lam=0.0)
    u = interaction_propagator(coeffs, 1e-10)
    np.testing.assert_allclose(u, np.eye(4), atol=1e-12)


def test_full_propagator_central_block_matches_closed_form():
    """With only the exchange coupling and equal frequencies, the
    |10>/|01> block of the full propagator is exactly the closed form."""
    lam = 4e-23
    coeffs = _synthetic_coeffs(c_xx=1e-3 * lam, lam=lam)
    t = gate_time_for_iswap(coeffs)
    full = interaction_propagator(coeffs, t)
    rwa = iswap_propagator(coeffs, t)
    assert _unitarity_defect(full) <= UNITARITY_TOL
    central = np.abs(full[1:3, 1:3] - rwa[1:3, 1:3]).max()
    assert central <= 1e-8
    # hierarchy c_xx/lambda = 1e-3: the gate survives the rotating-wave cut
    assert rwa_fidelity(coeffs, t)[0] >= 0.99


def test_rwa_fidelity_monotone_in_coupling():
    lam = 4e-23
    fidelities = []
    for ratio in np.logspace(-3, -2, 5):
        coeffs = _synthetic_coeffs(c_xx=ratio * lam, lam=lam)
        fidelities.append(rwa_fidelity(coeffs, gate_time_for_iswap(coeffs))[0])
    diffs = np.diff(fidelities)
    assert np.all(diffs <= 1e-9), fidelities


def test_fidelity_sweep_consistency():
    coeffs = _reference_coeffs()
    t_gate = gate_time_for_iswap(coeffs)
    times = np.linspace(t_gate / 4.0, t_gate, 4)
    fids = rwa_fidelity(coeffs, times)
    assert fids.shape == (4,)
    assert np.all((0.0 <= fids) & (fids <= 1.0))
    full = interaction_propagator(coeffs, t_gate)
    direct = gate_fidelity(full, iswap_propagator(coeffs, t_gate))
    assert fids[-1] == pytest.approx(direct, abs=1e-6)
    stacked = interaction_propagator(coeffs, times)
    assert stacked.shape == (4, 4, 4)
    np.testing.assert_allclose(stacked[-1], full, atol=1e-12)


def _all_six_coeffs(lam=4e-23, ratio=1e-2):
    c = ratio * lam
    return PauliCoefficients(cu_z=0.0, cl_z=0.0, cu_x=0.3 * c, cl_x=-0.2 * c,
                             c_zz=0.5 * c, c_xx=c, c_zx=0.4 * c,
                             c_xz=-0.25 * c, lambda_u=lam, lambda_l=1.02 * lam)


@pytest.mark.parametrize("case, n_steps", [
    ("reference", 17843),
    ("a8", 78540),
    ("all_six", 32045),
])
def test_exact_propagator_matches_time_ordered_product(case, n_steps):
    """The exact propagator agrees with the midpoint product (second-order
    step error, ~2e-7 at these step counts) at the iSWAP time."""
    coeffs = {"reference": _reference_coeffs,
              "a8": lambda: _synthetic_coeffs(c_xx=1e-3 * 4e-23, lam=4e-23),
              "all_six": _all_six_coeffs}[case]()
    t = gate_time_for_iswap(coeffs)
    exact = interaction_propagator(coeffs, t)
    stepped = time_ordered_propagator(coeffs, t, n_steps)
    assert np.abs(exact - stepped).max() <= 1e-6
    assert _unitarity_defect(exact) <= 1e-12


def test_gate_fidelity_properties():
    coeffs = _synthetic_coeffs(c_xx=1e-25, lam=4e-23)
    u = iswap_propagator(coeffs, 2e-10)
    assert gate_fidelity(u, u) == pytest.approx(1.0, rel=1e-12)
    assert gate_fidelity(u, np.exp(0.4j) * u) == pytest.approx(1.0,
                                                                rel=1e-12)
    ident = np.eye(4, dtype=complex)
    half = iswap_propagator(coeffs, gate_time_for_iswap(coeffs))
    assert gate_fidelity(ident, half) == pytest.approx(0.5, rel=1e-12)


def test_interaction_hamiltonian_hermitian():
    coeffs = _reference_coeffs()
    for t in (0.0, 3.7e-11, 2.2e-10):
        h = interaction_hamiltonian(coeffs, t)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-40)


def test_pauli_decomposition_completeness():
    """Reconstructing the coupling from the eight coefficients reproduces
    the projected quadratic pair potential up to an identity offset."""
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)

    zu = np.array([[-1.1e-8, -6e-9], [-6e-9, -2.3e-8]])
    zl = np.array([[-0.7e-8, -4e-9], [-4e-9, -1.9e-8]])
    d = 1e-6
    coeffs = coulomb_pauli_coefficients(zu, zl, d)

    recon = (coeffs.cu_z * np.kron(sz, eye) + coeffs.cl_z * np.kron(eye, sz)
             + coeffs.cu_x * np.kron(sx, eye) + coeffs.cl_x * np.kron(eye, sx)
             + coeffs.c_zz * np.kron(sz, sz) + coeffs.c_xx * np.kron(sx, sx)
             + coeffs.c_zx * np.kron(sz, sx) + coeffs.c_xz * np.kron(sx, sz))

    q = CONSTANTS.elementary_charge**2 / (
        4.0 * math.pi * CONSTANTS.vacuum_permittivity * d**3)
    # levels (0, 1) reversed into the (|1>, |0>) basis
    rel = np.kron(zu[::-1, ::-1], eye) - np.kron(eye, zl[::-1, ::-1])
    direct = 0.5 * q * rel @ rel

    diff = direct - recon
    offset = np.trace(diff) / 4.0
    residual = np.abs(diff - offset * np.eye(4)).max()
    assert residual <= 1e-8 * np.abs(direct).max()


def test_solution_matrix_elements_are_negative(qubit_solution):
    """The dot sits left of the barrier at t*, so all position elements
    share the well's sign, as with the reference fixture values."""
    sol = qubit_solution
    z = sol.levels.matrix(sol.levels.grid.points)
    assert z[0, 0] < 0 and z[1, 1] < 0
