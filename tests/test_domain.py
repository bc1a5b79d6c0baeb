"""Non-finite and out-of-domain input meets a named error, not a NaN result."""

import math
import time
from unittest import mock

import numpy as np
import pytest

from spincs import (ACoords, EulerAngles, FiducialVector, FockVector, HamiltonianSpec,
                    LengthMismatch, MonomialTerm, NoConvergence, NotFinite, NotHermitian,
                    NotNormalized, NotUnitary, NumericalFailure, QuadratureGrid, RotationMatrix,
                    Spin, SubsidiaryViolation, ZCoords, ZeroVector, action_along_path, big_r,
                    build_grid, build_system, canonical_cs, ccs_canonical_rhs, ccs_kinetic_term,
                    ccs_resolution_residual, coherent_state, compose_euler,
                    conjugate_spin_ops, discrete_cspi, displacement_matrix, dns_amplitudes,
                    euler_from_su2, exact_propagator, gauge_potential, gaussian_decompose,
                    generating_function, geometric_phase, h_expectation, h_gradient, h_ratio,
                    hamiltonian_matrix, hp_contract_state, hp_measure_ratio,
                    infinitesimal_overlap, integrate_trajectory, invert_euler, kinetic_term,
                    kinetic_term_a, kinetic_term_z, ladder_factor, little_d, make_fiducial,
                    make_fock, midpoint_product, normal_ordered_matrix, omega_to_a, omega_to_z,
                    one_form, overlap, propagator, random_fiducial, resolution_residual,
                    su2_matrix, transition_amplitude)

nan, inf = math.nan, math.inf


def _transition_from_nan_ket():
    spin = Spin(1)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),))
    return transition_amplitude(make_fiducial(spin, [1.0, 0.0]), spec, [nan, 0.0],
                                [1.0, 0.0], 0.0, 1.0, build_grid(spin), 2)


def _trajectory(omega0=(0.4, 1.1, 0.7), t_span=(0.0, 0.2), dt=0.05, hbar=1.0):
    """A dense spin-1 fiducial precessing under S3."""
    spin = Spin(2)
    fv = random_fiducial(spin, np.random.default_rng(7))
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),))
    return integrate_trajectory(fv, spec, omega0, t_span, dt, hbar=hbar)


def _action(hbar):
    spin = Spin(2)
    fv = random_fiducial(spin, np.random.default_rng(7))
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),))
    return action_along_path(fv, spec, [[0.0, 0.1, 0.2, 0.3], [1.0, 0.4, 0.5, 0.6]],
                             hbar=hbar)


def _oracle_from(product):
    """exact_propagator with its Magnus product replaced by product(n_steps)."""
    spin = Spin(1)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),))
    with mock.patch.object(propagator, "_cf4_product",
                           lambda spec, t_i, t_f, n, hbar: product(n) * np.eye(spin.dim)):
        return exact_propagator(spec, 0.0, 1.0)


_FV = make_fiducial(Spin(1), [0.6, 0.8])
_FOCK = FockVector(np.array([0.6, 0.8j]))
_FOCK_2 = FockVector(np.array([0.6, 0.0, 0.8]))
_OMEGA = EulerAngles(0.3, 1.1, 0.7)
_STACK = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]


@pytest.mark.parametrize("call, error, match", [
    (lambda: FiducialVector(Spin(2), [nan, 0.0, 0.0]), NotNormalized, None),
    (lambda: make_fiducial(Spin(1), [nan, 1.0]), NotFinite, None),
    (lambda: FockVector([nan, 0.0]), NotNormalized, None),
    (lambda: make_fock([nan, 1.0]), NotFinite, None),
    (lambda: RotationMatrix(Spin(1), np.full((2, 2), nan)), NotUnitary, None),
    (lambda: ZCoords(nan, 1.0), SubsidiaryViolation, None),
    (lambda: ACoords(nan, 0.0), NotUnitary, None),
    (lambda: HamiltonianSpec(Spin(1), (MonomialTerm(0, 1, 0, nan),)), NotHermitian, None),
    (lambda: normal_ordered_matrix([(1, 1, nan)], 3), NotHermitian, None),
    (lambda: euler_from_su2(np.full((2, 2), nan)), NotUnitary, None),
    (_transition_from_nan_ket, NotNormalized, None),
    # angles: EulerAngles and raw triples returned NaN states and overlaps
    (lambda: EulerAngles(nan, 0.2, 0.1), NotFinite, "Euler angles"),
    (lambda: EulerAngles(0.3, inf, 0.1), NotFinite, "Euler angles"),
    (lambda: overlap(_FV, (nan, 0.2, 0.1), (0.1, 0.2, 0.3)), NotFinite, "Euler angles"),
    # two stacks of points: the sum of the pairwise overlaps, |value| > 1
    (lambda: overlap(make_fiducial(Spin(2), [0.6, 0.0, 0.8]), [[0.1, 0.2, 0.3], [0.4, 1.5, 0.6]],
                     [[0.7, 0.8, 0.9], [1.0, 2.1, 1.2]]), LengthMismatch,
     r"shapes \(2, 3\) and \(2, 3\)"),
    (lambda: coherent_state(_FV, [[0.1, 0.2, 0.3], [0.4, -inf, 0.6]]), NotFinite,
     "Euler angles"),
    # integrate_trajectory raised "cannot convert float NaN to integer",
    # OverflowError or InconsistentSystem ("residual nan")
    (lambda: _trajectory(dt=nan), NotFinite, "dt"),
    (lambda: _trajectory(t_span=(0.0, nan)), NotFinite, "t_span"),
    (lambda: _trajectory(t_span=(0.0, inf)), NotFinite, "t_span"),
    (lambda: _trajectory(omega0=(nan, 1.1, 0.7)), NotFinite, "omega0"),
    # hbar: only the chain and the oracle checked it; integrate_trajectory
    # raised InconsistentSystem or (hbar=-1) returned a trajectory, the rest
    # returned nan, a value, or raised ZeroDivisionError
    (lambda: _trajectory(hbar=0.0), ValueError, "hbar"),
    (lambda: _trajectory(hbar=nan), NotFinite, "hbar"),
    (lambda: _trajectory(hbar=-1.0), ValueError, "hbar"),
    (lambda: _action(nan), NotFinite, "hbar"),
    (lambda: _action(0.0), ValueError, "hbar"),
    (lambda: ccs_kinetic_term(0.3, 0.1j, _FOCK, hbar=nan), NotFinite, "hbar"),
    (lambda: ccs_kinetic_term(0.3, 0.1j, _FOCK, hbar=0.0), ValueError, "hbar"),
    (lambda: ccs_canonical_rhs([(1, 1, 1.5)], 0.3, _FOCK, hbar=nan), NotFinite, "hbar"),
    (lambda: ccs_canonical_rhs([(1, 1, 1.5)], 0.3, _FOCK, hbar=0.0), ValueError, "hbar"),
    # alpha: SubsidiaryViolation, RuntimeWarnings and NaN results
    (lambda: hp_contract_state(make_fiducial(Spin(8), [1.0] + [0.0] * 8), nan), NotFinite,
     "alpha"),
    (lambda: canonical_cs(_FOCK, complex(nan, 0.0), 6), NotFinite, "alpha"),
    (lambda: dns_amplitudes(nan, 1, 6), NotFinite, "alpha"),
    (lambda: displacement_matrix(complex(0.0, inf), 6), NotFinite, "alpha"),
    (lambda: ccs_kinetic_term(nan, 0.1j, _FOCK), NotFinite, "alpha"),
    (lambda: ccs_kinetic_term(0.3, complex(nan, 1.0), _FOCK), NotFinite, "alpha_dot"),
    (lambda: ccs_canonical_rhs([(1, 1, 1.5)], nan, _FOCK), NotFinite, "alpha"),
    # velocities of the kinetic terms: NaN or inf results, a bare ValueError
    # for a 2-vector; gauge_potential returned NaN components or raised a
    # bare RuntimeWarning
    (lambda: kinetic_term(_FV, _OMEGA, (0.1, nan, 0.2)), NotFinite, "omega_dot"),
    (lambda: kinetic_term(_FV, _OMEGA, (0.1, 0.2, inf)), NotFinite, "omega_dot"),
    (lambda: kinetic_term(_FV, _OMEGA, (0.1, 0.2)), LengthMismatch, r"shape \(2,\)"),
    (lambda: kinetic_term_a(_FV, omega_to_a(_OMEGA), (nan, 0.1j)), NotFinite, "a_dot"),
    (lambda: kinetic_term_a(_FV, omega_to_a(_OMEGA), (0.1, complex(0.0, inf))), NotFinite,
     "a_dot"),
    (lambda: kinetic_term_z(_FV, omega_to_z(_OMEGA), (nan, 0.1j)), NotFinite, "z_dot"),
    (lambda: kinetic_term_z(_FV, omega_to_z(_OMEGA), (0.1, inf)), NotFinite, "z_dot"),
    (lambda: gauge_potential(_FV, nan, 0.1, 0.2), NotFinite, r"\(theta, xi, eta\)"),
    (lambda: gauge_potential(_FV, 0.3, inf, 0.2), NotFinite, r"\(theta, xi, eta\)"),
    (lambda: infinitesimal_overlap(_FV, _OMEGA, (nan, 0.0, 0.0)), NotFinite, "delta_omega"),
    # OneForm.contract returned nan, or raised a bare ValueError
    (lambda: one_form(_FV, _OMEGA).contract((nan, 0.0, 0.0)), NotFinite, "omega_dot"),
    (lambda: one_form(_FV, _OMEGA).contract((0.1, 0.2)), LengthMismatch, r"shape \(2,\)"),
    # a stack where one point is taken: a bare TypeError from math.cos, or
    # an AttributeError
    (lambda: su2_matrix(_STACK), LengthMismatch, r"\(2, 3\)"),
    (lambda: compose_euler(_OMEGA, _STACK), LengthMismatch, r"\(2, 3\)"),
    (lambda: omega_to_a(_STACK), LengthMismatch, r"\(2, 3\)"),
    (lambda: big_r(Spin(1), _STACK), LengthMismatch, r"\(2, 3\)"),
    (lambda: invert_euler(_STACK), LengthMismatch, r"\(2, 3\)"),
    (lambda: conjugate_spin_ops(Spin(1), _STACK), LengthMismatch, r"\(2, 3\)"),
    (lambda: gaussian_decompose(_STACK), LengthMismatch, r"\(2, 3\)"),
    (lambda: omega_to_z(_STACK), LengthMismatch, r"\(2, 3\)"),
    # out-of-domain shapes, sizes and values
    (lambda: RotationMatrix(Spin(1), np.eye(3)), ValueError, r"2x2, got \(3, 3\)"),
    (lambda: coherent_state(_FV, [[0.1, 0.2]]), ValueError, r"last axis of length 3"),
    (lambda: FiducialVector(Spin(1), [1.0, 0.0, 0.0]), LengthMismatch, "expected 2"),
    (lambda: FockVector(np.array([[0.6, 0.8]])), LengthMismatch, "1-d"),
    (lambda: FockVector(np.zeros(2)), ZeroVector, "identically zero"),
    (lambda: displacement_matrix(0.3, 0), ValueError, "n_max must be >= 1"),
    (lambda: canonical_cs(_FOCK_2, 0.3, 1), LengthMismatch, "n_max=1"),
    (lambda: ccs_resolution_residual(_FOCK_2, n_max=1), LengthMismatch, "n_max=1"),
    (lambda: dns_amplitudes(0.3, 5, 3), ValueError, "n=5, n_max=3"),
    (lambda: geometric_phase(make_fiducial(Spin(4), [0, 0, 0, 0, 1]),
                             [[0, 0, 0, 0], [1e308, 1e308, 0, 0]]),
     NumericalFailure, "overflows to -inf"),
    # the oracle's two NoConvergence raises: a settled product that is not
    # unitary, and one that never settles
    (lambda: _oracle_from(lambda n: 2.0), NoConvergence, "unitarity defect"),
    (lambda: _oracle_from(float), NoConvergence, "24 doublings"),
], ids=["FiducialVector", "make_fiducial", "FockVector", "make_fock", "RotationMatrix",
        "ZCoords", "ACoords", "HamiltonianSpec", "normal_ordered_matrix", "euler_from_su2",
        "transition_amplitude", "EulerAngles", "EulerAngles_inf", "overlap_raw",
        "overlap_stacks", "coherent_state_stack", "integrate_trajectory_dt",
        "integrate_trajectory_t_span", "integrate_trajectory_t_span_inf",
        "integrate_trajectory_omega0",
        "integrate_trajectory_hbar_zero", "integrate_trajectory_hbar_nan",
        "integrate_trajectory_hbar_negative", "action_along_path_hbar_nan",
        "action_along_path_hbar_zero", "ccs_kinetic_term_hbar_nan",
        "ccs_kinetic_term_hbar_zero", "ccs_canonical_rhs_hbar_nan",
        "ccs_canonical_rhs_hbar_zero", "hp_contract_state", "canonical_cs",
        "dns_amplitudes", "displacement_matrix", "ccs_kinetic_term", "ccs_kinetic_term_dot",
        "ccs_canonical_rhs", "kinetic_term_nan", "kinetic_term_inf", "kinetic_term_length",
        "kinetic_term_a_nan", "kinetic_term_a_inf", "kinetic_term_z_nan", "kinetic_term_z_inf",
        "gauge_potential_nan", "gauge_potential_inf", "infinitesimal_overlap_nan",
        "contract_nan", "contract_length", "su2_matrix_stack", "compose_euler_stack",
        "omega_to_a_stack", "big_r_stack", "invert_euler_stack", "conjugate_spin_ops_stack",
        "gaussian_decompose_stack", "omega_to_z_stack", "RotationMatrix_shape",
        "coherent_state_last_axis", "FiducialVector_shape", "FockVector_2d",
        "FockVector_zero", "displacement_matrix_n_max", "canonical_cs_n_max",
        "ccs_resolution_residual_n_max", "dns_amplitudes_n", "geometric_phase_overflow",
        "exact_propagator_unitarity", "exact_propagator_doublings"])
def test_nan_input_raises_named_error(call, error, match):
    # the first rows' checks read `defect > bound`, which a NaN defect
    # passes; make_fiducial raised IndexError, transition_amplitude a
    # NumericalFailure that blamed kernel overflow, the rest returned NaN.
    # hbar <= 0 is out of the domain too, and meets ValueError
    with pytest.raises(error, match=match):
        call()


def _spec(two_s, profile=None):
    """S3 plus 0.2 (S+ + S-), driven by profile."""
    return HamiltonianSpec(Spin(two_s), (MonomialTerm(0, 1, 0, 1.0),
                                         MonomialTerm(1, 0, 0, 0.2, profile),
                                         MonomialTerm(0, 0, 1, 0.2, profile)))


def _driven(call, two_s=1):
    """call(fv, spec, grid) under a cosine drive whose frequency is NaN."""
    spin = Spin(two_s)
    return call(random_fiducial(spin, np.random.default_rng(7)),
                _spec(two_s, ("cosine", nan, 0.0)), build_grid(spin))


def _at(call, two_s=2):
    """call(fv, spec, grid) for a dense fiducial under the static _spec."""
    spin = Spin(two_s)
    return call(random_fiducial(spin, np.random.default_rng(7)), _spec(two_s),
                build_grid(spin))


def _nan_node_grid():
    grid = build_grid(Spin(2))
    return QuadratureGrid(np.r_[nan, grid.theta[1:]], grid.theta_weights, grid.phi, grid.psi)


_A, _B = (0.1, 0.9, 0.2), (2.1, 1.7, -0.6)


@pytest.mark.parametrize("call, error, match", [
    # a NaN drive frequency built a spec: the oracle then ran all 24
    # doublings (120 s on one BLAS thread) before NoConvergence,
    # midpoint_product returned NaN, M1/M3 blamed overflow ("take more
    # slices") and integrate_trajectory raised InconsistentSystem
    (lambda: MonomialTerm(1, 0, 0, 0.2, ("cosine", nan, 0.0)), NotFinite, "cosine omega"),
    (lambda: MonomialTerm(1, 0, 0, 0.2, ("cosine", 1.5, inf)), NotFinite, "cosine phase"),
    (lambda: _driven(lambda fv, spec, grid: exact_propagator(spec, 0.0, 0.01)), NotFinite,
     "cosine omega"),
    (lambda: _driven(lambda fv, spec, grid: midpoint_product(spec, 0.0, 1.0, 4)), NotFinite,
     "cosine omega"),
    (lambda: _driven(lambda fv, spec, grid: discrete_cspi(fv, spec, _A, _B, 0.0, 1.0, 4, grid,
                                                          "M1")), NotFinite, "cosine omega"),
    (lambda: _driven(lambda fv, spec, grid: discrete_cspi(fv, spec, _A, _B, 0.0, 1.0, 4, grid,
                                                          "M3")), NotFinite, "cosine omega"),
    (lambda: _driven(lambda fv, spec, grid: integrate_trajectory(fv, spec, _A, (0.0, 0.2), 0.05)),
     NotFinite, "cosine omega"),
    # t = nan returned NaN matrices and values, and t = inf a NaN h_ratio
    (lambda: hamiltonian_matrix(_spec(2), nan), NotFinite, "t=nan"),
    (lambda: _at(lambda fv, spec, grid: h_expectation(fv, spec, _A, nan)), NotFinite, "t=nan"),
    (lambda: _at(lambda fv, spec, grid: build_system(fv, spec, _A, nan)), NotFinite, "t=nan"),
    (lambda: _at(lambda fv, spec, grid: h_gradient(fv, spec, _A, nan)), NotFinite, "t=nan"),
    (lambda: _at(lambda fv, spec, grid: h_ratio(fv, spec, _A, _B, inf)), NotFinite, "t=inf"),
    # a NaN theta node made resolution_residual raise numpy's LinAlgError,
    # and M1 blame chain overflow
    (_nan_node_grid, NotFinite, "theta="),
    (lambda: _at(lambda fv, spec, grid: resolution_residual(fv, _nan_node_grid())), NotFinite,
     "theta="),
    (lambda: little_d(Spin(2), nan), NotFinite, "Euler angles"),
    # ladder_factor returned 1.0 for a two_m of the wrong parity and raised
    # "math domain error" below -two_s
    (lambda: ladder_factor(Spin(2), 1), ValueError, "two_m=1"),
    (lambda: ladder_factor(Spin(2), -6), ValueError, "two_m=-6"),
    (lambda: _at(lambda fv, spec, grid: generating_function(fv, _A, _B, nan, 0.0, 0.0)),
     NotFinite, "z_plus"),
    (lambda: _at(lambda fv, spec, grid: generating_function(fv, _A, _B, 0.0, 0.0, inf)),
     NotFinite, "z_minus"),
    # counts: a bare TypeError, or (displacement_matrix) a matrix
    (lambda: _at(lambda fv, spec, grid: discrete_cspi(fv, spec, _A, _B, 0.0, 1.0, 2.5, grid)),
     ValueError, "n_slices"),
    (lambda: midpoint_product(_spec(2), 0.0, 1.0, 2.5), ValueError, "n_steps"),
    (lambda: displacement_matrix(0.3, 2.5), ValueError, "n_max"),
    (lambda: Spin(2.5), ValueError, "two_s"),
    # the canonical side: NaN, ZeroDivisionError and a NotFinite that
    # named alpha for a NaN radius
    (lambda: hp_measure_ratio(nan, Spin(2)), NotFinite, "alpha"),
    (lambda: hp_measure_ratio(0.3, Spin(0)), ValueError, "two_s must be >= 1"),
    (lambda: ccs_resolution_residual(_FOCK, radial_max=nan), NotFinite, "radial_max"),
], ids=["profile_nan_omega", "profile_inf_phase", "exact_propagator_nan_drive",
        "midpoint_product_nan_drive", "discrete_cspi_M1_nan_drive", "discrete_cspi_M3_nan_drive",
        "integrate_trajectory_nan_drive", "hamiltonian_matrix_t_nan", "h_expectation_t_nan",
        "build_system_t_nan", "h_gradient_t_nan", "h_ratio_t_inf", "QuadratureGrid_nan_theta",
        "resolution_residual_nan_theta", "little_d_nan", "ladder_factor_parity",
        "ladder_factor_range", "generating_function_z_plus", "generating_function_z_minus",
        "discrete_cspi_n_slices", "midpoint_product_n_steps", "displacement_matrix_n_max",
        "Spin_two_s", "hp_measure_ratio_nan", "hp_measure_ratio_spin_zero",
        "ccs_resolution_residual_radial_max"])
def test_number_probe_raises_named_error_at_once(call, error, match):
    # every non-angle number enters by errors._finite or _count, so each
    # probe fails where it enters: within a second, where the NaN drive's
    # oracle took two minutes
    start = time.perf_counter()
    with pytest.raises(error, match=match):
        call()
    assert time.perf_counter() - start < 1.0
