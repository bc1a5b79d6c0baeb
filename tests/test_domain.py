"""Non-finite input meets a named error, not a NaN result."""

import math

import numpy as np
import pytest

from spincs import (ACoords, EulerAngles, FiducialVector, FockVector, HamiltonianSpec,
                    LengthMismatch, MonomialTerm, NotFinite, NotHermitian, NotNormalized,
                    NotUnitary, RotationMatrix, Spin, SubsidiaryViolation, ZCoords,
                    action_along_path, big_r, build_grid, canonical_cs, ccs_canonical_rhs,
                    ccs_kinetic_term, coherent_state, compose_euler, conjugate_spin_ops,
                    displacement_matrix, dns_amplitudes, euler_from_su2, gauge_potential,
                    gaussian_decompose, hp_contract_state, infinitesimal_overlap,
                    integrate_trajectory, invert_euler, kinetic_term, kinetic_term_a,
                    kinetic_term_z, make_fiducial, make_fock, normal_ordered_matrix,
                    omega_to_a, omega_to_z, one_form, overlap, random_fiducial, su2_matrix,
                    transition_amplitude)

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


_FV = make_fiducial(Spin(1), [0.6, 0.8])
_FOCK = FockVector(np.array([0.6, 0.8j]))
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
        "gaussian_decompose_stack", "omega_to_z_stack"])
def test_nan_input_raises_named_error(call, error, match):
    # the first rows' checks read `defect > bound`, which a NaN defect
    # passes; make_fiducial raised IndexError, transition_amplitude a
    # NumericalFailure that blamed kernel overflow, the rest returned NaN.
    # hbar <= 0 is out of the domain too, and meets ValueError
    with pytest.raises(error, match=match):
        call()
