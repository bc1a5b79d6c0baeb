"""Every number that is not an Euler angle enters by one of two rules,
errors._finite (NotFinite, LengthMismatch or TypeError) and errors._count
(ValueError), or by a validating constructor of its own, so a NaN, an
infinity or a non-integer count meets a named error where it enters."""

import inspect
import math

import numpy as np
import pytest

import spincs
from spincs import (ACoords, EulerAngles, FiducialVector, FockVector, HamiltonianSpec,
                    MonomialTerm, NotFinite, NotHermitian, NotNormalized,
                    NotUnitary, QuadratureGrid, RotationMatrix, Spin, SubsidiaryViolation, ZCoords,
                    action_along_path, annihilation_degree_residual, build_grid, build_system,
                    canonical_cs, ccs_canonical_rhs, ccs_kinetic_term, ccs_resolution_residual,
                    discrete_cspi, displacement_matrix, dns_amplitudes, dns_number_check,
                    euler_from_su2, exact_propagator, fock_annihilation, gauge_potential,
                    generating_function, geometric_phase, h_expectation, h_gradient, h_ratio,
                    hamiltonian_matrix, hp_contract_state, hp_measure_ratio,
                    infinitesimal_overlap, integrate_trajectory, kinetic_term, kinetic_term_a,
                    kinetic_term_z, ladder_factor, little_d, make_fiducial, make_fock,
                    midpoint_product, normal_ordered_matrix, omega_to_a, omega_to_z,
                    path_velocities, random_fiducial, transition_amplitude)
from spincs import coherent, errors

from test_angle_entry import _ROWS as _ANGLE_ROWS

nan, inf = math.nan, math.inf

_SPIN = Spin(2)
_FV = random_fiducial(_SPIN, np.random.default_rng(29))
_SPEC = HamiltonianSpec(_SPIN, (MonomialTerm(0, 1, 0, 1.0), MonomialTerm(1, 0, 0, 0.3),
                                MonomialTerm(0, 0, 1, 0.3)))
_GRID = build_grid(_SPIN)
_FOCK = FockVector(np.array([0.6, 0.8j]))
_A, _B = (0.1, 0.9, 0.2), (2.1, 1.7, -0.6)
_PATH = [[0.0, 0.1, 0.2, 0.3], [nan, 0.4, 0.5, 0.6]]


def _cspi(**kwargs):
    args = dict(t_i=0.0, t_f=1.0, n_slices=2, hbar=1.0)
    args.update(kwargs)
    return discrete_cspi(_FV, _SPEC, _A, _B, args["t_i"], args["t_f"], args["n_slices"], _GRID,
                         hbar=args["hbar"], oracle=args.get("oracle"))


def _transition(**kwargs):
    args = dict(ket_i=_FV.coeffs, ket_f=_FV.coeffs, t_i=0.0, t_f=1.0, n_slices=2, hbar=1.0)
    args.update(kwargs)
    return transition_amplitude(_FV, _SPEC, args["ket_i"], args["ket_f"], args["t_i"],
                                args["t_f"], _GRID, args["n_slices"], hbar=args["hbar"])


def _grid(**nodes):
    parts = dict(theta=_GRID.theta, theta_weights=_GRID.theta_weights, phi=_GRID.phi,
                 psi=_GRID.psi)
    parts.update(nodes)
    return QuadratureGrid(**parts)


# One row per (export, parameter) that takes a number, an array of numbers
# or a count: a NaN, infinite or non-integer input and the named error it
# meets, with a pattern its message must hold.
_ROWS = {
    ("ACoords", "a1"): (lambda: ACoords(nan, 0.0), NotUnitary, None),
    ("ACoords", "a2"): (lambda: ACoords(1.0, inf), NotUnitary, None),
    ("EulerAngles", "phi"): (lambda: EulerAngles(nan, 0.2, 0.1), NotFinite, "Euler angles"),
    ("EulerAngles", "theta"): (lambda: EulerAngles(0.3, inf, 0.1), NotFinite, "Euler angles"),
    ("EulerAngles", "psi"): (lambda: EulerAngles(0.3, 0.2, -inf), NotFinite, "Euler angles"),
    ("FiducialVector", "coeffs"): (lambda: FiducialVector(_SPIN, [nan, 0.0, 0.0]),
                                   NotNormalized, None),
    ("FockVector", "coeffs"): (lambda: FockVector([nan, 0.0]), NotNormalized, None),
    ("MonomialTerm", "p"): (lambda: MonomialTerm(1.5, 0, 0, 1.0), ValueError, "exponent p"),
    ("MonomialTerm", "q"): (lambda: MonomialTerm(0, -1, 0, 1.0), ValueError, "exponent q"),
    ("MonomialTerm", "r"): (lambda: MonomialTerm(0, 0, True, 1.0), ValueError, "exponent r"),
    ("MonomialTerm", "coeff"): (lambda: HamiltonianSpec(_SPIN, (MonomialTerm(0, 1, 0, nan),)),
                                NotHermitian, None),
    ("MonomialTerm", "profile"): (lambda: MonomialTerm(0, 1, 0, 1.0, ("cosine", nan, 0.0)),
                                  NotFinite, "cosine omega"),
    ("QuadratureGrid", "theta"): (lambda: _grid(theta=np.r_[_GRID.theta[:-1], nan]),
                                  NotFinite, "theta="),
    ("QuadratureGrid", "theta_weights"): (lambda: _grid(theta_weights=_GRID.theta_weights * inf),
                                          NotFinite, "theta_weights"),
    ("QuadratureGrid", "phi"): (lambda: _grid(phi=np.r_[nan, _GRID.phi[1:]]), NotFinite, "phi"),
    ("QuadratureGrid", "psi"): (lambda: _grid(psi=np.r_[_GRID.psi[1:], inf]), NotFinite, "psi"),
    ("RotationMatrix", "entries"): (lambda: RotationMatrix(Spin(1), np.full((2, 2), nan)),
                                    NotUnitary, None),
    ("Spin", "two_s"): (lambda: Spin(2.0), ValueError, "two_s"),
    ("ZCoords", "z_plus"): (lambda: ZCoords(nan, 1.0), SubsidiaryViolation, None),
    ("ZCoords", "z_minus"): (lambda: ZCoords(1.0, inf), SubsidiaryViolation, None),
    ("action_along_path", "path"): (lambda: action_along_path(_FV, _SPEC, _PATH), NotFinite,
                                    "row 1"),
    ("action_along_path", "hbar"): (lambda: action_along_path(
        _FV, _SPEC, [[0.0, 0.1, 0.2, 0.3], [1.0, 0.4, 0.5, 0.6]], hbar=nan), NotFinite, "hbar"),
    ("annihilation_degree_residual", "alpha"): (
        lambda: annihilation_degree_residual(_FOCK, nan), NotFinite, "alpha"),
    ("annihilation_degree_residual", "n_max"): (
        lambda: annihilation_degree_residual(_FOCK, 0.3, 8.0), ValueError, "n_max"),
    ("build_grid", "oversample"): (lambda: build_grid(_SPIN, nan), NotFinite, "oversample"),
    ("build_system", "t"): (lambda: build_system(_FV, _SPEC, _A, inf), NotFinite, "t=inf"),
    ("build_system", "hbar"): (lambda: build_system(_FV, _SPEC, _A, hbar=nan), NotFinite, "hbar"),
    ("canonical_cs", "alpha"): (lambda: canonical_cs(_FOCK, complex(nan, 0.0)), NotFinite,
                                "alpha"),
    ("canonical_cs", "n_max"): (lambda: canonical_cs(_FOCK, 0.3, 6.5), ValueError, "n_max"),
    ("ccs_canonical_rhs", "alpha"): (lambda: ccs_canonical_rhs([(1, 1, 1.5)], inf, _FOCK),
                                     NotFinite, "alpha"),
    ("ccs_canonical_rhs", "hbar"): (lambda: ccs_canonical_rhs([(1, 1, 1.5)], 0.3, _FOCK, inf),
                                    NotFinite, "hbar"),
    ("ccs_kinetic_term", "alpha"): (lambda: ccs_kinetic_term(nan, 0.1j, _FOCK), NotFinite,
                                    "alpha"),
    ("ccs_kinetic_term", "alpha_dot"): (lambda: ccs_kinetic_term(0.3, complex(0.0, inf), _FOCK),
                                        NotFinite, "alpha_dot"),
    ("ccs_kinetic_term", "hbar"): (lambda: ccs_kinetic_term(0.3, 0.1j, _FOCK, nan), NotFinite,
                                   "hbar"),
    ("ccs_resolution_residual", "radial_max"): (
        lambda: ccs_resolution_residual(_FOCK, inf), NotFinite, "radial_max"),
    ("ccs_resolution_residual", "n_max"): (lambda: ccs_resolution_residual(_FOCK, 8.0, 40.0),
                                           ValueError, "n_max"),
    ("discrete_cspi", "t_i"): (lambda: _cspi(t_i=-inf), NotFinite, "t_i="),
    ("discrete_cspi", "t_f"): (lambda: _cspi(t_f=nan), NotFinite, "t_f="),
    ("discrete_cspi", "n_slices"): (lambda: _cspi(n_slices=2.5), ValueError, "n_slices"),
    ("discrete_cspi", "hbar"): (lambda: _cspi(hbar=inf), NotFinite, "hbar"),
    ("discrete_cspi", "oracle"): (lambda: _cspi(oracle=np.full((3, 3), nan)), NotFinite,
                                  "oracle"),
    ("displacement_matrix", "alpha"): (lambda: displacement_matrix(nan, 4), NotFinite, "alpha"),
    ("displacement_matrix", "n_max"): (lambda: displacement_matrix(0.3, 4.0), ValueError,
                                       "n_max"),
    ("dns_amplitudes", "alpha"): (lambda: dns_amplitudes(inf, 1, 6), NotFinite, "alpha"),
    ("dns_amplitudes", "n"): (lambda: dns_amplitudes(0.3, 1.5, 6), ValueError, "n must"),
    ("dns_amplitudes", "n_max"): (lambda: dns_amplitudes(0.3, 1, nan), ValueError, "n_max"),
    ("dns_number_check", "alpha"): (lambda: dns_number_check(nan, 1, 6), NotFinite, "alpha"),
    ("dns_number_check", "n"): (lambda: dns_number_check(0.3, -1, 6), ValueError, "n must"),
    ("dns_number_check", "n_max"): (lambda: dns_number_check(0.3, 1, 6.0), ValueError, "n_max"),
    ("euler_from_su2", "u"): (lambda: euler_from_su2(np.full((2, 2), nan)), NotUnitary, None),
    ("exact_propagator", "t_i"): (lambda: exact_propagator(_SPEC, nan, 1.0), NotFinite,
                                  "t_i="),
    ("exact_propagator", "t_f"): (lambda: exact_propagator(_SPEC, 0.0, inf), NotFinite,
                                  "t_f="),
    ("exact_propagator", "hbar"): (lambda: exact_propagator(_SPEC, 0.0, 1.0, nan), NotFinite,
                                   "hbar"),
    ("fock_annihilation", "n_max"): (lambda: fock_annihilation(3.0), ValueError, "n_max"),
    ("gauge_potential", "theta"): (lambda: gauge_potential(_FV, nan, 0.1, 0.2), NotFinite,
                                   r"\(theta, xi, eta\)"),
    ("gauge_potential", "xi"): (lambda: gauge_potential(_FV, 0.3, inf, 0.2), NotFinite,
                                r"\(theta, xi, eta\)"),
    ("gauge_potential", "eta"): (lambda: gauge_potential(_FV, 0.3, 0.1, -inf), NotFinite,
                                 r"\(theta, xi, eta\)"),
    ("generating_function", "z_plus"): (lambda: generating_function(_FV, _A, _B, nan, 0.0, 0.0),
                                        NotFinite, "z_plus"),
    ("generating_function", "z3"): (lambda: generating_function(_FV, _A, _B, 0.0, inf, 0.0),
                                    NotFinite, "z3"),
    ("generating_function", "z_minus"): (
        lambda: generating_function(_FV, _A, _B, 0.0, 0.0, complex(nan, 0.0)), NotFinite,
        "z_minus"),
    ("geometric_phase", "path"): (lambda: geometric_phase(_FV, _PATH), NotFinite, "row 1"),
    ("h_expectation", "t"): (lambda: h_expectation(_FV, _SPEC, _A, [0.0, nan]), NotFinite, "t="),
    ("h_gradient", "t"): (lambda: h_gradient(_FV, _SPEC, _A, -inf), NotFinite, "t=-inf"),
    ("h_ratio", "t"): (lambda: h_ratio(_FV, _SPEC, _A, _B, nan), NotFinite, "t=nan"),
    ("hamiltonian_matrix", "t"): (lambda: hamiltonian_matrix(_SPEC, [0.0, inf]), NotFinite,
                                  "t="),
    ("hp_contract_state", "alpha"): (
        lambda: hp_contract_state(make_fiducial(Spin(8), [1.0] + [0.0] * 8), inf), NotFinite,
        "alpha"),
    ("hp_measure_ratio", "alpha"): (lambda: hp_measure_ratio(complex(0.0, nan), _SPIN),
                                    NotFinite, "alpha"),
    ("infinitesimal_overlap", "delta_omega"): (
        lambda: infinitesimal_overlap(_FV, _A, (0.0, inf, 0.0)), NotFinite, "delta_omega"),
    ("integrate_trajectory", "t_span"): (
        lambda: integrate_trajectory(_FV, _SPEC, _A, (0.0, nan), 0.05), NotFinite, "t_span"),
    ("integrate_trajectory", "dt"): (
        lambda: integrate_trajectory(_FV, _SPEC, _A, (0.0, 0.2), inf), NotFinite, "dt"),
    ("integrate_trajectory", "hbar"): (
        lambda: integrate_trajectory(_FV, _SPEC, _A, (0.0, 0.2), 0.05, nan), NotFinite, "hbar"),
    ("kinetic_term", "omega_dot"): (lambda: kinetic_term(_FV, _A, (0.1, nan, 0.2)), NotFinite,
                                    "omega_dot"),
    ("kinetic_term_a", "a_dot"): (lambda: kinetic_term_a(_FV, omega_to_a(_A), (nan, 0.1j)),
                                  NotFinite, "a_dot"),
    ("kinetic_term_z", "z_dot"): (lambda: kinetic_term_z(_FV, omega_to_z(_A), (0.1, inf)),
                                  NotFinite, "z_dot"),
    ("ladder_factor", "two_m"): (lambda: ladder_factor(_SPIN, 1.5), ValueError, "two_m"),
    ("little_d", "theta"): (lambda: little_d(_SPIN, inf), NotFinite, "Euler angles"),
    ("make_fiducial", "raw"): (lambda: make_fiducial(_SPIN, [nan, 1.0, 0.0]), NotFinite, None),
    ("make_fock", "raw"): (lambda: make_fock([1.0, inf]), NotFinite, None),
    ("midpoint_product", "t_i"): (lambda: midpoint_product(_SPEC, inf, 1.0, 4), NotFinite,
                                  "t_i="),
    ("midpoint_product", "t_f"): (lambda: midpoint_product(_SPEC, 0.0, nan, 4), NotFinite,
                                  "t_f="),
    ("midpoint_product", "n_steps"): (lambda: midpoint_product(_SPEC, 0.0, 1.0, 4.0), ValueError,
                                      "n_steps"),
    ("midpoint_product", "hbar"): (lambda: midpoint_product(_SPEC, 0.0, 1.0, 4, nan), NotFinite,
                                   "hbar"),
    ("normal_ordered_matrix", "n_max"): (lambda: normal_ordered_matrix([(1, 1, 1.0)], 5.5),
                                         ValueError, "n_max"),
    ("path_velocities", "path"): (lambda: path_velocities(_PATH), NotFinite, "row 1"),
    ("transition_amplitude", "ket_i"): (lambda: _transition(ket_i=[nan, 0.0, 0.0]),
                                        NotNormalized, "ket_i"),
    ("transition_amplitude", "ket_f"): (lambda: _transition(ket_f=[0.0, inf, 0.0]),
                                        NotNormalized, "ket_f"),
    ("transition_amplitude", "t_i"): (lambda: _transition(t_i=nan), NotFinite, "t_i="),
    ("transition_amplitude", "t_f"): (lambda: _transition(t_f=-inf), NotFinite, "t_f="),
    ("transition_amplitude", "n_slices"): (lambda: _transition(n_slices=np.float64(2.0)),
                                           ValueError, "n_slices"),
    ("transition_amplitude", "hbar"): (lambda: _transition(hbar=nan), NotFinite, "hbar"),
}

# Parameters that take an object (a fiducial vector, a spec, a spin, a
# grid, a chart point, a term list, a mode name or a generator), whose own
# constructor or rows above check its numbers.
_OBJECTS = {"fv", "fv_spin", "spec", "spin", "spin_max", "grid", "a", "z", "terms", "h_terms",
            "mode", "rng", "sys"}

# Result records: built by the package from checked inputs and returned,
# never read as input by a numerical entry point.
_RECORDS = {
    "CanonicalCS": "returned by canonical_cs",
    "CoherentState": "returned by coherent_state",
    "GaugePotential": "returned by gauge_potential",
    "MatrixElementSet": "returned by matrix_elements",
    "OneForm": "returned by one_form; contract reads omega_dot by errors._finite",
    "PropagatorResult": "returned by discrete_cspi",
    "SpinOperators": "returned by spin_operators and conjugate_spin_ops",
    "Trajectory": "returned by integrate_trajectory",
    "TwoForm": "returned by two_form",
    "VelocitySystem": "returned by build_system; solve_velocities reads it",
}


def _exports() -> dict:
    """Every callable spincs exports but its exception types, by name."""
    return {name: obj for name in dir(spincs)
            if not name.startswith("_") and callable(obj := getattr(spincs, name))
            and not (isinstance(obj, type) and issubclass(obj, BaseException))}


def test_every_number_parameter_has_a_row():
    # a new export, or a new parameter, must declare how its numbers enter
    exports = _exports()
    assert len(exports) == 81
    assert set(_RECORDS) <= set(exports)
    missing = []
    for name, obj in exports.items():
        if name in _RECORDS:
            continue
        for param in inspect.signature(obj).parameters:
            is_angle = name in _ANGLE_ROWS and param.startswith("omega") and param != "omega_dot"
            if (name, param) not in _ROWS and param not in _OBJECTS and not is_angle:
                missing.append((name, param))
    assert missing == []
    stale = [(name, param) for name, param in _ROWS
             if name not in exports or param not in inspect.signature(exports[name]).parameters]
    assert stale == []


@pytest.mark.parametrize("key", sorted(_ROWS), ids=[".".join(key) for key in sorted(_ROWS)])
def test_number_row_raises_named_error(key):
    call, error, match = _ROWS[key]
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("length, value", [(None, [0.0, 1.0]), (3, np.zeros((2, 3)))])
def test_float_arrays_enter_uncopied(length, value):
    # the cached Gauss-Legendre arrays of every grid pass through as they are
    array = np.asarray(value, dtype=float)
    assert errors._finite("x", array, length=length) is array
    _, weights, theta = coherent._gauss_legendre(_GRID.n_theta)
    assert _GRID.theta is theta and _GRID.theta_weights is weights


def test_finite_python_scalars_take_no_numpy_call(monkeypatch):
    # hbar is read once per RKMK4 stage, t once per hamiltonian_matrix call
    monkeypatch.setattr(errors, "np", None)
    assert errors._finite("t", 0.25) == 0.25
    assert errors._finite("alpha", 1, complex) == 1 + 0j
    assert errors._check_hbar(2) == 2.0
    with pytest.raises(ValueError, match="hbar must be > 0"):
        errors._check_hbar(-1.0)
