"""Command-line harness: seeded experiment runs with JSON reports and CSV
series.

Each subcommand reads parameters from ``--config`` (a JSON object; unknown
keys are rejected) plus a few direct flags, runs one experiment, and writes
``<out>/<experiment_id>.json`` with the inputs hash, tolerances, outputs,
and a pass flag.  Commands with natural series also write
``<out>/<experiment_id>.csv``.  Reports are deterministic for a fixed
(config, seed) apart from the timestamp field; the experiment id is derived
from the inputs hash, not the clock.

A command is declared in one place, the ``_COMMANDS`` table (config schema;
runner, default tolerance and required keys per suite; direct flags), which
the parser, the config validation and ``main`` read.

Exit codes: 0 on success, 2 for an invalid config (or an ``--out``
directory that cannot be created), 3 for a numerical failure (the report is
still written with the error recorded).
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .coherent import (FiducialVector, build_grid, coherent_state, make_fiducial, overlap,
                       random_fiducial, resolution_residual, structure_pair, _grid_gram)
from .contraction import (annihilation_degree_residual, canonical_cs,
                          ccs_kinetic_term, ccs_resolution_residual,
                          displacement_matrix, dns_amplitudes, dns_number_check,
                          hp_contract_state, hp_measure_ratio, make_fock)
from .errors import ConfigInvalid, SpincsError
from .geometry import (gauge_potential, geometric_phase, kinetic_term, one_form,
                       two_form)
from .parametrizations import (ZCoords, kinetic_term_a, kinetic_term_z, omega_to_a,
                               omega_to_z)
from .propagator import (HamiltonianSpec, MonomialTerm, action_along_path,
                         discrete_cspi, exact_propagator, infinitesimal_overlap, _MODES)
from .semiclassical import integrate_trajectory
from .spin_core import (EulerAngles, Spin, big_r, compose_euler, invert_euler,
                        little_d)
from . import __version__


# ---------------------------------------------------------------------------
# config parsing


def _as_int(v, key):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigInvalid(f"'{key}' must be an integer, got {v!r}")
    return v


def _as_float(v, key):
    # json.loads also parses NaN, Infinity and integers past the float range
    x = None
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:
            pass
    if x is None or not math.isfinite(x):
        raise ConfigInvalid(f"'{key}' must be a finite number, got {v!r}")
    return x


def _as_complex(v, key):
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(_as_float(v, key))
    if isinstance(v, list) and len(v) == 2:
        return complex(_as_float(v[0], key), _as_float(v[1], key))
    raise ConfigInvalid(f"'{key}' must be a number or [re, im] pair, got {v!r}")


def _as_omega(v, key):
    if not isinstance(v, list) or len(v) != 3:
        raise ConfigInvalid(f"'{key}' must be [phi, theta, psi], got {v!r}")
    return tuple(_as_float(x, key) for x in v)


def _as_span(v, key):
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigInvalid(f"'{key}' must be [t0, t1], got {v!r}")
    return [_as_float(x, key) for x in v]


def _as_modes(v, key):
    if not isinstance(v, list) or not v or not all(m in _MODES for m in v):
        raise ConfigInvalid(f"'{key}' must be a non-empty sublist of [M1, M2, M3], got {v!r}")
    return v


def _as_int_list(v, key):
    if isinstance(v, int) and not isinstance(v, bool):
        return [v]
    if isinstance(v, list) and v and all(isinstance(x, int) and not isinstance(x, bool) for x in v):
        return list(v)
    raise ConfigInvalid(f"'{key}' must be an integer or list of integers, got {v!r}")


def _as_str(v, key):
    if not isinstance(v, str):
        raise ConfigInvalid(f"'{key}' must be a string, got {v!r}")
    return v


def _as_path_rows(v, key, width=4):
    if not isinstance(v, list) or len(v) < 2 \
            or not all(isinstance(r, list) and len(r) == width for r in v):
        raise ConfigInvalid(f"'{key}' must be a list of >= 2 rows of {width} numbers")
    rows = np.array([[_as_float(x, key) for x in row] for row in v])
    dt = np.diff(rows[:, 0])
    if not (np.all(dt > 0) or np.all(dt < 0)):
        raise ConfigInvalid(f"'{key}' times must strictly increase or strictly decrease")
    return rows


def _identity(v, key):
    return v


def _lower_bound(parse, low, strict=False):
    """``parse`` followed by a check that the value (every element of a
    list) is >= low, or > low when strict, so an out-of-range value is a
    config error before anything runs."""
    relation = ">" if strict else ">="

    def check(v, key):
        parsed = parse(v, key)
        for x in parsed if isinstance(parsed, list) else [parsed]:
            if x < low or (strict and x == low):
                raise ConfigInvalid(f"'{key}' must be {relation} {low}, got {x!r}")
        return parsed
    return check


_TWO_S = _lower_bound(_as_int, 0)
_COUNT = _lower_bound(_as_int, 1)
_OVERSAMPLE = _lower_bound(_as_float, 1.0)


_GLOBAL_KEYS = {"seed": _as_int, "hbar": _as_float}


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigInvalid(f"config {path} must be a JSON object, got {type(cfg).__name__}")
    return cfg


def validate_config(command: str, cfg: dict) -> dict:
    """Parse every key through the command schema (unknown keys are errors),
    then check the suite and the keys it requires."""
    schema, suites, _ = _COMMANDS[command]
    out = {}
    for key, value in cfg.items():
        if key in _GLOBAL_KEYS:
            out[key] = _GLOBAL_KEYS[key](value, key)
        elif key in schema:
            out[key] = schema[key](value, key)
        else:
            raise ConfigInvalid(f"unknown key '{key}' for command '{command}'")
    suite = out.get("suite")
    if suite not in suites:
        raise ConfigInvalid(f"unknown suite '{suite}' for command '{command}'"
                            f" (expected one of {[s for s in suites if s]})")
    for key in suites[suite][2]:
        if out.get(key) is None:
            raise ConfigInvalid(f"command '{command}' requires '{key}'")
    return out


def _from_pairs(node, make, what, expected):
    """``make`` applied to a list of [re, im] pairs; any other node is a
    config error naming the accepted forms."""
    if not (isinstance(node, list)
            and all(isinstance(x, list) and len(x) == 2 for x in node)):
        raise ConfigInvalid(f"'fv' must be {expected} or a list of [re, im] pairs,"
                            f" got {node!r}")
    try:
        return make([complex(re, im) for re, im in node])
    except (SpincsError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad {what} coefficients: {exc}")


def _build_fv(spin: Spin, node) -> FiducialVector:
    if node in ("lowest", "highest"):
        c = np.zeros(spin.dim)
        c[-1 if node == "lowest" else 0] = 1.0
        return FiducialVector(spin, c)
    return _from_pairs(node, lambda c: make_fiducial(spin, c), "fiducial",
                       '"lowest", "highest",')


def _build_hamiltonian(spin: Spin, node) -> HamiltonianSpec:
    if node is None:
        node = {"terms": []}
    if not isinstance(node, dict) or set(node) - {"terms"}:
        raise ConfigInvalid("'hamiltonian' must be an object with a 'terms' list")
    terms = node.get("terms", [])
    if not isinstance(terms, list):
        raise ConfigInvalid("'hamiltonian.terms' must be a list")
    built = []
    for i, t in enumerate(terms):
        if not isinstance(t, dict) or set(t) - {"p", "q", "r", "coeff", "profile"}:
            raise ConfigInvalid(f"term {i} must have keys p, q, r, coeff, optional profile")
        profile = t.get("profile")
        if profile is not None:
            if not isinstance(profile, dict) or "kind" not in profile:
                raise ConfigInvalid(f"term {i} profile must be an object with 'kind'")
            if profile["kind"] == "cosine":
                if set(profile) - {"kind", "omega", "phase"}:
                    raise ConfigInvalid(f"term {i} cosine profile has unknown keys")
                profile = ("cosine", _as_float(profile.get("omega", 1.0), "omega"),
                           _as_float(profile.get("phase", 0.0), "phase"))
            elif profile["kind"] == "ramp":
                if set(profile) - {"kind"}:
                    raise ConfigInvalid(f"term {i} ramp profile has unknown keys")
                profile = ("ramp",)
            else:
                raise ConfigInvalid(f"term {i} profile kind {profile['kind']!r} unknown")
        try:
            built.append(MonomialTerm(_as_int(t.get("p", 0), "p"),
                                      _as_int(t.get("q", 0), "q"),
                                      _as_int(t.get("r", 0), "r"),
                                      _as_complex(t.get("coeff", 1.0), "coeff"),
                                      profile))
        except (SpincsError, ValueError) as exc:
            raise ConfigInvalid(f"bad hamiltonian term {i}: {exc}")
    try:
        return HamiltonianSpec(spin, tuple(built))
    except (SpincsError, ValueError) as exc:
        raise ConfigInvalid(f"bad hamiltonian: {exc}")


def _build_fock(node):
    if node is None or node == "lowest":
        return make_fock([1.0])
    return _from_pairs(node, make_fock, "Fock", '"lowest"')


# ---------------------------------------------------------------------------
# report plumbing


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _inputs_hash(command: str, cfg: dict, seed: int) -> str:
    blob = json.dumps({"command": command, "config": _jsonable(cfg), "seed": seed},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_report(out_dir, record) -> str:
    path = f"{out_dir}/{record['experiment_id']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(record), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(out_dir, experiment_id, header, rows) -> str:
    path = f"{out_dir}/{experiment_id}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) if isinstance(x, (float, np.floating)) else x
                             for x in row])
    return path


# ---------------------------------------------------------------------------
# command runners: (cfg, seed, tol, hbar) -> (outputs, passed, csv header,
# csv rows); one per (command, suite) of the command table


def _rng(seed, *tags):
    return np.random.default_rng([seed & 0xFFFFFFFF, *tags])


def _random_omega(rng, theta_margin=0.0, wrap_margin=0.0):
    lo, hi = wrap_margin, 2.0 * np.pi - wrap_margin
    return EulerAngles(rng.uniform(lo, hi),
                       rng.uniform(theta_margin, np.pi - theta_margin),
                       rng.uniform(lo, hi))


def _run_wigner(cfg, seed, tol, hbar):
    spin = Spin(cfg["two_s"])
    if cfg.get("phi") is not None or cfg.get("psi") is not None:
        om = EulerAngles(cfg.get("phi", 0.0), cfg["theta"], cfg.get("psi", 0.0))
        mat = big_r(spin, om).entries
        kind = "big_r"
    else:
        mat = little_d(spin, cfg["theta"])
        kind = "little_d"
    defect = float(np.linalg.norm(mat.conj().T @ mat - np.eye(spin.dim)))
    outputs = {"matrix_kind": kind, "matrix": mat, "unitarity_defect": defect}
    return outputs, defect <= tol, None, None


def _run_algebra(cfg, seed, tol, hbar):
    """Unitarity, inverse, composition, and the composed-cos(theta) relation
    on random rotation pairs."""
    max_two_s = cfg.get("max_two_s", 4)
    worst = {"unitarity": 0.0, "inverse": 0.0, "composition": 0.0, "triangle": 0.0}
    for i in range(cfg.get("count", 100)):
        rng = _rng(seed, 1, i)
        spin = Spin(int(rng.integers(0, max_two_s + 1)))
        om1, om2 = _random_omega(rng), _random_omega(rng)
        r1 = big_r(spin, om1).entries
        r2 = big_r(spin, om2).entries
        eye = np.eye(spin.dim)
        worst["unitarity"] = max(worst["unitarity"],
                                 np.linalg.norm(r1.conj().T @ r1 - eye))
        r_inv = big_r(spin, invert_euler(om1)).entries
        worst["inverse"] = max(worst["inverse"],
                               min(np.linalg.norm(r_inv - r1.conj().T),
                                   np.linalg.norm(r_inv + r1.conj().T)))
        om12, sign = compose_euler(om2, om1)
        r12 = sign ** spin.two_s * big_r(spin, om12).entries
        worst["composition"] = max(worst["composition"], np.linalg.norm(r12 - r2 @ r1))
        cos_exp = (np.cos(om1.theta) * np.cos(om2.theta)
                   - np.sin(om1.theta) * np.sin(om2.theta) * np.cos(om2.psi + om1.phi))
        worst["triangle"] = max(worst["triangle"], abs(np.cos(om12.theta) - cos_exp))
    return worst, all(v <= tol for v in worst.values()), None, None


def _run_verify_resolution(cfg, seed, tol, hbar):
    oversample = cfg.get("oversample", 1.2)
    count = cfg.get("count", 20)
    rows, per_spin = [], {}
    for two_s in cfg["two_s"]:
        spin = Spin(two_s)
        grid = build_grid(spin, oversample)
        res = [resolution_residual(random_fiducial(spin, _rng(seed, two_s, i)), grid)
               for i in range(count)]
        rows += [(two_s, i, r) for i, r in enumerate(res)]
        per_spin[str(two_s)] = max(res)
    worst = max(r for _, _, r in rows)
    outputs = {"per_spin_max": per_spin, "max_residual": worst, "count": count}
    return outputs, worst <= tol, ("two_s", "fv_index", "residual"), rows


def _run_orthogonality(cfg, seed, tol, hbar):
    """Quadrature orthogonality of rotation-matrix entries: the weighted grid
    sum of conj(R_ak) R_bl equals delta_ab delta_kl."""
    worst = 0.0
    for two_s in cfg["two_s"]:
        spin = Spin(two_s)
        grid = build_grid(spin, cfg.get("oversample", 1.2))
        basis = np.eye(spin.dim)
        for k in range(spin.dim):
            # the Gram blocks of bra |k> against every ket |l>, stacked over l
            grams = _grid_gram(grid, spin, basis[k], basis)
            grams[k] -= basis
            worst = max(worst, float(np.max(np.abs(grams))))
    return {"max_residual": worst}, worst <= tol, None, None


def _run_overlap(cfg, seed, tol, hbar):
    spin = Spin(cfg["two_s"])
    fv = _build_fv(spin, cfg["fv"])
    val = overlap(fv, EulerAngles(*cfg["omega2"]), EulerAngles(*cfg["omega1"]))
    a0, b0 = structure_pair(fv)
    outputs = {"re": val.real, "im": val.imag, "abs": abs(val), "a0": a0, "b0": b0}
    return outputs, abs(val) <= 1.0 + tol, None, None


def _run_infinitesimal(cfg, seed, tol, hbar):
    """Log-log slope of the first-order short-displacement overlap remainder;
    2.0 means the linearization is correct through first order."""
    steps = np.logspace(-5, -2, 7)
    slopes = []
    for i in range(cfg.get("count", 20)):
        rng = _rng(seed, 2, i)
        spin = Spin(int(rng.integers(1, 5)))
        fv = random_fiducial(spin, rng)
        om = _random_omega(rng, theta_margin=0.3, wrap_margin=0.3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        errs = []
        for h in steps:
            delta = h * d
            displaced = EulerAngles(om.phi + delta[0], om.theta + delta[1],
                                    om.psi + delta[2])
            exact = overlap(fv, displaced, om)
            errs.append(abs(exact - infinitesimal_overlap(fv, om, delta)))
        slopes.append(np.polyfit(np.log(steps), np.log(errs), 1)[0])
    lo, hi = float(min(slopes)), float(max(slopes))
    outputs = {"min_slope": lo, "max_slope": hi}
    return outputs, abs(lo - 2.0) <= tol and abs(hi - 2.0) <= tol, None, None


def _run_propagate(cfg, seed, tol, hbar):
    spin = Spin(cfg["two_s"])
    fv = _build_fv(spin, cfg["fv"])
    spec = _build_hamiltonian(spin, cfg.get("hamiltonian"))
    modes = cfg.get("modes", list(_MODES))
    ns = cfg.get("n_slices", [8, 16, 32, 64])
    om_i, om_f = EulerAngles(*cfg["omega_i"]), EulerAngles(*cfg["omega_f"])
    t_i, t_f = cfg.get("t_i", 0.0), cfg["t_f"]
    if t_f < t_i:
        raise ConfigInvalid(f"'t_f' must be >= 't_i' ({t_i}), got {t_f}")
    grid = build_grid(spin, cfg.get("oversample", 1.2))
    oracle = exact_propagator(spec, t_i, t_f, hbar=hbar)
    amps_i = coherent_state(fv, om_i).amplitudes
    amps_f = coherent_state(fv, om_f).amplitudes
    exact = complex(np.vdot(amps_f, oracle @ amps_i))
    rows, per_mode = [], {}
    for mode in modes:
        errs = []
        for n in ns:
            r = discrete_cspi(fv, spec, om_i, om_f, t_i, t_f, n, grid,
                              mode=mode, hbar=hbar, oracle=oracle)
            errs.append(r.error_estimate)
            rows.append((mode, n, r.amplitude.real, r.amplitude.imag, r.error_estimate))
        per_mode[mode] = {"final_error": errs[-1],
                          "ratio_last": errs[-2] / errs[-1] if len(errs) > 1 and errs[-1] > 0 else None}
    outputs = {"exact": exact, "per_mode": per_mode, "n_slices": ns}
    passed = all(per_mode[m]["final_error"] <= tol for m in modes)
    return outputs, passed, ("mode", "n_slices", "re", "im", "abs_err_vs_oracle"), rows


def _run_action(cfg, seed, tol, hbar):
    spin = Spin(cfg["two_s"])
    fv = _build_fv(spin, cfg["fv"])
    spec = _build_hamiltonian(spin, cfg.get("hamiltonian"))
    value = action_along_path(fv, spec, cfg["path"], hbar=hbar)
    outputs = {"action": value, "n_samples": len(cfg["path"])}
    return outputs, bool(np.isfinite(value)), None, None


def _run_kinetic_fd(cfg, seed, tol, hbar):
    """Analytic <Omega|i d/dt|Omega> against a central finite difference of
    the coherent-state amplitudes."""
    step = 1e-5
    dev, imag = 0.0, 0.0
    for i in range(cfg.get("count", 50)):
        rng = _rng(seed, 3, i)
        spin = Spin(int(rng.integers(1, 5)))
        fv = random_fiducial(spin, rng)
        om = _random_omega(rng, theta_margin=0.3, wrap_margin=0.3)
        om_dot = rng.normal(size=3)
        angles = np.array([om.phi, om.theta, om.psi])
        plus = coherent_state(fv, EulerAngles(*(angles + step * om_dot))).amplitudes
        minus = coherent_state(fv, EulerAngles(*(angles - step * om_dot))).amplitudes
        here = coherent_state(fv, om).amplitudes
        fd = 1j * np.vdot(here, (plus - minus) / (2.0 * step))
        dev = max(dev, abs(fd.real - kinetic_term(fv, om, om_dot)))
        imag = max(imag, abs(fd.imag))
    outputs = {"max_abs_dev": dev, "max_imag": imag}
    return outputs, dev <= tol and imag <= 1e-9, None, None


def _run_geometry(cfg, seed, tol, hbar):
    spin = Spin(cfg["two_s"])
    fv = _build_fv(spin, cfg["fv"])
    om = EulerAngles(*cfg["omega"])
    kappa = one_form(fv, om)
    w = two_form(fv, om)
    step = 1e-4
    angles = np.array([om.phi, om.theta, om.psi])

    def k_at(v):
        f = one_form(fv, (v[0], v[1], v[2]))
        return np.array([f.k_phi, f.k_theta, f.k_psi])

    jac = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        jac[:, j] = (k_at(angles + e) - k_at(angles - e)) / (2 * step)
    fd_dev = max(abs((jac[0, 1] - jac[1, 0]) - w.w_theta_phi),
                 abs((jac[2, 0] - jac[0, 2]) - w.w_phi_psi),
                 abs((jac[1, 2] - jac[2, 1]) - w.w_psi_theta))
    xi, eta = om.phi + om.psi, om.phi - om.psi
    pole0 = gauge_potential(fv, 0.0, xi, eta)
    pole_pi = gauge_potential(fv, np.pi, xi, eta)
    poles = [pole0.a_theta, pole0.a_xi, pole0.a_eta,
             pole_pi.a_theta, pole_pi.a_xi, pole_pi.a_eta]
    outputs = {
        "one_form": {"k_phi": kappa.k_phi, "k_theta": kappa.k_theta, "k_psi": kappa.k_psi},
        "two_form": {"w_theta_phi": w.w_theta_phi, "w_phi_psi": w.w_phi_psi,
                     "w_psi_theta": w.w_psi_theta},
        "fd_two_form_dev": fd_dev,
        "gauge_at_poles": poles,
    }
    if cfg.get("loop") is not None:
        outputs["loop_phase"] = geometric_phase(fv, cfg["loop"])
    passed = fd_dev <= tol and all(np.isfinite(poles))
    return outputs, passed, None, None


def _run_charts(cfg, seed, tol, hbar):
    """Kinetic term evaluated in the z and spinor charts with numerically
    differentiated chart velocities against the Euler-angle form."""
    step = 1e-6
    worst_z, worst_a = 0.0, 0.0
    for i in range(cfg.get("count", 100)):
        rng = _rng(seed, 4, i)
        spin = Spin(int(rng.integers(1, 5)))
        fv = random_fiducial(spin, rng)
        om = _random_omega(rng, theta_margin=0.25, wrap_margin=0.3)
        om_dot = rng.normal(size=3)
        base = kinetic_term(fv, om, om_dot)
        angles = np.array([om.phi, om.theta, om.psi])
        om_p = EulerAngles(*(angles + step * om_dot))
        om_m = EulerAngles(*(angles - step * om_dot))
        z_p, z_m = omega_to_z(om_p), omega_to_z(om_m)
        z_dot = ((z_p.z_plus - z_m.z_plus) / (2 * step),
                 (z_p.z_minus - z_m.z_minus) / (2 * step))
        worst_z = max(worst_z, abs(kinetic_term_z(fv, omega_to_z(om), z_dot) - base))
        a_p, a_m = omega_to_a(om_p), omega_to_a(om_m)
        a_dot = ((a_p.a1 - a_m.a1) / (2 * step), (a_p.a2 - a_m.a2) / (2 * step))
        worst_a = max(worst_a, abs(kinetic_term_a(fv, omega_to_a(om), a_dot) - base))
    outputs = {"max_dev_z": worst_z, "max_dev_a": worst_a}
    return outputs, worst_z <= tol and worst_a <= tol, None, None


def _run_semiclassical(cfg, seed, tol, hbar):
    spin = Spin(cfg["two_s"])
    fv = _build_fv(spin, cfg["fv"])
    spec = _build_hamiltonian(spin, cfg["hamiltonian"])
    traj = integrate_trajectory(fv, spec, cfg["omega0"], cfg["t_span"], cfg["dt"], hbar=hbar)
    drift = float(np.max(np.abs(traj.energies - traj.energies[0])))
    rows = [(t, p, th, ps, e, r, res) for (t, p, th, ps), e, r, res
            in zip(traj.path, traj.energies, traj.ranks, traj.residuals)]
    outputs = {"energy_drift": drift,
               "final_point": list(traj.path[-1][1:]),
               "ranks": sorted(set(int(r) for r in traj.ranks)),
               "max_residual": float(np.max(traj.residuals)),
               "error_estimate": traj.error_estimate}
    return (outputs, drift <= tol,
            ("t", "phi", "theta", "psi", "energy", "rank", "residual"), rows)


def _contract_one(two_s, alpha, fock_fv):
    spin = Spin(two_s)
    c = np.zeros(spin.dim, dtype=complex)
    c[::-1][:fock_fv.coeffs.size] = fock_fv.coeffs
    fv_spin = FiducialVector(spin, c)
    contracted = hp_contract_state(fv_spin, alpha)
    target = canonical_cs(fock_fv, alpha, n_max=contracted.n_max).amplitudes
    max_abs_dev = float(np.max(np.abs(contracted.coeffs - target)))
    measure_dev = max(abs(hp_measure_ratio(r, spin) - 1.0)
                      for r in np.linspace(0.01, 2.0, 25))
    ts = np.linspace(0.0, 2.0, 21)
    root = np.sqrt(two_s)
    kinetic_dev = 0.0
    for t in ts:
        r = 0.9 + 0.25 * np.cos(t)
        g = 0.6 * np.sin(t) + 0.3 * t
        al = r * np.exp(1j * g)
        ald = (-0.25 * np.sin(t) + 1j * r * (0.6 * np.cos(t) + 0.3)) * np.exp(1j * g)
        zp, zpd = al / root, ald / root
        spin_val = kinetic_term_z(fv_spin, ZCoords(zp, -np.conj(zp)),
                                  (zpd, -np.conj(zpd)))
        kinetic_dev = max(kinetic_dev,
                          abs(spin_val - ccs_kinetic_term(al, ald, fock_fv)))
    return max_abs_dev, float(measure_dev), float(kinetic_dev)


def _run_contract(cfg, seed, tol, hbar):
    fock_fv = _build_fock(cfg.get("fv"))
    two_s_list = cfg.get("two_s_list", [100, 200, 400])
    if min(two_s_list) + 1 < fock_fv.coeffs.size:
        raise ConfigInvalid(f"every 'two_s_list' entry must be >= {fock_fv.coeffs.size - 1},"
                            f" the Fock fiducial's highest level, got {min(two_s_list)}")
    results = [_contract_one(ts, cfg["alpha"], fock_fv) for ts in two_s_list]
    rows = [(0.5 * ts, d, m, k) for ts, (d, m, k) in zip(two_s_list, results)]
    devs = [d for d, _, _ in results]
    monotone = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    outputs = {"two_s_list": two_s_list, "max_abs_devs": devs,
               "measure_devs": [m for _, m, _ in results],
               "kinetic_devs": [k for _, _, k in results],
               "monotone": monotone, "final_dev": devs[-1]}
    return (outputs, monotone and devs[-1] <= tol,
            ("s", "max_abs_dev", "measure_dev", "kinetic_dev"), rows)


def _run_ccs(cfg, seed, tol, hbar):
    """Displaced-number-state closed forms, eigen-relation residuals, and the
    canonical resolution of unity at reference truncations."""
    dns_dev = 0.0
    for alpha in (0.7, 1.3 - 0.4j):
        d = displacement_matrix(alpha, 64)
        for n in (0, 2, 5):
            dns_dev = max(dns_dev, float(np.max(np.abs(
                dns_amplitudes(alpha, n, 64) - d[:, n]))))
    outputs = {"dns_max_dev": dns_dev,
               "number_residual": dns_number_check(1.0, 3, 96),
               "degree_residual": annihilation_degree_residual(
                   make_fock([0.6, 0.0, 0.8]), 1.0, n_max=96),
               "resolution_residual": ccs_resolution_residual(make_fock([1.0]))}
    passed = (outputs["dns_max_dev"] <= 1e-9
              and outputs["number_residual"] <= 1e-8
              and outputs["degree_residual"] <= 1e-8
              and outputs["resolution_residual"] <= tol)
    return outputs, passed, None, None


# ---------------------------------------------------------------------------
# the command table


_INT, _FLOAT = {"type": int}, {"type": float}

# command -> (config schema: every key besides seed and hbar,
#             {suite: (runner, default tol, required keys)}, None the plain run,
#             direct flags: {config key: argparse keywords})
_COMMANDS = {
    "wigner": (
        {"two_s": _TWO_S, "theta": _as_float, "phi": _as_float, "psi": _as_float,
         "suite": _as_str, "count": _COUNT, "max_two_s": _TWO_S},
        {None: (_run_wigner, 1e-10, ("two_s", "theta")),
         "algebra": (_run_algebra, 1e-10, ())},
        {"two_s": _INT, "theta": _FLOAT, "phi": _FLOAT, "psi": _FLOAT}),
    "verify-resolution": (
        {"two_s": _lower_bound(_as_int_list, 0), "count": _COUNT, "oversample": _OVERSAMPLE,
         "suite": _as_str},
        {None: (_run_verify_resolution, 1e-10, ("two_s",)),
         "orthogonality": (_run_orthogonality, 1e-10, ("two_s",))},
        {"two_s": {"type": int, "action": "append"}, "count": _INT}),
    "overlap": (
        {"two_s": _TWO_S, "fv": _identity, "omega1": _as_omega, "omega2": _as_omega,
         "suite": _as_str, "count": _COUNT},
        {None: (_run_overlap, 1e-12, ("two_s", "fv", "omega1", "omega2")),
         "infinitesimal": (_run_infinitesimal, 0.1, ())},
        {}),
    "propagate": (
        {"two_s": _TWO_S, "fv": _identity, "hamiltonian": _identity,
         "omega_i": _as_omega, "omega_f": _as_omega, "t_i": _as_float, "t_f": _as_float,
         "n_slices": _lower_bound(_as_int_list, 1), "modes": _as_modes,
         "oversample": _OVERSAMPLE},
        {None: (_run_propagate, 0.02, ("two_s", "fv", "omega_i", "omega_f", "t_f"))},
        {}),
    "action": (
        {"two_s": _TWO_S, "fv": _identity, "hamiltonian": _identity,
         "path": _as_path_rows, "suite": _as_str, "count": _COUNT},
        {None: (_run_action, 1e-12, ("two_s", "fv", "path")),
         "kinetic_fd": (_run_kinetic_fd, 1e-6, ())},
        {}),
    "geometry": (
        {"two_s": _TWO_S, "fv": _identity, "omega": _as_omega, "loop": _as_path_rows,
         "suite": _as_str, "count": _COUNT},
        {None: (_run_geometry, 1e-6, ("two_s", "fv", "omega")),
         "charts": (_run_charts, 1e-8, ())},
        {}),
    "semiclassical": (
        {"two_s": _TWO_S, "fv": _identity, "hamiltonian": _identity,
         "omega0": _as_omega, "t_span": _as_span,
         "dt": _lower_bound(_as_float, 0.0, strict=True)},
        {None: (_run_semiclassical, 1e-8,
                ("two_s", "fv", "hamiltonian", "omega0", "t_span", "dt"))},
        {}),
    "contract": (
        {"alpha": _as_complex, "two_s_list": _lower_bound(_as_int_list, 0), "fv": _identity,
         "suite": _as_str},
        {None: (_run_contract, 0.01, ("alpha",)),
         "ccs": (_run_ccs, 1e-6, ())},
        {}),
}


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincs",
        description="Spin coherent-state experiments with JSON reports and CSV series.")
    parser.add_argument("--version", action="version", version=f"spincs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed (default 0)")
        p.add_argument("--out", default=".", help="report output directory")
        p.add_argument("--tol", type=float, help="override the default tolerance")
        for key, kwargs in flags.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    _, suites, flags = _COMMANDS[command]
    try:
        cfg = load_config(args.config) if args.config else {}
        cfg.update({key: getattr(args, key) for key in flags
                    if getattr(args, key) is not None})
        cfg = validate_config(command, cfg)
        run, default_tol, _ = suites[cfg.get("suite")]
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        hbar = cfg.get("hbar", 1.0)
        tol = args.tol if args.tol is not None else default_tol
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigInvalid(f"cannot create output directory {args.out}: {exc}")
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    record = {
        "experiment_id": f"{command}-{_inputs_hash(command, cfg, seed)[:12]}",
        "command": command,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "inputs_hash": _inputs_hash(command, cfg, seed),
        "seed": seed,
        "hbar": hbar,
        "tolerances": {"tol": tol},
        "config": _jsonable(cfg),
    }
    try:
        outputs, passed, header, rows = run(cfg, seed, tol, hbar)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpincsError as exc:
        record["outputs"] = {"error_type": type(exc).__name__, "error": str(exc)}
        record["passed"] = False
        path = _write_report(args.out, record)
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        print(f"report: {path}")
        return 3

    record["outputs"] = outputs
    record["passed"] = bool(passed)
    path = _write_report(args.out, record)
    print(f"report: {path}")
    if header is not None:
        print(f"series: {_write_csv(args.out, record['experiment_id'], header, rows)}")
    print(f"{command}: {'pass' if record['passed'] else 'FAIL'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
