import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import basis_fv, dense_gram
from spincs import (EulerAngles, HamiltonianSpec, MonomialTerm, Spin, action_along_path,
                    build_grid, coherent_state, little_d, make_fiducial, overlap)
from spincs import cli
from spincs.cli import main


def _config(tmp_path, payload, name="cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _reports(out_dir):
    return [json.loads(p.read_text()) for p in sorted(out_dir.glob("*.json"))]


def _as_complex_array(node):
    return np.array([[complex(re, im) for re, im in row] for row in node])


def test_wigner_little_d_via_flags(tmp_path):
    rc = main(["wigner", "--two-s", "2", "--theta", "0.7", "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["command"] == "wigner"
    assert report["passed"] is True
    assert report["outputs"]["matrix_kind"] == "little_d"
    assert_allclose(np.array(report["outputs"]["matrix"]),
                    little_d(Spin(2), 0.7), atol=1e-12)
    assert report["outputs"]["unitarity_defect"] <= 1e-10


def test_wigner_big_r_with_all_angles(tmp_path):
    rc = main(["wigner", "--two-s", "1", "--theta", "0.7", "--phi", "0.3",
               "--psi", "1.1", "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["outputs"]["matrix_kind"] == "big_r"
    from spincs import big_r
    assert_allclose(_as_complex_array(report["outputs"]["matrix"]),
                    big_r(Spin(1), EulerAngles(0.3, 0.7, 1.1)).entries, atol=1e-12)


def test_config_error_unknown_key(tmp_path, capsys):
    cfg = _config(tmp_path, {"two_s": 2, "theta": 0.7, "bogus": 1})
    rc = main(["wigner", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err
    assert _reports(tmp_path) == []


def test_config_error_bad_json(tmp_path, capsys):
    path = tmp_path / "broken"
    path.write_text("{not json")
    rc = main(["wigner", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_config_error_missing_required(tmp_path, capsys):
    rc = main(["overlap", "--config", _config(tmp_path, {"two_s": 2}),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "requires" in capsys.readouterr().err


def test_config_error_bad_fiducial(tmp_path, capsys):
    cfg = _config(tmp_path, {"two_s": 2, "fv": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                             "omega1": [0, 1, 0], "omega2": [1, 1, 1]})
    rc = main(["overlap", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "bad fiducial" in capsys.readouterr().err


def test_numerical_failure_exit_code_and_report(tmp_path, capsys):
    # a two-component fiducial vector with a quadratic Hamiltonian admits
    # no variational velocity: the run fails numerically but still reports
    cfg = _config(tmp_path, {
        "two_s": 2,
        "fv": [[0.6, 0.0], [0.0, 0.0], [0.8, 0.0]],
        "hamiltonian": {"terms": [{"q": 2, "coeff": 1.0}]},
        "omega0": [0.3, 1.0, 0.2],
        "t_span": [0.0, 1.0],
        "dt": 0.1,
    })
    rc = main(["semiclassical", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    (report,) = _reports(tmp_path)
    assert report["passed"] is False
    assert report["outputs"]["error_type"] == "InconsistentSystem"
    assert "numerical failure" in capsys.readouterr().err


def test_overlap_command(tmp_path):
    om1, om2 = [0.2, 0.9, 1.4], [1.1, 0.5, 0.3]
    cfg = _config(tmp_path, {"two_s": 3, "fv": "lowest", "omega1": om1,
                             "omega2": om2})
    rc = main(["overlap", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    fv = make_fiducial(Spin(3), [0, 0, 0, 1.0])
    val = overlap(fv, EulerAngles(*om2), EulerAngles(*om1))
    assert_allclose(report["outputs"]["re"] + 1j * report["outputs"]["im"], val,
                    atol=1e-12)
    assert report["passed"] is True


def test_propagate_zero_hamiltonian(tmp_path):
    cfg = _config(tmp_path, {
        "two_s": 2, "fv": "lowest",
        "omega_i": [0.3, 0.8, 0.1], "omega_f": [1.0, 1.2, 0.7],
        "t_f": 1.0, "n_slices": [2, 4], "modes": ["M1", "M3"],
    })
    rc = main(["propagate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["passed"] is True
    for mode in ("M1", "M3"):
        assert report["outputs"]["per_mode"][mode]["final_error"] < 1e-12
    csvs = list(tmp_path.glob("*.csv"))
    assert len(csvs) == 1
    header = csvs[0].read_text().splitlines()[0]
    assert header == "mode,n_slices,re,im,abs_err_vs_oracle"


def test_propagate_convergence_ratio(tmp_path):
    cfg = _config(tmp_path, {
        "two_s": 1, "fv": "lowest",
        "hamiltonian": {"terms": [{"q": 1, "coeff": 1.0},
                                  {"p": 1, "coeff": 0.15},
                                  {"r": 1, "coeff": 0.15}]},
        "omega_i": [0.7, 0.9, 1.3], "omega_f": [4.1, 1.9, 5.2],
        "t_f": 2.0 * math.pi, "n_slices": [32, 64], "modes": ["M1"],
    })
    rc = main(["propagate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["passed"] is True
    ratio = report["outputs"]["per_mode"]["M1"]["ratio_last"]
    assert 1.7 < ratio < 2.3
    assert report["outputs"]["per_mode"]["M1"]["final_error"] <= 0.02


def test_action_command(tmp_path):
    t = np.linspace(0.0, 1.0, 80)
    path_rows = np.column_stack([t, 2 * math.pi * t, np.full_like(t, 0.8),
                                 np.zeros_like(t)]).tolist()
    cfg = _config(tmp_path, {"two_s": 2, "fv": "lowest", "path": path_rows})
    rc = main(["action", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert "action" in report["outputs"]
    assert report["passed"] is True


_FV_PAIRS = [[0.6, 0.1], [0.3, -0.2], [0.5, 0.4]]
_COSINE = {"kind": "cosine", "omega": 3.0, "phase": 0.2}


def _action_path():
    t = np.linspace(0.0, 1.0, 60)
    return np.column_stack([t, 2 * math.pi * t, 0.8 + 0.1 * np.sin(3 * t), 0.5 * t])


@pytest.mark.parametrize("terms, library_terms", [
    ([{"q": 1, "coeff": 1.0},
      {"p": 1, "coeff": 0.15, "profile": _COSINE},
      {"r": 1, "coeff": 0.15, "profile": _COSINE}],
     (MonomialTerm(0, 1, 0, 1.0),
      MonomialTerm(1, 0, 0, 0.15, ("cosine", 3.0, 0.2)),
      MonomialTerm(0, 0, 1, 0.15, ("cosine", 3.0, 0.2)))),
    ([{"q": 2, "coeff": 0.5, "profile": {"kind": "ramp"}},
      {"p": 1, "r": 1, "coeff": [0.3, 0.0], "profile": {"kind": "ramp"}}],
     (MonomialTerm(0, 2, 0, 0.5, ("ramp",)), MonomialTerm(1, 0, 1, 0.3, ("ramp",)))),
], ids=["cosine", "ramp"])
def test_action_hamiltonian_profiles_match_library(tmp_path, terms, library_terms):
    spin = Spin(2)
    path = _action_path()
    cfg = _config(tmp_path, {"two_s": 2, "fv": _FV_PAIRS, "path": path.tolist(),
                             "hamiltonian": {"terms": terms}})
    assert main(["action", "--config", cfg, "--out", str(tmp_path)]) == 0
    (report,) = _reports(tmp_path)
    fv = make_fiducial(spin, [complex(re, im) for re, im in _FV_PAIRS])
    expected = action_along_path(fv, HamiltonianSpec(spin, library_terms), path)
    assert_allclose(report["outputs"]["action"], expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("hamiltonian, message", [
    ({"terms": [{"q": 1, "profile": {"omega": 3.0}}]}, "profile must be an object with 'kind'"),
    ({"terms": [{"q": 1, "profile": {"kind": "sine"}}]}, "kind 'sine' unknown"),
    ({"terms": [{"q": 1, "profile": dict(_COSINE, period=2.0)}]}, "cosine profile has unknown"),
    ({"terms": [{"q": 1, "profile": {"kind": "ramp", "omega": 1.0}}]},
     "ramp profile has unknown"),
    ({"terms": {"q": 1}}, "'hamiltonian.terms' must be a list"),
    ({"terms": [], "scale": 2.0}, "'hamiltonian' must be an object"),
    ({"terms": [{"p": 1, "coeff": 1.0}]}, "bad hamiltonian"),
    ({"terms": [{"q": 1, "power": 2}]}, "must have keys p, q, r, coeff"),
    ({"terms": [{"q": -1}]}, "bad hamiltonian term 0"),
], ids=["no_kind", "unknown_kind", "cosine_extra_key", "ramp_extra_key", "terms_not_list",
        "extra_key", "not_hermitian", "term_extra_key", "negative_exponent"])
def test_action_bad_hamiltonian_is_config_error(tmp_path, capsys, monkeypatch,
                                               hamiltonian, message):
    monkeypatch.setattr(cli, "action_along_path", lambda *a, **k: pytest.fail("ran the command"))
    cfg = _config(tmp_path, {"two_s": 2, "fv": "lowest", "path": _action_path().tolist(),
                             "hamiltonian": hamiltonian})
    assert main(["action", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert _reports(tmp_path) == []


def test_geometry_point_and_loop(tmp_path):
    n = 600
    t = np.linspace(0.0, 1.0, n)
    loop = np.column_stack([t, 2 * math.pi * t, np.full_like(t, 0.9),
                            np.zeros_like(t)]).tolist()
    cfg = _config(tmp_path, {"two_s": 2, "fv": "lowest",
                             "omega": [0.4, 0.9, 1.2], "loop": loop})
    rc = main(["geometry", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["passed"] is True
    # lowest weight at spin 1 carries m = -1: flux -2 pi cos(theta)
    assert_allclose(report["outputs"]["loop_phase"],
                    -2.0 * math.pi * math.cos(0.9), atol=1e-4)


_REPEATED_TIME = [[0.0, 0.0, 0.9, 0.0], [0.5, 1.0, 0.9, 0.0], [0.5, 2.0, 0.9, 0.0],
                  [1.0, 3.0, 0.9, 0.0]]


@pytest.mark.parametrize("command, payload, body", [
    ("action", {"path": _REPEATED_TIME}, "action_along_path"),
    ("geometry", {"omega": [0.4, 0.9, 1.2], "loop": _REPEATED_TIME}, "geometric_phase"),
])
def test_repeated_path_time_is_config_error(tmp_path, capsys, monkeypatch, command, payload,
                                            body):
    # a repeated time used to pass with a NaN written into the report
    monkeypatch.setattr(cli, body, lambda *a, **k: pytest.fail("ran the command"))
    cfg = _config(tmp_path, {"two_s": 2, "fv": "lowest", **payload})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "strictly" in capsys.readouterr().err
    assert _reports(tmp_path) == []


def test_semiclassical_precession(tmp_path):
    cfg = _config(tmp_path, {
        "two_s": 2, "fv": "lowest",
        "hamiltonian": {"terms": [{"q": 1, "coeff": 1.0}]},
        "omega0": [0.0, 1.0, 0.0], "t_span": [0.0, 1.0], "dt": 0.02,
    })
    rc = main(["semiclassical", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["passed"] is True
    assert report["outputs"]["energy_drift"] <= 1e-8
    assert_allclose(report["outputs"]["final_point"][0], 1.0, atol=1e-8)
    csvs = list(tmp_path.glob("*.csv"))
    assert csvs and csvs[0].read_text().splitlines()[0] == \
        "t,phi,theta,psi,energy,rank,residual"


def test_semiclassical_equilibrium_at_pole(tmp_path):
    # the lowest state at theta = 0 is an S3 eigenstate: the lab system has
    # rank 2 there, the gradient of <S3> is roundoff that the velocity solve
    # must accept, and the state only gains a phase
    cfg = _config(tmp_path, {
        "two_s": 2, "fv": "lowest",
        "hamiltonian": {"terms": [{"q": 1, "coeff": 1.0}]},
        "omega0": [0.3, 0.0, 0.7], "t_span": [0.0, 1.0], "dt": 0.1,
    })
    rc = main(["semiclassical", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["outputs"]["ranks"] == [2]
    fv = basis_fv(Spin(2), 2)
    start = coherent_state(fv, (0.3, 0.0, 0.7)).amplitudes
    final = coherent_state(fv, report["outputs"]["final_point"]).amplitudes
    phase = np.vdot(start, final)
    assert np.linalg.norm(final - phase / abs(phase) * start) <= 1e-12


def test_semiclassical_reversed_span_rows(tmp_path):
    cfg = _config(tmp_path, {
        "two_s": 1, "fv": "lowest", "hamiltonian": {"terms": []},
        "omega0": [0.0, 1.0, 0.0], "t_span": [0.2, 0.0], "dt": 0.1,
    })
    rc = main(["semiclassical", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (csv,) = tmp_path.glob("*.csv")
    rows = csv.read_text().splitlines()[1:]
    assert len(rows) == 3
    assert_allclose([float(row.split(",")[0]) for row in rows], [0.2, 0.1, 0.0],
                    atol=1e-12)


def test_contract_command(tmp_path):
    cfg = _config(tmp_path, {"alpha": [1.3, 0.4], "two_s_list": [100, 200],
                             "fv": [[0.8, 0.0], [0.0, 0.0], [0.6, 0.0]]})
    rc = main(["contract", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["passed"] is True
    assert report["outputs"]["monotone"] is True
    devs = report["outputs"]["max_abs_devs"]
    assert devs[0] > devs[1]


def test_suite_algebra_small(tmp_path):
    cfg = _config(tmp_path, {"suite": "algebra", "count": 5})
    rc = main(["wigner", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["passed"] is True
    assert max(report["outputs"].values()) <= 1e-10


def test_suite_orthogonality(tmp_path):
    cfg = _config(tmp_path, {"suite": "orthogonality", "two_s": [1, 2]})
    rc = main(["verify-resolution", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["passed"] is True
    assert report["outputs"]["max_residual"] <= 1e-10


def test_suite_orthogonality_matches_dense_sum_on_coarse_grid(tmp_path, monkeypatch):
    # on a grid too coarse for two_s=4 the Gram blocks are far from the
    # identity; the reported worst entry must be the densely summed one
    coarse = build_grid(Spin(0))
    monkeypatch.setattr(cli, "build_grid", lambda spin, oversample: coarse)
    cfg = _config(tmp_path, {"suite": "orthogonality", "two_s": [4]})
    rc = main(["verify-resolution", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    spin = Spin(4)
    expected = max(
        np.abs(dense_gram(coarse, basis_fv(spin, k), basis_fv(spin, l))
               - (np.eye(spin.dim) if k == l else 0.0)).max()
        for k in range(spin.dim) for l in range(spin.dim))
    assert expected > 1e-3
    assert report["passed"] is False
    assert abs(report["outputs"]["max_residual"] - expected) <= 1e-13


def test_suite_infinitesimal_small(tmp_path):
    cfg = _config(tmp_path, {"suite": "infinitesimal", "count": 3})
    rc = main(["overlap", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["passed"] is True
    assert abs(report["outputs"]["min_slope"] - 2.0) <= 0.1
    assert abs(report["outputs"]["max_slope"] - 2.0) <= 0.1


def test_suite_kinetic_fd_small(tmp_path):
    cfg = _config(tmp_path, {"suite": "kinetic_fd", "count": 3})
    rc = main(["action", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["passed"] is True


def test_suite_charts_small(tmp_path):
    cfg = _config(tmp_path, {"suite": "charts", "count": 3})
    rc = main(["geometry", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["passed"] is True


def test_suite_ccs(tmp_path):
    cfg = _config(tmp_path, {"suite": "ccs"})
    rc = main(["contract", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["passed"] is True
    assert report["outputs"]["dns_max_dev"] <= 1e-9


def test_verify_resolution_flags(tmp_path):
    rc = main(["verify-resolution", "--two-s", "1", "--two-s", "2",
               "--count", "3", "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["passed"] is True
    assert report["outputs"]["max_residual"] <= 1e-10


def test_propagate_m3_refuses_oversized_grid(tmp_path, capsys):
    # M3 needs the (G, dim) amplitudes, 11.8 GB at two_s=100
    cfg = _config(tmp_path, {"two_s": 100, "fv": "lowest", "omega_i": [0.1, 0.2, 0.3],
                             "omega_f": [0.4, 0.5, 0.6], "t_f": 1.0, "n_slices": [2],
                             "modes": ["M3"]})
    rc = main(["propagate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    (report,) = _reports(tmp_path)
    assert report["passed"] is False
    assert report["outputs"]["error_type"] == "AmplitudesTooLarge"
    assert "AmplitudesTooLarge" in capsys.readouterr().err


def test_verify_resolution_at_two_s_100(tmp_path):
    rc = main(["verify-resolution", "--two-s", "100", "--out", str(tmp_path)])
    assert rc == 0
    (report,) = _reports(tmp_path)
    assert report["passed"] is True
    assert report["outputs"]["max_residual"] <= 1e-12


# One config per (command, suite) of the command table, and the two
# direct-flag paths, each with the experiment id its inputs hash to.
_PINNED = {
    ("wigner", None): (
        {"two_s": 2, "theta": 0.7, "psi": 0.4}, "wigner-81eed83c84f4"),
    ("wigner", "algebra"): (
        {"suite": "algebra", "count": 3}, "wigner-e83d52a374fe"),
    ("verify-resolution", None): (
        {"two_s": [1, 2], "count": 2, "seed": 3}, "verify-resolution-77eb3022270d"),
    ("verify-resolution", "orthogonality"): (
        {"suite": "orthogonality", "two_s": [1, 2]}, "verify-resolution-7b53ef871a6c"),
    ("overlap", None): (
        {"two_s": 3, "fv": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.8], [0.0, 0.0]],
         "omega1": [0.2, 0.9, 1.4], "omega2": [1.1, 0.5, 0.3]}, "overlap-369da577f128"),
    ("overlap", "infinitesimal"): (
        {"suite": "infinitesimal", "count": 2}, "overlap-9621d8223c8e"),
    ("propagate", None): (
        {"two_s": 1, "fv": "lowest",
         "hamiltonian": {"terms": [{"q": 1, "coeff": 1.0}, {"p": 1, "coeff": 0.15},
                                   {"r": 1, "coeff": 0.15}]},
         "omega_i": [0.7, 0.9, 1.3], "omega_f": [4.1, 1.9, 5.2], "t_f": 1.0,
         "n_slices": [4, 8]}, "propagate-59888ddb9f9c"),
    ("action", None): (
        {"two_s": 2, "fv": "highest", "hbar": 2.0,
         "path": [[0.0, 0.0, 0.8, 0.0], [0.5, 1.0, 0.8, 0.1], [1.0, 2.0, 0.8, 0.2]]},
        "action-e9b70f9f9420"),
    ("action", "kinetic_fd"): (
        {"suite": "kinetic_fd", "count": 2}, "action-92cf377371d8"),
    ("geometry", None): (
        {"two_s": 2, "fv": "lowest", "omega": [0.4, 0.9, 1.2],
         "loop": [[0.0, 0.0, 0.9, 0.0], [0.5, 3.0, 0.9, 0.0], [1.0, 6.0, 0.9, 0.0]]},
        "geometry-6d223edaf738"),
    ("geometry", "charts"): (
        {"suite": "charts", "count": 2}, "geometry-cdb80407e18c"),
    ("semiclassical", None): (
        {"two_s": 2, "fv": "lowest", "hamiltonian": {"terms": [{"q": 1, "coeff": 1.0}]},
         "omega0": [0.0, 1.0, 0.0], "t_span": [0.0, 0.2], "dt": 0.05},
        "semiclassical-e82bc06feccd"),
    ("contract", None): (
        {"alpha": [1.3, 0.4], "two_s_list": [100, 200]}, "contract-636cff93c630"),
    ("contract", "ccs"): (
        {"suite": "ccs"}, "contract-2077c33a7469"),
}
_FLAG_RUNS = {
    "wigner": (["--two-s", "2", "--theta", "0.7"], "wigner-ecbfcf5d4b3e"),
    "verify-resolution": (["--two-s", "1", "--two-s", "2", "--count", "2"],
                          "verify-resolution-43ecd6eb7cc0"),
}


def _run_twice(tmp_path, argv):
    """Run one command into two fresh directories; return its experiment id
    after checking that both runs wrote the same report and CSV bytes."""
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        assert main(argv + ["--out", str(out)]) == 0
        (report,) = _reports(out)
        report.pop("timestamp")
        csvs = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        runs.append((report, csvs))
    assert runs[0] == runs[1]
    return runs[0][0]["experiment_id"]


@pytest.mark.parametrize("command,suite", sorted(_PINNED, key=str))
def test_pinned_config_report(tmp_path, command, suite):
    cfg, experiment_id = _PINNED[command, suite]
    argv = [command, "--config", _config(tmp_path, cfg)]
    assert _run_twice(tmp_path, argv) == experiment_id


@pytest.mark.parametrize("command", sorted(_FLAG_RUNS))
def test_pinned_flag_report(tmp_path, command):
    flags, experiment_id = _FLAG_RUNS[command]
    assert _run_twice(tmp_path, [command] + flags) == experiment_id


def test_every_table_entry_is_pinned():
    # a (command, suite) added to the command table needs a pinned config
    entries = {(command, suite) for command, (_, suites, _) in cli._COMMANDS.items()
               for suite in suites}
    assert entries == set(_PINNED)
    flag_commands = {command for command, (_, _, flags) in cli._COMMANDS.items() if flags}
    assert flag_commands == set(_FLAG_RUNS)


def test_orthogonality_at_two_s_30_within_memory(tmp_path):
    # summed densely this would keep 31 basis-state arrays of 0.11 GB alive
    cfg = _config(tmp_path, {"suite": "orthogonality", "two_s": [30]})
    tracemalloc.start()
    try:
        rc = main(["verify-resolution", "--config", cfg, "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 50e6
    (report,) = _reports(tmp_path)
    assert report["passed"] is True
    assert report["outputs"]["max_residual"] <= 1e-10


@pytest.mark.parametrize("command,payload,flags,body", [
    ("verify-resolution", {"two_s": [2], "oversample": 0.5}, [], "build_grid"),
    ("verify-resolution", {"two_s": [2], "count": 0}, [], "build_grid"),
    ("verify-resolution", None, ["--two-s", "-1"], "build_grid"),
    ("semiclassical", {"two_s": 2, "fv": "lowest", "hamiltonian": {"terms": []},
                       "omega0": [0.0, 1.0, 0.0], "t_span": [0.0, 0.2], "dt": -0.1},
     [], "integrate_trajectory"),
    ("propagate", {"two_s": 1, "fv": "lowest", "omega_i": [0.1, 0.2, 0.3],
                   "omega_f": [0.4, 0.5, 0.6], "t_f": 1.0, "n_slices": [0]},
     [], "build_grid"),
    ("propagate", {"two_s": 1, "fv": "lowest", "omega_i": [0.1, 0.2, 0.3],
                   "omega_f": [0.4, 0.5, 0.6], "t_f": -1.0},
     [], "build_grid"),
    ("contract", {"alpha": 0.5, "two_s_list": [1], "fv": [[0.6, 0.0], [0.0, 0.0], [0.8, 0.0]]},
     [], "_contract_one"),
    ("semiclassical", {"two_s": 2, "fv": "lowest", "hamiltonian": {"terms": []},
                       "omega0": [0.0, 1.0, 0.0], "t_span": ["x", 1.0], "dt": 0.1},
     [], "integrate_trajectory"),
    ("semiclassical", {"two_s": 2, "fv": "lowest", "hamiltonian": {"terms": []},
                       "omega0": [0.0, 1.0, 0.0], "t_span": [True, 1.0], "dt": 0.1},
     [], "integrate_trajectory"),
    ("semiclassical", {"two_s": 2, "fv": "lowest", "hamiltonian": {"terms": []},
                       "omega0": [0.0, 1.0, 0.0], "t_span": [0.0, 0.1, 0.2], "dt": 0.1},
     [], "integrate_trajectory"),
    ("propagate", {"two_s": 1, "fv": "lowest", "omega_i": [0.1, 0.2, 0.3],
                   "omega_f": [0.4, 0.5, 0.6], "t_f": 1.0, "modes": ["M4"]},
     [], "build_grid"),
    ("propagate", {"two_s": 1, "fv": "lowest", "omega_i": [0.1, 0.2, 0.3],
                   "omega_f": [0.4, 0.5, 0.6], "t_f": 1.0, "modes": []},
     [], "build_grid"),
    # json.dumps writes float("nan") and float("inf") as NaN and Infinity
    ("semiclassical", {"two_s": 2, "fv": "lowest", "hamiltonian": {"terms": []},
                       "omega0": [0.0, 1.0, 0.0], "t_span": [0.0, 0.2], "dt": float("nan")},
     [], "integrate_trajectory"),
    ("semiclassical", {"two_s": 2, "fv": "lowest", "hamiltonian": {"terms": []},
                       "omega0": [0.0, 1.0, 0.0], "t_span": [0.0, float("inf")], "dt": 0.1},
     [], "integrate_trajectory"),
    ("overlap", {"two_s": 2, "fv": "lowest", "omega1": [float("nan"), 1.0, 0.0],
                 "omega2": [0.1, 0.2, 0.3]},
     [], "overlap"),
    ("overlap", {"two_s": 2, "fv": "lowest", "omega1": [10 ** 400, 1.0, 0.0],
                 "omega2": [0.1, 0.2, 0.3]},
     [], "overlap"),
], ids=["oversample", "count", "two_s", "dt", "n_slices", "t_f", "fock_length",
        "t_span_string", "t_span_bool", "t_span_length", "modes_unknown", "modes_empty",
        "dt_nan", "t_span_infinity", "omega1_nan", "omega1_past_float_range"])
def test_out_of_range_value_is_config_error(tmp_path, capsys, monkeypatch,
                                            command, payload, flags, body):
    monkeypatch.setattr(cli, body, lambda *a, **k: pytest.fail("ran the command"))
    argv = [command] + flags + ["--out", str(tmp_path)]
    if payload is not None:
        argv += ["--config", _config(tmp_path, payload)]
    assert main(argv) == 2
    assert "must be" in capsys.readouterr().err
    assert _reports(tmp_path) == []


def test_missing_out_directory_is_created(tmp_path):
    out = tmp_path / "missing" / "deeper"
    rc = main(["wigner", "--two-s", "1", "--theta", "0.3", "--out", str(out)])
    assert rc == 0
    (report,) = _reports(out)
    assert report["passed"] is True


def test_out_directory_error_is_config_error(tmp_path, capsys, monkeypatch):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setattr(cli, "little_d", lambda *a: pytest.fail("ran the command"))
    rc = main(["wigner", "--two-s", "1", "--theta", "0.3", "--out", str(not_a_dir)])
    assert rc == 2
    assert "cannot create output directory" in capsys.readouterr().err


def test_threads_option_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["wigner", "--two-s", "1", "--theta", "0.3", "--threads", "1",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_seed_changes_inputs_hash(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    cfg = _config(tmp_path, {"suite": "algebra", "count": 2})
    assert main(["wigner", "--config", cfg, "--seed", "1",
                 "--out", str(out_a)]) == 0
    assert main(["wigner", "--config", cfg, "--seed", "2",
                 "--out", str(out_b)]) == 0
    (ra,), (rb,) = _reports(out_a), _reports(out_b)
    assert ra["inputs_hash"] != rb["inputs_hash"]
    assert ra["seed"] == 1 and rb["seed"] == 2


def test_seed_zero_overrides_config_seed(tmp_path):
    cfg = _config(tmp_path, {"seed": 5, "suite": "algebra", "count": 2})
    assert main(["wigner", "--config", cfg, "--seed", "0", "--out", str(tmp_path)]) == 0
    (report,) = _reports(tmp_path)
    assert report["seed"] == 0
