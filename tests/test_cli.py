import json
import math

import numpy as np
from numpy.testing import assert_allclose

from spincs import EulerAngles, Spin, little_d, make_fiducial, overlap
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


def test_verify_resolution_refuses_oversized_grid(tmp_path, capsys):
    rc = main(["verify-resolution", "--two-s", "100", "--out", str(tmp_path)])
    assert rc == 3
    (report,) = _reports(tmp_path)
    assert report["passed"] is False
    assert report["outputs"]["error_type"] == "AmplitudesTooLarge"
    assert "AmplitudesTooLarge" in capsys.readouterr().err


def test_thread_count_does_not_change_results(tmp_path):
    out1 = tmp_path / "t1"
    out4 = tmp_path / "t4"
    out1.mkdir()
    out4.mkdir()
    cfg = _config(tmp_path, {"two_s": [1, 2], "count": 4})
    assert main(["verify-resolution", "--config", cfg, "--threads", "1",
                 "--out", str(out1)]) == 0
    assert main(["verify-resolution", "--config", cfg, "--threads", "4",
                 "--out", str(out4)]) == 0
    (r1,), (r4,) = _reports(out1), _reports(out4)
    r1.pop("timestamp")
    r4.pop("timestamp")
    assert r1 == r4


def test_contract_threads_csv_identical(tmp_path):
    out1 = tmp_path / "t1"
    out5 = tmp_path / "t5"
    out1.mkdir()
    out5.mkdir()
    cfg = _config(tmp_path, {"alpha": [1.0, 0.0], "two_s_list": [100, 200]})
    assert main(["contract", "--config", cfg, "--threads", "1",
                 "--out", str(out1)]) == 0
    assert main(["contract", "--config", cfg, "--threads", "5",
                 "--out", str(out5)]) == 0
    csv1 = next(out1.glob("*.csv")).read_bytes()
    csv5 = next(out5.glob("*.csv")).read_bytes()
    assert csv1 == csv5


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
