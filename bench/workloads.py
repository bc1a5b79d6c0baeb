"""The workloads: seeded inputs, the operations of one round, and the
check of every operation's output.

``build(name, sp, rng, out_dir)`` returns the round as a list of ``Op``.
``sp`` is the imported ``spincs`` package, or a stand-in that forwards to
the copy imported last; operations reach the library through it at call
time, and build the program's own objects (fiducials, Hamiltonians, angles,
grids) inside the call, so a fresh import of spincs between rounds starts
every round from the state a fresh process has, and wrappers installed by
the tracer are seen.  Everything a check compares against is computed here,
at build time, by ``reference`` (which does not import spincs), or is a
property the method must have.  A check raises ``CheckFailed``.
"""

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

import reference as ref

TWO_PI = 2.0 * math.pi

# Program fault kept in the resolution workload: _little_d_log_columns
# (taken by grid_amplitudes above two_s = 30) cancels catastrophically at
# mid angles, so amplitude maps at two_s >= 64 miss the expm rotation by
# ~1e-6 (two_s 64; ~3e-4 at two_s 80).
LOG_COLUMNS_FAULT = ("grid_amplitudes above two_s=30 uses _little_d_log_columns, "
                     "which cancels at mid angles")


class CheckFailed(Exception):
    """An operation's output disagrees with its reference or property."""


@dataclass
class Op:
    kind: str
    call: object            # () -> output; the timed call into spincs
    check: object           # output -> None; raises CheckFailed
    known_fault: str = None


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def close(actual, expected, tol, what):
    """Max absolute deviation, raising CheckFailed above tol (or on NaN)."""
    dev = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
    require(dev <= tol, f"{what}: deviation {dev:.3e} > {tol:.0e}")
    return dev


# ---------------------------------------------------------------------------
# seeded inputs


def random_coeffs(rng, two_s):
    """Normalized complex-normal fiducial coefficients with c[0] real
    positive (the phase make_fiducial would pick), so the program and the
    references hold the same vector."""
    c = rng.standard_normal(two_s + 1) + 1j * rng.standard_normal(two_s + 1)
    c /= np.linalg.norm(c)
    return c * np.exp(-1j * np.angle(c[0]))


def basis_coeffs(two_s, index):
    c = np.zeros(two_s + 1, dtype=complex)
    c[index] = 1.0
    return c


def random_angles(rng, margin=0.0):
    """Canonical-range Euler angles (no folding by EulerAngles)."""
    return (float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(margin, math.pi - margin)),
            float(rng.uniform(0.0, TWO_PI)))


def random_terms(rng, two_s, degree, driven, norm):
    """Hermitian H = a S3 + (c S+ + h.c.) [+ two degree-2 blocks], scaled so
    that the operator norm of its undriven form is ``norm``.  Driven terms
    carry a cos(w t + phase) profile on the transverse pair."""
    def cplx():
        return complex(rng.standard_normal(), rng.standard_normal())

    prof = ("cosine", float(rng.uniform(2.0, 4.0)), float(rng.uniform(0.0, TWO_PI))) \
        if driven else None
    c = cplx()
    terms = [(0, 1, 0, float(rng.standard_normal()), None),
             (1, 0, 0, c, prof), (0, 0, 1, c.conjugate(), prof)]
    if degree == 2:
        blocks = [[(0, 2, 0, float(rng.standard_normal()), None)],
                  [(1, 0, 1, float(rng.standard_normal()), None)]]
        c2, c3 = cplx(), cplx()
        blocks.append([(2, 0, 0, c2, None), (0, 0, 2, c2.conjugate(), None)])
        blocks.append([(1, 1, 0, c3, None), (0, 1, 1, c3.conjugate(), None)])
        for k in rng.choice(len(blocks), size=2, replace=False):
            terms += blocks[k]
    scale = norm / h_norm(two_s, terms)
    return [(p, q, r, co * scale, pr) for p, q, r, co, pr in terms]


def h_norm(two_s, terms):
    """Operator norm of H with every time profile dropped."""
    static = [(p, q, r, co, None) for p, q, r, co, _ in terms]
    return float(np.linalg.norm(ref.hamiltonian(two_s, static), 2))


def to_spec(sp, two_s, terms):
    return sp.HamiltonianSpec(sp.Spin(two_s), tuple(
        sp.MonomialTerm(p, q, r, co, pr) for p, q, r, co, pr in terms))


def to_fv(sp, coeffs):
    return sp.make_fiducial(sp.Spin(coeffs.size - 1), coeffs)


def config_terms(terms):
    """Static Hamiltonian terms in the CLI config schema."""
    return [{"p": p, "q": q, "r": r, "coeff": [complex(co).real, complex(co).imag]}
            for p, q, r, co, _ in terms]


def config_fv(coeffs):
    return [[float(z.real), float(z.imag)] for z in coeffs]


def cli_op(sp, kind, argv, check):
    """One in-process ``spincs`` run, output (exit code, stdout).  The check
    reads the JSON report and the CSV series the command wrote and passes
    them to ``check(report, rows)``."""
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = sp.cli.main(list(argv))
        return code, buf.getvalue()

    def full_check(result):
        code, text = result
        require(code == 0, f"exit code {code}")
        lines = text.strip().splitlines()
        require(lines and lines[-1] == f"{argv[0]}: pass", f"last line {lines[-1:]!r}")
        paths = dict(line.split(": ", 1) for line in lines[:-1])
        with open(paths["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        rows = None
        if "series" in paths:
            with open(paths["series"], encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
        check(report, rows)

    return Op(kind, call, full_check)


def write_config(out_dir, name, cfg):
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# pathint: discrete path integrals on exact grids


def _ladder_inputs(rng, two_s, coeffs, degree, driven, n, mode):
    """Draw H, T and endpoints until the reference sits in its first-order
    regime: for M1/M2 the Euler chain's error(n)/error(2n) within 10% of
    (2n+1)/(n+1); for M3 the reference M3 chain's error falling by 1.3-3x
    (its error can pass through a near-zero at small n).  Returns the inputs,
    the exact amplitude and the reference amplitudes at n and 2n."""
    nominal = (2 * n + 1) / (n + 1)
    for _ in range(100):
        terms = random_terms(rng, two_s, degree, driven, norm=1.0)
        t_f = float(rng.uniform(0.8, 1.2))
        om_i, om_f = random_angles(rng, 0.2), random_angles(rng, 0.2)
        a_i, a_f = ref.coherent(coeffs, om_i), ref.coherent(coeffs, om_f)
        exact = complex(np.vdot(a_f, ref.propagator(two_s, terms, 0.0, t_f) @ a_i))
        if mode == "M3":
            expected = [ref.m3_chain(coeffs, terms, om_i, om_f, t_f, k) for k in (n, 2 * n)]
        else:
            expected = [complex(np.vdot(a_f, ref.euler_chain(two_s, terms, 0.0, t_f, k) @ a_i))
                        for k in (n, 2 * n)]
        ratio = abs(expected[0] - exact) / abs(expected[1] - exact)
        if (1.3 <= ratio <= 3.0) if mode == "M3" else abs(ratio / nominal - 1.0) < 0.1:
            return terms, t_f, om_i, om_f, exact, expected
    raise RuntimeError("no ladder input in the first-order regime")


def ladder_op(sp, rng, kind, mode, two_s, coeffs, degree, driven, n):
    """discrete_cspi at n and 2n slices, both amplitudes within 1e-10 of the
    reference: the Euler chain for M1/M2 (an exact grid is an exact
    resolution of unity, and the M2 product form is algebraically M1), the
    reference M3 chain for M3.  Against the exact propagator the M1/M2 error
    must fall by (2n+1)/(n+1) within 20%, the M3 error must fall."""
    terms, t_f, om_i, om_f, exact, expected = _ladder_inputs(
        rng, two_s, coeffs, degree, driven, n, mode)

    def call():
        fv, spec = to_fv(sp, coeffs), to_spec(sp, two_s, terms)
        grid = sp.build_grid(sp.Spin(two_s))
        return [sp.discrete_cspi(fv, spec, sp.EulerAngles(*om_i), sp.EulerAngles(*om_f),
                                 0.0, t_f, k, grid, mode=mode).amplitude for k in (n, 2 * n)]

    def check(amps):
        close(amps, expected, 1e-10, f"{mode} vs reference chain")
        errs = [abs(a - exact) for a in amps]
        if mode == "M3":
            require(errs[1] < errs[0], f"M3 error did not fall: {errs[0]:.3e} -> {errs[1]:.3e}")
            return
        ratio = errs[0] / errs[1] / ((2 * n + 1) / (n + 1))
        require(0.8 <= ratio <= 1.25, f"{mode} convergence ratio off by {ratio:.3f}")

    return Op(kind, call, check)


def zero_h_op(sp, rng, mode, two_s, n):
    """With H = 0 every mode collapses to the overlap for any slice count."""
    coeffs = random_coeffs(rng, two_s)
    om_i, om_f = random_angles(rng), random_angles(rng)
    expected = ref.overlap(coeffs, om_f, om_i)

    def call():
        fv, spec = to_fv(sp, coeffs), sp.HamiltonianSpec(sp.Spin(two_s), ())
        grid = sp.build_grid(sp.Spin(two_s))
        return sp.discrete_cspi(fv, spec, sp.EulerAngles(*om_i), sp.EulerAngles(*om_f),
                                0.0, 1.0, n, grid, mode=mode).amplitude

    return Op(f"zero-H {mode}", call, lambda a: close(a, expected, 1e-10, f"zero-H {mode}"))


def transition_op(sp, rng, kind, mode, two_s, n, zero_h):
    """transition_amplitude between random kets.  M1/M2 equal <f|chain|i>;
    with H = 0 every mode returns <f|i>."""
    coeffs = random_coeffs(rng, two_s)
    ket_i, ket_f = random_coeffs(rng, two_s), random_coeffs(rng, two_s)
    t_f = float(rng.uniform(0.8, 1.2))
    if zero_h:
        terms, expected = [], complex(np.vdot(ket_f, ket_i))
    else:
        terms = random_terms(rng, two_s, 2, bool(rng.integers(2)), norm=1.0)
        expected = complex(np.vdot(ket_f, ref.euler_chain(two_s, terms, 0.0, t_f, n) @ ket_i))

    def call():
        fv, spec = to_fv(sp, coeffs), to_spec(sp, two_s, terms)
        grid = sp.build_grid(sp.Spin(two_s))
        return sp.transition_amplitude(fv, spec, ket_i, ket_f, 0.0, t_f, grid, n, mode=mode)

    return Op(kind, call, lambda a: close(a, expected, 1e-10, f"transition {mode}"))


README_PROPAGATE = {
    "two_s": 1, "fv": "lowest",
    "hamiltonian": {"terms": [{"q": 1, "coeff": 1.0}, {"p": 1, "coeff": 0.15},
                              {"r": 1, "coeff": 0.15}]},
    "omega_i": [0.7, 0.9, 1.3], "omega_f": [4.1, 1.9, 5.2],
    "t_i": 0.0, "t_f": 2 * math.pi, "n_slices": [16, 32, 64], "modes": ["M1", "M2", "M3"],
}


def propagate_cli_op(sp, out_dir):
    """``spincs propagate`` on the README config.  The exact amplitude must
    match expm(-iHT) to 1e-9, M1/M2 rows the Euler chain to 1e-10 with
    errors halving per doubling, and M3 errors must fall."""
    cfg = README_PROPAGATE
    terms = [(0, 1, 0, 1.0, None), (1, 0, 0, 0.15, None), (0, 0, 1, 0.15, None)]
    coeffs = basis_coeffs(1, 1)
    a_i, a_f = ref.coherent(coeffs, cfg["omega_i"]), ref.coherent(coeffs, cfg["omega_f"])
    t_f = cfg["t_f"]
    exact = complex(np.vdot(a_f, ref.propagator(1, terms, 0.0, t_f) @ a_i))
    chain = {n: complex(np.vdot(a_f, ref.euler_chain(1, terms, 0.0, t_f, n) @ a_i))
             for n in cfg["n_slices"]}
    path = write_config(out_dir, "propagate-readme", cfg)

    def check(report, rows):
        out = report["outputs"]
        close(complex(*out["exact"]), exact, 1e-9, "propagate exact")
        require(len(rows) == 9, f"{len(rows)} csv rows")
        for mode in cfg["modes"]:
            mine = [r for r in rows if r["mode"] == mode]
            amps = [complex(float(r["re"]), float(r["im"])) for r in mine]
            errs = [abs(a - exact) for a in amps]
            close([float(r["abs_err_vs_oracle"]) for r in mine], errs, 1e-9, f"{mode} error column")
            if mode == "M3":
                require(errs[0] > errs[1] > errs[2], f"M3 errors do not fall: {errs}")
                continue
            close(amps, [chain[int(r["n_slices"])] for r in mine], 1e-10, f"{mode} vs chain")
            for k in range(2):
                n = cfg["n_slices"][k]
                ratio = errs[k] / errs[k + 1] / ((2 * n + 1) / (n + 1))
                require(0.8 <= ratio <= 1.25, f"{mode} ratio off by {ratio:.3f}")

    return cli_op(sp, "cli propagate", ["propagate", "--config", path, "--out", str(out_dir)],
                  check)


def build_pathint(sp, rng, out_dir):
    groups = []
    # M1 ladders over two_s 1-4, lowest-weight and random fiducials, static
    # and driven H of degree 1 and 2
    m1 = []
    for i in range(66):
        two_s = 1 + i % 4
        coeffs = basis_coeffs(two_s, two_s) if i % 3 == 0 else random_coeffs(rng, two_s)
        m1.append(ladder_op(sp, rng, "M1 ladder", "M1", two_s, coeffs,
                            1 + (i // 4) % 2, i % 2 == 1, 16))
    groups.append(m1)
    groups.append([transition_op(sp, rng, "transition M1", "M1", 1 + i % 4, 8, False)
                   for i in range(18)])
    zero = [zero_h_op(sp, rng, "M1", 1 + i % 4, 8) for i in range(9)]
    zero += [zero_h_op(sp, rng, ("M2", "M3")[i % 2], 1, 4) for i in range(12)]
    zero += [transition_op(sp, rng, "zero-H transition", ("M1", "M3")[i % 2], 1, 4, True)
             for i in range(6)]
    groups.append(zero)
    # M2 and M3 ladders run at two_s = 1, whose (G, G) grid kernel is
    # 144 x 144 complex (0.3 MiB).  At two_s = 2 it is 405 x 405 (2.6 MiB,
    # more than a core's 2 MiB L2); while other tenants loaded the host,
    # those ladders ran 3x slower for minutes at a time, against 2x at
    # two_s = 1 and no change for M1.
    m2 = []
    for i in range(24):
        coeffs = basis_coeffs(1, 1) if i % 4 == 0 else random_coeffs(rng, 1)
        m2.append(ladder_op(sp, rng, "M2 ladder", "M2", 1, coeffs,
                            1 + i % 2, (i // 2) % 2 == 1, 4))
    groups.append(m2)
    # random fiducials: with the lowest-weight one few draws pass the M3
    # regime test
    m3 = [ladder_op(sp, rng, "M3 ladder", "M3", 1, random_coeffs(rng, 1),
                    1 + i % 2, (i // 2) % 2 == 1, 4)
          for i in range(36)]
    groups.append(m3)
    groups.append([transition_op(sp, rng, "transition M2", "M2", 1, 4, False)
                   for _ in range(5)])
    groups.append([propagate_cli_op(sp, out_dir)])
    # time evolution without grids: the oracle, RK4 trajectories
    groups.append([oracle_op(sp, rng, "oracle static", 1 + i % 4, False,
                             float(rng.uniform(0.5, 2.0))) for i in range(6)])
    # the refinement loop of a driven oracle doubles its step count until it
    # settles, so its cost jumps 2x with the drive; a fixed input keeps the
    # round's cost the same for every seed
    groups.append([oracle_op(sp, np.random.default_rng(20120524), "oracle driven", 1, True,
                             0.05)])
    groups.append([trajectory_op(sp, rng, f"trajectory {n} steps", two_s, 1, single_m, n)
                   for n, two_s, single_m in ((4, 3, False), (4, 6, True), (10, 2, True),
                                              (10, 8, False))])
    groups.append([trajectory_op(sp, rng, "trajectory 10 steps deg 2", 4, 2, True, 10),
                   semiclassical_cli_op(sp, rng, out_dir)])
    return interleave(groups)


# ---------------------------------------------------------------------------
# resolution: quadrature and rotation kernel at mid to large spin


def residual_op(sp, rng, two_s):
    """resolution_residual on the exact grid is roundoff for any fiducial."""
    coeffs = random_coeffs(rng, two_s)

    def call():
        return sp.resolution_residual(to_fv(sp, coeffs), sp.build_grid(sp.Spin(two_s)))

    return Op(f"residual two_s={two_s}", call,
              lambda r: require(0.0 <= r <= 1e-10, f"residual {r:.3e} at two_s={two_s}"))


def overlap_batch_op(sp, rng, kind, two_s, count):
    """A batch of overlaps, each within 1e-10 of the expm-rotation overlap."""
    coeffs = random_coeffs(rng, two_s)
    pairs = [(random_angles(rng), random_angles(rng)) for _ in range(count)]
    expected = [ref.overlap(coeffs, a2, a1) for a2, a1 in pairs]

    def call():
        fv = to_fv(sp, coeffs)
        return [sp.overlap(fv, sp.EulerAngles(*a2), sp.EulerAngles(*a1)) for a2, a1 in pairs]

    def check(vals):
        close(vals, expected, 1e-10, f"overlap two_s={two_s}")
        require(max(abs(v) for v in vals) <= 1.0 + 1e-12, "|overlap| > 1")

    return Op(kind, call, check)


def amplitude_map_op(sp, coeffs, kind, known_fault=None, grid_two_s=4):
    """grid_amplitudes of one state on the coarse build_grid(Spin(grid_two_s))
    grid, every node against the expm rotation to 1e-10."""
    two_s = coeffs.size - 1
    theta, phi, psi, _ = ref.quadrature(grid_two_s)
    expected = ref.grid_states(coeffs, theta, phi, psi)

    def call():
        return sp.grid_amplitudes(to_fv(sp, coeffs), sp.build_grid(sp.Spin(grid_two_s)))

    return Op(kind, call, lambda a: close(a, expected, 1e-10, f"amplitude map two_s={two_s}"),
              known_fault)


def verify_resolution_cli_op(sp, rng, out_dir, spins):
    """``spincs verify-resolution``: every residual row at roundoff."""
    seed = int(rng.integers(1, 2 ** 31))
    argv = ["verify-resolution", "--count", "1", "--seed", str(seed), "--out", str(out_dir)]
    for two_s in spins:
        argv += ["--two-s", str(two_s)]

    def check(report, rows):
        require(len(rows) == len(spins), f"{len(rows)} csv rows")
        res = [float(r["residual"]) for r in rows]
        require(all(0.0 <= r <= 1e-10 for r in res), f"residuals {res}")
        close(report["outputs"]["max_residual"], max(res), 0.0, "max_residual")

    return cli_op(sp, "cli verify-resolution", argv, check)


# Fixed inputs of the failing amplitude maps: the fault shows for every
# dense fiducial, so these do not follow --seed and fail in every run.
FAULT_MAP_SPINS = (64,)


def build_resolution(sp, rng, out_dir):
    spins = (26, 30, 32, 34)            # both sides of the switch at two_s = 30
    fixed = np.random.default_rng(20120523)
    groups = [
        # residuals below the switch (28) and at it (30, through the CLI
        # below); each fills the r(theta) cache for its 36 or 39 theta nodes
        # from empty.  A residual above the switch fills it through
        # _little_d_log_columns and takes 1.1-1.7 s, too long a single
        # operation to repeat: see the README.
        [residual_op(sp, rng, 28)],
        [overlap_batch_op(sp, rng, "overlap x4", spins[i % 4], 4) for i in range(70)],
        [overlap_batch_op(sp, rng, "overlap x16", spins[i % 4], 16) for i in range(60)],
        [amplitude_map_op(sp, random_coeffs(rng, (26, 32)[i % 2]), "amplitude map two_s<=32")
         for i in range(24)],
        # 3 theta nodes, one at pi/2 where the fault shows
        [amplitude_map_op(sp, random_coeffs(fixed, two_s), "amplitude map two_s>=64",
                          LOG_COLUMNS_FAULT, grid_two_s=0) for two_s in FAULT_MAP_SPINS],
        [verify_resolution_cli_op(sp, rng, out_dir, (30,))],
        # single rotation columns at large spin: the contraction
        [contraction_op(sp, rng, "contraction vacuum", (100, 200, 400, 800), [1.0]),
         contraction_op(sp, rng, "contraction 3-level", (100, 200), [0.5, 0.5j, 0.7]),
         contract_cli_op(sp, rng, out_dir)],
    ]
    return interleave(groups)


# ---------------------------------------------------------------------------
# time evolution without grids and the large-spin contraction


def oracle_op(sp, rng, kind, two_s, driven, t_f):
    """exact_propagator within 1e-8 of the reference propagator, and
    unitary to 1e-10."""
    terms = random_terms(rng, two_s, 1 + int(rng.integers(2)), driven, norm=1.0)
    expected = ref.propagator(two_s, terms, 0.0, t_f)

    def check(u):
        close(u, expected, 1e-8, "exact_propagator")
        close(u.conj().T @ u, np.eye(two_s + 1), 1e-10, "unitarity")

    return Op(kind, lambda: sp.exact_propagator(to_spec(sp, two_s, terms), 0.0, t_f), check)


def spin_vector(two_s, v):
    s3, s_plus, s_minus, s2 = ref.spin_matrices(two_s)
    return np.array([np.vdot(v, op @ v).real for op in ((s_plus + s_minus) / 2, s2, s3)])


def check_trajectory(coeffs, terms, omega0, path, energies, err_est, single_m):
    """Checks of an RK4 path of rows (t, phi, theta, psi):

    * the half-step estimate is small (<= 1e-4 rad) and the path energies
      equal <Omega|H|Omega> of the reference states;
    * energy is conserved within what the half-step estimate allows:
      |dE/dOmega| <= 2 ||H|| s per angle, times 3 angles, with 10x slack for
      interior samples the endpoint estimate does not see;
    * degree-1 H moves states rigidly, R(Omega(t)) = expm(-iHt) R(Omega0),
      up to the kernel flow of the velocity system, which rotates the
      fiducial about its own spin vector.  So <S>(t) must follow the exact
      evolution for any fiducial, and for a single-m fiducial (whose kernel
      flow is a phase) the fidelity must stay >= 1 - 1e-8.
    """
    two_s = coeffs.size - 1
    s = max(0.5 * two_s, 1.0)
    h = ref.hamiltonian(two_s, terms)
    norm = h_norm(two_s, terms)
    rigid = all(p + q + r <= 1 for p, q, r, _, _ in terms)
    require(err_est <= 1e-4, f"half-step estimate {err_est:.3e}")
    lam, vec = np.linalg.eigh(h)            # expm(-iHt) = V e^{-i lam t} V^dag
    start = vec.conj().T @ ref.coherent(coeffs, omega0)
    for (t, phi, theta, psi), e in zip(path, energies):
        v = ref.coherent(coeffs, (phi, theta, psi))
        close(e, np.vdot(v, h @ v).real, 1e-10 * max(1.0, norm), f"energy at t={t:.3f}")
        if rigid:
            exact = vec @ (np.exp(-1j * lam * t) * start)
            close(spin_vector(two_s, v), spin_vector(two_s, exact),
                  20.0 * s * err_est + 1e-9 * s, f"<S> at t={t:.3f}")
            if single_m:
                fid = abs(np.vdot(v, exact)) ** 2
                require(fid >= 1.0 - 1e-8, f"fidelity {fid:.12f} at t={t:.3f}")
    bound = 60.0 * norm * s * err_est + 1e-9 * norm
    drift = float(np.max(np.abs(np.asarray(energies) - energies[0])))
    require(drift <= bound, f"energy drift {drift:.3e} > {bound:.3e}")


def trajectory_inputs(rng, two_s, degree, single_m):
    """A fiducial (single-m ones avoid m = 0, where the velocity system is
    empty), a static H whose rotation rate is about 0.2 per unit time, and
    a start with theta in [0.8, pi - 0.8], so that over t <= 2 the path stays
    clear of the Euler-angle poles."""
    if single_m:
        index = int(rng.choice([i for i in range(two_s + 1) if 2 * i != two_s]))
        coeffs = basis_coeffs(two_s, index)
    else:
        coeffs = random_coeffs(rng, two_s)
    terms = random_terms(rng, two_s, degree, False, norm=0.2 * max(0.5 * two_s, 0.5))
    omega0 = random_angles(rng, 0.8)
    return coeffs, terms, omega0, float(rng.uniform(1.0, 2.0))


def trajectory_op(sp, rng, kind, two_s, degree, single_m, n_steps):
    coeffs, terms, omega0, t_f = trajectory_inputs(rng, two_s, degree, single_m)

    def call():
        return sp.integrate_trajectory(to_fv(sp, coeffs), to_spec(sp, two_s, terms), omega0,
                                       (0.0, t_f), t_f / n_steps)

    def check(traj):
        require(len(traj.path) == n_steps + 1, f"{len(traj.path)} samples")
        check_trajectory(coeffs, terms, omega0, traj.path, traj.energies,
                         traj.error_estimate, single_m)

    return Op(kind, call, check)


def contraction_op(sp, rng, kind, spins, fock):
    """hp_contract_state along a ladder of doubling spins against the
    displaced Fock state expm(alpha a^+ - alpha^* a)|fock> on the first 40
    levels.  The deviation is O(1/s): at most 4/two_s, halving per doubling
    within 10%."""
    fock = np.asarray(fock, dtype=complex) / np.linalg.norm(fock)
    alpha = complex(rng.uniform(0.3, 1.2), rng.uniform(-0.6, 0.6))
    keep = 40
    expected = ref.displaced_fock(alpha, fock, keep)
    vectors = []
    for two_s in spins:
        c = np.zeros(two_s + 1, dtype=complex)
        c[::-1][:fock.size] = fock
        vectors.append(c)

    def call():
        return [sp.hp_contract_state(sp.FiducialVector(sp.Spin(c.size - 1), c), alpha).coeffs
                for c in vectors]

    def check(states):
        devs = [float(np.max(np.abs(s[:keep] - expected))) for s in states]
        require(devs[0] <= 4.0 / spins[0], f"deviation {devs[0]:.3e} at two_s={spins[0]}")
        ratios = [devs[k] / devs[k + 1] for k in range(len(devs) - 1)]
        require(all(1.8 <= r <= 2.2 for r in ratios), f"deviation ratios {ratios}")

    return Op(kind, call, check)


def semiclassical_cli_op(sp, rng, out_dir):
    """``spincs semiclassical`` for a degree-1 H and a random fiducial:
    rows checked like trajectory operations, the report's drift against the
    rows."""
    coeffs, terms, omega0, _ = trajectory_inputs(rng, 2, 1, False)
    cfg = {"two_s": 2, "fv": config_fv(coeffs),
           "hamiltonian": {"terms": config_terms(terms)},
           "omega0": list(omega0), "t_span": [0.0, 1.0], "dt": 0.05}
    path = write_config(out_dir, "semiclassical", cfg)

    def check(report, rows):
        out = report["outputs"]
        pts = np.array([[float(r[k]) for k in ("t", "phi", "theta", "psi")] for r in rows])
        energies = np.array([float(r["energy"]) for r in rows])
        require(len(rows) == 21, f"{len(rows)} csv rows")
        check_trajectory(coeffs, terms, omega0, pts, energies, out["error_estimate"], False)
        close(out["energy_drift"], np.max(np.abs(energies - energies[0])), 1e-15, "energy_drift")

    return cli_op(sp, "cli semiclassical",
                  ["semiclassical", "--config", path, "--out", str(out_dir)], check)


def contract_cli_op(sp, rng, out_dir):
    """``spincs contract``: deviations halve per doubling of two_s."""
    alpha = [float(rng.uniform(0.3, 1.2)), float(rng.uniform(-0.6, 0.6))]
    cfg = {"alpha": alpha, "two_s_list": [100, 200, 400],
           "fv": [[0.6, 0.0], [0.0, 0.0], [0.8, 0.0]]}
    path = write_config(out_dir, "contract", cfg)

    def check(report, rows):
        devs = report["outputs"]["max_abs_devs"]
        require(len(rows) == 3 and report["outputs"]["monotone"], "contract not monotone")
        ratios = [devs[k] / devs[k + 1] for k in range(2)]
        require(all(1.8 <= r <= 2.2 for r in ratios), f"deviation ratios {ratios}")
        close([float(r["max_abs_dev"]) for r in rows], devs, 0.0, "csv vs report")

    return cli_op(sp, "cli contract", ["contract", "--config", path, "--out", str(out_dir)],
                  check)


# ---------------------------------------------------------------------------


def interleave(groups):
    """Round-robin merge, so every kind is spread over the round."""
    out, longest = [], max(len(g) for g in groups)
    for i in range(longest):
        out += [g[i] for g in groups if i < len(g)]
    return out


BUILDERS = {"pathint": build_pathint, "resolution": build_resolution}


def build(name, sp, rng, out_dir):
    return BUILDERS[name](sp, rng, out_dir)
