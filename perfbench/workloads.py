"""The benchmark's workloads: seeded inputs, timed operations and checks.

A workload hands out rounds of operations.  Every round holds the same mix
of operations, so a run's share of each kind, and of failed operations, does
not depend on how many rounds fit into the run.  An operation's ``run`` is
what the benchmark times; its ``check`` runs afterwards, untimed, and
returns a list of problems.  The checkers are plain functions of the
program's output text so that ``test_checkers.py`` can feed them perturbed
output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import oracles

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs", "discord_grid.json")
REJECTED = "rejected"  # an operation that raised CohlabError as it must


class Op:
    def __init__(self, run, check, items: int = 1, must_reject: bool = False):
        self.run = run
        self.check = check
        self.items = items
        self.must_reject = must_reject


def call_seed(seed: int, call: int) -> int:
    """The program seed of call number ``call`` in a run with ``--seed seed``."""
    return seed * 1_000_000 + call


def cli_call(cli, argv):
    """Run the CLI's ``main(argv)`` in-process; returns (exit code, stdout)."""

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return run


def write_matrix(path: str, mat):
    m = np.asarray(mat, dtype=complex)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}, fh)


def _csv_rows(text: str) -> tuple[list, list]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite token {token}")

    return json.loads(text, parse_constant=reject)


def _file_check(path, checker, *args):
    def check(result):
        code, _ = result
        if code != 0:
            return [f"{path}: exit code {code}"]
        with open(path, encoding="utf-8") as fh:
            return checker(fh.read(), *args)

    return check


# --- polygamy-sweep ---------------------------------------------------------------

POLYGAMY_DIMS = ((2, 3), (3, 3), (3, 4), (4, 4))
POLYGAMY_SAMPLES = 200
COHERENCE_ATOL = 1e-9
FORM_TOL = 1e-9


def check_polygamy(text: str, dims, seed: int, samples: int, oracle_rows) -> list:
    """Proven forms and full rank on every row; oracle coherences on some rows."""
    da, db = dims
    problems = []
    _, rows = _csv_rows(text)
    if [int(r["sample"]) for r in rows] != list(range(samples)):
        return [f"polygamy {da}x{db} seed {seed}: expected samples 0..{samples - 1}"]
    for r in rows:
        c12, c1, c2 = float(r["c12"]), float(r["c1"]), float(r["c2"])
        lam = float(r["lambda_min"])
        where = f"polygamy {da}x{db} seed {seed} sample {r['sample']}"
        if (int(r["dimA"]), int(r["dimB"])) != (da, db):
            problems.append(f"{where}: dims {r['dimA']}x{r['dimB']}")
        if float(r["gap_cor1_sym"]) < -FORM_TOL:
            problems.append(f"{where}: gap_cor1_sym {r['gap_cor1_sym']}")
        if (1 - c1) * (1 - c2) < lam * (1 - c12) - FORM_TOL:
            problems.append(f"{where}: lambda form violated")
        if int(r["rank"]) != da * db:
            problems.append(f"{where}: rank {r['rank']}")
    for i in oracle_rows:
        r = rows[i]
        mat = oracles.polygamy_sample(seed, i, da * db)
        want = (oracles.c_skew(mat), oracles.c_skew(oracles.partial_trace(mat, da, db, 0)),
                oracles.c_skew(oracles.partial_trace(mat, da, db, 1)))
        got = (float(r["c12"]), float(r["c1"]), float(r["c2"]))
        if max(abs(g - w) for g, w in zip(got, want)) > COHERENCE_ATOL:
            problems.append(f"polygamy {da}x{db} seed {seed} sample {i}: {got} vs oracle {want}")
    return problems


class PolygamySweep:
    """``cohlab sweep polygamy`` at the acceptance sizes, fixed-size calls."""

    def __init__(self, cohlab, seed: int, workdir: str):
        self.cli = cohlab.cli
        self.seed = seed
        self.workdir = workdir

    def round(self, r: int) -> list:
        ops = []
        for j, dims in enumerate(POLYGAMY_DIMS):
            s = call_seed(self.seed, r * len(POLYGAMY_DIMS) + j)
            out = os.path.join(self.workdir, f"sweep-{dims[0]}x{dims[1]}.csv")
            argv = ["sweep", "polygamy", "--dims", f"{dims[0]}x{dims[1]}",
                    "--samples", str(POLYGAMY_SAMPLES), "--seed", str(s), "--out", out]
            ops.append(Op(cli_call(self.cli, argv), _file_check(
                out, check_polygamy, dims, s, POLYGAMY_SAMPLES, (s % POLYGAMY_SAMPLES,)),
                items=POLYGAMY_SAMPLES))
        return ops


# --- monotonicity-sweep -----------------------------------------------------------

MONOTONICITY_CALLS = (("skew", 2), ("skew", 3), ("skew", 4), ("skew", 5), ("k", 3))
MONOTONICITY_SAMPLES = 200
MONOTONE_TOL = 1e-9
CHANNEL_ATOL = 1e-8


def check_monotonicity(text: str, measure: str, dim: int, seed: int, samples: int,
                       oracle_rows) -> list:
    """Skew rows never gain coherence; some rows match the rebuilt sample."""
    problems = []
    _, rows = _csv_rows(text)
    if [int(r["seed"]) for r in rows] != list(range(samples)):
        return [f"monotonicity {measure} d={dim} seed {seed}: expected rows 0..{samples - 1}"]
    for r in rows:
        before, avg, after = float(r["c_before"]), float(r["c_avg_after"]), float(r["c_after"])
        where = f"monotonicity {measure} d={dim} seed {seed} row {r['seed']}"
        if int(r["strong_ok"]) != int(avg <= before + MONOTONE_TOL) or \
                int(r["weak_ok"]) != int(after <= before + MONOTONE_TOL):
            problems.append(f"{where}: flags disagree with values")
        if measure == "skew" and (avg > before + MONOTONE_TOL or after > before + MONOTONE_TOL):
            problems.append(f"{where}: skew coherence increased ({before}, {avg}, {after})")
    for i in oracle_rows:
        r = rows[i]
        ops, rho, obs = oracles.monotonicity_sample(seed, i, dim, measure)
        want = oracles.monotonicity_values(ops, rho, measure, obs)
        got = (float(r["c_before"]), float(r["c_avg_after"]), float(r["c_after"]))
        if max(abs(g - w) for g, w in zip(got, want)) > CHANNEL_ATOL:
            problems.append(f"monotonicity {measure} d={dim} seed {seed} row {i}: "
                            f"{got} vs oracle {want}")
    return problems


class MonotonicitySweep:
    """``cohlab monotonicity`` over dims 2-5 with the skew measure, plus a K call."""

    def __init__(self, cohlab, seed: int, workdir: str):
        self.cli = cohlab.cli
        self.seed = seed
        self.workdir = workdir

    def round(self, r: int) -> list:
        ops = []
        for j, (measure, dim) in enumerate(MONOTONICITY_CALLS):
            s = call_seed(self.seed, r * len(MONOTONICITY_CALLS) + j)
            out = os.path.join(self.workdir, f"monotonicity-{measure}-{dim}.csv")
            argv = ["monotonicity", "--measure", measure, "--samples", str(MONOTONICITY_SAMPLES),
                    "--dim", str(dim), "--seed", str(s), "--out", out]
            ops.append(Op(cli_call(self.cli, argv), _file_check(
                out, check_monotonicity, measure, dim, s, MONOTONICITY_SAMPLES,
                (s % MONOTONICITY_SAMPLES,)), items=MONOTONICITY_SAMPLES))
        return ops


# --- discord-solve ----------------------------------------------------------------

RESTARTS = {"fixture": 8, "sym2": 8, "asym": 8, "sym3": 3}
GRID_ATOL = 1e-5  # the grid oracle's resolution bounds it from above by ~3e-7
GRID_BELOW = 1e-6
QUBIT_A_ATOL = 1e-8
BASIS_ATOL = 1e-7  # scipy's sqrtm loses ~1e-8 on the rank-one fixtures
POOL_ENTROPY = 20170414
POOL_SIZE = 16


def fixture_state(name: str) -> np.ndarray:
    """Outputs of the theorem-3 channels, from their definitions.

    theorem3-cnot: CNOT on |+>|0>, the Bell state (|00> + |11>)/sqrt 2.
    theorem3-block: diag(I, i sigma_y) on |+>|+>, (|00> + |01> + |10> - |11>)/2.
    """
    v = {"theorem3-cnot": np.array([1, 0, 0, 1]) / np.sqrt(2),
         "theorem3-block": np.array([1, 1, 1, -1]) / 2.0}[name]
    return np.outer(v, v).astype(complex)


def pool_state(index: int) -> np.ndarray:
    """Two-qubit Ginibre state number ``index`` of the cached-reference pool."""
    return oracles.ginibre(np.random.default_rng(np.random.SeedSequence([POOL_ENTROPY, index])), 4)


def sym3_state() -> np.ndarray:
    """Maximally correlated qutrit pair with 10% white noise."""
    v = np.zeros(9)
    v[[0, 4, 8]] = 1.0 / np.sqrt(3)
    return 0.9 * np.outer(v, v) + 0.1 * np.eye(9) / 9


def state_fingerprint(mat) -> str:
    return hashlib.sha256(np.ascontiguousarray(mat, dtype=complex).tobytes()).hexdigest()[:16]


def load_grid_refs() -> dict:
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)


def check_discord(text: str, kind: str, mat, dims, ref=None) -> list:
    """Value equals the coherence in the returned bases, and matches its oracle.

    ``kind`` is ``fixture`` and ``sym2`` (``ref`` = grid-oracle minimum),
    ``asym`` (qubit A, checked against the closed form) or ``sym3``
    (value within [0, c_skew]).
    """
    out = _strict_json(text)
    value = float(out["value"])
    where = f"discord {kind} {dims[0]}x{dims[1]}"
    ua = np.array(out["basis"]["u_a"]["re"]) + 1j * np.array(out["basis"]["u_a"]["im"])
    ub = np.array(out["basis"]["u_b"]["re"]) + 1j * np.array(out["basis"]["u_b"]["im"])
    problems = []
    if max(oracles.unitarity_residual(ua), oracles.unitarity_residual(ub)) > 1e-9:
        problems.append(f"{where}: returned basis is not unitary")
    if kind == "asym":
        recomputed = oracles.subsystem_coherence(mat, dims, ua)
    else:
        recomputed = oracles.product_coherence(mat, dims, ua, ub)
    if abs(value - recomputed) > BASIS_ATOL:
        problems.append(f"{where}: value {value} but {recomputed} in the returned bases")
    if kind in ("fixture", "sym2"):
        if abs(value - ref) > GRID_ATOL or value < ref - GRID_BELOW:
            problems.append(f"{where}: value {value} vs grid oracle {ref}")
    if kind == "fixture" and abs(value - 0.5) > 1e-6:
        problems.append(f"{where}: fixture value {value} != 0.5")
    if kind == "asym":
        want = oracles.qubit_a_discord(mat, dims[1])
        if abs(value - want) > QUBIT_A_ATOL:
            problems.append(f"{where}: value {value} vs closed form {want}")
    if kind == "sym3" and not -1e-12 <= value <= oracles.c_skew(mat) + 1e-9:
        problems.append(f"{where}: value {value} outside [0, c_skew]")
    return problems


class DiscordSolve:
    """``cohlab discord`` solves: fixtures, random qubit pairs, qubit-A and 3x3."""

    def __init__(self, cohlab, seed: int, workdir: str):
        self.cli = cohlab.cli
        self.seed = seed
        self.workdir = workdir
        self.refs = load_grid_refs()
        self.sym3_path = os.path.join(workdir, "sym3.json")
        write_matrix(self.sym3_path, sym3_state())

    def _grid_ref(self, key: str, mat) -> float:
        entry = self.refs[key]
        if entry["fingerprint"] != state_fingerprint(mat):
            raise RuntimeError(f"cached grid reference {key} does not match its state; "
                               "rebuild it with perfbench/refs.py")
        return entry["grid_min"]

    def _op(self, argv, kind, mat, dims, ref=None):
        def check(result):
            code, text = result
            if code != 0:
                return [f"discord {argv}: exit code {code}"]
            return check_discord(text, kind, mat, dims, ref)

        return Op(cli_call(self.cli, argv), check)

    def round(self, r: int) -> list:
        calls = iter(range(r * 8, r * 8 + 8))  # eight solves per round
        ops = []
        for name in ("theorem3-cnot", "theorem3-block"):
            mat = fixture_state(name)
            argv = ["discord", "--fixture", name, "--restarts", str(RESTARTS["fixture"]),
                    "--seed", str(call_seed(self.seed, next(calls)))]
            ops.append(self._op(argv, "fixture", mat, (2, 2), self._grid_ref(name, mat)))
        # the pool is walked in the same order in every run: solve times differ
        # by up to 2.5x between states, which would otherwise swamp the metrics
        for k in range(2):
            index = (2 * r + k) % POOL_SIZE
            mat = pool_state(index)
            path = os.path.join(self.workdir, f"sym2-{k}.json")
            write_matrix(path, mat)
            argv = ["discord", "--input", path, "--dims", "2x2", "--mode", "sym",
                    "--restarts", str(RESTARTS["sym2"]),
                    "--seed", str(call_seed(self.seed, next(calls)))]
            ops.append(self._op(argv, "sym2", mat, (2, 2), self._grid_ref(f"pool-{index}", mat)))
        for db in (2, 3, 4):
            s = call_seed(self.seed, next(calls))
            mat = oracles.ginibre(np.random.default_rng(s), 2 * db)
            path = os.path.join(self.workdir, f"asym-2x{db}.json")
            write_matrix(path, mat)
            argv = ["discord", "--input", path, "--dims", f"2x{db}", "--mode", "asym",
                    "--restarts", str(RESTARTS["asym"]), "--seed", str(s)]
            ops.append(self._op(argv, "asym", mat, (2, db)))
        argv = ["discord", "--input", self.sym3_path, "--dims", "3x3", "--mode", "sym",
                "--restarts", str(RESTARTS["sym3"]),
                "--seed", str(call_seed(self.seed, next(calls)))]
        ops.append(self._op(argv, "sym3", sym3_state(), (3, 3)))
        return ops


# --- state-reports ----------------------------------------------------------------

REPORT_DIMS = range(2, 9)
FILES_PER_DIM = 4
METROLOGY_RUNS = 100
SHOTS = 10**6
SHOT_SIGMAS = 6.0
REPORT_ATOL = 1e-9
ORACLE_EVERY = 8  # rounds whose outputs are also compared with the sqrtm oracle
NON_FINITE = (
    ("nan-diagonal", [[np.nan, 0.0], [0.0, 1.0]]),
    ("nan-offdiagonal", [[0.5, np.nan], [np.nan, 0.5]]),
    ("inf-offdiagonal", [[0.5, np.inf], [np.inf, 0.5]]),
    ("inf-diagonal", [[np.inf, 0.0], [0.0, 1.0]]),
)


def report_chain(cohlab, state_path: str, obs_path: str, seed: int) -> tuple:
    """What ``compute --observable``, ``metrology`` and ``simulate-measure`` do.

    Each handler reads the state file itself and prints indented JSON.
    """
    rho = cohlab.serialize.read_state(state_path)
    out = cohlab.coherence.coherence_report(rho).to_dict()
    out["c_k"] = cohlab.coherence.k_coherence(rho, cohlab.serialize.read_observable(obs_path))
    compute = json.dumps(out, indent=2)
    rho = cohlab.serialize.read_state(state_path)
    metrology = json.dumps(cohlab.metrology.metrology_report(rho, METROLOGY_RUNS).to_dict(),
                           indent=2)
    rho = cohlab.serialize.read_state(state_path)
    est = cohlab.measurement.estimate_measures(rho, SHOTS, seed)
    simulate = json.dumps({"estimates": est.to_dict(),
                           "true": cohlab.measurement.true_measures(rho)}, indent=2)
    return compute, metrology, simulate


def check_state_report(texts, mat, obs, shots: int, use_oracle: bool) -> list:
    """Measures, sandwiches, Fisher bounds, shot noise and strict JSON."""
    try:
        compute, metrology, simulate = (_strict_json(t) for t in texts)
    except ValueError as exc:
        return [f"state report d={len(mat)}: output is not strict JSON ({exc})"]
    problems = []
    where = f"state report d={len(mat)}"
    w = np.linalg.eigvalsh(mat)
    d = np.diag(mat).real
    off = np.abs(mat - np.diag(np.diag(mat)))
    exact = {
        "c_rel": oracles.entropy_bits(d) - oracles.entropy_bits(np.clip(w, 0.0, None)),
        "c_l1": float(off.sum()),
        "c_l2": float((off**2).sum()),
        "purity": float(np.sum(w**2)),
    }
    if use_oracle:
        per_k = oracles.skew_per_k(mat)
        exact["c_skew"] = float(per_k.sum())
        exact["c_k"] = oracles.k_coherence(mat, obs)
        if np.abs(np.array(compute["skew_per_k"]) - per_k).max() > REPORT_ATOL:
            problems.append(f"{where}: skew_per_k differs from the oracle")
    for key, want in exact.items():
        if abs(compute[key] - want) > REPORT_ATOL:
            problems.append(f"{where}: {key} {compute[key]} vs {want}")
    b = compute["bounds"]
    if not b["skew_lower"] - 1e-10 <= compute["c_skew"] <= b["skew_upper"] + 1e-10:
        problems.append(f"{where}: skew sandwich fails")
    if not b["l1_lower"] - 1e-10 <= compute["c_l1"] <= b["l1_upper"] + 1e-10:
        problems.append(f"{where}: l1 sandwich fails")
    for k, e in enumerate(metrology["per_k"]):
        if not 4 * e["skew"] - 1e-9 <= e["qfi"] <= 8 * e["skew"] + 1e-9:
            problems.append(f"{where}: F_Q outside [4I, 8I] at k={k}")
    powers = [rec["power"] for rec in simulate["estimates"]["shots"]]
    if powers != list(range(2, len(mat) + 1)):
        problems.append(f"{where}: probe powers {powers}")
    for rec in simulate["estimates"]["shots"]:
        p = (1.0 + float(np.sum(w ** rec["power"]))) / 2.0
        sigma = np.sqrt(shots * p * (1.0 - p))
        if rec["shots"] != shots or abs(rec["plus_count"] - shots * p) > SHOT_SIGMAS * sigma + 1:
            problems.append(f"{where}: Tr rho^{rec['power']} estimate outside 6 sigma")
    if np.abs(np.array(simulate["true"]["eigenvalues"]) - w[::-1]).max() > REPORT_ATOL:
        problems.append(f"{where}: true eigenvalues differ from eigvalsh")
    return problems


class StateReports:
    """Seeded state files of dims 2-8 through the report handlers' functions."""

    def __init__(self, cohlab, seed: int, workdir: str):
        self.cohlab = cohlab
        self.seed = seed
        self.files = []  # (state path, observable path, state, observable)
        for dim in REPORT_DIMS:
            for j in range(FILES_PER_DIM):
                rng = np.random.default_rng(np.random.SeedSequence([seed, dim, j]))
                mat, obs = oracles.ginibre(rng, dim), oracles.hermitian(rng, dim)
                sp = os.path.join(workdir, f"state-{dim}-{j}.json")
                op = os.path.join(workdir, f"observable-{dim}-{j}.json")
                write_matrix(sp, mat)
                write_matrix(op, obs)
                self.files.append((sp, op, mat, obs))
        self.non_finite = []
        eye = os.path.join(workdir, "observable-2-eye.json")
        write_matrix(eye, np.eye(2))
        for name, mat in NON_FINITE:
            path = os.path.join(workdir, f"state-{name}.json")
            write_matrix(path, mat)
            self.non_finite.append((path, eye))

    def _op(self, sp, op, mat, obs, seed, use_oracle):
        def run():
            return report_chain(self.cohlab, sp, op, seed)

        return Op(run, lambda texts: check_state_report(texts, mat, obs, SHOTS, use_oracle))

    def _rejecting_op(self, sp, op):
        def run():
            try:
                report_chain(self.cohlab, sp, op, 0)
            except self.cohlab.errors.CohlabError:
                return REJECTED
            except Exception as exc:  # any other outcome is a failed operation
                return exc
            return "accepted"

        return Op(run, None, must_reject=True)

    def round(self, r: int) -> list:
        n = len(self.files) + len(self.non_finite)
        use_oracle = r % ORACLE_EVERY == 0
        ops = [self._op(sp, op, mat, obs, call_seed(self.seed, r * n + i), use_oracle)
               for i, (sp, op, mat, obs) in enumerate(self.files)]
        ops += [self._rejecting_op(sp, op) for sp, op in self.non_finite]
        return ops


WORKLOADS = {
    "polygamy-sweep": PolygamySweep,
    "monotonicity-sweep": MonotonicitySweep,
    "discord-solve": DiscordSolve,
    "state-reports": StateReports,
}
