"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 1 and 9 contain sub-checks that are asserted at their stated
tolerances and are expected to fail from first principles: the bundled
counterexample's reference values cannot all be reproduced from the
four-decimal printed inputs, and the relative-entropy estimator's shot-noise
floor at 1e6 shots sits above the stated error budget for a fair fraction of
Ginibre states.  The test messages carry the recomputed values.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np

from cohlab import (
    bipartite_record,
    c_l1,
    c_rel_entropy,
    c_skew,
    child_rng,
    discord_sym,
    estimate_measures,
    exact_trace_powers,
    find_qubit_violations,
    ginibre_mixed,
    l1_bounds,
    maximally_coherent,
    metrology_report,
    monotonicity_check,
    monotonicity_sweep,
    pure_polygamy_gap,
    recover_spectrum,
    simulate_shots,
    skew_bounds,
    skew_qfi_sandwich,
    sweep_polygamy,
    sweep_summary,
    tensor,
    validate_density,
)
from cohlab.cli import main as cli_main
from cohlab.fixtures import (
    block_unitary_example,
    cnot_attainment,
    k_coherence_counterexample,
    max_coherent_pair,
    qubit_mixture_counterexample,
)


def _verdict(number, checks):
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = "; ".join(f"{name}: {detail}" for name, _, detail in checks)
    line = f"ACCEPTANCE {number}: {status} -- {detail}"
    print(line)
    assert not failed, line


def test_criterion_01_counterexample_reproduction():
    start = time.monotonic()
    rho, channel, obs = k_coherence_counterexample()
    v = monotonicity_check(channel, rho, measure="k", observable=obs)
    elapsed = time.monotonic() - start
    _verdict(1, [
        ("c_k_initial", abs(v.c_before - 0.2277) <= 5e-4,
         f"{v.c_before:.7f} vs 0.2277 +-5e-4"),
        ("c_k_average_after", abs(v.c_avg_after - 1.2928) <= 5e-3,
         f"{v.c_avg_after:.7f} vs 1.2928 +-5e-3"),
        ("c_k_final", abs(v.c_after - 0.3350) <= 5e-4,
         f"{v.c_after:.7f} vs 0.3350 +-5e-4"),
        ("strong_ok_false", v.strong_ok is False, str(v.strong_ok)),
        ("weak_ok_false", v.weak_ok is False, str(v.weak_ok)),
        ("runtime", elapsed < 1.0, f"{elapsed:.3f}s < 1s"),
    ])


def test_criterion_02_max_coherent_pair():
    fx = max_coherent_pair()
    gap = pure_polygamy_gap(fx["psi"], (3, 3))
    _verdict(2, [
        ("c_joint", abs(c_skew(fx["psi"]) - 8 / 9) <= 1e-12,
         f"{c_skew(fx['psi']):.15f} vs 8/9"),
        ("c_marginal_a", abs(c_skew(fx["rho_a"]) - 2 / 3) <= 1e-12,
         f"{c_skew(fx['rho_a']):.15f} vs 2/3"),
        ("c_marginal_b", abs(c_skew(fx["rho_b"]) - 2 / 3) <= 1e-12,
         f"{c_skew(fx['rho_b']):.15f} vs 2/3"),
        ("gap_zero", abs(gap) <= 1e-12, f"{gap:.2e}"),
    ])


def test_criterion_03_qubit_mixture_violation():
    rec = bipartite_record(qubit_mixture_counterexample()["rho"], (2, 2))
    product = (1 - rec.c_a) * (1 - rec.c_b)
    _verdict(3, [
        ("c_marginal_a", abs(rec.c_a - 0.2582) <= 5e-4, f"{rec.c_a:.6f} vs 0.2582"),
        ("c_marginal_b", abs(rec.c_b - 0.0909) <= 5e-4, f"{rec.c_b:.6f} vs 0.0909"),
        ("c_joint", abs(rec.c_joint - 0.3242) <= 5e-4, f"{rec.c_joint:.6f} vs 0.3242"),
        ("strict_violation", product < 1 - rec.c_joint,
         f"{product:.6f} < {1 - rec.c_joint:.6f}"),
    ])


def test_criterion_04_discord_fixtures():
    prod = tensor(maximally_coherent(2), maximally_coherent(2))
    cnot = cnot_attainment()
    blk = block_unitary_example()
    d_cnot = discord_sym(cnot["rho_f"], (2, 2), restarts=16, seed=0)
    d_blk = discord_sym(blk["rho_f"], (2, 2), restarts=16, seed=0)
    _verdict(4, [
        ("product_coherence", abs(c_skew(prod) - 0.75) <= 1e-10, f"{c_skew(prod):.12f}"),
        ("cnot_attainment", abs(d_cnot.value - 0.5) <= 1e-5, f"{d_cnot.value:.7f}"),
        ("block_discord", abs(d_blk.value - 0.5) <= 1e-5, f"{d_blk.value:.7f}"),
        ("block_strict", d_blk.value < 0.75, f"{d_blk.value:.7f} < 0.75"),
    ])


def test_criterion_05_strong_monotonicity_sweep():
    start = time.monotonic()
    violations = 0
    total = 0
    for dim in (2, 3, 4, 5):
        for v in monotonicity_sweep("skew", 2500, dim, seed=dim):
            total += 1
            if v.c_avg_after > v.c_before + 1e-9:
                violations += 1
    elapsed = time.monotonic() - start
    _verdict(5, [
        ("pairs", total >= 10**4, f"{total} pairs"),
        ("violations", violations == 0, f"{violations}"),
        ("runtime", elapsed < 60.0, f"{elapsed:.1f}s < 60s"),
    ])


def test_criterion_06_polygamy_sweeps():
    checks = []
    for dims in ((2, 3), (3, 3), (3, 4), (4, 4)):
        records = sweep_polygamy(dims, 10**4, seed=sum(dims))
        summary = sweep_summary(records)
        theorem_violations = sum(
            1 for r in records if any(g < -1e-9 for g in r.theorem_gaps().values())
        )
        checks.append((f"pure_form_{dims[0]}x{dims[1]}", summary["violations"] == 0,
                       f"min gap {summary['min_gap']:.4f}"))
        checks.append((f"theorem_forms_{dims[0]}x{dims[1]}", theorem_violations == 0,
                       f"{theorem_violations} violations"))
    found = find_qubit_violations(seed=5, n_trials=40)
    checks.append(("qubit_violation_replayed", len(found) >= 1, f"{len(found)} found"))
    _verdict(6, checks)


def test_criterion_07_bound_sandwiches():
    worst_skew = np.inf
    worst_l1 = np.inf
    for dim in (2, 3, 4, 5, 6):
        for i in range(1000):
            rho = ginibre_mixed(dim, child_rng(1400 + dim, i))
            lo, hi = skew_bounds(rho)
            c = c_skew(rho)
            worst_skew = min(worst_skew, c - lo, hi - c)
            lo1, hi1 = l1_bounds(rho)
            l1 = c_l1(rho)
            worst_l1 = min(worst_l1, l1 - lo1, hi1 - l1)
    _verdict(7, [
        ("skew_sandwich", worst_skew >= -1e-10, f"worst margin {worst_skew:.2e}"),
        ("l1_sandwich", worst_l1 >= -1e-10, f"worst margin {worst_l1:.2e}"),
    ])


def test_criterion_08_fisher_sandwich():
    worst = np.inf
    aggregate_ok = True
    for i in range(1000):
        rng = child_rng(1500, i)
        dim = 2 + (i % 4)
        rho = ginibre_mixed(dim, rng)
        for k in range(dim):
            s = skew_qfi_sandwich(rho, k)
            worst = min(worst, s["qfi"] / 4 - s["skew"] + 1e-9,
                        2 * s["skew"] - s["qfi"] / 4 + 1e-9)
            if not s["ok"]:
                aggregate_ok = False
        if i % 25 == 0:
            aggregate_ok &= metrology_report(rho, 100).aggregate["ok"]
    aggregate_ok &= metrology_report(maximally_coherent(3), 100).aggregate["ok"]
    _verdict(8, [
        ("per_k_sandwich", worst >= 0.0, f"worst slack {worst:.2e}"),
        ("aggregate_n100", aggregate_ok, "metrology aggregates hold"),
    ])


def test_criterion_09_measurement_simulation():
    roundtrip_worst = 0.0
    for dim in range(2, 7):
        for i in range(30):
            rho = ginibre_mixed(dim, child_rng(1600 + dim, i))
            est = recover_spectrum(exact_trace_powers(rho, dim))
            roundtrip_worst = max(
                roundtrip_worst, float(np.abs(est.eigenvalues - rho.eigenvalues).max())
            )

    errs = []
    for i in range(20):
        rho = ginibre_mixed(3, child_rng(0, i))
        est = estimate_measures(rho, 10**6, seed=i)
        errs.append(abs(est.c_rel_hat - c_rel_entropy(rho)))
    worst_crel = max(errs)

    rho2 = validate_density(np.diag([0.7, 0.3]))
    shots = 10**4
    hats = np.array([
        simulate_shots(rho2, 2, shots, child_rng(9, s)).trace_power_hat
        for s in range(200)
    ])
    predicted = 2 * np.sqrt(((1 + 0.58) / 2) * ((1 - 0.58) / 2) / shots)
    ratio = float(hats.std(ddof=1) / predicted)

    _verdict(9, [
        ("exact_round_trip", roundtrip_worst <= 1e-8, f"worst {roundtrip_worst:.2e}"),
        ("c_rel_at_1e6_shots", worst_crel <= 0.01,
         f"worst {worst_crel:.4f} over 20 states vs 0.01"),
        ("shot_noise_std", ratio <= 1.2, f"ratio {ratio:.3f} <= 1.2"),
    ])


def test_criterion_10_affinity_data_processing():
    from cohlab import affinity, apply_selective, random_channel

    worst = np.inf
    for i in range(1000):
        rng = child_rng(1700, i)
        dim = int(rng.integers(2, 5))
        ch = random_channel(dim, int(rng.integers(1, 4)), rng)
        rho = ginibre_mixed(dim, rng)
        sigma = ginibre_mixed(dim, rng)
        outs_r = apply_selective(ch, rho)
        outs_s = apply_selective(ch, sigma)
        rhs = sum(
            np.sqrt(a.probability * b.probability) * affinity(a.state, b.state)
            for a, b in zip(outs_r, outs_s)
        )
        worst = min(worst, rhs - affinity(rho, sigma))
    _verdict(10, [
        ("channel_never_decreases_affinity", worst >= -1e-9, f"worst {worst:.2e}"),
    ])


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_11_cli_determinism(tmp_path):
    runs = [
        ["sweep", "polygamy", "--dims", "2x3", "--samples", "40", "--seed", "1",
         "--threads", "2"],
        ["monotonicity", "--measure", "skew", "--samples", "25", "--dim", "3",
         "--seed", "2", "--threads", "2"],
        ["discord", "--fixture", "theorem3-cnot", "--restarts", "6", "--seed", "0"],
        ["fixture", "max-coherent-3x3"],
    ]
    checks = []
    for argv in runs:
        code1, out1 = _cli(argv)
        code2, out2 = _cli(argv)
        checks.append((" ".join(argv[:2]), code1 == code2 and out1 == out2,
                       f"exit {code1}, {len(out1)} bytes"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sweep", "polygamy", "--dims", "3x3", "--samples", "30", "--seed", "4"]
    _cli(base + ["--out", str(a), "--threads", "1"])
    _cli(base + ["--out", str(b), "--threads", "2"])
    checks.append(("csv_files_thread_invariant", a.read_bytes() == b.read_bytes(),
                   f"{len(a.read_bytes())} bytes"))
    _verdict(11, checks)
