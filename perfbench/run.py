"""Benchmark of cohlab's CLI sweeps, discord solves and state reports.

    python3 perfbench/run.py --workload polygamy-sweep --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop with one client for about ``--seconds``
of timed work, checks every output, and prints one JSON object as the last
line of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` every
cohlab function is wrapped in a span and the metrics are per layer.  The
full result, and with tracing the spans, are written under ``perfbench/out``.
See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_STARTS = 5
CALIBRATE_EVERY_S = 0.25
REFERENCE_PASS_S = 0.010


class HostSpeed:
    """A fixed piece of work apart from cohlab, timed to follow the host's speed.

    The pass mixes what cohlab's time goes to: small complex ``eigh`` and
    matrix products under Python loops, and JSON formatting.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        gs = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(8)]
        self.mats = [g @ g.conj().T for g in gs]
        self.eigh = np.linalg.eigh  # bound before a tracer can wrap it

    def pass_seconds(self) -> float:
        start = time.perf_counter()
        for k in range(40):
            for m in self.mats:
                w, v = self.eigh(m)
                s = (v * np.sqrt(np.abs(w))) @ v.conj().T
                np.einsum("ii->", s)
            json.dumps({"k": k, "w": [float(x) for x in w]})
        return time.perf_counter() - start


def fresh_start_seconds() -> float:
    """Wall time of a fresh interpreter importing ``cohlab.cli`` and building its parser."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cohlab.cli; cohlab.cli.build_parser()"],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


def measure(workload, seconds: float, speed: HostSpeed, tracer=None) -> dict:
    """Run whole rounds until the next one would pass ``seconds`` of timed work.

    Only the operations are timed; their checks run between rounds.  The
    host-speed pass runs between operations after every ``CALIBRATE_EVERY_S``
    of timed work.
    """
    rounds = []  # per round: wall s, cpu s, items
    call_s = []
    passes = [speed.pass_seconds()]
    attempted = failed = 0
    problems = []
    wall = since_pass = 0.0
    while not rounds or wall + wall / len(rounds) <= seconds:
        ops = workload.round(len(rounds))
        results = []
        round_wall = round_cpu = 0.0
        if tracer is not None:
            tracer.install()
        for op in ops:
            if since_pass >= CALIBRATE_EVERY_S:
                passes.append(speed.pass_seconds())
                since_pass = 0.0
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = (op.run(), None)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = (None, exc)
            dw, dc = time.perf_counter() - w0, time.process_time() - c0
            since_pass += dw
            round_wall += dw
            round_cpu += dc
            call_s.append(dw)
            results.append(out)
        if tracer is not None:
            tracer.uninstall()
        wall += round_wall
        rounds.append((round_wall, round_cpu, sum(op.items for op in ops)))
        for op, (out, exc) in zip(ops, results):
            attempted += 1
            if op.must_reject:
                failed += out != workloads.REJECTED
            elif exc is not None:
                failed += 1
                problems.append(f"operation raised {type(exc).__name__}: {exc}")
            else:
                problems += op.check(out)
    return {"rounds": rounds, "call_s": call_s, "passes": passes, "attempted": attempted,
            "failed": failed, "problems": problems}


def end_to_end(m: dict, setup: list, scaled: bool = True) -> dict:
    """End-to-end metrics, with times scaled to the reference host speed or raw.

    The scale is ``REFERENCE_PASS_S`` over the run's median host-speed pass.
    ``setup_s`` is reported when fresh starts were timed.
    """
    f = REFERENCE_PASS_S / statistics.median(m["passes"]) if scaled else 1.0
    wall = sum(r[0] for r in m["rounds"])
    cpu = sum(r[1] for r in m["rounds"])
    items = sum(r[2] for r in m["rounds"])
    metrics = {
        "items_per_s": {"value": items / (wall * f), "unit": "items/s"},
        "call_p50_ms": {"value": 1e3 * f * statistics.median(m["call_s"]), "unit": "ms"},
        "cpu_ms_per_item": {"value": 1e3 * f * cpu / items, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    if setup:
        metrics["setup_s"] = {"value": f * statistics.median(setup), "unit": "s"}
    return metrics


def per_layer(t: dict, items: int) -> dict:
    """The per-layer metrics from the tracer's per-layer totals."""

    def get(layer, key):
        return t.get(layer, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    us, ms = 1e6, 1e3
    solve_s = get("discord.discord_sym", "incl_s") + get("discord.discord_asym", "incl_s")
    values = {
        "numpy.eigh.calls_per_item": ("count", get("numpy.eigh", "calls") / items),
        "numpy.eigh.matrices_per_item": ("count", get("numpy.eigh", "extra") / items),
        "numpy.eigh.us_per_item": ("us", us * get("numpy.eigh", "incl_s") / items),
        "rand.child_rng.us_per_item": ("us", us * get("rand.child_rng", "incl_s") / items),
        "rand.ginibre_mixed.self_us_per_item":
            ("us", us * get("rand.ginibre_mixed", "self_s") / items),
        "linalg.validate_density.calls_per_item":
            ("count", get("linalg.validate_density", "calls") / items),
        "linalg.validate_density.self_us_per_item":
            ("us", us * get("linalg.validate_density", "self_s") / items),
        "linalg.partial_trace.calls_per_item":
            ("count", get("linalg.partial_trace", "calls") / items),
        "linalg.partial_trace.self_us_per_item":
            ("us", us * get("linalg.partial_trace", "self_s") / items),
        "coherence.c_skew.us_per_item": ("us", us * get("coherence.c_skew", "incl_s") / items),
        "coherence.k_coherence.us_per_item":
            ("us", us * get("coherence.k_coherence", "incl_s") / items),
        "coherence.coherence_report.us_per_item":
            ("us", us * get("coherence.coherence_report", "incl_s") / items),
        "polygamy.bipartite_record.self_us_per_item":
            ("us", us * get("polygamy.bipartite_record", "self_s") / items),
        "channels.random_incoherent_channel.self_us_per_item":
            ("us", us * get("channels.random_incoherent_channel", "self_s") / items),
        "channels.validate_channel.us_per_item":
            ("us", us * get("channels.validate_channel", "incl_s") / items),
        "channels.apply_selective.self_us_per_item":
            ("us", us * get("channels.apply_selective", "self_s") / items),
        "channels.apply.self_us_per_item": ("us", us * get("channels.apply", "self_s") / items),
        "channels.monotonicity_check.self_us_per_item":
            ("us", us * get("channels.monotonicity_check", "self_s") / items),
        "parallel.indexed_map.overhead_ms_per_call":
            ("ms", ms * ratio(get("parallel.indexed_map", "self_s"),
                              get("parallel.indexed_map", "calls"))),
        "cli.self_ms_per_call":
            ("ms", ms * ratio(get("cli.main", "self_s"), get("cli.main", "calls"))),
        "discord.objective_evals_per_solve": ("count", get("discord.minimize", "extra") / items),
        "discord.us_per_objective_eval":
            ("us", us * ratio(get("discord.objective", "incl_s"),
                              get("discord.objective", "calls"))),
        "discord.optimizer_ms_per_solve":
            ("ms", ms * get("discord.minimize", "incl_s") / items),
        "discord.self_ms_per_solve":
            ("ms", ms * (solve_s - get("discord.minimize", "incl_s")) / items),
        "serialize.read_state.self_us_per_item":
            ("us", us * get("serialize.read_state", "self_s") / items),
        "metrology.metrology_report.us_per_item":
            ("us", us * get("metrology.metrology_report", "incl_s") / items),
        "measurement.estimate_measures.self_us_per_item":
            ("us", us * get("measurement.estimate_measures", "self_s") / items),
        "measurement.recover_spectrum.us_per_item":
            ("us", us * get("measurement.recover_spectrum", "incl_s") / items),
        "measurement.simulate_shots.us_per_item":
            ("us", us * get("measurement.simulate_shots", "incl_s") / items),
    }
    return {name: {"value": v, "unit": unit} for name, (unit, v) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cohlab", "cli.py")):
        print(f"cohlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cohlab
    import cohlab.cli  # noqa: F401  (binds the submodules the workloads use)

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    # the non-finite state files make numpy warn on every pass
    warnings.simplefilter("ignore", RuntimeWarning)
    workdir = os.path.join(OUT, args.workload)
    os.makedirs(workdir, exist_ok=True)

    speed = HostSpeed()
    setup, setup_passes = [], []
    for _ in range(0 if args.trace else SETUP_STARTS):
        setup_passes.append(speed.pass_seconds())
        setup.append(fresh_start_seconds())
    workload = workloads.WORKLOADS[args.workload](cohlab, args.seed, workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    m = measure(workload, args.seconds, speed, tracer)
    m["passes"] = setup_passes + m["passes"]
    wall = sum(r[0] for r in m["rounds"])
    items = sum(r[2] for r in m["rounds"])

    if tracer is not None:
        metrics = per_layer(tracer.layer_totals(), items)
        tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}.trace.jsonl"))
    else:
        metrics = end_to_end(m, setup)
    for p in m["problems"][:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {"correct": not m["problems"], "attempted": m["attempted"],
              "failed": m["failed"], "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=len(m["rounds"]), items=items, timed_wall_s=wall,
                  scaled=end_to_end(m, setup), raw=end_to_end(m, setup, scaled=False),
                  setup_starts_s=setup,
                  round_columns=["wall_s", "cpu_s", "items"], rounds_detail=m["rounds"],
                  host_pass_s=m["passes"],
                  problems=m["problems"][:100])
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}-seed{args.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
