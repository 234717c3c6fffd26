"""Command-line front end.

Every run with identical arguments and seed is byte-identical;
each output artifact embeds the seed, package version and the effective
configuration.  Single results print as JSON, sweeps emit CSV (to stdout, or
to ``--out`` with a summary on stdout).  Validation failures, bad arguments
included, exit with code 2 and a machine-readable error object; fixture tables
print values by ``repr`` and exit 1 when a row fails.  ``main`` reuses one
parser per process: building it costs far more than parsing, and
``parse_args`` leaves it unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .coherence import coherence_report, k_coherence
from .discord import discord_asym, discord_sym
from .errors import CohlabError, DimensionMismatch, NotFinite, ParseError
from .fixtures import _CHANNEL_FIXTURES, DISCORD_FIXTURES, _lookup, fixture_report
from .measurement import estimate_measures, true_measures
from .metrology import metrology_report
from .channels import monotonicity_check, monotonicity_sweep
from .polygamy import sweep_polygamy, sweep_summary
from .rand import _seed
from .serialize import matrix_to_obj, read_observable, read_state

ENV_SEED = "COHLAB_SEED"
THREADS_HELP = "accepted and ignored: sweeps run in one thread"


def _resolve_seed(args) -> int:
    seed, env = args.seed, os.environ.get(ENV_SEED, "")
    if seed is None:
        try:
            seed = int(env) if env else 0
        except ValueError as exc:
            raise ParseError(f"{ENV_SEED}={env!r} is not an integer") from exc
    return _seed(seed)


def _meta(seed: int, **config) -> dict:
    return {"seed": seed, "version": __version__, "config": config}


def _print_json(obj):
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NotFinite(f"result has NaN or infinite values: {exc}") from exc
    print(text)


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError as exc:
        raise DimensionMismatch(f"--dims expects AxB, got {text!r}") from exc


def cmd_compute(args) -> int:
    rho = read_state(args.input)
    out = coherence_report(rho).to_dict()
    if args.observable:
        out["c_k"] = k_coherence(rho, read_observable(args.observable))
    out["meta"] = _meta(args.seed, input=args.input, observable=args.observable)
    _print_json(out)
    return 0


def cmd_fixture(args) -> int:
    rows = fixture_report(args.name, seed=args.seed)
    width = max(len(r.label) for r in rows)
    print(f"fixture {args.name}  (version {__version__}, seed {args.seed})")
    print(f"{'quantity'.ljust(width)}  {'computed':>22}  {'expected':>12}  {'tol':>8}  status")
    for r in rows:
        tol = "exact" if r.tol is None else f"{r.tol:.0e}"
        status = "pass" if r.ok else "FAIL"
        print(f"{r.label.ljust(width)}  {r.computed!r:>22}  {r.expected!r:>12}  {tol:>8}  {status}")
    return 0 if all(r.ok for r in rows) else 1


def _write_lines(path, lines):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)


def _csv_header(meta: dict, columns) -> list:
    return [
        f"# version={meta['version']} seed={meta['seed']}",
        f"# config={json.dumps(meta['config'], sort_keys=True)}",
        ",".join(columns),
    ]


def cmd_sweep(args) -> int:
    dims = _parse_dims(args.dims)
    meta = _meta(args.seed, kind=args.kind, dims=list(dims), samples=args.samples)
    records = sweep_polygamy(dims, args.samples, args.seed)
    columns = ["sample", "dimA", "dimB", "c12", "c1", "c2", "gap",
               "lambda_min", "rank", "cs", "gap_cor1_sym"]
    lines = _csv_header(meta, columns)
    for i, r in enumerate(records):
        lines.append(",".join([
            str(i), str(r.dims[0]), str(r.dims[1]),
            repr(r.c_joint), repr(r.c_a), repr(r.c_b), repr(r.gap_pure_form),
            repr(r.lambda_min), str(r.rank), repr(r.c_s), repr(r.gap_symmetric()),
        ]))
    _write_lines(args.out, lines)
    if args.out:
        _print_json({"summary": sweep_summary(records), "meta": meta})
    return 0


def cmd_monotonicity(args) -> int:
    columns = ["seed", "c_before", "c_avg_after", "c_after", "strong_ok", "weak_ok"]
    if args.fixture:
        rho, channel, obs = _lookup(_CHANNEL_FIXTURES, args.fixture)()
        verdict = monotonicity_check(channel, rho, measure=args.measure, observable=obs)
        meta = _meta(args.seed, measure=args.measure, fixture=args.fixture)
        rows = [(args.fixture, verdict)]
    else:
        meta = _meta(args.seed, measure=args.measure, samples=args.samples, dim=args.dim)
        verdicts = monotonicity_sweep(args.measure, args.samples, args.dim, args.seed)
        rows = list(enumerate(verdicts))
    lines = _csv_header(meta, columns)
    for key, v in rows:
        lines.append(",".join([
            str(key), repr(v.c_before), repr(v.c_avg_after), repr(v.c_after),
            str(int(v.strong_ok)), str(int(v.weak_ok)),
        ]))
    _write_lines(args.out, lines)
    return 0


def cmd_discord(args) -> int:
    if args.fixture:
        if args.input is not None or args.dims is not None:
            raise ParseError("discord takes --fixture or --input and --dims, not both")
        rho, dims = _lookup(DISCORD_FIXTURES, args.fixture)()["rho_f"], (2, 2)
    else:
        if not args.input or not args.dims:
            raise DimensionMismatch("discord needs --input and --dims (or --fixture)")
        rho = read_state(args.input)
        dims = _parse_dims(args.dims)
    fn = discord_sym if args.mode == "sym" else discord_asym
    result = fn(rho, dims, restarts=args.restarts, seed=args.seed)
    out = {
        "value": result.value,
        "converged": result.converged,
        "restarts_used": result.restarts_used,
        "sweeps": result.sweeps,
        "basis": {"u_a": matrix_to_obj(result.basis.u_a), "u_b": matrix_to_obj(result.basis.u_b)},
        "meta": _meta(args.seed, mode=args.mode, restarts=args.restarts,
                      dims=list(dims), fixture=args.fixture, input=args.input),
    }
    _print_json(out)
    return 0


def cmd_metrology(args) -> int:
    rho = read_state(args.input)
    out = metrology_report(rho, args.runs).to_dict()
    out["meta"] = _meta(args.seed, input=args.input, runs=args.runs)
    _print_json(out)
    return 0


def cmd_simulate_measure(args) -> int:
    rho = read_state(args.input)
    est = estimate_measures(rho, args.shots, args.seed, exact_powers=args.exact_powers)
    out = {
        "estimates": est.to_dict(),
        "true": true_measures(rho),
        "meta": _meta(args.seed, input=args.input, shots=args.shots,
                      exact_powers=args.exact_powers),
    }
    _print_json(out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ``ParseError`` (subparsers inherit the class) instead of exiting."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cohlab",
        description="Coherence measures, distribution inequalities and "
                    "measurement simulation for small quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="full coherence report of one state")
    p.add_argument("--input", required=True)
    p.add_argument("--observable", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("fixture", help="reproduce a bundled reference scenario")
    p.add_argument("name", choices=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("sweep", help="seeded Monte-Carlo sweep, CSV output")
    p.add_argument("kind", choices=["polygamy"])
    p.add_argument("--dims", required=True, help="AxB, e.g. 3x3")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("monotonicity", help="selective-channel monotonicity checks")
    p.add_argument("--measure", choices=["skew", "k"], default="skew")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fixture", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=cmd_monotonicity)

    p = sub.add_parser("discord", help="minimize coherence over local bases")
    p.add_argument("--input", default=None)
    p.add_argument("--dims", default=None, help="AxB")
    p.add_argument("--mode", choices=["sym", "asym"], default="sym")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fixture", default=None)
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("metrology", help="Fisher-information report of one state")
    p.add_argument("--input", required=True)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_metrology)

    p = sub.add_parser("simulate-measure", help="finite-shot spectrum estimation")
    p.add_argument("--input", required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--exact-powers", action="store_true")
    p.set_defaults(func=cmd_simulate_measure)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.seed = _resolve_seed(args)
        return args.func(args)
    except CohlabError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
