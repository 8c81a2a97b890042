"""Command-line front end: run each experiment from one master seed and
write JSON/CSV reports that embed their run manifest.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error, 3 I/O
failure.  Repeated runs with the same arguments produce byte-identical
payloads (timestamps aside).  Only a Hopf probe on a large ensemble uses
more than one thread, splitting its elementwise work over the process's
CPUs; ``--threads`` is accepted for compatibility and changes neither
results nor speed.
"""

import argparse
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from itertools import islice

import numpy as np

from . import __version__
from .diagnostics import (
    DiagnosticsConfig,
    _shifts,
    conditional_char_statistic,
    conditional_law_suite,
    default_cylinder_family,
    rotation_invariance_demo,
    stationarity_suite,
    tsirelson_samples,
    tsirelson_statistic,
)
from .measure_solution import (
    MeasureBuilder,
    char_spec_grid,
    conditional_measure,
    perturb_last_coordinate,
    random_char_specs,
    residual_reports,
    shift_equivariance_check,
    consistency_check,
)
from .path_space import Window
from .random_measure import StatReport
from .recurrence import NoiseModel, advance, update_map_from_name
from .seeds import PRNG_NAME, draw_u64, draw_unit, substream

HOPF_TOLERANCE = 1e-9

_U64 = 0xFFFFFFFFFFFFFFFF
_CHUNK = 2**16  # simulate steps per noise window
_ROWS = 2**10  # simulate rows joined per write: each write on the scratch file resets its codec


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _seed_arg(text: str) -> int:
    return int(text, 0) & _U64


def _shift_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _finish_manifest(command: str, args, params: dict, started: str) -> dict:
    """The provenance block embedded in every report file."""
    params = {key: str(value) for key, value in params.items()}
    params["prng"] = PRNG_NAME
    return {
        "command": command,
        "parameters": params,
        "master_seed": args.seed,
        "artifact_version": __version__,
        "started_at": started,
        "finished_at": _utc_now(),
    }


def _write_json(path: str, payload: dict) -> None:
    # strict JSON: serialize before opening, so a report holding NaN or
    # Infinity is refused without leaving a partial file behind
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"report not written, it holds a non-finite number ({exc})") from None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _write_csv(path: str, manifest: dict, header: str, rows) -> None:
    """A CSV report: the manifest as a comment line, the header, then ``rows``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        fh.write(header + "\n")
        fh.writelines(rows)


def cmd_simulate(args) -> int:
    update_map = update_map_from_name(args.map_name)
    if args.steps < 1:
        raise ValueError("steps must be at least 1")
    started = _utc_now()
    noise = NoiseModel(seed=substream(args.seed, "simulate-noise"))
    x = float(draw_unit(substream(args.seed, "simulate-init"), 0))
    states = np.empty(min(_CHUNK, args.steps))
    # rows wait in a scratch file beside --out, so the manifest above them follows the last step
    folder = os.path.dirname(args.out) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"no directory {folder!r} to write {args.out!r} in")
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n", dir=folder) as rows:
        rows.write(f"0,{x!r},\n")
        for first in range(1, args.steps + 1, _CHUNK):
            xis = noise.window(first, min(_CHUNK, args.steps + 1 - first)).values.tolist()
            n = len(xis)
            x = advance(update_map.apply, x, xis, out=states[:n])
            # Python floats repr as the shortest round-trip decimal
            path = zip(range(first, first + n), states[:n].tolist(), xis)
            for _ in range(0, n, _ROWS):
                rows.write("".join([f"{i},{s!r},{xi!r}\n" for i, s, xi in islice(path, _ROWS)]))
        manifest = _finish_manifest(
            "simulate", args, {"map": args.map_name, "steps": args.steps}, started
        )
        rows.seek(0)
        _write_csv(args.out, manifest, "index,x,xi", iter(lambda: rows.read(1 << 20), ""))
    return 0


def cmd_hopf_check(args) -> int:
    update_map = update_map_from_name(args.map_name)
    started = _utc_now()
    window = (0, args.window - 1)
    # probes first: a short window is refused before any noise or particle is drawn
    specs = char_spec_grid(window) + random_char_specs(
        window, args.specs, substream(args.seed, "hopf-specs")
    )
    builder = MeasureBuilder(
        update_map=update_map,
        particle_count=args.particles,
        window=window,
        init_seed_stream=substream(args.seed, "hopf-init"),
    )
    noise = NoiseModel(seed=substream(args.seed, "hopf-noise")).driving(window)
    mu = conditional_measure(builder, noise)
    if args.perturb:
        mu = perturb_last_coordinate(mu, substream(args.seed, "hopf-perturb"))
    reports = residual_reports(mu, noise, specs, update_map)
    max_residual = max(r["residual"] for r in reports)
    passed = max_residual <= HOPF_TOLERANCE
    manifest = _finish_manifest(
        "hopf-check",
        args,
        {
            "map": args.map_name,
            "particles": args.particles,
            "window": args.window,
            "specs": args.specs,
            "perturb": args.perturb,
        },
        started,
    )
    _write_json(
        args.out,
        {
            "manifest": manifest,
            "tolerance": HOPF_TOLERANCE,
            "max_residual": max_residual,
            "passed": passed,
            "reports": reports,
        },
    )
    return 0 if passed else 1


def _config(args) -> DiagnosticsConfig:
    return DiagnosticsConfig(
        sample_size=args.n,
        particle_count=args.particles,
        alpha=args.alpha,
        seed=args.seed,
        window=(args.window_lo, args.window_hi),
    )


def _builder(args) -> MeasureBuilder:
    """The suite's conditional-measure construction, seeded per suite."""
    return MeasureBuilder(
        update_map=update_map_from_name(args.map),
        particle_count=args.particles,
        window=(args.window_lo, args.window_hi),
        init_seed_stream=substream(args.seed, f"{args.suite}-init"),
    )


def _diagnose_tsirelson(args) -> list[StatReport]:
    config = _config(args)
    update_map = update_map_from_name(args.map)
    if args.raw_out:
        started = _utc_now()
        samples = tsirelson_samples(config, args.index, update_map=update_map)
        manifest = _finish_manifest(
            "diagnose-raw", args, {"suite": "tsirelson", "index": args.index}, started
        )
        rows = (f"{r},{float(value)!r}\n" for r, value in enumerate(samples))
        _write_csv(args.raw_out, manifest, "replica,x", rows)
    return [
        tsirelson_statistic(config, args.index, update_map=update_map),
        conditional_char_statistic(config, args.index, update_map=update_map),
    ]


def _diagnose_stationarity(args) -> list[StatReport]:
    shifts = _shifts(args.shifts)
    config = _config(args)
    deltas = default_cylinder_family(config.window, max(max(shifts), 0), min(min(shifts), 0))
    return stationarity_suite(_builder(args), shifts, deltas, config)


def _diagnose_rotation(args) -> list[StatReport]:
    return [rotation_invariance_demo(_config(args), args.t)]


def _diagnose_conditional_law(args) -> list[StatReport]:
    return conditional_law_suite(args.rho, args.a, _config(args))


def _failure_fraction(name: str, checks: list[bool], seed: int) -> list[StatReport]:
    """An exact property checked ``len(checks)`` times: the failing share, which must be 0."""
    count = len(checks)
    return [StatReport(name, checks.count(False) / count, 0.0, count, seed)]


def _diagnose_consistency(args) -> list[StatReport]:
    if args.pairs < 1:
        raise ValueError("pairs must be at least 1")
    lo, hi = args.window_lo, args.window_hi
    if hi - lo < 2:
        raise ValueError(
            f"consistency needs window_hi - window_lo >= 2 to split its noise into "
            f"past and future, got window [{lo}, {hi}]"
        )
    builder = _builder(args)
    split = (lo + hi) // 2
    past_root = substream(args.seed, "consistency-past")
    future_root = substream(args.seed, "consistency-future")
    checks = []
    for pair in range(args.pairs):
        past = NoiseModel(seed=int(draw_u64(past_root, pair))).driving((lo, split))
        fut_a = NoiseModel(seed=int(draw_u64(future_root, 2 * pair))).driving((split, hi))
        fut_b = NoiseModel(seed=int(draw_u64(future_root, 2 * pair + 1))).driving((split, hi))
        noise_a = Window(offset=past.offset, values=np.concatenate([past.values, fut_a.values]))
        noise_b = Window(offset=past.offset, values=np.concatenate([past.values, fut_b.values]))
        checks.append(consistency_check(builder, noise_a, noise_b, split))
    return _failure_fraction("consistency", checks, args.seed)


def _diagnose_equivariance(args) -> list[StatReport]:
    shifts = _shifts(args.shifts)
    builder = _builder(args)
    noise = NoiseModel(seed=substream(args.seed, "equivariance-noise")).driving(builder.window)
    checks = [shift_equivariance_check(builder, noise, t) for t in shifts]
    return _failure_fraction("equivariance", checks, args.seed)


_SUITES = {
    # suite: (runner, n, particles, window span); the defaults fill what the command omits
    "tsirelson": (_diagnose_tsirelson, 100_000, 10_000, 8),
    "stationarity": (_diagnose_stationarity, 1_000, 200, 12),
    "rotation": (_diagnose_rotation, 100_000, 1, 8),
    "conditional-law": (_diagnose_conditional_law, 300, 10_000, 9),
    "consistency": (_diagnose_consistency, 100, 200, 12),
    "equivariance": (_diagnose_equivariance, 100, 500, 12),
}


def cmd_diagnose(args) -> int:
    if args.raw_out and args.suite != "tsirelson":
        raise ValueError("--raw-out is only available for the tsirelson suite")
    runner, n, particles, span = _SUITES[args.suite]
    if args.n is None:
        args.n = n
    if args.particles is None:
        args.particles = particles
    if args.window_hi is None:
        args.window_hi = args.window_lo + span
    started = _utc_now()
    reports = runner(args)
    passed = all(r.passed for r in reports)
    # --threads changes no result, so it is not an experiment parameter
    params = {
        key: value
        for key, value in vars(args).items()
        if key not in ("func", "out", "seed", "threads") and value is not None
    }
    manifest = _finish_manifest("diagnose", args, params, started)
    _write_json(
        args.out,
        {
            "manifest": manifest,
            "passed": passed,
            "reports": [r.as_dict() for r in reports],
        },
    )
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochrec",
        description="Recurrence-driven particle measures: simulate, verify, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_out: str) -> None:
        p.add_argument("--seed", type=_seed_arg, default=0, help="master seed (64-bit)")
        p.add_argument("--out", default=default_out, help="report output path")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility; ignored (large Hopf probes use every CPU)",
        )

    p_sim = sub.add_parser("simulate", help="run one trajectory and write it as CSV")
    p_sim.add_argument("map_name", help='"fractional" or "contraction:a=<value>"')
    p_sim.add_argument("steps", type=int, help="number of forward steps")
    common(p_sim, "simulate.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_hopf = sub.add_parser(
        "hopf-check", help="residuals of the characteristic-functional identity"
    )
    p_hopf.add_argument("map_name")
    p_hopf.add_argument("--particles", type=int, default=10000)
    p_hopf.add_argument("--window", type=int, default=16, help="window length")
    p_hopf.add_argument("--specs", type=int, default=32, help="random probe count")
    p_hopf.add_argument(
        "--perturb", action="store_true", help="shuffle the last coordinate (negative control)"
    )
    common(p_hopf, "hopf_check.json")
    p_hopf.set_defaults(func=cmd_hopf_check)

    p_diag = sub.add_parser("diagnose", help="run a named diagnostic suite")
    p_diag.add_argument("suite", choices=sorted(_SUITES))
    p_diag.add_argument("--n", type=int, default=None, help="sample size (default: per suite)")
    p_diag.add_argument("--particles", type=int, default=None, help="default: per suite")
    p_diag.add_argument("--alpha", type=float, default=0.01)
    p_diag.add_argument("--window-lo", type=int, default=0)
    p_diag.add_argument(
        "--window-hi", type=int, default=None, help="default: --window-lo plus the suite's span"
    )
    p_diag.add_argument("--index", type=int, default=5, help="coordinate index to probe")
    p_diag.add_argument("--map", default="fractional")
    p_diag.add_argument("--t", type=float, default=math.pi / 3, help="rotation angle")
    p_diag.add_argument(
        "--shifts", type=_shift_list, default=[1, 2, 5],
        help="comma-separated shifts; a negative first shift needs the = form: --shifts=-2,1",
    )
    p_diag.add_argument("--rho", type=float, default=0.8)
    p_diag.add_argument("--a", type=float, default=0.5)
    p_diag.add_argument("--pairs", type=int, default=100)
    p_diag.add_argument(
        "--raw-out", default=None, help="also write raw per-replica values as CSV"
    )
    common(p_diag, "diagnose.json")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.threads < 1:
            raise ValueError("threads must be at least 1")
        return args.func(args)
    except OSError as exc:
        print(f"stochrec: i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"stochrec: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"stochrec: out of memory, reduce the sizes: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
