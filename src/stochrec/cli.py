"""Command-line front end: run each experiment from one master seed and
write JSON/CSV reports that embed their run manifest.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error, 3 I/O
failure.  Repeated runs with the same arguments produce byte-identical
payloads (timestamps aside) at any ``--threads`` value.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .diagnostics import (
    DiagnosticsConfig,
    conditional_char_statistic,
    conditional_law_demo,
    default_cylinder_family,
    distributions_equal,
    gaussian_pair_sampler,
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
    residual_report,
    shift_equivariance_check,
    consistency_check,
)
from .path_space import Window
from .random_measure import CylinderSet, StatReport, shift_measure
from .recurrence import NoiseModel, advance, update_map_from_name
from .seeds import PRNG_NAME, draw_u64, draw_unit, substream

HOPF_TOLERANCE = 1e-9

_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded in every report file."""

    command: str
    parameters: dict
    master_seed: int
    artifact_version: str
    started_at: str
    finished_at: str

    def as_dict(self) -> dict:
        return asdict(self)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _seed_arg(text: str) -> int:
    return int(text, 0) & _U64


def _shift_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _finish_manifest(command: str, args, params: dict, started: str) -> RunManifest:
    # worker count is an execution detail, not an experiment parameter:
    # results are identical at any --threads, so it is not recorded
    params = {key: str(value) for key, value in params.items()}
    params["prng"] = PRNG_NAME
    return RunManifest(
        command=command,
        parameters=params,
        master_seed=args.seed,
        artifact_version=__version__,
        started_at=started,
        finished_at=_utc_now(),
    )


def _write_json(path: str, payload: dict) -> None:
    # strict JSON: serialize before opening, so a report holding NaN or
    # Infinity is refused without leaving a partial file behind
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"report not written, it holds a non-finite number ({exc})") from None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def cmd_simulate(args) -> int:
    update_map = update_map_from_name(args.map_name)
    if args.steps < 1:
        raise ValueError("steps must be at least 1")
    started = _utc_now()
    noise = NoiseModel(law="uniform", seed=substream(args.seed, "simulate-noise")).window(
        1, args.steps
    )
    x0 = float(draw_unit(substream(args.seed, "simulate-init"), 0))
    path = np.empty(args.steps + 1)
    path[0] = x0
    advance(update_map.apply, x0, noise.values, out=path[1:])
    # Python floats: their repr is the shortest round-trip decimal
    path, noise_values = path.tolist(), noise.values.tolist()
    manifest = _finish_manifest(
        "simulate", args, {"map": args.map_name, "steps": args.steps}, started
    )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# manifest: " + json.dumps(manifest.as_dict(), sort_keys=True) + "\n")
        fh.write("index,x,xi\n")
        fh.write(f"0,{path[0]!r},\n")
        for i, xi in enumerate(noise_values, start=1):
            fh.write(f"{i},{path[i]!r},{xi!r}\n")
    return 0


def cmd_hopf_check(args) -> int:
    update_map = update_map_from_name(args.map_name)
    if args.particles < 1:
        raise ValueError("particles must be at least 1")
    if args.window < 3:
        raise ValueError("window must be at least 3")
    started = _utc_now()
    window = (0, args.window - 1)
    builder = MeasureBuilder(
        update_map=update_map,
        particle_count=args.particles,
        window=window,
        init_seed_stream=substream(args.seed, "hopf-init"),
    )
    noise = NoiseModel(law="uniform", seed=substream(args.seed, "hopf-noise")).window(
        1, args.window - 1
    )
    mu = conditional_measure(builder, noise)
    if args.perturb:
        mu = perturb_last_coordinate(mu, substream(args.seed, "hopf-perturb"))
    specs = char_spec_grid(window) + random_char_specs(
        window, args.specs, substream(args.seed, "hopf-specs")
    )
    reports = [residual_report(mu, noise, spec, update_map) for spec in specs]
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
            "manifest": manifest.as_dict(),
            "tolerance": HOPF_TOLERANCE,
            "max_residual": max_residual,
            "passed": passed,
            "reports": reports,
        },
    )
    return 0 if passed else 1


def _diagnose_tsirelson(args) -> list[StatReport]:
    config = DiagnosticsConfig(
        sample_size=args.n,
        particle_count=args.particles,
        alpha=args.alpha,
        seed=args.seed,
        window=(args.window_lo, args.window_hi),
    )
    update_map = update_map_from_name(args.map)
    if args.raw_out:
        started = _utc_now()
        samples = tsirelson_samples(
            config, args.index, update_map=update_map, threads=args.threads
        )
        manifest = _finish_manifest(
            "diagnose-raw", args, {"suite": "tsirelson", "index": args.index}, started
        )
        with open(args.raw_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# manifest: " + json.dumps(manifest.as_dict(), sort_keys=True) + "\n")
            fh.write("replica,x\n")
            for r, value in enumerate(samples):
                fh.write(f"{r},{float(value)!r}\n")
    return [
        tsirelson_statistic(config, args.index, update_map=update_map, threads=args.threads),
        conditional_char_statistic(
            config, args.index, update_map=update_map, threads=args.threads
        ),
    ]


def _diagnose_stationarity(args) -> list[StatReport]:
    if not args.shifts:
        raise ValueError("shifts must be nonempty")
    config = DiagnosticsConfig(
        sample_size=args.n,
        particle_count=args.particles,
        alpha=args.alpha,
        seed=args.seed,
        window=(args.window_lo, args.window_hi),
    )
    builder = MeasureBuilder(
        update_map=update_map_from_name(args.map),
        particle_count=args.particles,
        window=config.window,
        init_seed_stream=substream(args.seed, "stationarity-init"),
    )
    deltas = default_cylinder_family(
        config.window, max(max(args.shifts), 0), min(min(args.shifts), 0)
    )
    return stationarity_suite(builder, args.shifts, deltas, config, threads=args.threads)


def _diagnose_rotation(args) -> list[StatReport]:
    config = DiagnosticsConfig(
        sample_size=args.n,
        particle_count=args.particles,
        alpha=args.alpha,
        seed=args.seed,
        window=(args.window_lo, args.window_hi),
    )
    return [rotation_invariance_demo(config, args.t)]


def _diagnose_conditional_law(args) -> list[StatReport]:
    config = DiagnosticsConfig(
        sample_size=args.n,
        particle_count=args.particles,
        alpha=args.alpha,
        seed=args.seed,
        window=(args.window_lo, args.window_hi),
    )
    reports = [conditional_law_demo(args.rho, args.a, config)]
    # the shift comparison needs many replicas, not a huge per-replica ensemble
    shift_config = DiagnosticsConfig(
        sample_size=config.sample_size,
        particle_count=min(200, config.particle_count),
        alpha=config.alpha,
        seed=config.seed,
        window=config.window,
    )
    sampler = gaussian_pair_sampler(args.rho, args.a, shift_config)

    def shifted(r: int):
        return shift_measure(sampler(r), 1)

    lo = config.window[0]
    # intervals sized for standard-normal values
    deltas = [
        CylinderSet(start=lo + 1, intervals=((-0.5, 0.5),)),
        CylinderSet(start=lo + 2, intervals=((0.0, 1.5),)),
    ]
    reports.append(
        distributions_equal(
            sampler,
            shifted,
            deltas,
            replicas=config.sample_size,
            alpha=config.alpha,
            seed=substream(args.seed, "pair-shift-proj"),
            name="conditional_law:shift=1",
            threads=args.threads,
        )
    )
    return reports


def _diagnose_consistency(args) -> list[StatReport]:
    if args.pairs < 1:
        raise ValueError("pairs must be at least 1")
    update_map = update_map_from_name(args.map)
    window = (args.window_lo, args.window_hi)
    builder = MeasureBuilder(
        update_map=update_map,
        particle_count=args.particles,
        window=window,
        init_seed_stream=substream(args.seed, "consistency-init"),
    )
    lo, hi = window
    split = (lo + hi) // 2
    past_root = substream(args.seed, "consistency-past")
    future_root = substream(args.seed, "consistency-future")
    failures = 0
    for pair in range(args.pairs):
        past = NoiseModel(seed=int(draw_u64(past_root, pair))).window(lo + 1, split - lo)
        fut_a = NoiseModel(seed=int(draw_u64(future_root, 2 * pair))).window(
            split + 1, hi - split
        )
        fut_b = NoiseModel(seed=int(draw_u64(future_root, 2 * pair + 1))).window(
            split + 1, hi - split
        )
        noise_a = Window(offset=lo + 1, values=np.concatenate([past.values, fut_a.values]))
        noise_b = Window(offset=lo + 1, values=np.concatenate([past.values, fut_b.values]))
        if not consistency_check(builder, noise_a, noise_b, split):
            failures += 1
    return [
        StatReport.from_statistic(
            test_name="consistency",
            statistic=failures / args.pairs,
            threshold=0.0,
            sample_size=args.pairs,
            seed=args.seed,
        )
    ]


def _diagnose_equivariance(args) -> list[StatReport]:
    if not args.shifts:
        raise ValueError("shifts must be nonempty")
    if 0 in args.shifts:
        raise ValueError("shift 0 is vacuous; use nonzero shifts")
    update_map = update_map_from_name(args.map)
    window = (args.window_lo, args.window_hi)
    builder = MeasureBuilder(
        update_map=update_map,
        particle_count=args.particles,
        window=window,
        init_seed_stream=substream(args.seed, "equivariance-init"),
    )
    noise = NoiseModel(seed=substream(args.seed, "equivariance-noise")).window(
        window[0] + 1, window[1] - window[0]
    )
    failures = sum(
        0 if shift_equivariance_check(builder, noise, t) else 1 for t in args.shifts
    )
    return [
        StatReport.from_statistic(
            test_name="equivariance",
            statistic=failures / len(args.shifts),
            threshold=0.0,
            sample_size=len(args.shifts),
            seed=args.seed,
        )
    ]


_SUITES = {
    "tsirelson": _diagnose_tsirelson,
    "stationarity": _diagnose_stationarity,
    "rotation": _diagnose_rotation,
    "conditional-law": _diagnose_conditional_law,
    "consistency": _diagnose_consistency,
    "equivariance": _diagnose_equivariance,
}


def cmd_diagnose(args) -> int:
    if args.raw_out and args.suite != "tsirelson":
        raise ValueError("--raw-out is only available for the tsirelson suite")
    started = _utc_now()
    reports = _SUITES[args.suite](args)
    passed = all(r.passed for r in reports)
    params = {
        key: value
        for key, value in vars(args).items()
        if key not in ("func", "out", "seed", "threads") and value is not None
    }
    manifest = _finish_manifest("diagnose", args, params, started)
    _write_json(
        args.out,
        {
            "manifest": manifest.as_dict(),
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
        p.add_argument("--threads", type=int, default=1, help="worker count")

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
    p_diag.add_argument("--n", type=int, default=None, help="sample size / replicas")
    p_diag.add_argument("--particles", type=int, default=None)
    p_diag.add_argument("--alpha", type=float, default=0.01)
    p_diag.add_argument("--window-lo", type=int, default=0)
    p_diag.add_argument("--window-hi", type=int, default=None)
    p_diag.add_argument("--index", type=int, default=5, help="coordinate index to probe")
    p_diag.add_argument("--map", default="fractional")
    p_diag.add_argument("--t", type=float, default=math.pi / 3, help="rotation angle")
    p_diag.add_argument("--shifts", type=_shift_list, default=[1, 2, 5])
    p_diag.add_argument("--rho", type=float, default=0.8)
    p_diag.add_argument("--a", type=float, default=0.5)
    p_diag.add_argument("--pairs", type=int, default=100)
    p_diag.add_argument(
        "--raw-out", default=None, help="also write raw per-replica values as CSV"
    )
    common(p_diag, "diagnose.json")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


_SUITE_DEFAULTS = {
    # suite: (n, particles, window_hi)
    "tsirelson": (100_000, 10_000, 8),
    "stationarity": (1_000, 200, 12),
    "rotation": (100_000, 1, 8),
    "conditional-law": (300, 10_000, 9),
    "consistency": (100, 200, 12),
    "equivariance": (100, 500, 12),
}


def _apply_suite_defaults(args) -> None:
    if getattr(args, "suite", None) is None:
        return
    n, particles, window_hi = _SUITE_DEFAULTS[args.suite]
    if args.n is None:
        args.n = n
    if args.particles is None:
        args.particles = particles
    if args.window_hi is None:
        args.window_hi = args.window_lo + window_hi


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    _apply_suite_defaults(args)
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
