"""Cold-CLI benchmark for stochrec.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the package is imported from
``src/``).  Users run stochrec as a cold command-line process, so the unit of
work is one fresh ``python3`` process that imports ``stochrec.cli`` and calls
``cli.main(argv)``.  A *pass* runs each of the workload's invocations once,
one process at a time, from this single parent; the run repeats passes for
``--seconds`` and reports medians over passes.

End-to-end metrics (``--trace 0``), each summed over a pass's processes:
``wall_s`` (spawn to exit), ``setup_s`` (spawn until ``import stochrec.cli``
has finished: interpreter start plus the numpy/scipy import), ``main_s``
(inside ``cli.main``: compute plus report write) and ``peak_rss_mb`` (the
largest child peak resident set, from its rusage).

With ``--trace 1`` the run alternates untraced and traced passes.  Traced
children wrap the layer boundaries (``spans.py``) and report per-layer
figures; ``trace.overhead_s`` is traced minus untraced ``wall_s``.

Every invocation is checked: exit code 0, the report's SHA-256 with its
timestamps scrubbed against ``goldens.json`` (or, for a seed with no golden,
against the first pass of this run), the report's own verdict, and for
``hopf-check`` ``max_residual <= 1e-9``.  Traced runs also check exact work
counts.  The last stdout line is the JSON result; an environment record and
a table precede it, and the whole result goes to ``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = OUT / "work"
GOLDENS = HERE / "goldens.json"

RUN_LIMIT_S = 165  # a run must exit within 180 s; children are killed past this
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # counts must repeat, so at least two traced passes
HOPF_TOLERANCE = 1e-9
# suites whose verdict is a test at a fixed level rather than an exact property
STATISTICAL = ("stationarity", "tsirelson", "rotation", "conditional-law")


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so instants from children compare with ours
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC) * 1e-9


@dataclass(frozen=True)
class Workload:
    why: str
    threads: int
    commands: tuple  # CLI argv per process, without --seed/--threads/--out
    # (process index, group, field) -> exact count derived from the sizes
    expected: dict = field(default_factory=dict)
    # computed (not measured) sizes of the largest arrays, in bytes
    array_bytes: dict = field(default_factory=dict)


# diagnose stationarity at CLI defaults: 1,000 replicas per sampler, 3 shifts,
# two samplers per shift, 200 particles, window 0..12 (12 transitions), and
# 6 rectangles (the default family for window 0..12 and shifts up to 5)
ST_REPLICAS, ST_SHIFTS, ST_PARTICLES, ST_STEPS, ST_RECTANGLES = 1000, 3, 200, 12, 6
ST_BUILDS = ST_SHIFTS * 2 * ST_REPLICAS
# hopf-check window 16: 3 anchors x 3 end frequencies x (1 + 2 + 2) frequency
# patterns over orders 1..3 give 45 grid probes, plus 32 random probes
HOPF_PARTICLES, HOPF_WINDOW, HOPF_PROBES = 200_000, 16, 3 * 3 * (1 + 2 + 2) + 32
SIM_STEPS = 100_000

WORKLOADS = {
    "stationarity": Workload(
        why="one cold diagnose stationarity at one thread: 6,000 small ensembles, "
            "so per-call overhead of seeds, recurrence, measures and rectangles dominates",
        threads=1,
        commands=(("diagnose", "stationarity"),),
        expected={
            (0, "build", "calls"): ST_BUILDS,
            (0, "build", "n"): ST_BUILDS * ST_PARTICLES * ST_STEPS,
            (0, "window", "calls"): ST_BUILDS,
            (0, "apply", "calls"): ST_BUILDS * ST_STEPS,
            (0, "cylinder", "calls"): ST_BUILDS * ST_RECTANGLES,
            (0, "ks", "calls"): ST_SHIFTS * (ST_RECTANGLES + 1),
        },
        array_bytes={"ensemble_values_per_build": ST_PARTICLES * (ST_STEPS + 1) * 8,
                     "builds": ST_BUILDS},
    ),
    "hopf-large": Workload(
        why="one cold hopf-check with 200,000 particles: one large ensemble and 77 "
            "probes, so volume dominates and per-call overhead, KS and threads are bypassed",
        threads=1,
        commands=(("hopf-check", "fractional", "--particles", str(HOPF_PARTICLES)),),
        expected={
            (0, "build", "calls"): 1,
            (0, "build", "n"): HOPF_PARTICLES * (HOPF_WINDOW - 1),
            (0, "probe", "calls"): HOPF_PROBES,
        },
        array_bytes={"ensemble_values": HOPF_PARTICLES * HOPF_WINDOW * 8},
    ),
    "cli-mix": Workload(
        why="six cold default commands at two threads: import-dominated, with the "
            "4.4 MB CSV write, scalar simulate path, normal draws, one-sample KS and threads",
        threads=2,
        commands=(
            ("simulate", "fractional", str(SIM_STEPS)),
            ("diagnose", "tsirelson"),
            ("diagnose", "rotation"),
            ("diagnose", "conditional-law"),
            ("diagnose", "consistency"),
            ("diagnose", "equivariance"),
        ),
        expected={(0, "apply", "calls"): SIM_STEPS},
        array_bytes={"simulate_path": (SIM_STEPS + 1) * 8,
                     "tsirelson_samples": 100_000 * 8,
                     "rotation_cloud": 2 * 100_000 * 8,
                     "conditional_law_samples": 10_000 * 8},
    ),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("main_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER_UNITS = {
    "seeds.calls": "count", "seeds.draws": "count", "seeds.s": "s", "seeds.ns_per_draw": "ns",
    "recurrence.window_calls": "count", "recurrence.window_s": "s",
    "recurrence.apply_calls": "count", "recurrence.apply_elems": "count",
    "recurrence.apply_s": "s",
    "measure_solution.build_calls": "count", "measure_solution.build_particle_steps": "count",
    "measure_solution.build_s": "s", "measure_solution.build_p50_us": "us",
    "measure_solution.build_p99_us": "us",
    "measure_solution.probe_calls": "count", "measure_solution.probe_s": "s",
    "measure_solution.check_calls": "count", "measure_solution.check_s": "s",
    "measure_solution.check_ok_ratio": "ratio",
    "random_measure.cylinder_calls": "count", "random_measure.cylinder_s": "s",
    "random_measure.cylinder_p99_us": "us", "random_measure.measures_built": "count",
    "random_measure.dist_eq_self_s": "s",
    "random_measure.ks_calls": "count", "random_measure.ks_s": "s",
    "diagnostics.suite_self_s": "s", "diagnostics.replicas": "count",
    "parallel.map_calls": "count", "parallel.items": "count", "parallel.map_s": "s",
    "parallel.busy_ratio": "ratio",
    "cli.import_s": "s", "cli.main_s": "s", "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------- invocations

@dataclass
class Invocation:
    wall_s: float = 0.0
    setup_s: float = 0.0
    import_s: float = 0.0
    main_s: float = 0.0
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    out_bytes: int = 0
    exit_code: int = -1
    digest: str = ""
    figures: dict | None = None
    error: str = ""


def scrubbed_digest(data: bytes) -> str:
    """SHA-256 of a report with its run timestamps blanked (as the CLI
    determinism acceptance test scrubs them)."""
    text = data.decode("utf-8")
    text = re.sub(r'"started_at": "[^"]*"', '"started_at": ""', text)
    text = re.sub(r'"finished_at": "[^"]*"', '"finished_at": ""', text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict_error(argv: tuple, code: int, data: bytes) -> str:
    """Check the report's own verdict against the exit code; return a message or ''.

    The statistical suites may legitimately fail at their fixed level on some
    seeds (exit code 1, recorded in the goldens); every other check is exact
    and must pass.
    """
    if argv[0] == "simulate":
        rows = data.count(b"\n")
        expected = int(argv[2]) + 3  # manifest, header, rows 0..steps
        if code != 0 or rows != expected:
            return f"simulate exit code {code}, {rows} lines (expected 0, {expected})"
        return ""
    payload = json.loads(data)
    passed = payload.get("passed")
    name = " ".join(argv)
    if code != (0 if passed is True else 1):
        return f"{name}: exit code {code} disagrees with passed={passed!r}"
    if passed is not True and not (argv[0] == "diagnose" and argv[1] in STATISTICAL):
        return f"{name}: exact check failed (passed={passed!r})"
    if argv[0] == "hopf-check" and not payload["max_residual"] <= HOPF_TOLERANCE:
        return f"{name}: max_residual {payload['max_residual']!r} > {HOPF_TOLERANCE}"
    return ""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(args: list, deadline: float):
    """Run one child to exit; return (spawn, exit, exit code, rusage, stderr)."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        spawned = clock()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=_child_env(), cwd=WORK)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], max(0.0, deadline - clock()))[0]:
                proc.kill()  # still unreaped, so the pid is still ours
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        exited = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return spawned, exited, proc.returncode, usage, err_path.read_text(errors="replace")[-2000:]


def warm_up(deadline: float) -> None:
    """Compile bytecode and fill the file cache; users do not pay this per run."""
    timing = WORK / "warmup.json"
    _, _, code, _, err = _spawn([str(timing), "--warmup"], deadline)
    if code != 0:
        raise SystemExit(f"perfbench: importing stochrec.cli failed:\n{err}")
    cli_file = Path(json.loads(timing.read_text())["cli_file"]).resolve()
    if SRC.resolve() not in cli_file.parents:
        raise SystemExit(f"perfbench: stochrec imported from {cli_file}, not from {SRC}")


def invoke(argv: tuple, seed: int, threads: int, index: int, traced: bool,
           deadline: float) -> Invocation:
    timing = WORK / f"timing-{index}.json"
    out = WORK / f"out-{index}"
    for path in (timing, out):
        path.unlink(missing_ok=True)
    args = [str(timing)]
    if traced:
        args += ["--spans", str(OUT / f"spans-{argv[0]}-{index}.json")]
    args += ["--", *argv, "--seed", str(seed), "--threads", str(threads), "--out", str(out)]
    spawned, exited, code, usage, err = _spawn(args, deadline)
    inv = Invocation(wall_s=exited - spawned, rss_mb=usage.ru_maxrss / 1024.0, exit_code=code,
                     cpu_s=usage.ru_utime + usage.ru_stime)
    if code not in (0, 1) or not timing.exists() or not out.exists():
        inv.error = f"{' '.join(argv)}: exit code {code}\n{err}"
        return inv
    record = json.loads(timing.read_text())
    inv.setup_s = record["import_end_ns"] * 1e-9 - spawned
    inv.import_s = (record["import_end_ns"] - record["import_start_ns"]) * 1e-9
    inv.main_s = (record["main_end_ns"] - record["main_start_ns"]) * 1e-9
    inv.figures = record.get("figures")
    data = out.read_bytes()
    inv.out_bytes = len(data)
    inv.digest = scrubbed_digest(data)
    inv.error = verdict_error(argv, code, data)
    return inv


# ---------------------------------------------------------------- passes

@dataclass
class Pass:
    traced: bool
    invocations: list

    def total(self, name: str) -> float:
        return sum(getattr(inv, name) for inv in self.invocations)

    @property
    def peak_rss_mb(self) -> float:
        return max(inv.rss_mb for inv in self.invocations)

    def counts(self) -> dict:
        """Exact work counts per process, for the repeat and expected checks."""
        out = {}
        for index, inv in enumerate(self.invocations):
            for group, fig in (inv.figures or {}).get("groups", {}).items():
                out[(index, group, "calls")] = fig["calls"]
                out[(index, group, "n")] = fig["n"]
        return out


def run_pass(workload: Workload, seed: int, traced: bool, references: list,
             deadline: float) -> Pass:
    invocations = []
    for index, argv in enumerate(workload.commands):
        inv = invoke(argv, seed, workload.threads, index, traced, deadline)
        if not inv.error:
            got = [inv.exit_code, inv.digest]
            if references[index] is None:
                references[index] = got
            elif got != references[index]:
                inv.error = (f"{' '.join(argv)}: exit code and payload digest {got} differ "
                             f"from {references[index]}")
        invocations.append(inv)
    return Pass(traced, invocations)


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(p: Pass) -> dict:
    """Per-layer figures of one traced pass, summed over its processes."""
    groups, durations = {}, {}
    busy = capacity = 0.0
    for inv in p.invocations:
        figures = inv.figures or {}
        for group, fig in figures.get("groups", {}).items():
            acc = groups.setdefault(group, dict.fromkeys(fig, 0))
            for key, value in fig.items():
                acc[key] += value
        for group, values in figures.get("durations_us", {}).items():
            durations.setdefault(group, []).extend(values)
        busy += figures.get("busy_s", 0.0)
        capacity += figures.get("capacity_s", 0.0)

    def g(group, key):
        return groups.get(group, {}).get(key, 0)

    return {
        "seeds.calls": g("seeds", "calls"),
        "seeds.draws": g("seeds", "n"),
        "seeds.s": g("seeds", "s"),
        "seeds.ns_per_draw": g("seeds", "s") * 1e9 / g("seeds", "n") if g("seeds", "n") else 0.0,
        "recurrence.window_calls": g("window", "calls"),
        "recurrence.window_s": g("window", "s"),
        "recurrence.apply_calls": g("apply", "calls"),
        "recurrence.apply_elems": g("apply", "n"),
        "recurrence.apply_s": g("apply", "s"),
        "measure_solution.build_calls": g("build", "calls"),
        "measure_solution.build_particle_steps": g("build", "n"),
        "measure_solution.build_s": g("build", "s"),
        "measure_solution.build_p50_us": _percentile(durations.get("build", []), 0.50),
        "measure_solution.build_p99_us": _percentile(durations.get("build", []), 0.99),
        "measure_solution.probe_calls": g("probe", "calls"),
        "measure_solution.probe_s": g("probe", "s"),
        "measure_solution.check_calls": g("check", "calls"),
        "measure_solution.check_s": g("check", "s"),
        # share of consistency/equivariance checks that held; 0 when none ran
        "measure_solution.check_ok_ratio":
            g("check", "n") / g("check", "calls") if g("check", "calls") else 0.0,
        "random_measure.cylinder_calls": g("cylinder", "calls"),
        "random_measure.cylinder_s": g("cylinder", "s"),
        "random_measure.cylinder_p99_us": _percentile(durations.get("cylinder", []), 0.99),
        "random_measure.measures_built": g("from_matrix", "calls"),
        "random_measure.dist_eq_self_s": g("dist_eq", "self_s"),
        "random_measure.ks_calls": g("ks", "calls"),
        "random_measure.ks_s": g("ks", "s"),
        "diagnostics.suite_self_s": g("suite", "self_s"),
        "diagnostics.replicas": g("dist_eq", "n"),
        "parallel.map_calls": g("map", "calls"),
        "parallel.items": g("item", "calls"),
        "parallel.map_s": g("map", "s"),
        "parallel.busy_ratio": busy / capacity if capacity else 0.0,
    }


def count_errors(workload: Workload, traced: list) -> list:
    """Counts must equal the ones derived from the sizes and repeat exactly."""
    errors = []
    first = traced[0].counts()
    for key, want in workload.expected.items():
        got = first.get(key, 0)
        if got != want:
            errors.append(f"count {key}: traced {got}, derived from sizes {want}")
    for number, p in enumerate(traced[1:], start=2):
        counts = p.counts()
        for key in sorted(set(first) | set(counts)):
            if first.get(key) != counts.get(key):
                errors.append(f"count {key}: pass 1 {first.get(key)}, pass {number} "
                              f"{counts.get(key)}")
    return errors


# ---------------------------------------------------------------- reporting

def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def environment(workload: str, seed: int, goldens: dict, golden_used: bool) -> dict:
    cpu_model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "computed_array_bytes": {"label": "computed from workload sizes, not measured",
                                 **WORKLOADS[workload].array_bytes},
        "seed": seed,
        "golden_seeds": sorted(int(s) for s in goldens.get("digests", {}).get(workload, {})
                               if int(s) != goldens.get("held_out_seed")),
        "held_out_seed": goldens.get("held_out_seed"),
        "golden": "checked against goldens.json" if golden_used
                  else "no golden for this seed: checked against the run's first pass",
    }


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def load_goldens() -> dict:
    try:
        return json.loads(GOLDENS.read_text())
    except FileNotFoundError:
        return {}


def prepare_dirs() -> None:
    if not (SRC / "stochrec" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no stochrec sources at {SRC / 'stochrec'}; "
                         "run from the root of a stochrec checkout")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    prepare_dirs()
    workload = WORKLOADS[args.workload]
    goldens = load_goldens()
    golden = goldens.get("digests", {}).get(args.workload, {}).get(str(args.seed))
    # per process: [exit code, scrubbed payload digest]
    references = list(golden) if golden else [None] * len(workload.commands)

    start = clock()
    deadline = start + RUN_LIMIT_S
    warm_up(deadline)
    measure_start = clock()
    plain, traced = [], []
    while True:
        round_start = clock()
        plain.append(run_pass(workload, args.seed, False, references, deadline))
        if args.trace:
            traced.append(run_pass(workload, args.seed, True, references, deadline))
        now = clock()
        if any(inv.error for p in plain + traced for inv in p.invocations):
            break
        enough = len(plain) >= (MIN_TRACED_PASSES if args.trace else MIN_PASSES)
        if enough and now - measure_start + (now - round_start) > args.seconds:
            break
        if now + (now - round_start) > deadline:
            break

    invocations = [inv for p in plain + traced for inv in p.invocations]
    errors = [inv.error for inv in invocations if inv.error]
    failed = len(errors)
    if args.trace and not failed:
        errors += count_errors(workload, traced)

    wall = [p.total("wall_s") for p in plain]
    if args.trace:
        layers = [layer_metrics(p) for p in traced]
        values = {name: _median([m[name] for m in layers]) for name in layers[0]}
        values["cli.import_s"] = _median([p.total("import_s") for p in plain])
        values["cli.main_s"] = _median([p.total("main_s") for p in plain])
        values["cli.out_bytes"] = _median([p.total("out_bytes") for p in plain])
        values["trace.overhead_s"] = _median([p.total("wall_s") for p in traced]) - _median(wall)
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": _median(wall),
            "setup_s": _median([p.total("setup_s") for p in plain]),
            "main_s": _median([p.total("main_s") for p in plain]),
            "peak_rss_mb": _median([p.peak_rss_mb for p in plain]),
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": not errors, "attempted": len(invocations), "failed": failed,
              "metrics": metrics}
    env = environment(args.workload, args.seed, goldens, bool(golden))

    for error in errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced, {len(traced)} traced  "
          f"({len(workload.commands)} process(es) per pass, medians over passes)")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6f} {metric['unit']}")
    ratio = failed / len(invocations)
    print(f"  {'fail_ratio':40s} {ratio:>16.6f} ratio  "
          f"({failed} of {len(invocations)} invocations failed)")
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    record = {"result": result, "fail_ratio": ratio, "environment": env, "errors": errors,
              "passes": [{"traced": p.traced,
                          "wall_s": [inv.wall_s for inv in p.invocations],
                          "setup_s": [inv.setup_s for inv in p.invocations],
                          "import_s": [inv.import_s for inv in p.invocations],
                          "main_s": [inv.main_s for inv in p.invocations],
                          "rss_mb": [inv.rss_mb for inv in p.invocations],
                          "cpu_s": [inv.cpu_s for inv in p.invocations],
                          "digests": [inv.digest for inv in p.invocations]}
                         for p in plain + traced]}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
