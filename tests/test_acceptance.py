"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  All tolerances are fixed here; the master seed is an arbitrary
frozen constant.
"""

import json
import math
import re
import time

import numpy as np
from scipy import stats as sps

from stochrec.cli import main as cli_main
from stochrec.diagnostics import (
    DiagnosticsConfig,
    conditional_char_statistic,
    conditional_law_demo,
    default_cylinder_family,
    rotation_flow,
    rotation_invariance_demo,
    stationarity_suite,
    tsirelson_statistic,
    RotationState,
)
from stochrec.measure_solution import (
    MeasureBuilder,
    char_spec_grid,
    conditional_measure,
    consistency_check,
    hopf_residual,
    perturb_last_coordinate,
    random_char_specs,
    shift_equivariance_check,
)
from stochrec.path_space import Window, SampledFunction, traj_metric
from stochrec.random_measure import ks_one_sample_threshold
from stochrec.recurrence import NoiseModel, contraction_map, fractional_map
from stochrec.seeds import draw_u64, draw_unit, substream

ACCEPTANCE_SEED = 20260810


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"{status} criterion {num:2d}: {description}{tail}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def _stream(tag: str) -> int:
    return substream(ACCEPTANCE_SEED, tag)


def test_criterion_01_hopf_identity():
    window = (0, 15)
    builder = MeasureBuilder(
        update_map=fractional_map(),
        particle_count=10_000,
        window=window,
        init_seed_stream=_stream("c1-init"),
    )
    noise = NoiseModel(seed=_stream("c1-noise")).window(1, 15)
    specs = char_spec_grid(window) + random_char_specs(window, 32, _stream("c1-specs"))

    start = time.perf_counter()
    mu = conditional_measure(builder, noise)
    worst = max(hopf_residual(mu, noise, s, builder.update_map) for s in specs)
    elapsed = time.perf_counter() - start

    perturbed = perturb_last_coordinate(mu, _stream("c1-perturb"))
    worst_perturbed = max(
        hopf_residual(perturbed, noise, s, builder.update_map) for s in specs
    )
    ok = worst <= 1e-9 and elapsed < 2.0 and worst_perturbed > 0.01
    _criterion(
        1,
        "characteristic-functional identity on the constructed measure",
        ok,
        f"max residual {worst:.3e}, perturbed {worst_perturbed:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_consistency():
    window = (0, 12)
    split = 6
    builder = MeasureBuilder(
        update_map=fractional_map(),
        particle_count=200,
        window=window,
        init_seed_stream=_stream("c2-init"),
    )
    past_root = _stream("c2-past")
    future_root = _stream("c2-future")
    start = time.perf_counter()
    all_ok = True
    for pair in range(100):
        past = NoiseModel(seed=int(draw_u64(past_root, pair))).window(1, split)
        fut_a = NoiseModel(seed=int(draw_u64(future_root, 2 * pair))).window(
            split + 1, window[1] - split
        )
        fut_b = NoiseModel(seed=int(draw_u64(future_root, 2 * pair + 1))).window(
            split + 1, window[1] - split
        )
        noise_a = Window(offset=1, values=np.concatenate([past.values, fut_a.values]))
        noise_b = Window(offset=1, values=np.concatenate([past.values, fut_b.values]))
        all_ok = all_ok and consistency_check(builder, noise_a, noise_b, split)
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 1.0
    _criterion(
        2,
        "past coordinates bit-exact across 100 shared-history noise pairs",
        ok,
        f"{elapsed:.2f}s",
    )


def test_criterion_03_shift_equivariance():
    builder = MeasureBuilder(
        update_map=fractional_map(),
        particle_count=500,
        window=(0, 12),
        init_seed_stream=_stream("c3-init"),
    )
    noise = NoiseModel(seed=_stream("c3-noise")).window(1, 12)
    results = {t: shift_equivariance_check(builder, noise, t, atol=1e-12) for t in (1, 2, 5)}
    _criterion(
        3,
        "seed-matched translation equivariance at 1e-12 for t in {1, 2, 5}",
        all(results.values()),
        f"{results}",
    )


def test_criterion_04_tsirelson_statistic():
    start = time.perf_counter()
    unconditional = tsirelson_statistic(
        DiagnosticsConfig(
            sample_size=100_000,
            particle_count=10_000,
            alpha=0.01,
            seed=_stream("c4"),
            window=(0, 8),
        ),
        5,
    )
    conditional = conditional_char_statistic(
        DiagnosticsConfig(
            sample_size=100,
            particle_count=10_000,
            alpha=0.01,
            seed=_stream("c4-cond"),
            window=(0, 8),
        ),
        5,
        noise_paths=10,
    )
    elapsed = time.perf_counter() - start
    ok = (
        unconditional.passed
        and unconditional.threshold == 5.0 / math.sqrt(100_000)
        and conditional.passed
        and conditional.threshold == 5.0 / math.sqrt(10_000)
        and elapsed < 5.0
    )
    _criterion(
        4,
        "circle-map statistic vanishes, unconditionally and per frozen noise",
        ok,
        f"{unconditional.statistic:.2e} <= {unconditional.threshold:.2e}, "
        f"cond {conditional.statistic:.2e} <= {conditional.threshold:.2e}, {elapsed:.2f}s",
    )


def test_criterion_05_strong_solution_contrast():
    collapse_builder = MeasureBuilder(
        update_map=contraction_map(0.5),
        particle_count=1000,
        window=(0, 40),
        init_seed_stream=_stream("c5-init"),
    )
    noise = NoiseModel(seed=_stream("c5-noise")).window(1, 40)
    collapsed = conditional_measure(collapse_builder, noise)
    spread_at_40 = float(np.std(collapsed.column(40)))

    spread_builder = MeasureBuilder(
        update_map=fractional_map(),
        particle_count=1000,
        window=(0, 12),
        init_seed_stream=_stream("c5-frac-init"),
    )
    frac_noise = NoiseModel(seed=_stream("c5-frac-noise")).window(1, 12)
    mu = conditional_measure(spread_builder, frac_noise)
    spreads = [float(np.std(mu.column(d))) for d in range(1, 13)]
    ok = spread_at_40 <= 1e-9 and min(spreads) >= 0.2
    _criterion(
        5,
        "contracting ensemble collapses; circle-map ensemble stays spread",
        ok,
        f"collapse {spread_at_40:.2e}, min spread {min(spreads):.3f}",
    )


def test_criterion_06_uniform_marginal():
    # 100 frozen noise paths x 100 initializer draws, pooled: coordinate 5
    noise_root = _stream("c6-noise")
    init_root = _stream("c6-init")
    pooled = []
    fm = fractional_map()
    for p in range(100):
        noise = NoiseModel(seed=int(draw_u64(noise_root, p))).window(1, 5)
        etas = draw_unit(draw_u64(int(draw_u64(init_root, p)), np.arange(100)), 0)
        x = etas
        for k in range(1, 6):
            x = fm.apply(x, noise.coordinate(k))
        pooled.append(x)
    pooled = np.concatenate(pooled)
    statistic = float(sps.kstest(pooled, "uniform").statistic)
    threshold = ks_one_sample_threshold(0.01, pooled.size)
    ok = pooled.size == 10_000 and statistic < threshold
    _criterion(
        6,
        "pooled coordinate-5 marginal is uniform on [0, 1)",
        ok,
        f"KS {statistic:.4f} < {threshold:.4f} at n=10^4",
    )


def test_criterion_07_stationarity():
    window = (0, 12)
    config = DiagnosticsConfig(
        sample_size=1000,
        particle_count=200,
        alpha=0.01,
        seed=_stream("c7"),
        window=window,
    )
    builder = MeasureBuilder(
        update_map=fractional_map(),
        particle_count=200,
        window=window,
        init_seed_stream=_stream("c7-init"),
    )
    deltas = default_cylinder_family(window, max_shift=5)
    reports = stationarity_suite(builder, [1, 2, 5], deltas, config)

    transient = MeasureBuilder(
        update_map=contraction_map(0.5),
        particle_count=200,
        window=(0, 8),
        init_seed_stream=_stream("c7-neg-init"),
        init_bounds=(0.0, 0.5),
    )
    neg_config = DiagnosticsConfig(
        sample_size=1000,
        particle_count=200,
        alpha=0.01,
        seed=_stream("c7-neg"),
        window=(0, 8),
    )
    neg_reports = stationarity_suite(
        transient, [1], default_cylinder_family((0, 8), 1), neg_config
    )
    ok = all(r.passed for r in reports) and any(not r.passed for r in neg_reports)
    _criterion(
        7,
        "conditional-measure sampler matches its translates in distribution",
        ok,
        "; ".join(f"{r.test_name} D={r.statistic:.3f}<{r.threshold:.3f}" for r in reports)
        + f"; negative control D={neg_reports[0].statistic:.3f}",
    )


def test_criterion_08_rotation_demo():
    config = DiagnosticsConfig(
        sample_size=100_000,
        particle_count=1,
        alpha=0.01,
        seed=_stream("c8"),
        window=(0, 2),
    )
    report = rotation_invariance_demo(config, math.pi / 3)

    rng = np.random.default_rng(ACCEPTANCE_SEED)
    flow_ok = True
    for _ in range(200):
        x1, x2, a, b = rng.uniform(-5, 5, size=4)
        state = RotationState(x1, x2)
        two = rotation_flow(rotation_flow(state, a), b)
        one = rotation_flow(state, a + b)
        flow_ok = flow_ok and abs(two.x1 - one.x1) <= 1e-12 and abs(two.x2 - one.x2) <= 1e-12
        flow_ok = flow_ok and abs(rotation_flow(state, a).norm - state.norm) <= 1e-12
    ok = report.passed and flow_ok
    _criterion(
        8,
        "Gaussian mass invariant under rotation; flow is an exact group",
        ok,
        f"moment statistic {report.statistic:.2e} <= {report.threshold:.2e}",
    )


def test_criterion_09_conditional_law():
    config = DiagnosticsConfig(
        sample_size=100,
        particle_count=10_000,
        alpha=0.01,
        seed=_stream("c9"),
        window=(0, 9),
    )
    report = conditional_law_demo(0.8, 0.5, config)
    _criterion(
        9,
        "empirical conditional law matches the closed-form Gaussian oracle",
        report.passed,
        f"KS {report.statistic:.4f} < {report.threshold:.4f}",
    )


def test_criterion_10_metric():
    times = tuple(float(t) for t in range(-21, 22))
    zero = SampledFunction(times=times, values=(0.0,) * len(times))
    one = SampledFunction(times=times, values=(1.0,) * len(times))
    value, _ = traj_metric(zero, one, 20)
    exact = abs(value - 0.5 * (1.0 - 2.0**-20)) <= 1e-12

    rng = np.random.default_rng(ACCEPTANCE_SEED + 1)
    axioms_ok = True
    short_times = tuple(float(t) for t in range(-11, 12))
    for _ in range(1000):
        fv, gv, hv = rng.normal(size=(3, len(short_times))) * 2.0
        f = SampledFunction(times=short_times, values=tuple(fv))
        g = SampledFunction(times=short_times, values=tuple(gv))
        h = SampledFunction(times=short_times, values=tuple(hv))
        dfg = traj_metric(f, g, 10).value
        axioms_ok = axioms_ok and dfg == traj_metric(g, f, 10).value
        axioms_ok = axioms_ok and (
            traj_metric(f, h, 10).value <= dfg + traj_metric(g, h, 10).value + 1e-12
        )
    ok = exact and axioms_ok
    _criterion(
        10,
        "metric closed form at K=20; symmetry and triangle on 10^3 triples",
        ok,
        f"value deviation {abs(value - 0.5 * (1.0 - 2.0**-20)):.1e}",
    )


def _scrubbed(path) -> str:
    text = path.read_text(encoding="utf-8")
    text = re.sub(r'"started_at": "[^"]*"', '"started_at": ""', text)
    return re.sub(r'"finished_at": "[^"]*"', '"finished_at": ""', text)


def test_criterion_11_cli_determinism(tmp_path):
    runs = {
        "simulate": ["simulate", "fractional", "20", "--seed", "13"],
        "hopf": ["hopf-check", "fractional", "--particles", "1000", "--window", "8",
                 "--specs", "8", "--seed", "13"],
        "diagnose": ["diagnose", "tsirelson", "--n", "2000", "--particles", "500",
                     "--seed", "13"],
    }
    ok = True
    detail = []
    for name, args in runs.items():
        payloads = []
        for threads, label in (("1", "a"), ("1", "b"), ("3", "c")):
            out = tmp_path / f"{name}_{label}.out"
            code = cli_main(args + ["--threads", threads, "--out", str(out)])
            ok = ok and code == 0
            payloads.append(_scrubbed(out))
        identical = payloads[0] == payloads[1] == payloads[2]
        ok = ok and identical
        detail.append(f"{name}:{'=' if identical else '!='}")
    _criterion(
        11,
        "CLI payloads byte-identical across repeats and thread counts",
        ok,
        " ".join(detail),
    )


def test_acceptance_seed_is_frozen():
    # guards against accidental edits; the constant itself is arbitrary
    assert ACCEPTANCE_SEED == 20260810
    assert json.dumps({"seed": ACCEPTANCE_SEED}) == '{"seed": 20260810}'
