"""In-memory span tracer for one stochrec CLI process.

``install()`` wraps the public functions of each stochrec module under the
names that the calling modules look up (``cli.conditional_measure`` and
``measure_solution.conditional_measure`` are separate bindings, so both are
wrapped).  Every wrapped call records one span ``(id, name, parent, start,
end, n)`` in memory; ``n`` is the work the call did (draws, elements,
particle-steps) or 1.  Wrappers hand back the wrapped call's result object
unchanged, so a traced process writes the same payload as an untraced one;
the benchmark checks that by digest.

A name that a module no longer has is skipped, so the tracer keeps working
while the package is refactored; the layer it fed then reads zero.

At exit, ``Tracer.figures()`` folds the spans into per-group totals:

* ``calls``/``n``/``s`` count only outer spans, those with no ancestor in
  the same group (``hopf_lhs`` inside ``residual_report`` is not a second
  probe);
* ``self_s`` is, summed over the group's spans, each span's duration minus
  the part of its interval covered by its child spans.  Children started in
  worker threads are parented to the ``parallel.map`` span that launched
  them, and their intervals are merged, so overlap is not subtracted twice.
"""

import dataclasses
import functools
import itertools
import json
import threading
import time

import numpy as np

# span name -> group; the benchmark reports figures per group
GROUPS = {
    "seeds.draw_u64": "seeds",
    "seeds.draw_unit": "seeds",
    "seeds.draw_normal": "seeds",
    "recurrence.window": "window",
    "recurrence.apply": "apply",
    "measure_solution.conditional_measure": "build",
    "measure_solution.residual_report": "probe",
    "measure_solution.hopf_lhs": "probe",
    "measure_solution.hopf_rhs": "probe",
    "measure_solution.consistency_check": "check",
    "measure_solution.shift_equivariance_check": "check",
    "random_measure.cylinder_prob": "cylinder",
    "random_measure.from_matrix": "from_matrix",
    "random_measure.distributions_equal": "dist_eq",
    "random_measure.ks_2samp": "ks",
    "diagnostics.kstest": "ks",
    "diagnostics.suite": "suite",
    "parallel.map": "map",
    "parallel.item": "item",
}

# groups whose per-call durations are kept for percentiles
DURATION_GROUPS = ("build", "cylinder")

_SEED_FUNCS = ("draw_u64", "draw_unit", "draw_normal")
_SUITES = (
    "tsirelson_statistic",
    "tsirelson_samples",
    "conditional_char_statistic",
    "stationarity_suite",
    "rotation_invariance_demo",
    "conditional_law_demo",
)


def _size(args, kwargs, out):
    return int(np.size(out))


def _state_size(args, kwargs, out):
    return int(np.size(args[0]))


def _window_length(args, kwargs, out):
    return int(args[2] if len(args) > 2 else kwargs["length"])


def _particle_steps(args, kwargs, out):
    builder = args[0]
    lo, hi = builder.window
    return builder.particle_count * (hi - lo)


def _truth(args, kwargs, out):
    return 1 if out else 0


def _replica_pair(args, kwargs, out):
    replicas = args[3] if len(args) > 3 else kwargs["replicas"]
    return 2 * int(replicas)


class _StatsProxy:
    """Stand-in for a module's ``scipy.stats`` binding with traced KS calls."""

    def __init__(self, target, overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Spans of one process, kept in memory until :meth:`figures`."""

    def __init__(self):
        self.spans = []  # (sid, name, parent, t0_ns, t1_ns, n); list.append is atomic
        self.workers = {}  # parallel.map span id -> worker threads it could use
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            n = 1 if count is None else count(args, kwargs, out)
            spans.append((sid, name, parent, t0, t1, n))
            return out

        return traced

    def wrap_map(self, map_indexed):
        """Trace ``map_indexed`` and each item it runs, in whichever thread."""
        stack_of = self._stack

        def run(fn, count, threads=1):
            map_sid = stack_of()[-1]
            if threads <= 1 or count <= 1:
                self.workers[map_sid] = 1
            else:
                step = -(-count // threads)
                self.workers[map_sid] = -(-count // step)
            item = self.wrap("parallel.item", fn)

            def rooted(i):
                stack = stack_of()
                if stack:
                    return item(i)
                # a worker thread: its spans belong under the map span
                stack.append(map_sid)
                try:
                    return item(i)
                finally:
                    stack.pop()

            return map_indexed(rooted, count, threads)

        return self.wrap("parallel.map", run, count=lambda a, k, out: len(out))

    def figures(self) -> dict:
        """Per-group totals: outer calls, work, time, and self time."""
        info = {sid: (GROUPS[name], parent) for sid, name, parent, _, _, _ in self.spans}
        children = {}
        for sid, _, parent, t0, t1, _ in self.spans:
            children.setdefault(parent, []).append((t0, t1))

        groups = {}
        durations = {g: [] for g in DURATION_GROUPS}
        busy_ns = capacity_ns = 0
        for sid, name, parent, t0, t1, n in self.spans:
            group = info[sid][0]
            fig = groups.setdefault(group, {"calls": 0, "n": 0, "s": 0.0, "self_s": 0.0})
            covered = 0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            fig["self_s"] += (t1 - t0 - covered) * 1e-9
            if group == "item":
                busy_ns += t1 - t0
            elif group == "map":
                capacity_ns += (t1 - t0) * self.workers[sid]
            up = parent
            while up and info[up][0] != group:
                up = info[up][1]
            if up:
                continue
            fig["calls"] += 1
            fig["n"] += n
            fig["s"] += (t1 - t0) * 1e-9
            if group in durations:
                durations[group].append((t1 - t0) * 1e-3)
        return {
            "groups": groups,
            "durations_us": durations,
            "busy_s": busy_ns * 1e-9,
            "capacity_s": capacity_ns * 1e-9,
        }

    def dump(self, path: str) -> None:
        """Write the raw spans: names table plus one row per span."""
        names = sorted({s[1] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[sid, index[name], parent, t0, t1, n] for sid, name, parent, t0, t1, n in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "parent", "start_ns", "end_ns", "n"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def _wrap_names(tracer, module, prefix, names, count=None):
    for name in names:
        fn = getattr(module, name, None)
        if callable(fn):
            setattr(module, name, tracer.wrap(f"{prefix}.{name}", fn, count))


def install(modules: dict) -> Tracer:
    """Wrap the layer boundaries of the already-imported stochrec modules.

    ``modules`` maps short module names (``"cli"``, ``"seeds"``, ...) to
    module objects; missing entries are skipped.
    """
    tracer = Tracer()
    get = modules.get

    callers = [get(m) for m in ("cli", "recurrence", "measure_solution",
                                "random_measure", "diagnostics")]
    for module in filter(None, callers):
        _wrap_names(tracer, module, "seeds", _SEED_FUNCS, _size)

    recurrence = get("recurrence")
    model = getattr(recurrence, "NoiseModel", None)
    if model is not None and hasattr(model, "window"):
        model.window = tracer.wrap("recurrence.window", model.window, _window_length)

    cli = get("cli")
    parse_map = getattr(cli, "update_map_from_name", None)
    if parse_map is not None:
        def traced_map(text):
            update_map = parse_map(text)
            apply = tracer.wrap("recurrence.apply", update_map.apply, _state_size)
            return dataclasses.replace(update_map, apply=apply)

        cli.update_map_from_name = traced_map

    ms = get("measure_solution")
    for module in filter(None, (cli, ms)):
        _wrap_names(tracer, module, "measure_solution", ["conditional_measure"], _particle_steps)
    if cli is not None:
        _wrap_names(tracer, cli, "measure_solution", ["residual_report"])
        _wrap_names(tracer, cli, "measure_solution",
                    ["consistency_check", "shift_equivariance_check"], _truth)
    if ms is not None:
        _wrap_names(tracer, ms, "measure_solution", ["hopf_lhs", "hopf_rhs"])

    rm = get("random_measure")
    if rm is not None:
        _wrap_names(tracer, rm, "random_measure", ["cylinder_prob"])
        pm = getattr(rm, "ParticleMeasure", None)
        raw = getattr(pm, "__dict__", {}).get("from_matrix")
        if isinstance(raw, classmethod):
            pm.from_matrix = classmethod(tracer.wrap("random_measure.from_matrix", raw.__func__))
    diag = get("diagnostics")
    for module in filter(None, (cli, diag)):
        _wrap_names(tracer, module, "random_measure", ["distributions_equal"], _replica_pair)
    for module, prefix, name in ((rm, "random_measure", "ks_2samp"),
                                 (diag, "diagnostics", "kstest")):
        stats = getattr(module, "_sps", None)
        if stats is not None and hasattr(stats, name):
            traced = tracer.wrap(f"{prefix}.{name}", getattr(stats, name))
            module._sps = _StatsProxy(stats, {name: traced})

    if cli is not None:
        for name in _SUITES:
            fn = getattr(cli, name, None)
            if callable(fn):
                setattr(cli, name, tracer.wrap("diagnostics.suite", fn))

    for module in filter(None, (rm, diag)):
        fn = getattr(module, "map_indexed", None)
        if callable(fn):
            module.map_indexed = tracer.wrap_map(fn)
    return tracer
