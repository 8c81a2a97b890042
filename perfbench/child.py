"""Run one cold stochrec CLI invocation in this process and record its timing.

    python3 child.py <timing.json> [--spans <spans.json>] -- <cli args...>

Writes the CLOCK_MONOTONIC instants (ns) around ``import stochrec.cli`` and
``cli.main(argv)`` to ``timing.json``; the parent, which shares the clock,
adds the spawn and exit instants.  With ``--spans`` the layer boundaries are
traced (see ``spans.py``), the raw spans go to that file and the per-group
figures into ``timing.json``.  ``--warmup`` instead of ``--`` only imports.
Exits with the CLI's exit code.
"""

import sys
import time

_MONO = time.CLOCK_MONOTONIC
import_start = time.clock_gettime_ns(_MONO)
import stochrec.cli as cli  # noqa: E402  (the import is what is being timed)
import_end = time.clock_gettime_ns(_MONO)

import json  # noqa: E402


def _main() -> int:
    timing_path = sys.argv[1]
    rest = sys.argv[2:]
    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    record = {"import_start_ns": import_start, "import_end_ns": import_end,
              "cli_file": cli.__file__}
    if rest[:1] == ["--warmup"]:
        code = 0
    else:
        if rest[:1] != ["--"]:
            raise SystemExit("usage: child.py <timing.json> [--spans <path>] -- <cli args>")
        tracer = None
        if spans_path is not None:
            import spans

            tracer = spans.install({name: sys.modules.get(f"stochrec.{name}") for name in (
                "cli", "seeds", "recurrence", "measure_solution", "random_measure",
                "diagnostics")})
        record["main_start_ns"] = time.clock_gettime_ns(_MONO)
        code = cli.main(rest[1:])
        record["main_end_ns"] = time.clock_gettime_ns(_MONO)
        if tracer is not None:
            record["figures"] = tracer.figures()
            tracer.dump(spans_path)
    record["exit_code"] = code
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(_main())
