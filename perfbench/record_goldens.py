"""Record the golden exit codes and payload digests of every workload.

    python3 perfbench/record_goldens.py <first seed> <last seed> --held-out <seed>

Run from the root of a checkout.  Runs one untraced pass of every workload
for each seed, applies the benchmark's verdict checks, and writes
``perfbench/goldens.json``: per workload and seed, one ``[exit code,
digest]`` pair per process, the digest being the SHA-256 of the report with
``started_at``/``finished_at`` blanked.  The held-out seed is recorded too,
but is meant to be left alone while a speed claim is developed and used only
to check it afterwards.

Payloads are meant to stay byte-identical across refactors, so re-record
only for a change that is meant to alter them, and say so in CHANGES.md.
"""

import argparse
import json

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    parser.add_argument("--held-out", type=int, required=True)
    args = parser.parse_args()

    run.prepare_dirs()
    seeds = list(range(args.first, args.last + 1))
    if args.held_out in seeds:
        parser.error("the held-out seed must lie outside the recorded range")
    run.warm_up(run.clock() + 60)
    digests = {}
    for seed in seeds + [args.held_out]:
        for name, workload in run.WORKLOADS.items():
            references = [None] * len(workload.commands)
            p = run.run_pass(workload, seed, False, references, run.clock() + 300)
            errors = [inv.error for inv in p.invocations if inv.error]
            if errors:
                raise SystemExit(f"seed {seed} {name}: " + "; ".join(errors))
            digests.setdefault(name, {})[str(seed)] = references
            print(f"seed {seed} {name}: exit codes {[r[0] for r in references]}", flush=True)
    goldens = {"held_out_seed": args.held_out, "digests": digests}
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
