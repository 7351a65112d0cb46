#!/usr/bin/env python3
"""Record the answer digests that `run.py` compares every job against.

    python3 bench/record_reference.py --workload W [--seed N ...]

Runs the workload once per workload seed, untraced, and adds the digests to
`bench/reference/<workload>.json`; the answers do not depend on the run
seed. Record references only on code whose answers are trusted: the files in
this directory were recorded on the seed code of the repository. A seed
whose jobs fail is not recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "ladder", "falsify"))
    parser.add_argument(
        "--seed", type=int, nargs="+", default=[run.DEFAULT_SEED, run.SECOND_SEED]
    )
    args = parser.parse_args(argv)
    if not run.import_program():
        print("error: cannot import treechoice", file=sys.stderr)
        return 2
    import workloads
    from answers import check_pass

    path = run.reference_path(args.workload)
    path.parent.mkdir(exist_ok=True)
    recorded = json.loads(path.read_text()) if path.exists() else {}
    work = run.ROOT / ".bench_work" / "reference"
    status = 0
    try:
        for seed in args.seed:
            shutil.rmtree(work, ignore_errors=True)
            inputs = workloads.build_inputs(
                args.workload, seed, run.DEFAULT_SEED, work, smoke=False
            )
            inputs.write_files()
            results = run.run_pass(inputs.jobs)
            divergent = check_pass(results, inputs, None, None)
            failures = [f"{r.job.key}: {r.failure}" for r in results if r.failure]
            if failures:
                print(f"seed {seed}: not recorded", *failures[:20], sep="\n")
                status = 1
                continue
            recorded[str(seed)] = {
                "inputs": inputs.record,
                "divergent": divergent,
                "digests": {r.job.key: r.digest for r in results},
            }
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
            print(f"{args.workload} seed {seed}: {len(results)} digests, divergent {divergent}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    return status


if __name__ == "__main__":
    sys.exit(main())
