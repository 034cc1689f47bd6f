"""One-shot reference report: every acceptance criterion and README example, timed.

This is the end-to-end definition of the repository's speed: the wall time
and pass/fail of each of the 10 acceptance criteria, and of each README
command-line example at its README size. It takes minutes, so it is kept
out of the repeated benchmark runs. Usage (from the root of a checkout):

    python3 perfbench/reference.py [--out FILE]

Prints one JSON document and, with ``--out``, also writes it to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

from run import PIN_VARS, environment

# README "Command line" examples at their README sizes. ``verify`` is the
# acceptance suite itself, reported as the sum of the criteria below.
README_EXAMPLES = (
    ["bias", "--spectrum", "uniform10", "--n", "30", "--reps", "10000", "--seed", "42"],
    ["risk", "--table2", "--reps", "10000", "--seed", "7"],
    ["dimension", "--case", "1", "--n", "30", "--reps", "10000", "--seed", "9"],
    ["invariance", "--spectrum", "0.4,0.3,0.15,0.1,0.05", "--n", "20", "--nu", "5", "--reps", "5000"],
    ["stein-haff", "--spectrum", "table2:5", "--n", "30", "--reps", "100000", "--q", "1"],
    ["weights", "--p", "10", "--n", "30", "--q", "1"],
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="also write the report to this file")
    args = parser.parse_args(argv)
    for var in PIN_VARS:
        os.environ[var] = "1"
    import importlib

    import workloads

    program = workloads.import_program()
    acceptance = importlib.import_module("spectra_shrink.acceptance")
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)

    criteria = []
    for criterion in acceptance.CRITERIA:
        start = time.perf_counter()
        result = criterion()
        criteria.append({"name": result.name, "passed": result.passed,
                         "wall_s": time.perf_counter() - start, "details": result.details})

    examples = []
    for k, argv_k in enumerate(README_EXAMPLES):
        if argv_k[0] != "weights":
            argv_k = argv_k + ["--out", str(workloads.OUT_DIR / f"reference-{k}.csv")]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = program.cli.main(argv_k)
        examples.append({"argv": ["spectra-shrink", *argv_k], "passed": code == 0,
                         "exit_code": code, "wall_s": time.perf_counter() - start})
    examples.append({"argv": ["spectra-shrink", "verify"],
                     "passed": all(c["passed"] for c in criteria),
                     "wall_s": sum(c["wall_s"] for c in criteria),
                     "note": "sum of the acceptance criteria above"})

    report = json.dumps({"environment": environment(seed=None, jobs=1),
                         "acceptance": criteria, "readme_examples": examples}, indent=1)
    print(report)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    return 0 if all(e["passed"] for e in examples) else 1


if __name__ == "__main__":
    sys.exit(main())
