"""Before/after benchmark record: alternating runs of two checkouts.

Runs ``perfbench/run.py`` in a base checkout and in a changed checkout,
in pairs that share a seed and run back to back, base first in odd pairs and
change first in even ones, so that a drift in machine speed hits both sides
alike. Optionally also runs
``perfbench/reference.py`` (the timed acceptance suite and README examples)
once on each side. Before the first pair, both checkouts' ``src`` and
``perfbench`` are byte-compiled afresh with the running interpreter, so that
neither side starts faster for holding a bytecode cache the other lacks.
Writes one JSON document. Usage (stdlib only):

    python3 bench/pairs.py --base PARENT_DIR --change . \\
        --runs bias-cv-p3=10 --runs entropy-risk-p10=1 --traced bias-cv-p3=1 \\
        --reference --out BENCH_N.json

``--runs W=K`` runs K untraced pairs of workload W at seeds 1..K;
``--traced W=K`` runs K pairs with ``--trace 1`` (per-layer metrics).
The summary gives, per workload and end-to-end metric, the median and
interquartile range of each side and the number of pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BETTER = {"reps_per_s": "higher", "time_to_se_s": "lower", "setup_s": "lower",
          "peak_rss_mb": "lower", "ok_ratio": "higher"}


def run_stdout(checkout: Path, argv: list[str]) -> str:
    return subprocess.run([sys.executable, *argv], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout


def fresh_bytecode(checkout: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "-f", "src", "perfbench"],
                   cwd=checkout, check=True)


def bench_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    *_, report, result = map(json.loads, run_stdout(checkout, argv).splitlines())
    return {"seed": seed, "trace": trace, "environment": report["report"]["environment"],
            "determinism": report["report"]["determinism"], "result": result}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(pairs: list[dict]) -> dict:
    out = {}
    for metric, better in BETTER.items():
        base = [p["base"]["result"]["metrics"][metric]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][metric]["value"] for p in pairs]
        bq, cq = quartiles(base), quartiles(change)
        wins = sum((c > b) if better == "higher" else (c < b) for b, c in zip(base, change))
        out[metric] = {"better": better, "base_median": bq[1], "base_iqr": bq[2] - bq[0],
                       "change_median": cq[1], "change_iqr": cq[2] - cq[0],
                       "change_wins": wins, "pairs": len(pairs)}
    return out


def parse_counts(specs: list[str]) -> list[tuple[str, int]]:
    counts = []
    for spec in specs:
        name, _, k = spec.partition("=")
        counts.append((name, int(k or 1)))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout before the change")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--runs", action="append", default=[], metavar="WORKLOAD=PAIRS")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD=PAIRS")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--reference", action="store_true", help="also run perfbench/reference.py")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    for path in sides.values():
        fresh_bytecode(path)

    doc = {"seconds": args.seconds, "workloads": {}, "traced": {}}
    for key, trace, specs in (("workloads", 0, args.runs), ("traced", 1, args.traced)):
        for workload, k in parse_counts(specs):
            pairs = []
            for seed in range(1, k + 1):
                order = list(sides.items())[:: 1 if seed % 2 else -1]
                pairs.append({side: bench_once(path, workload, seed, args.seconds, trace)
                              for side, path in order})
                print(f"{workload} trace={trace} seed={seed} done", file=sys.stderr)
            entry = {"pairs": pairs}
            if not trace:
                entry["summary"] = summarise(pairs)
            doc[key][workload] = entry
    if args.reference:
        doc["reference"] = {}
        for side, path in sides.items():
            report = json.loads(run_stdout(path, ["perfbench/reference.py"]))
            doc["reference"][side] = report
            doc.setdefault("environment", report["environment"])
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
