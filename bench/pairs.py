"""Before/after benchmark record: alternating runs of two checkouts.

Runs ``perfbench/run.py`` in a base checkout and in a changed checkout,
in pairs that share a seed and run back to back, base first in odd pairs and
change first in even ones, so that a drift in machine speed hits both sides
alike. Optionally also runs ``perfbench/reference.py`` (the timed acceptance
suite and README examples) in pairs, alternating the first side in the same
way. Before the first pair, both checkouts' ``src`` and ``perfbench`` are
byte-compiled afresh with the running interpreter, so that neither side
starts faster for holding a bytecode cache the other lacks.
Writes one JSON document. Usage (stdlib only):

    python3 bench/pairs.py --base PARENT_DIR --change . \\
        --runs bias-cv-p3=10 --runs entropy-risk-p10=1 --traced bias-cv-p3=1 \\
        --reference 2 --out BENCH_N.json

``--runs W=K`` runs K untraced pairs of workload W at seeds 1..K;
``--traced W=K`` runs K pairs with ``--trace 1`` (per-layer metrics).
The summary gives, per workload and end-to-end metric, the median and
interquartile range of each side, the number of pairs the change won, and a
verdict against the metric's bound in ``BENCHMARK.json`` (see ``verdict``).
Each run also keeps the median of its raw (uncalibrated) operation times
``op_s`` and of its calibration kernel times ``kernel_s``, and the summary
gives their per-side medians as ``raw_op_s`` and ``raw_kernel_s``: a
calibrated gain with raw op times flat is the kernel's, not the code's.
``raw_kernel_s`` also gets a verdict (see ``kernel_verdict``): a calibrated
claim is void when the kernel moved.
``--reference K`` (a bare ``--reference`` is K = 1) keeps every reference
report and gives, per acceptance criterion and README example, each side's
median wall time over the K pairs and whether every run passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Each end-to-end metric's better direction and bound, from the benchmark's declaration.
END_TO_END = {m["name"]: (m["better"], m["bound"]) for m in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}


def run_stdout(checkout: Path, argv: list[str]) -> str:
    return subprocess.run([sys.executable, *argv], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout


def fresh_bytecode(checkout: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "-f", "src", "perfbench"],
                   cwd=checkout, check=True)


def median_or_none(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def bench_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    *_, report, result = map(json.loads, run_stdout(checkout, argv).splitlines())
    untraced = report["report"]["phases"][0]
    return {"seed": seed, "trace": trace, "environment": report["report"]["environment"],
            "determinism": report["report"]["determinism"], "result": result,
            # A threaded workload runs uncalibrated: its kernel_s is empty.
            "raw_op_s": median_or_none(untraced["op_s"]),
            "raw_kernel_s": median_or_none(untraced["kernel_s"])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(entry: dict, bound: float, base: list[float], change: list[float]) -> str:
    """The change's standing on one metric: the first of these rules that applies.

    Fewer than 10 pairs leave it "unresolved". It is "better" when the change
    won at least 9/10 of the pairs and its median beats the base median by
    more than the base IQR. A base IQR above ``bound`` times the base median
    leaves it "unresolved", unless every change run beats every base run. It
    is "worse" when the change median is worse than the base median by more
    than ``bound`` times the base median, and "within bound" otherwise.
    """
    sign = 1.0 if entry["better"] == "higher" else -1.0
    pairs, base_median, iqr = entry["pairs"], entry["base_median"], entry["base_iqr"]
    gain = sign * (entry["change_median"] - base_median)
    if pairs < 10:
        return "unresolved"
    if 10 * entry["change_wins"] >= 9 * pairs and gain > iqr:
        return "better"
    if iqr > bound * base_median and not all(sign * (c - b) > 0 for b in base for c in change):
        return "unresolved"
    if -gain > bound * base_median:
        return "worse"
    return "within bound"


def kernel_verdict(base: list[float], change: list[float]) -> str:
    """Whether the calibration kernel kept its speed from the base runs to the change runs.

    The values are each run's median kernel time. Fewer than 10 on either
    side leave it "unresolved" (a threaded workload has none). It is
    "shifted" when the two sides' medians differ by more than the base IQR,
    and "steady" otherwise.
    """
    if min(len(base), len(change)) < 10:
        return "unresolved"
    q1, median, q3 = quartiles(base)
    return "shifted" if abs(statistics.median(change) - median) > q3 - q1 else "steady"


def summarise(pairs: list[dict]) -> dict:
    out = {}
    for metric, (better, bound) in END_TO_END.items():
        base = [p["base"]["result"]["metrics"][metric]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][metric]["value"] for p in pairs]
        bq, cq = quartiles(base), quartiles(change)
        wins = sum((c > b) if better == "higher" else (c < b) for b, c in zip(base, change))
        entry = out[metric] = {"better": better, "base_median": bq[1], "base_iqr": bq[2] - bq[0],
                               "change_median": cq[1], "change_iqr": cq[2] - cq[0],
                               "change_wins": wins, "pairs": len(pairs)}
        entry["verdict"] = verdict(entry, bound, base, change)
    raw = {name: {side: [p[side][name] for p in pairs if p[side][name] is not None]
                  for side in ("base", "change")} for name in ("raw_op_s", "raw_kernel_s")}
    for name, values in raw.items():
        out[name] = {f"{side}_median": median_or_none(v) for side, v in values.items()}
    out["raw_kernel_s"]["verdict"] = kernel_verdict(**raw["raw_kernel_s"])
    return out


def summarise_reference(pairs: list[dict]) -> dict:
    """Per acceptance criterion and README example: each side's median wall time and its pass."""
    out = {}
    for section in ("acceptance", "readme_examples"):
        for i, item in enumerate(pairs[0]["base"][section]):
            key = item["name"] if section == "acceptance" else " ".join(item["argv"])
            entry = out[key] = {}
            for side in ("base", "change"):
                runs = [p[side][section][i] for p in pairs]
                entry[f"{side}_median_s"] = statistics.median(r["wall_s"] for r in runs)
                entry[f"{side}_passed"] = all(r["passed"] for r in runs)
    return out


def ordered(sides: dict, k: int) -> list[tuple[str, Path]]:
    """The sides in run order for pair k, counted from 1: base first when k is odd."""
    return list(sides.items())[:: 1 if k % 2 else -1]


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
    parser.add_argument("--reference", type=int, nargs="?", const=1, default=0, metavar="K",
                        help="also run K pairs of perfbench/reference.py (a bare --reference: 1)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.reference < 0:
        parser.error(f"--reference needs a pair count >= 0, got {args.reference}")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    for path in sides.values():
        fresh_bytecode(path)

    doc = {"seconds": args.seconds, "workloads": {}, "traced": {}}
    for key, trace, specs in (("workloads", 0, args.runs), ("traced", 1, args.traced)):
        for workload, k in parse_counts(specs):
            pairs = []
            for seed in range(1, k + 1):
                pairs.append({side: bench_once(path, workload, seed, args.seconds, trace)
                              for side, path in ordered(sides, seed)})
                print(f"{workload} trace={trace} seed={seed} done", file=sys.stderr)
            entry = {"pairs": pairs}
            if not trace:
                entry["summary"] = summarise(pairs)
            doc[key][workload] = entry
    if args.reference:
        pairs = []
        for k in range(1, args.reference + 1):
            pairs.append({side: json.loads(run_stdout(path, ["perfbench/reference.py"]))
                          for side, path in ordered(sides, k)})
            print(f"reference pair {k} done", file=sys.stderr)
        doc["reference"] = {"pairs": pairs, "summary": summarise_reference(pairs)}
        doc["environment"] = pairs[0]["base"]["environment"]
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
