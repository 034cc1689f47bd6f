"""Before/after benchmark record: alternating runs of two checkouts.

Runs ``perfbench/run.py`` in a base checkout and in a changed checkout,
in pairs that share a seed and run back to back, base first in odd pairs and
change first in even ones, so that a drift in machine speed hits both sides
alike. Optionally also runs ``perfbench/reference.py`` (the timed acceptance
suite and README examples) in pairs, alternating the first side in the same
way. Each side runs from a snapshot of its checkout in a temporary
directory: the files git tracks, as they stand in the working tree, so
uncommitted edits come along and untracked or ignored files (``__pycache__/``,
``.perfbench-out/``) never do (see ``snapshot``). Before the first pair, both
snapshots' ``src`` and ``perfbench`` are byte-compiled afresh with the
running interpreter, so that neither side starts faster for holding a
bytecode cache the other lacks. The document records each checkout and its
git commit under ``sides``, since a snapshot holds no ``.git``.
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
Before each run, a parallelism probe times a fixed numpy kernel (one p = 10
batched eigensolve) in a fresh process alone, and again beside one copy of
it in another process; the run keeps both times and their ratio as
``probe``, and the summary gives each side's median ratio as
``probe_ratio``. A ratio near 1 means the machine ran the two copies on two
cores; near 2, that they shared one, so a ``--jobs 2`` claim cannot show.
For a threaded workload (``workload.jobs`` above 1 in its report) the
summary's ``probe_gate`` marks each pair whose probe ratio exceeds
``PROBE_GATE`` (1.5) on either side and gives the metrics' verdicts on the
unmarked pairs alone, beside the verdicts on all pairs (see ``probe_gate``).
A thread probe then times the same kernel alone and on two threads of one
process, each on its own copy of the batch; the run keeps it as
``thread_probe`` and the summary gives each side's median ratio as
``thread_probe_ratio``. ``--jobs`` runs chunks on threads, so a thread ratio
well above the process ratio means the kernel itself serialises its threads.
A GIL probe times a kernel of 500 short numpy calls, multiplies of (9, 4096)
columns, alone and on two threads of one process; the run keeps it as
``gil_probe`` and the summary gives each side's median ratio as
``gil_probe_ratio``. A p = 10 chunk's kernels make several hundred such
calls, each of which hands the GIL back and takes it again, so a ratio near
2 or above means the host's hand-off cost, not the arithmetic, bounds a
``--jobs`` gain there.
``--reference K`` (a bare ``--reference`` is K = 1) keeps every reference
report and gives, per acceptance criterion and README example, each side's
median wall time over the K pairs and whether every run passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: Each end-to-end metric's better direction and bound, from the benchmark's declaration.
END_TO_END = {m["name"]: (m["better"], m["bound"]) for m in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}


#: The probes' script, run as ``python -c SCRIPT SECONDS THREADS``: it warms
#: up its kernel, says "ready", waits for a line on stdin, then runs the kernel
#: for SECONDS on each of THREADS threads, each on its own copy of the data,
#: and prints the median time of one call over all of them. BLAS is pinned to
#: one thread, as in perfbench/run.py, so two copies or two threads ask for
#: two cores. ``{setup}`` makes the data, ``{call}`` is one timed call on it.
PROBE_SCRIPT = """
import statistics, sys, threading, time
import numpy as np
def setup():
    rng = np.random.default_rng(0)
    {setup}
    return data
def kernel(data):
    {call}
kernel(setup())
seconds, threads = float(sys.argv[1]), int(sys.argv[2])
def run(times, data):
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        kernel(data)
        times.append(time.perf_counter() - t0)
times = [[] for _ in range(threads)]
workers = [threading.Thread(target=run, args=(t, setup())) for t in times]
print("ready", flush=True)
sys.stdin.readline()
for w in workers:
    w.start()
for w in workers:
    w.join()
print(statistics.median(x for t in times for x in t))
"""
#: The parallelism and thread probes' kernel: one p = 10 batched eigensolve,
#: a single long call that releases the GIL.
EIGH_KERNEL = PROBE_SCRIPT.format(
    setup="a = rng.standard_normal((4096, 10, 10)); data = a @ a.transpose(0, 2, 1)",
    call="np.linalg.eigh(data)")
#: The GIL probe's kernel: 500 multiplies of (9, 4096) columns, the size of a
#: p = 10 chunk's kernel calls, so each thread takes and hands back the GIL
#: 500 times a call.
GIL_KERNEL = PROBE_SCRIPT.format(
    setup="data = rng.standard_normal((3, 9, 4096))",
    call="for _ in range(500): np.multiply(data[0], data[1], out=data[2])")
PROBE_SECONDS = 1.0
#: The process-probe ratio above which a pair of a threaded workload is
#: marked: its two processes did not get two cores, so a ``--jobs`` gain
#: could not show in it.
PROBE_GATE = 1.5
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def kernel_times(copies: int, seconds: float, threads: int = 1, kernel: str = EIGH_KERNEL) -> list[float]:
    """A probe kernel's median call time in each of ``copies`` processes started together.

    Each process runs the kernel on ``threads`` threads at once.
    """
    env = {**os.environ, **dict.fromkeys(PIN_VARS, "1")}
    argv = [sys.executable, "-c", kernel, str(seconds), str(threads)]
    procs = [subprocess.Popen(argv, env=env, text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
             for _ in range(copies)]
    for proc in procs:
        if proc.stdout.readline() != "ready\n":
            raise RuntimeError(f"probe kernel failed to start (exit {proc.wait()})")
    for proc in procs:
        proc.stdin.write("go\n")
        proc.stdin.flush()
    out = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        raise RuntimeError(f"probe kernel failed: exits {[proc.returncode for proc in procs]}")
    return [float(text) for text in out]


def parallelism_probe(seconds: float = PROBE_SECONDS) -> dict:
    """The probe kernel's time alone and beside one copy of it, and their ratio."""
    (alone,) = kernel_times(1, seconds)
    beside = kernel_times(2, seconds)[0]
    return {"alone_s": alone, "beside_s": beside, "ratio": beside / alone}


def thread_probe(seconds: float = PROBE_SECONDS, kernel: str = EIGH_KERNEL) -> dict:
    """A probe kernel's time alone and on two threads of one process, and their ratio."""
    (alone,) = kernel_times(1, seconds, kernel=kernel)
    (beside,) = kernel_times(1, seconds, threads=2, kernel=kernel)
    return {"alone_s": alone, "beside_s": beside, "ratio": beside / alone}


def gil_probe(seconds: float = PROBE_SECONDS) -> dict:
    """The GIL kernel's time alone and on two threads of one process, and their ratio."""
    return thread_probe(seconds, GIL_KERNEL)


def run_stdout(checkout: Path, argv: list[str]) -> str:
    return subprocess.run([sys.executable, *argv], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout


def git_top(checkout: Path) -> bool:
    """Whether the checkout is the top directory of a git work tree."""
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=checkout,
                         capture_output=True, text=True)
    return top.returncode == 0 and Path(top.stdout.strip()).resolve() == checkout.resolve()


def snapshot(checkout: Path, dest: Path) -> Path:
    """Copy the checkout's git-tracked files, as they stand in its working tree, to ``dest``.

    Uncommitted edits come along; untracked and ignored files never do, nor
    does a tracked file deleted from the working tree. A working tree that
    held ``__pycache__/`` and ``.perfbench-out/`` once timed 7.5 % slower
    than a ``git archive`` of the same files, for a cause not found, so both
    sides run from such copies. A directory that is not the top of a git
    work tree, such as a ``git archive`` export, is copied whole.
    """
    if not git_top(checkout):
        shutil.copytree(checkout, dest)
        return dest
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=checkout, capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = checkout / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    return dest


def git_commit(checkout: Path) -> str | None:
    """HEAD of the checkout, or None when it is not the top of a git work tree."""
    if not git_top(checkout):
        return None
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout.strip()


def fresh_bytecode(checkout: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "-f", "src", "perfbench"],
                   cwd=checkout, check=True)


def median_or_none(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def bench_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    probe, threaded, gil = parallelism_probe(), thread_probe(), gil_probe()
    *_, report, result = map(json.loads, run_stdout(checkout, argv).splitlines())
    untraced = report["report"]["phases"][0]
    return {"seed": seed, "trace": trace, "probe": probe, "thread_probe": threaded, "gil_probe": gil,
            "environment": report["report"]["environment"], "workload": report["report"]["workload"],
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


def metric_summaries(pairs: list[dict]) -> dict:
    """Per end-to-end metric over ``pairs``: each side's median and IQR, the change's wins, a verdict."""
    out = {}
    if not pairs:
        return out
    for metric, (better, bound) in END_TO_END.items():
        base = [p["base"]["result"]["metrics"][metric]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][metric]["value"] for p in pairs]
        bq, cq = quartiles(base), quartiles(change)
        wins = sum((c > b) if better == "higher" else (c < b) for b, c in zip(base, change))
        entry = out[metric] = {"better": better, "base_median": bq[1], "base_iqr": bq[2] - bq[0],
                               "change_median": cq[1], "change_iqr": cq[2] - cq[0],
                               "change_wins": wins, "pairs": len(pairs)}
        entry["verdict"] = verdict(entry, bound, base, change)
    return out


def probe_gate(pairs: list[dict]) -> dict | None:
    """The pairs of a threaded workload that ran without two cores, and the verdicts without them.

    None unless the workload runs on more than one thread (``workload.jobs``
    in its report). Otherwise ``marked`` lists, counted from 1, each pair
    whose process-probe ratio exceeds ``PROBE_GATE`` on either side, and
    ``unmarked`` holds ``metric_summaries`` of the other pairs; fewer than
    10 of them leave every verdict there "unresolved".
    """
    if all(p[side]["workload"]["jobs"] <= 1 for p in pairs for side in ("base", "change")):
        return None
    marked = [max(p["base"]["probe"]["ratio"], p["change"]["probe"]["ratio"]) > PROBE_GATE for p in pairs]
    return {"ratio_above": PROBE_GATE, "marked": [k for k, m in enumerate(marked, 1) if m],
            "unmarked": metric_summaries([p for p, m in zip(pairs, marked) if not m])}


def summarise(pairs: list[dict]) -> dict:
    out = metric_summaries(pairs)
    raw = {name: {side: [p[side][name] for p in pairs if p[side][name] is not None]
                  for side in ("base", "change")} for name in ("raw_op_s", "raw_kernel_s")}
    for name, values in raw.items():
        out[name] = {f"{side}_median": median_or_none(v) for side, v in values.items()}
    out["raw_kernel_s"]["verdict"] = kernel_verdict(**raw["raw_kernel_s"])
    for probe in ("probe", "thread_probe", "gil_probe"):
        out[f"{probe}_ratio"] = {f"{side}_median": statistics.median(p[side][probe]["ratio"] for p in pairs)
                                 for side in ("base", "change")}
    gate = probe_gate(pairs)
    if gate is not None:
        out["probe_gate"] = gate
    return out


def reference_key(item: dict) -> str:
    """A criterion's name, or a README example's argv less its ``--out`` pair.

    The ``--out`` path lies inside the checkout that ran the example, so it
    differs between the two sides and between machines.
    """
    if "name" in item:
        return item["name"]
    argv = item["argv"]
    if "--out" in argv:
        i = argv.index("--out")
        argv = argv[:i] + argv[i + 2 :]
    return " ".join(argv)


def summarise_reference(pairs: list[dict]) -> dict:
    """Per acceptance criterion and README example: each side's median wall time and its pass.

    Base and change are paired by ``reference_key``, not by position; every
    report must hold the first base report's keys.
    """
    keyed = [{side: {reference_key(item): item
                     for section in ("acceptance", "readme_examples") for item in p[side][section]}
              for side in ("base", "change")} for p in pairs]
    keys = list(keyed[0]["base"])
    for k, pair in enumerate(keyed, 1):
        for side, items in pair.items():
            if set(items) != set(keys):
                raise ValueError(f"reference pair {k}, {side} side: items differ from the base's: "
                                 f"{sorted(set(items) ^ set(keys))}")
    out = {}
    for key in keys:
        entry = out[key] = {}
        for side in ("base", "change"):
            runs = [pair[side][key] for pair in keyed]
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
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        sides = {side: snapshot(path, Path(tmp) / side) for side, path in checkouts.items()}
        for path in sides.values():
            fresh_bytecode(path)
        doc = run_pairs(args, sides)
    doc["sides"] = {side: {"checkout": str(path), "commit": git_commit(path)} for side, path in checkouts.items()}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


def run_pairs(args: argparse.Namespace, sides: dict) -> dict:
    """Every requested pair, run in the snapshots ``sides``, as the output document."""
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
    return doc


if __name__ == "__main__":
    sys.exit(main())
