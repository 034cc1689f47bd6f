"""The reference summary of ``bench/pairs.py``: items paired by key, keys free of paths."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "bench" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _example(argv, wall_s, out=None):
    full = ["spectra-shrink", *argv] + (["--out", out] if out else [])
    return {"argv": full, "passed": True, "exit_code": 0, "wall_s": wall_s}


def _report(checkout, wall_s, reverse=False):
    """A reference report whose example CSVs go under ``checkout``; wall times scale by ``wall_s``."""
    examples = [
        _example(["bias", "--spectrum", "uniform10"], 1.0 * wall_s, f"{checkout}/.perfbench-out/reference-0.csv"),
        _example(["risk", "--table2"], 2.0 * wall_s, f"{checkout}/.perfbench-out/reference-1.csv"),
        _example(["weights", "--p", "10"], 3.0 * wall_s),
    ]
    criteria = [
        {"name": "criterion-01 bias", "passed": True, "wall_s": 4.0 * wall_s},
        {"name": "criterion-02 risks", "passed": True, "wall_s": 5.0 * wall_s},
    ]
    step = -1 if reverse else 1
    return {"acceptance": criteria[::step], "readme_examples": examples[::step]}


def test_reference_summary_pairs_by_key_without_paths():
    pair = {"base": _report("/srv/base", 1.0), "change": _report("/home/dev/change", 10.0, reverse=True)}
    summary = pairs.summarise_reference([pair])
    assert list(summary) == [
        "criterion-01 bias",
        "criterion-02 risks",
        "spectra-shrink bias --spectrum uniform10",
        "spectra-shrink risk --table2",
        "spectra-shrink weights --p 10",
    ]
    for entry in summary.values():
        assert entry["change_median_s"] == 10.0 * entry["base_median_s"]
        assert entry["base_passed"] and entry["change_passed"]


def test_reference_summary_refuses_unmatched_items():
    change = _report("/home/dev/change", 1.0)
    change["readme_examples"].pop()
    with pytest.raises(ValueError, match="weights"):
        pairs.summarise_reference([{"base": _report("/srv/base", 1.0), "change": change}])


def _probe(ratio):
    return {"alone_s": 0.05, "beside_s": 0.05 * ratio, "ratio": ratio}


def _run(scale, ratio, thread_ratio, gil_ratio):
    metrics = {name: {"value": scale} for name in pairs.END_TO_END}
    return {"result": {"metrics": metrics}, "raw_op_s": scale, "raw_kernel_s": None,
            "probe": _probe(ratio), "thread_probe": _probe(thread_ratio), "gil_probe": _probe(gil_ratio)}


def test_summary_keeps_each_side_median_probe_ratio():
    ratios = ((1.0, 1.5, 2.9), (1.2, 1.7, 2.5), (1.9, 1.6, 2.7))
    runs = [{"base": _run(1.0, r, t, g), "change": _run(2.0, 2 * r, 2 * t, 2 * g)} for r, t, g in ratios]
    summary = pairs.summarise(runs)
    assert summary["probe_ratio"] == {"base_median": 1.2, "change_median": 2.4}
    assert summary["thread_probe_ratio"] == {"base_median": 1.6, "change_median": 3.2}
    assert summary["gil_probe_ratio"] == {"base_median": 2.7, "change_median": 5.4}


def test_parallelism_probe_times_the_kernel_alone_and_beside_a_copy():
    probe = pairs.parallelism_probe(seconds=0.05)
    assert probe["alone_s"] > 0 and probe["beside_s"] > 0
    assert probe["ratio"] == probe["beside_s"] / probe["alone_s"]


def test_thread_probe_times_the_kernel_alone_and_on_two_threads():
    probe = pairs.thread_probe(seconds=0.05)
    assert probe["alone_s"] > 0 and probe["beside_s"] > 0
    assert probe["ratio"] == probe["beside_s"] / probe["alone_s"]


def test_gil_probe_times_many_short_calls_alone_and_on_two_threads():
    probe = pairs.gil_probe(seconds=0.05)
    assert probe["alone_s"] > 0 and probe["beside_s"] > 0
    assert probe["ratio"] == probe["beside_s"] / probe["alone_s"]


def _git(cwd, *argv):
    subprocess.run(["git", *argv], cwd=cwd, check=True, capture_output=True)


def test_snapshot_holds_tracked_working_tree_bytes_and_no_ignored_file(tmp_path):
    # each side runs from its tracked files as they stand in the working
    # tree: an uncommitted edit comes along, an ignored or untracked file
    # or a tracked file deleted from the tree does not
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    _git(repo, "init", "-q")
    (repo / ".gitignore").write_text("__pycache__/\n.perfbench-out/\n")
    (repo / "src" / "m.py").write_text("x = 1\n")
    (repo / "gone.txt").write_text("tracked, then deleted\n")
    _git(repo, "add", ".gitignore", "src/m.py", "gone.txt")
    (repo / "src" / "m.py").write_text("x = 2\n")
    (repo / "gone.txt").unlink()
    for ignored in ("src/__pycache__/m.cpython.pyc", ".perfbench-out/run.csv"):
        (repo / ignored).parent.mkdir(parents=True, exist_ok=True)
        (repo / ignored).write_bytes(b"left over")
    (repo / "untracked.txt").write_text("not added\n")
    copy = pairs.snapshot(repo.resolve(), tmp_path / "copy")
    files = sorted(str(f.relative_to(copy)) for f in copy.rglob("*") if f.is_file())
    assert files == [".gitignore", "src/m.py"]
    assert (copy / "src" / "m.py").read_text() == "x = 2\n"


def test_snapshot_copies_a_directory_outside_git_whole(tmp_path):
    export = tmp_path / "export"
    (export / "src").mkdir(parents=True)
    (export / "src" / "m.py").write_text("x = 1\n")
    copy = pairs.snapshot(export.resolve(), tmp_path / "copy")
    assert (copy / "src" / "m.py").read_text() == "x = 1\n"
    assert pairs.git_commit(export.resolve()) is None
