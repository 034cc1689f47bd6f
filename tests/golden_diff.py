"""Name the values that moved between two directories of golden CSVs, with z-scores.

    python tests/golden_diff.py OLD_DIR NEW_DIR

Each CSV present in both directories is read by its header, and its rows are
matched by position. Every value whose printed text moved is listed with its
old and new value. A Monte Carlo estimate also gets a z-score,
z = (new - old) / sqrt(se_old^2 + se_new^2):

- bias: ``mc_mean_d`` against ``stderr``;
- risk: ``risk<k>`` against ``se<k>``;
- Stein-Haff: ``mean_trace``, ``mean_g`` and ``diff`` against ``se_trace``,
  ``se_g`` and ``se_diff``;
- dimension: each count ``dim<k>`` as a two-proportion z against its row's
  total.

Other values, the SEs and the KS statistics and p-values among them, are
listed with no z. The z treats the two runs as independent, which holds for
a change of stream; an estimator change on the same draws correlates them,
and there the z understates the move. The exit status is 1 when some |z|
exceeds 4, or when a file's header or row count changed: a flag for the
change's author, not a test.
"""

import csv
import sys
from math import sqrt
from pathlib import Path

#: |z| above which the exit status flags a move.
Z_FLAG = 4.0

_SE_COLUMNS = {"mc_mean_d": "stderr", "mean_trace": "se_trace", "mean_g": "se_g", "diff": "se_diff"}
_KEY_COLUMNS = ("i", "criterion", "estimator")


def _read(path: Path) -> tuple[list[str], list[dict]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return reader.fieldnames or [], list(reader)


def _se_column(column: str, header: list[str]) -> str | None:
    """The column holding ``column``'s standard error, or None."""
    if column.startswith("risk") and column[4:].isdigit():
        se = "se" + column[4:]
    else:
        se = _SE_COLUMNS.get(column)
    return se if se in header else None


def _z(column: str, header: list[str], old: dict, new: dict) -> float | None:
    """The move's z-score, or None for a value that has none."""
    se = _se_column(column, header)
    if se is not None:
        spread = sqrt(float(old[se]) ** 2 + float(new[se]) ** 2)
        return (float(new[column]) - float(old[column])) / spread
    if column.startswith("dim") and column[3:].isdigit():
        counts = [c for c in header if c.startswith("dim") and c[3:].isdigit()]
        n_old, n_new = (sum(int(row[c]) for c in counts) for row in (old, new))
        c_old, c_new = int(old[column]), int(new[column])
        pooled = (c_old + c_new) / (n_old + n_new)
        spread = sqrt(pooled * (1.0 - pooled) * (1.0 / n_old + 1.0 / n_new))
        return (c_new / n_new - c_old / n_old) / spread if spread else None
    return None


def diff_file(old_path: Path, new_path: Path) -> tuple[list[str], bool]:
    """One line per moved value of a CSV pair, and whether the pair is flagged."""
    name = new_path.name
    (old_header, old_rows), (header, rows) = _read(old_path), _read(new_path)
    if old_header != header or len(old_rows) != len(rows):
        return [f"{name}: header or row count changed; no value compared"], True
    lines, flagged = [], False
    for k, (old, new) in enumerate(zip(old_rows, rows), start=1):
        label = ",".join(new[c] for c in _KEY_COLUMNS if c in header) or f"row {k}"
        for column in header:
            if old[column] == new[column]:
                continue
            z = _z(column, header, old, new)
            line = f"{name} [{label}] {column}: {old[column]} -> {new[column]}"
            if z is not None:
                line += f"  z = {z:+.2f}"
                flagged |= abs(z) > Z_FLAG
            lines.append(line)
    return lines, flagged


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/golden_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old_dir, new_dir = map(Path, argv)
    old_names = {p.name for p in old_dir.glob("*.csv")}
    new_names = {p.name for p in new_dir.glob("*.csv")}
    flagged = False
    for name in sorted(old_names ^ new_names):
        print(f"{name}: only in {old_dir if name in old_names else new_dir}")
    for name in sorted(old_names & new_names):
        lines, file_flagged = diff_file(old_dir / name, new_dir / name)
        for line in lines:
            print(line)
        flagged |= file_flagged
    print("z treats the runs as independent (a stream change); on the same draws "
          "(an estimator change) the runs are correlated and |z| understates the move")
    if flagged:
        print(f"flagged: some |z| exceeds {Z_FLAG:g}, or a layout changed")
    return int(flagged)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
