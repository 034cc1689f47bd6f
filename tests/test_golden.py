"""Golden CSVs: small CLI runs whose bytes are pinned in tests/golden/.

Each command is a scaled-down README run that still spans more than one
stream chunk, so the files pin the stream contract (Philox key,
CHUNK_SIZE, draw order) and the chunk-ordered reductions together. A
change that moves a printed digit on purpose regenerates the files in the
same commit with ``python tests/test_golden.py`` and names the digits.
"""

import sys
from pathlib import Path

import pytest

from spectra_shrink.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "bias-wishart": ["bias", "--spectrum", "table1:6", "--n", "30", "--reps", "5000",
                     "--seed", "42"],
    "bias-p3-wishart": ["bias", "--spectrum", "0.5,0.3,0.2", "--n", "200", "--reps", "5000",
                        "--seed", "42"],
    "bias-t5": ["bias", "--spectrum", "0.5,0.3,0.2", "--n", "20", "--dist", "t:5",
                "--reps", "5000", "--seed", "42"],
    "risk-p10": ["risk", "--spectrum", "table2:1", "--n", "30", "--reps", "5000", "--seed", "7"],
    "risk-p10-t5": ["risk", "--spectrum", "table2:1", "--n", "30", "--dist", "t:5", "--reps", "5000",
                    "--seed", "7"],
    "dimension-case1": ["dimension", "--case", "1", "--n", "30", "--reps", "5000", "--seed", "9"],
    "dimension-case1-normalized": ["dimension", "--case", "1", "--n", "30", "--reps", "5000", "--seed", "9",
                                   "--normalize-for-criterion2"],
    "dimension-case1-t5": ["dimension", "--case", "1", "--n", "30", "--dist", "t:5",
                           "--reps", "5000", "--seed", "9"],
    "invariance": ["invariance", "--spectrum", "0.4,0.3,0.2,0.1", "--n", "15", "--nu", "5",
                   "--reps", "5000", "--seed", "3"],
    "stein-haff": ["stein-haff", "--spectrum", "table2:5", "--n", "30", "--reps", "5000",
                   "--seed", "5"],
}


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_csv_matches_golden_bytes(name, jobs, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main(COMMANDS[name] + ["--jobs", jobs, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        code = main(argv + ["--out", str(GOLDEN / f"{name}.csv")])
        if code != 0:
            sys.exit(code)
