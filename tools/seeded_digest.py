"""One SHA-256 digest per seeded output of the CLI.

Every seeded result should keep its bits when the code that computes it
is rewritten.  This runs each case below through ``ecdf_bands.cli.main``
in this process, on inputs it writes itself from fixed seeds, and prints
one line per case: the SHA-256 of the exit code and of the name and
bytes of each file the case wrote, then the case's name.  It imports
the package from the ``src`` next to this directory.  It unsets
``ECDF_BANDS_CACHE``, so that no stored gamma grid is read, but for the
cases in ``CACHED``, which read the grid it builds itself:

    python tools/seeded_digest.py [--repeat N] [CASE ...]

With no case named it runs them all.  To compare two checkouts, run the
copy of this file in each and ``diff`` the output.  ``--repeat N`` runs
the cases N times over in this one process, each round in folders of
its own, and prints every round's lines, so that the later rounds show
the bytes of calls served from what the earlier ones left in the
process's caches.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ecdf_bands import cli  # noqa: E402

INPUTS = {
    "col200.csv": (1, 200),
    "chains4x80.csv": (4, 80),
    "chains8x40.csv": (8, 40),
    "chains2x60.csv": (2, 60),
    "chains3x30.csv": (3, 30),
    "chains2x1000.csv": (2, 1000),
    "draws50.csv": (1, 50),
    "comparison50x49.csv": (49, 50),
    "draws120.csv": (1, 120),
    "comparison120x150.csv": (150, 120),
    "col64.csv": (1, 64),
    "col48.csv": (1, 48),
    "chains2x64.csv": (2, 64),
}
"""Input files, each as (columns, rows): one column of uniform PIT
values, or chains of standard normal draws."""

DERIVED = {
    "pit120x150.csv": ["pit", "draws120.csv", "comparison120x150.csv"],
    "grid.json": ["gamma", "build", "--ns", "32,64,96", "--ls", "1,2"],
}
"""Input files written by ``cli.main`` on these arguments, with the
file as ``--out``, after ``INPUTS``: PIT values of resolution 150, whose
default grid (K = 75) divides it, and a gamma grid for one sample and
two chains at n = 32, 64 and 96."""

CASES = {
    "test-simulate-1col-t1": ["test", "col200.csv", "--method", "simulate", "--threads", "1"],
    "test-simulate-1col-t2": ["test", "col200.csv", "--method", "simulate", "--threads", "2"],
    "test-4x80-t1": ["test", "chains4x80.csv"],
    "test-4x80-t2": ["test", "chains4x80.csv", "--threads", "2"],
    "test-8x40": ["test", "chains8x40.csv"],
    "power-stats": ["power", "--family", "B", "--ks", "0.8,1,1.25", "--n", "60", "--tests", "T1,W2,U2,KS"],
    "power-bands": ["power", "--family", "C", "--ks", "0.7,1,1.5", "--n", "60", "--tests", "bands"],
    "power-chains4": ["power", "--family", "A", "--ks", "1,1.5", "--n", "40", "--chains", "4"],
    "gamma-build": ["gamma", "build", "--ns", "32,64", "--ls", "1,4"],
    "test-exact-1col": ["test", "col200.csv"],
    "test-exact-2x60": ["test", "chains2x60.csv"],
    "test-exact-3x30": ["test", "chains3x30.csv"],
    "test-exact-2x1000": ["test", "chains2x1000.csv"],
    "power-bands-chains2": ["power", "--family", "B", "--ks", "1,1.4", "--n", "40", "--chains", "2"],
    "power-bands-chains3": ["power", "--family", "A", "--ks", "0.7,1", "--n", "30", "--chains", "3"],
    "plot-rank-hist-1col": [
        "plot", "col200.csv", "--kind", "rank_hist", "--bins", "10", "--data-out", "data.json"
    ],
    "plot-rank-hist-4x80": ["plot", "chains4x80.csv", "--kind", "rank_hist", "--bins", "8"],
    "thin-2x1000": ["thin", "chains2x1000.csv", "--ess-out", "data.json"],
    "pit-50x49": ["pit", "draws50.csv", "comparison50x49.csv"],
    "test-simulate-pit-lattice": ["test", "pit120x150.csv", "--method", "simulate"],
    "test-simulate-grid-k7": ["test", "col200.csv", "--grid-k", "7", "--method", "simulate"],
    "power-bands-draws-at-1": ["power", "--family", "A", "--ks", "1,40", "--n", "60", "--tests", "bands"],
    "test-cached-64": ["test", "col64.csv"],
    "test-interpolated-48": ["test", "col48.csv"],
    "test-cached-64-grid-k20": ["test", "col64.csv", "--grid-k", "20"],
    "test-cache-2x64": ["test", "chains2x64.csv", "--method", "cache"],
    "plot-rank-hist-sparse": ["plot", "col48.csv", "--kind", "rank_hist", "--bins", "100"],
}
"""Each case's arguments, with input files named as in ``INPUTS``; the
output goes to a file given by ``--out`` in the case's own folder, as
does any file named in ``OUTPUTS``.  Two chains of 1000 draws read a
chain table windowed at the search's floor, far narrower than the
1001 counts of a full row.  The rank histogram of 48 values in
100 bins reads the binomial table on the one-point grid 1/100, whose
row has its mode at count 0, so that no count lies below the mode."""

CACHED = ("test-cached-64", "test-interpolated-48", "test-cached-64-grid-k20", "test-cache-2x64")
"""Cases run with ``ECDF_BANDS_CACHE`` set to the derived ``grid.json``:
a stored gamma, one interpolated between n = 32 and 64, a stored gamma
on a grid of its own, and two chains by ``--method cache``."""

OUTPUTS = ("data.json",)
"""Names of further output files a case may write, such as ``--data-out``."""


def write_inputs(folder: Path) -> None:
    for i, (name, (cols, rows)) in enumerate(INPUTS.items()):
        rng = np.random.default_rng(np.random.SeedSequence((2024, i)))
        data = rng.random((rows, cols)) if cols == 1 else rng.standard_normal((rows, cols))
        lines = [",".join(f"c{j + 1}" for j in range(cols))]
        lines += [",".join(repr(float(v)) for v in row) for row in data]
        (folder / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name, args in DERIVED.items():
        argv = [str(folder / a) if a in INPUTS else a for a in args]
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv + ["--out", str(folder / name)])


def digest(name: str, folder: Path, case: Path) -> str:
    """SHA-256 of one case's exit code and the name and bytes of each
    file it wrote into the new folder ``case``, in name order."""
    case.mkdir(parents=True)
    paths = {a: folder / a for a in (*INPUTS, *DERIVED)} | {a: case / a for a in OUTPUTS}
    argv = [str(paths[a]) if a in paths else a for a in CASES[name]] + ["--out", str(case / "out")]
    if name in CACHED:
        os.environ[cli.CACHE_ENV] = str(folder / "grid.json")
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.environ.pop(cli.CACHE_ENV, None)
    h = hashlib.sha256(f"{code}\n".encode())
    for path in sorted(case.iterdir()):
        h.update(f"{path.name}\n".encode() + path.read_bytes())
    return h.hexdigest()


def main(names, repeat: int = 1) -> list[str]:
    """One line per case named (all of them if none is), for each of
    ``repeat`` rounds in turn."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise SystemExit(f"unknown case(s) {unknown}; choose from {list(CASES)}")
    if repeat < 1:
        raise SystemExit("repeat must be positive")
    os.environ.pop(cli.CACHE_ENV, None)
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        write_inputs(folder)
        return [
            f"{digest(name, folder, folder / f'round{r}' / name)}  {name}"
            for r in range(repeat)
            for name in names or CASES
        ]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="One SHA-256 digest per seeded output of the CLI.")
    parser.add_argument("--repeat", type=int, default=1, help="rounds of every case in this process")
    parser.add_argument("cases", nargs="*", help="cases to run (default all)")
    args = parser.parse_args()
    print("\n".join(main(args.cases, args.repeat)))
