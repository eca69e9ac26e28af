"""What each exact gamma search costs: evaluations times cost per pass.

Runs ``gamma_optimize`` (one column) or ``gamma_optimize_multi`` (2 or 3
chains) at alpha = 0.05 on the default grid of each shape, cold: every
``functools`` cache in the package is cleared before each search, as a
fresh CLI process would find them.  It imports the package from the
``src`` next to this directory:

    python tools/search_cost.py [SHAPE ...]

A shape is ``N`` for one column of N draws or ``NxL`` for L chains of N
(``156x2``); the default is the one-column sizes 251, 261, ..., 441.
Each row gives the grid size K, the candidate steps, the evaluations
(the steps whose coverage the search read, ``meta["evaluations"]``),
the coverage passes it ran (``meta["passes"]``), the evaluations its
memo served, the passes by route (half and full, which add up to the
passes), the passes with at least one dense step (a step whose scaled
factors left double range and ran on its transition matrix; these three
from ``_forward.route_count``), the masses the table's kernel summed
(``bands_single._cdf_rows``, which builds the binomial and the chains'
hypergeometric rows alike: every count of each row where the mass does
not underflow, padded to whole runs), the time spent building the CDF
table (``bands_single._cdf_table``, for every count law), the search's
wall time, the mean time of one pass, factors
included, the search's gamma and attained coverage in full ``repr``,
and a short hash of the lower and upper counts of the bands served at
that gamma.  The last row sums the counts and the times, and gives the
mean time over all the passes.  To see that a change keeps every gamma
and every band, and how far it moves coverage, ``diff`` the output of
the copy of this file in each of two checkouts.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import time
from pathlib import Path


sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ecdf_bands import _forward, bands_multi, bands_single  # noqa: E402
from ecdf_bands.transform import default_grid  # noqa: E402

ROUTES = ("half", "full", "dense")
COLUMNS = (
    "shape", "K", "steps", "evals", "passes", "memo", *ROUTES,
    "cells", "table_ms", "search_ms", "ms_per_pass", "gamma", "coverage", "bands",
)  # fmt: skip
SUMMED = COLUMNS[2:-3]
DEFAULT_SHAPES = tuple(str(n) for n in range(251, 442, 10))


def parse_shape(text: str) -> tuple[int, int]:
    """``"N"`` or ``"NxL"`` as (n, l)."""
    n, _, l = text.partition("x")
    return int(n), int(l or 1)


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("ecdf_bands") or module is None:
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _timed(fn, spent: dict, key: str):
    """``fn`` adding its wall time to ``spent[key]``."""

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spent[key] += time.perf_counter() - t0

    return timed


@contextlib.contextmanager
def _wrapped(module, name: str, wrap):
    """``module.name`` replaced by ``wrap(module.name)`` inside the block."""
    real = getattr(module, name)
    setattr(module, name, wrap(real))
    try:
        yield
    finally:
        setattr(module, name, real)


def search_cost(n: int, l: int) -> dict:
    """One cold search's counts and times, keyed by ``COLUMNS``."""
    grid = default_grid(n, l * n if l > 1 else None)
    spent = {"pass": 0.0, "table": 0.0, "cells": 0}

    def counted_rows(rows):
        def counted(*args):
            built = rows(*args)
            spent["cells"] += built.cells.size
            return built

        return counted

    def timed_search(search):
        def run(law, alpha):
            return search(law._replace(mass=_timed(law.mass, spent, "pass")), alpha)

        return run

    _clear_caches()
    module = bands_single if l == 1 else bands_multi
    before = [_forward.route_count(r) for r in ROUTES]
    with contextlib.ExitStack() as stack:
        stack.enter_context(_wrapped(module, "_optimized_gamma", timed_search))
        stack.enter_context(_wrapped(bands_single, "_cdf_table", lambda fn: _timed(fn, spent, "table")))
        stack.enter_context(_wrapped(bands_single, "_cdf_rows", counted_rows))
        t0 = time.perf_counter()
        if l == 1:
            res = bands_single.gamma_optimize(n, grid, 0.05)
        else:
            res = bands_multi.gamma_optimize_multi(n, l, grid, 0.05)
        wall = time.perf_counter() - t0
    meta = res.meta
    row = {
        "shape": f"{n}x{l}" if l > 1 else str(n),
        "K": grid.size,
        "steps": meta["steps"],
        "evals": meta["evaluations"],
        "passes": meta["passes"],
        "memo": meta["evaluations"] - meta["passes"],
    }
    row.update({r: _forward.route_count(r) - b for r, b in zip(ROUTES, before)})
    row["cells"] = spent["cells"]
    row["table_ms"] = 1e3 * spent["table"]
    row["search_ms"] = 1e3 * wall
    row["ms_per_pass"] = 1e3 * spent["pass"] / max(meta["passes"], 1)
    row["gamma"] = repr(res.gamma)
    row["coverage"] = repr(res.attained_coverage)
    if l == 1:
        bands = bands_single.bands_from_gamma(n, grid, res)
    else:
        bands = bands_multi.bands_from_gamma_multi(n, l, grid, res)
    served = bands.lower_counts.tobytes() + bands.upper_counts.tobytes()
    row["bands"] = hashlib.sha256(served).hexdigest()[:10]
    return row


def _line(values) -> str:
    return " ".join(f"{v:>11.3f}" if isinstance(v, float) else f"{v!s:>11}" for v in values)


def main(argv: list[str]) -> int:
    rows = [search_cost(*parse_shape(s)) for s in argv or DEFAULT_SHAPES]
    print(_line(COLUMNS))
    for row in rows:
        print(_line(row[c] for c in COLUMNS))
    total = {c: sum(row[c] for row in rows) for c in SUMMED}
    total["ms_per_pass"] = sum(r["ms_per_pass"] * r["passes"] for r in rows) / max(total["passes"], 1)
    print(_line(["total", "-"] + [total[c] for c in SUMMED] + ["-", "-", "-"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
