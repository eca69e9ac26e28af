"""One SHA-256 digest per fresh build of a count law's CDF table.

Every table should keep its bits when the code that builds or caches it
is rewritten.  This builds ``bands_single._cdf_matrix(n, key, level, l)``
for each case below, with every ``functools`` cache in the package
cleared before each build, and prints one line per build: the SHA-256 of
the block's shape, its cells, each row's first count, and the count
bounds (``_count_bounds``) at every gamma of ``GAMMAS`` at or above the
level, then the case.  The key is the grid points for one sample (l = 1)
and the grid's pooled counts for l chains, whose bounds start at the
bottom of each row's support, max(s - (l - 1) n, 0).  It imports the
package from the ``src`` next to this directory:

    python tools/table_digest.py [N ...]

With no N given it runs every size in ``SIZES``.  To compare two
checkouts, run the copy of this file in each and ``diff`` the output.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ecdf_bands import bands_multi, bands_single  # noqa: E402
from ecdf_bands.transform import EvaluationGrid, default_grid  # noqa: E402

SIZES = (1, 2, 24, 64, 251, 441, 1000, 5000, 20_000)
CHAINS = (1, 2, 3)
ALPHA = 0.05
TOP = float(np.nextafter(1.0, 0.0))
LEVELS = (0.0, 2.0**-1021, 1e-12, None, 0.003, 0.05, 0.5, TOP)
"""Build levels; None stands for the exact search's floor alpha / (l K)."""

GAMMAS = (1e-300, 1e-9, 0.003, 0.05, 0.5, TOP)


def grid_points(kind: str, n: int, l: int) -> np.ndarray:
    """The default grid (K = 1000 at n = 5000), K random points from a
    fixed seed, or the three points [1e-6, 0.5, 1]."""
    k_max = 1000 if n == 5000 else 100
    if kind == "default":
        return default_grid(n, l * n if l > 1 else None, k_max).points
    if kind == "random":
        return np.sort(np.random.default_rng(n).random(min(n, k_max)))
    return np.array([1e-6, 0.5, 1.0])


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("ecdf_bands") or module is None:
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def digest(n: int, l: int, points: np.ndarray, level: float) -> str:
    """SHA-256 of one fresh build at ``level`` and the bounds read off it."""
    if l == 1:
        key, bottom = tuple(float(z) for z in points), 0
    else:
        s = bands_multi._pooled_counts(EvaluationGrid(points), n, l)
        key, bottom = tuple(s.tolist()), np.maximum(s - (l - 1) * n, 0)
    _clear_caches()
    block = bands_single._cdf_matrix(n, key, level, l)
    h = hashlib.sha256(repr(block.cells.shape).encode())
    h.update(block.cells.tobytes())
    h.update(np.asarray(block.first, dtype=np.int64).tobytes())
    for g in (level, *GAMMAS):
        if g >= level:
            for bound in bands_single._count_bounds(block, g, bottom):
                h.update(bound.astype(np.int64).tobytes())
    return h.hexdigest()


def main(sizes) -> list[str]:
    lines = []
    for n in sizes or SIZES:
        for l in CHAINS:
            for kind in ("default", "random", "three"):
                points = grid_points(kind, n, l)
                for level in LEVELS:
                    level = ALPHA / (l * points.size) if level is None else level
                    lines.append(f"{digest(n, l, points, level)}  n={n} l={l} grid={kind} level={level!r}")
    return lines


if __name__ == "__main__":
    print("\n".join(main([int(a) for a in sys.argv[1:]])))
