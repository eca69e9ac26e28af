"""Precomputed adjustment-level grids and log-log interpolation.

Calibrating the pointwise level gamma is the expensive part of building
bands; it varies smoothly with the sample size, so a small grid over
(n, chains, alpha) plus linear interpolation of log gamma against log n
gives near-exact bands without recomputation.  Grids persist as
versioned JSON so they can be inspected and diffed.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .bands_single import GammaResult, gamma_optimize
from .transform import default_grid

__all__ = [
    "SCHEMA",
    "GridEntry",
    "GammaGrid",
    "build_grid",
    "interpolate",
    "load_grid",
    "save_grid",
]

SCHEMA = "gamma-grid/1"


@dataclass(frozen=True)
class GridEntry:
    """One calibrated adjustment level.

    ``k`` records how many evaluation points the calibration grid had,
    since the level depends on the partition, not just on ``n``.
    """

    n: int
    l: int
    k: int
    alpha: float
    gamma: float
    coverage: float
    method: str

    def __post_init__(self):
        if self.n < 1 or self.l < 1 or self.k < 1:
            raise ValueError("n, l and k must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.gamma <= self.alpha:
            raise ValueError("gamma must lie in (0, alpha]")
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage must lie in [0, 1]")

    @property
    def key(self) -> tuple[int, int, int, float]:
        return (self.n, self.l, self.k, self.alpha)


@dataclass(frozen=True)
class GammaGrid:
    entries: tuple[GridEntry, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.entries, key=lambda e: (e.l, e.alpha, e.n, e.k)))
        keys = [e.key for e in ordered]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (n, l, k, alpha) keys in grid")
        object.__setattr__(self, "entries", ordered)

    def slice(self, l: int, alpha: float, k: int | None = None) -> list[GridEntry]:
        out = [e for e in self.entries if e.l == l and e.alpha == alpha]
        if k is not None:
            out = [e for e in out if e.k == k]
        return out


def _calibrate(n: int, l: int, alpha: float, k_max: int, m: int, seed: int) -> GridEntry:
    from .bands_multi import EXACT_CHAIN_LIMIT, gamma_optimize_multi, gamma_simulate_multi

    grid = default_grid(n, n * l if l > 1 else None, k_max=k_max)
    if l == 1:
        res = gamma_optimize(n, grid, alpha)
    elif l <= EXACT_CHAIN_LIMIT:
        res = gamma_optimize_multi(n, l, grid, alpha)
    else:
        res = gamma_simulate_multi(n, l, grid, alpha, m=m, seed=seed)
    return GridEntry(n, l, grid.size, alpha, res.gamma, res.attained_coverage, res.method)


def build_grid(
    ns,
    ls,
    alphas,
    k_policy: int | None = None,
    m: int = 10_000,
    seed: int = 0,
    threads: int = 1,
) -> GammaGrid:
    """Calibrate gamma for every (n, chains, alpha) combination.

    Uses the exact-coverage search when available (one chain, or up to
    three chains) and simulation otherwise.  ``k_policy`` caps the
    evaluation grid size; None keeps the default cap of 100.
    """
    ns, ls, alphas = list(ns), list(ls), list(alphas)
    if not ns or not ls or not alphas:
        raise ValueError("ns, ls and alphas must be nonempty")
    k_max = 100 if k_policy is None else int(k_policy)
    jobs = [(n, l, a) for l in ls for a in alphas for n in ns]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            entries = list(
                pool.map(lambda j: _calibrate(j[0], j[1], j[2], k_max, m, seed), jobs)
            )
    else:
        entries = [_calibrate(n, l, a, k_max, m, seed) for n, l, a in jobs]
    return GammaGrid(tuple(entries))


def interpolate(grid: GammaGrid, n: int, l: int, alpha: float, k: int | None = None) -> GammaResult:
    """Look up or interpolate the adjustment level for a sample size.

    An exact (n, l, alpha) match returns the stored entry.  Otherwise n
    must fall between two stored sizes in the matching (l, alpha) slice
    and log gamma is interpolated linearly against log n.  There is no
    extrapolation and no interpolation across chain counts or levels.
    The reported coverage of an interpolated result is the same blend of
    the stored neighbours' coverages, an estimate rather than a computed
    value, and ``meta["attained_estimate"]`` says so with ``"blend"``; a
    stored simulated entry says ``"in_sample"``, as the simulator does.
    """
    if n < 1:
        raise ValueError("n must be positive")
    entries = grid.slice(l, alpha, k)
    if not entries:
        raise KeyError(f"no stored entries for {l} chains at alpha={alpha}")
    exact = [e for e in entries if e.n == n]
    if len(exact) > 1:
        raise ValueError(
            f"multiple grid sizes stored for n={n}; pass k to disambiguate"
        )
    if exact:
        e = exact[0]
        meta = {"alpha": alpha, "cache_key": e.key}
        if e.method == "simulation":
            meta["attained_estimate"] = "in_sample"
        return GammaResult(e.gamma, e.coverage, e.method, meta)
    by_n: dict[int, GridEntry] = {}
    for e in entries:
        if e.n in by_n:
            raise ValueError(
                f"multiple grid sizes stored around n={n}; pass k to disambiguate"
            )
        by_n[e.n] = e
    sizes = sorted(by_n)
    if n < sizes[0] or n > sizes[-1]:
        raise KeyError(
            f"n={n} outside the stored range [{sizes[0]}, {sizes[-1]}]; "
            "extrapolation is not supported"
        )
    import bisect

    pos = bisect.bisect_left(sizes, n)
    lo, hi = by_n[sizes[pos - 1]], by_n[sizes[pos]]
    w = (math.log(n) - math.log(lo.n)) / (math.log(hi.n) - math.log(lo.n))
    gamma = math.exp((1.0 - w) * math.log(lo.gamma) + w * math.log(hi.gamma))
    coverage = (1.0 - w) * lo.coverage + w * hi.coverage
    meta = {"alpha": alpha, "between": (lo.n, hi.n), "attained_estimate": "blend"}
    return GammaResult(gamma, coverage, "interpolated", meta)


def save_grid(grid: GammaGrid, path: str | os.PathLike) -> None:
    payload = {
        "schema": SCHEMA,
        "entries": [
            {
                "n": e.n,
                "l": e.l,
                "k": e.k,
                "alpha": e.alpha,
                "gamma": e.gamma,
                "coverage": e.coverage,
                "method": e.method,
            }
            for e in grid.entries
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_grid(path: str | os.PathLike) -> GammaGrid:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"unsupported cache schema {payload.get('schema')!r}")
    entries = tuple(
        GridEntry(
            int(rec["n"]),
            int(rec["l"]),
            int(rec["k"]),
            float(rec["alpha"]),
            float(rec["gamma"]),
            float(rec["coverage"]),
            str(rec["method"]),
        )
        for rec in payload["entries"]
    )
    return GammaGrid(entries)
