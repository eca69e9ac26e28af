"""Gamma calibration: the one front door, precomputed grids, and
log-log interpolation.

``calibrate`` is the only place that picks how the pointwise level gamma
is made: a stored grid, the exact search (one to three chains), or
simulation.  Calibrating is the expensive part of building bands; gamma
varies smoothly with the sample size, so a small grid over (n, chains,
alpha) plus linear interpolation of log gamma against log n gives
near-exact bands without recomputation.  Grids persist as versioned JSON
so they can be inspected and diffed.

This module also holds the package's one calibration memo
(``_calibration_slot``), filled and served by ``_calibrated``.  Each
exact or simulated gamma that ``calibrate`` computes is kept there,
keyed by the sample size, the chain count, the grid's points, alpha and
the method, and for simulation the replicate count and the seed; so is
each set of Monte Carlo critical values of a power sweep
(``power._critical_values``).  Every key starts with its kind, so a
gamma and a set of critical values never share an entry.  The thread
count is not part of a key, since the seeded chunks give the same
result on any number of threads.  A stored grid is never memoized here,
so a rewritten grid file is always read again; the public
``gamma_optimize`` and ``gamma_simulate*`` are not memoized either.
``_calibration_slot.cache_clear()`` empties the memo.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import os
from dataclasses import dataclass

from .bands_multi import EXACT_CHAIN_LIMIT, gamma_optimize_multi, gamma_simulate_multi
from .bands_single import DEFAULT_REPLICATES, GammaResult, _map_chunks, gamma_optimize, gamma_simulate
from .transform import EvaluationGrid, default_grid

__all__ = [
    "SCHEMA",
    "GridEntry",
    "GammaGrid",
    "build_grid",
    "calibrate",
    "interpolate",
    "load_grid",
    "save_grid",
]

SCHEMA = "gamma-grid/1"

_log = logging.getLogger("ecdf_bands")


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


def calibrate(
    n: int,
    l: int,
    grid: EvaluationGrid,
    alpha: float,
    method: str = "auto",
    *,
    m: int = DEFAULT_REPLICATES,
    seed: int = 0,
    threads: int = 1,
    cache=None,
) -> GammaResult:
    """Calibrate gamma for l chains of n draws on ``grid``.

    ``method`` is ``"optimize"`` (the exact search, one to three
    chains), ``"simulate"`` (m seeded replicates on ``threads``
    workers), ``"cache"`` (look up or interpolate ``cache``, a
    ``GammaGrid`` or its path), or ``"auto"``: the cache when one is
    given and covers the request, else the exact search up to three
    chains and simulation beyond.  When ``auto`` passes over a cache,
    ``meta["cache_miss"]`` holds the lookup's reason and a DEBUG record
    goes to the ``ecdf_bands`` logger.

    A searched or simulated gamma is computed once per process for each
    (n, l, grid points, alpha, method), with m and seed for simulation
    (``_calibration_slot``); a later call with the same key, on any
    number of threads, gets an equal result, and a DEBUG record says it
    was served from the memo.  Every call returns its own ``meta``
    dict.  A stored grid is read and interpolated on every call, and an
    error is raised on every call, never stored.
    """
    miss = None
    if method in ("auto", "cache") and cache is not None:
        try:
            stored = cache if isinstance(cache, GammaGrid) else load_grid(cache)
            return interpolate(stored, n, l, alpha)
        except (KeyError, ValueError) as exc:
            if method == "cache":
                raise
            miss = str(exc.args[0])
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("gamma cache miss for n=%d, %d chains: %s", n, l, miss)
    if method == "auto":
        method = "optimize" if l <= EXACT_CHAIN_LIMIT else "simulate"
    if method == "cache":
        raise ValueError("method 'cache' requires a gamma grid or its path")
    if method not in ("optimize", "simulate"):
        raise ValueError(f"unknown method {method!r}")

    def build() -> GammaResult:
        if method == "optimize":
            return gamma_optimize(n, grid, alpha) if l == 1 else gamma_optimize_multi(n, l, grid, alpha)
        if l == 1:
            return gamma_simulate(n, grid, alpha, m=m, seed=seed, threads=threads)
        return gamma_simulate_multi(n, l, grid, alpha, m=m, seed=seed, threads=threads)

    simulated = (m, seed) if method == "simulate" else ()
    res = _calibrated(
        ("gamma", n, l, tuple(grid.points.tolist()), alpha, method, *simulated), build,
        lambda: f"gamma for n={n}, {l} chains, K={grid.size}, alpha={alpha:g} by {method}",
    )
    meta = dict(res.meta) if miss is None else {**res.meta, "cache_miss": miss}
    return dataclasses.replace(res, meta=meta)


def _calibrated(key: tuple, build, what):
    """The memoized calibration under ``key``: ``build()`` on the first
    call in this process, the stored value after.  An error from
    ``build`` is raised and never stored.  A hit logs one DEBUG record
    saying that ``what()``, called only when DEBUG is on, was served
    from the memo.  The caller copies what it hands out."""
    slot = _calibration_slot(key)
    value = slot[0]
    if value is None:
        value = slot[0] = build()
    elif _log.isEnabledFor(logging.DEBUG):
        _log.debug("%s served from this process's calibration memo", what())
    return value


@functools.lru_cache(maxsize=40)
def _calibration_slot(key: tuple) -> list:
    """The memo entry of one calibration: a one-item list holding what
    ``_calibrated`` built for ``key``, or None until it has.  A key's
    first item names its kind: ``"gamma"``, for ``calibrate``'s
    (n, chains, grid points, alpha, method[, m, seed]), or
    ``"critical values"``, for ``power._critical_values``'
    (statistics, n, alpha, m, seed)."""
    return [None]


def build_grid(
    ns,
    ls,
    alphas,
    k_policy: int | None = None,
    m: int = DEFAULT_REPLICATES,
    seed: int = 0,
    threads: int = 1,
) -> GammaGrid:
    """Calibrate gamma for every (n, chains, alpha) combination.

    Each entry is ``calibrate(..., "auto")`` without a cache: the exact
    search for one to three chains, simulation beyond.  ``k_policy``
    caps the evaluation grid size; None keeps the default cap of 100.
    ``threads`` calibrates that many entries at once.
    """
    ns, ls, alphas = list(ns), list(ls), list(alphas)
    if not ns or not ls or not alphas:
        raise ValueError("ns, ls and alphas must be nonempty")
    k_max = 100 if k_policy is None else int(k_policy)
    jobs = [(n, l, a) for l in ls for a in alphas for n in ns]

    def entry(i: int, _) -> GridEntry:
        n, l, a = jobs[i]
        grid = default_grid(n, n * l if l > 1 else None, k_max=k_max)
        res = calibrate(n, l, grid, a, m=m, seed=seed)
        return GridEntry(n, l, grid.size, a, res.gamma, res.attained_coverage, res.method)

    return GammaGrid(tuple(_map_chunks(entry, len(jobs), 1, threads)))


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
        "entries": [dataclasses.asdict(e) for e in grid.entries],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_grid(path: str | os.PathLike) -> GammaGrid:
    """The grid saved at ``path``; a file that is not one raises a
    ValueError naming the file and, for a bad entry, its index.

    The file is read on every call, so a rewritten one is always seen;
    text already parsed at the same path is served from memory
    (``_parse_grid``), so a repeated call costs a read, not a parse.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except ValueError as exc:  # not UTF-8
            raise ValueError(f"{path}: {exc}") from None
    return _parse_grid(f"{path}", text)


@functools.lru_cache(maxsize=8)
def _parse_grid(path: str, text: str) -> GammaGrid:
    """The grid in ``text``, read from the file ``path``, whose errors
    name it; a grid is immutable, so one parse serves every load of the
    same text."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a gamma grid is a JSON object, not {type(payload).__name__}")
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"unsupported cache schema {payload.get('schema')!r}")
    records = payload.get("entries")
    if not isinstance(records, list):
        raise ValueError(f"{path}: entries must be a list")
    # each GridEntry field in order, with the type its stored value is read as
    fields = {"n": int, "l": int, "k": int, "alpha": float, "gamma": float, "coverage": float, "method": str}
    entries = []
    for i, rec in enumerate(records):
        try:
            entries.append(GridEntry(*(read(rec[name]) for name, read in fields.items())))
        except KeyError as exc:
            raise ValueError(f"{path}: entry {i} has no {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: entry {i}: {exc}") from None
    return GammaGrid(tuple(entries))
