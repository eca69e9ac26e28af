"""Rejection-rate sweeps under controlled departures from uniformity.

Uniform samples get pushed through one of three bijective distortion
families on [0, 1] (tilt towards one end, towards the ends, or towards
the middle, with a strength exponent), then tested either with the
simultaneous-band test or with classical uniformity statistics whose
critical values come from Monte Carlo under the null.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bands_multi, bands_single
from .bands_single import DEFAULT_REPLICATES
from .gamma_cache import calibrate
from .transform import EvaluationGrid, default_grid

__all__ = [
    "FAMILIES",
    "STAT_TESTS",
    "Transformation",
    "PowerCurve",
    "apply_transform",
    "critical_value",
    "power_sweep",
]

FAMILIES = ("A", "B", "C")
STAT_TESTS = ("T1", "W2", "U2", "KS")
DEFAULT_SWEEP_REPLICATES = 10_000
_CHUNK = 2_000


@dataclass(frozen=True)
class Transformation:
    """A bijective distortion of [0, 1] fixing both endpoints.

    Family A tilts mass towards 1 (k < 1) or 0 (k > 1); family B pushes
    mass towards the endpoints or the middle symmetrically; family C
    does the reverse, bending around 0.5.  k = 1 is the identity for
    every family.
    """

    family: str
    k: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not self.k > 0.0:
            raise ValueError("k must be positive")


def apply_transform(x, t: Transformation):
    """Apply the distortion pointwise; scalars in, scalars out."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > 1.0):
        raise ValueError("values must lie in [0, 1]")
    k = t.k
    if t.family == "A":
        out = 1.0 - (1.0 - xa) ** k
    else:
        out = np.empty_like(xa)
        left = xa <= 0.5
        right = ~left
        scale = 2.0 ** (k - 1.0)
        if t.family == "B":
            out[left] = scale * xa[left] ** k
            out[right] = 1.0 - scale * (1.0 - xa[right]) ** k
        else:
            out[left] = 0.5 - scale * (0.5 - xa[left]) ** k
            out[right] = 0.5 + scale * (xa[right] - 0.5) ** k
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _t1_rows(u: np.ndarray) -> np.ndarray:
    n = u.shape[-1]
    srt = np.sort(u, axis=-1)
    expected = np.arange(1, n + 1) / (n + 1)
    return np.abs(srt - expected).sum(axis=-1) / n


def _w2_rows(u: np.ndarray) -> np.ndarray:
    n = u.shape[-1]
    srt = np.sort(u, axis=-1)
    centers = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return ((srt - centers) ** 2).sum(axis=-1) + 1.0 / (12.0 * n)


def _u2_rows(u: np.ndarray) -> np.ndarray:
    n = u.shape[-1]
    return _w2_rows(u) - n * (u.mean(axis=-1) - 0.5) ** 2


def _ks_rows(u: np.ndarray) -> np.ndarray:
    n = u.shape[-1]
    srt = np.sort(u, axis=-1)
    steps = np.arange(1, n + 1) / n
    upper = (steps - srt).max(axis=-1)
    lower = (srt - (steps - 1.0 / n)).max(axis=-1)
    return np.maximum(upper, lower)


_ROW_STATS = {"T1": _t1_rows, "W2": _w2_rows, "U2": _u2_rows, "KS": _ks_rows}


def critical_value(stat: str, n: int, alpha: float, m: int = DEFAULT_REPLICATES, seed: int = 0) -> float:
    """Monte Carlo critical value: the empirical (1-alpha) quantile of
    the statistic over m uniform null samples of size n.  Samples whose
    statistic exceeds this value are rejected."""
    if stat not in _ROW_STATS:
        raise ValueError(f"stat must be one of {STAT_TESTS}, got {stat!r}")
    if n < 1:
        raise ValueError("sample size must be positive")
    alpha = bands_single._check_alpha(alpha)
    if m < 1_000:
        raise ValueError("at least 1000 null replicates are required")
    fn = _ROW_STATS[stat]

    def chunk(start: int, size: int) -> np.ndarray:
        return fn(bands_single._chunk_rng(seed, start).random((size, n)))

    values = np.concatenate(bands_single._map_chunks(chunk, m, _CHUNK))
    rank = int(np.ceil((1.0 - alpha) * m))
    return float(np.partition(values, rank - 1)[rank - 1])


@dataclass(frozen=True)
class PowerCurve:
    """Rejection rates along a strength sweep for one family."""

    family: str
    n: int
    ks: tuple[float, ...]
    rates: dict[str, tuple[float, ...]]
    replicates: int
    seed: int
    n_chains: int = 1
    alpha: float = 0.05
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, seq in self.rates.items():
            if len(seq) != len(self.ks):
                raise ValueError(f"rate sequence for {name!r} does not match ks")
            if any(not 0.0 <= r <= 1.0 for r in seq):
                raise ValueError(f"rates for {name!r} must lie in [0, 1]")


def _band_rejector(
    n: int, l: int, alpha: float, grid: EvaluationGrid | None, m: int, seed: int, threads: int
):
    """Batch rejector for the band test on l chains, and its gamma."""
    if grid is None:
        grid = default_grid(n, l * n if l > 1 else None)
    gamma = calibrate(n, l, grid, alpha, m=m, seed=seed, threads=threads)
    if l == 1:
        bands = bands_single.bands_from_gamma(n, grid, gamma)

        def count(u: np.ndarray) -> np.ndarray:
            return bands_single._grid_cell_counts(u, grid.points)[:, None, :]

    else:
        bands = bands_multi.bands_from_gamma_multi(n, l, grid, gamma)
        s = bands_multi._pooled_counts(grid, n, l)

        def count(u: np.ndarray) -> np.ndarray:
            return bands_multi._chain_cell_counts(u, s, n, l)

    lo, hi = bands.lower_counts, bands.upper_counts

    def reject(u: np.ndarray) -> np.ndarray:
        counts = count(u)
        return np.any((counts < lo) | (counts > hi), axis=(1, 2))

    return reject, gamma


def power_sweep(
    tests,
    family: str,
    ks,
    n: int,
    replicates: int = DEFAULT_SWEEP_REPLICATES,
    seed: int = 0,
    *,
    n_chains: int = 1,
    alpha: float = 0.05,
    grid: EvaluationGrid | None = None,
    m_calibration: int = DEFAULT_REPLICATES,
    threads: int = 1,
) -> PowerCurve:
    """Estimate rejection rates along a transformation-strength sweep.

    With one chain the whole sample is transformed and every requested
    test runs on it.  With several chains exactly one chain is
    transformed before joint ranking and only the band test applies.
    All strengths share the same underlying uniform draws, so curves
    are directly comparable point to point.
    """
    if isinstance(tests, str):
        tests = [tests]
    tests = list(tests)
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    ks = [float(k) for k in ks]
    if not ks or any(k <= 0.0 for k in ks):
        raise ValueError("ks must be a nonempty list of positive strengths")
    if replicates < 1_000:
        raise ValueError("at least 1000 replicates are required")
    if n_chains < 1:
        raise ValueError("n_chains must be positive")
    if n_chains > 1 and tests != ["bands"]:
        raise ValueError("multi-chain sweeps support only the 'bands' test")

    meta = {}
    rejectors = {}
    for t in tests:
        if t == "bands":
            rejectors[t], gamma = _band_rejector(
                n, n_chains, alpha, grid, m_calibration, seed, threads
            )
            meta["gamma"] = gamma.gamma
        elif t in _ROW_STATS:
            cv = critical_value(t, n, alpha, m=m_calibration, seed=seed + 1)
            fn = _ROW_STATS[t]
            rejectors[t] = lambda u, fn=fn, cv=cv: fn(u) > cv
            meta[f"cv_{t}"] = cv
        else:
            raise ValueError(f"unknown test {t!r}")

    transforms = [Transformation(family, k) for k in ks]
    counts = {t: np.zeros(len(ks), dtype=np.int64) for t in rejectors}

    def run(start: int, size: int):
        base = bands_single._chunk_rng(seed, start // _CHUNK).random((size, n_chains * n))
        local = {t: np.zeros(len(ks), dtype=np.int64) for t in rejectors}
        for j, tr in enumerate(transforms):
            if n_chains == 1:
                sample = apply_transform(base, tr)
            else:
                sample = base.copy()
                sample[:, :n] = apply_transform(base[:, :n], tr)
            for t, reject in rejectors.items():
                local[t][j] = int(np.count_nonzero(reject(sample)))
        return local

    for local in bands_single._map_chunks(run, replicates, _CHUNK, threads):
        for t in counts:
            counts[t] += local[t]
    rates = {t: tuple((c / replicates).tolist()) for t, c in counts.items()}
    return PowerCurve(
        family, n, tuple(ks), rates, replicates, seed, n_chains, alpha, meta
    )
