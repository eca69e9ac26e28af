"""Rejection-rate sweeps under controlled departures from uniformity.

Uniform samples get pushed through one of three bijective distortion
families on [0, 1] (tilt towards one end, towards the ends, or towards
the middle, with a strength exponent), then tested either with the
simultaneous-band test or with classical uniformity statistics whose
critical values come from Monte Carlo under the null.

The null samples and the distorted samples take the simulators' one
replicate path: ``bands_single._replicate_blocks`` draws them in seeded
row blocks, and the band test rejects a sample whose tightest tail
level is below gamma, for one sample as for several chains.  Each count
law's module reads the levels, the simulators' way: one sample's
draws go to ``bands_single._sample_levels``, and several chains'
draws, argsorted into chain labels in pooled order, go to
``bands_multi._chain_levels``.  This module reads no law's table.

Within one process a sweep's Monte Carlo critical values are computed
once for each (statistics, n, alpha, m, seed) and kept in a bounded
memo (``_critical_slot``), as ``gamma_cache.calibrate`` keeps the band
test's gamma; the thread count is not part of the key.  The public
``critical_value`` is not memoized, and
``_critical_slot.cache_clear()`` empties the memo.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import bands_multi, bands_single
from .bands_single import DEFAULT_REPLICATES
from .gamma_cache import calibrate
from .transform import default_grid

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

_log = logging.getLogger("ecdf_bands")


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
        if self.k == math.inf:
            raise ValueError("k must be finite")


def apply_transform(x, t: Transformation):
    """Apply the distortion pointwise; scalars in, scalars out.

    Families B and C are odd about 0.5.  Each draw is folded onto one
    side (B: min(x, 1 - x); C: |x - 0.5|), raised to the power k once,
    and unfolded (B: 1 - y on the right; C: 0.5 plus y with the sign of
    x - 0.5), which rounds every draw exactly as the two halves' own
    formulas do.  These families work on at least 1-d arrays, so that a
    scalar takes the same array power as a batch of draws.
    """
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= 0.0) & (xa <= 1.0)):
        raise ValueError("values must lie in [0, 1]")
    k = t.k
    if t.family == "A":
        out = 1.0 - (1.0 - xa) ** k
    else:
        v = np.atleast_1d(xa)
        scale = 2.0 ** (k - 1.0)
        if t.family == "B":
            bent = np.minimum(v, 1.0 - v) ** k
            bent *= scale
            out = 1.0 - bent
            np.copyto(out, bent, where=v <= 0.5)
        else:
            d = v - 0.5
            bent = np.abs(d) ** k
            bent *= scale
            out = np.copysign(bent, d, out=bent)
            out += 0.5
        out = out.reshape(xa.shape)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _t1(srt: np.ndarray, u: np.ndarray) -> np.ndarray:
    n = srt.shape[-1]
    gaps = srt - np.arange(1, n + 1) / (n + 1)
    return np.abs(gaps, out=gaps).sum(axis=-1) / n


def _w2(srt: np.ndarray, u: np.ndarray) -> np.ndarray:
    n = srt.shape[-1]
    centers = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return ((srt - centers) ** 2).sum(axis=-1) + 1.0 / (12.0 * n)


def _u2(srt: np.ndarray, u: np.ndarray, w2: np.ndarray | None = None) -> np.ndarray:
    """Watson's U2: W2, computed here unless given, less n times the
    squared gap between the mean draw and 1/2."""
    n = srt.shape[-1]
    if w2 is None:
        w2 = _w2(srt, u)
    return w2 - n * (u.mean(axis=-1) - 0.5) ** 2


def _ks(srt: np.ndarray, u: np.ndarray) -> np.ndarray:
    n = srt.shape[-1]
    steps = np.arange(1, n + 1) / n
    upper = (steps - srt).max(axis=-1)
    lower = (srt - (steps - 1.0 / n)).max(axis=-1)
    return np.maximum(upper, lower)


_STATS = {"T1": _t1, "W2": _w2, "U2": _u2, "KS": _ks}
"""Each statistic of a batch of rows, from the rows sorted and as drawn
(U2's mean is taken over the draws in their drawn order)."""


def _row_statistics(u: np.ndarray, stats) -> dict[str, np.ndarray]:
    """Each named statistic of each row of ``u``, all read from one sort;
    when both W2 and U2 are named, U2 reads the W2 computed for W2."""
    srt = np.sort(u, axis=-1)
    out = {t: _STATS[t](srt, u) for t in stats if t != "U2"}
    if "U2" in stats:
        out["U2"] = _u2(srt, u, out.get("W2"))
    return {t: out[t] for t in stats}


def _critical_values(stats, n: int, alpha: float, m: int, seed: int, threads: int = 1) -> dict:
    """``_simulated_critical_values``, computed once per process for each
    (stats, n, alpha, m, seed) on any number of threads
    (``_critical_slot``); every call returns a new dict, and a DEBUG
    record says when the values came from the memo."""
    stats = tuple(stats)
    slot = _critical_slot(stats, n, alpha, m, seed)
    if slot[0] is None:
        slot[0] = _simulated_critical_values(stats, n, alpha, m, seed, threads)
    elif _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "critical values of %s for n=%d, alpha=%g served from this process's calibration memo",
            ",".join(stats), n, alpha,
        )
    return dict(slot[0])


@functools.lru_cache(maxsize=8)
def _critical_slot(stats: tuple, n: int, alpha: float, m: int, seed: int) -> list:
    """The memo entry of one set of critical values: a one-item list
    holding the dict ``_critical_values`` computed, or None until it
    has."""
    return [None]


def _simulated_critical_values(stats, n: int, alpha: float, m: int, seed: int, threads: int = 1) -> dict:
    """``critical_value`` of each named statistic, from one pass of m
    null samples through ``bands_single._replicate_blocks``, each chunk's
    stream keyed by its first replicate: each row block is drawn and
    sorted once for all of them."""
    for t in stats:
        if t not in _STATS:
            raise ValueError(f"stat must be one of {STAT_TESTS}, got {t!r}")
    if n < 1:
        raise ValueError("sample size must be positive")
    alpha = bands_single._check_alpha(alpha)
    if m < 1_000:
        raise ValueError("at least 1000 null replicates are required")

    def null_statistics(rng: np.random.Generator, size: int) -> dict:
        return _row_statistics(rng.random((size, n)), stats)

    blocks = bands_single._replicate_blocks(null_statistics, n, m, _CHUNK, seed, threads, by_start=True)
    quantile = bands_single._empirical_lower_quantile
    return {t: quantile(np.concatenate([block[t] for block in blocks]), 1.0 - alpha) for t in stats}


def critical_value(stat: str, n: int, alpha: float, m: int = DEFAULT_REPLICATES, seed: int = 0) -> float:
    """Monte Carlo critical value: the empirical (1-alpha) quantile of
    the statistic over m uniform null samples of size n.  Samples whose
    statistic exceeds this value are rejected."""
    return _simulated_critical_values((stat,), n, alpha, m, seed)[stat]


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


def _band_rejector(n: int, l: int, alpha: float, m: int, seed: int, threads: int):
    """Batch rejector for the band test on l chains, and its gamma.

    The sweep hands it one row block of distorted samples at a time.  A
    sample is rejected when its tightest tail level, read by its count
    law's level function as the simulators read their replicates', is
    below gamma, which is the verdict of the bands at gamma.  Several
    chains' draws are argsorted into pooled order, each position
    labelled with its draw's chain.
    """
    grid = default_grid(n, l * n if l > 1 else None)
    gamma = calibrate(n, l, grid, alpha, m=m, seed=seed, threads=threads)
    if l == 1:
        levels = bands_single._sample_levels(n, grid)
    else:
        chain_levels = bands_multi._chain_levels(n, l, grid)

        def levels(u: np.ndarray) -> np.ndarray:
            labels = np.argsort(u, axis=1)
            labels //= n
            return chain_levels(labels)

    def reject(u: np.ndarray) -> np.ndarray:
        return levels(u) < gamma.gamma

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
    m_calibration: int = DEFAULT_REPLICATES,
    threads: int = 1,
) -> PowerCurve:
    """Estimate rejection rates along a transformation-strength sweep.

    With one chain the whole sample is transformed and every requested
    test runs on it.  With several chains exactly one chain is
    transformed before joint ranking and only the band test applies.
    All strengths share the same underlying uniform draws, so curves
    are directly comparable point to point.  The classical statistics
    share one pass of null samples for their critical values, and each
    distorted sample is sorted once for all of them.  The replicates
    run through ``bands_single._replicate_blocks``, each row block drawn
    and tested for every strength before the next.
    """
    if isinstance(tests, str):
        tests = [tests]
    tests = list(tests)
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    ks = [float(k) for k in ks]
    if not ks or not all(k > 0.0 for k in ks):
        raise ValueError("ks must be a nonempty list of positive strengths")
    if math.inf in ks:
        raise ValueError("ks must be finite")
    if replicates < 1_000:
        raise ValueError("at least 1000 replicates are required")
    if n_chains < 1:
        raise ValueError("n_chains must be positive")
    tests = list(dict.fromkeys(tests))
    if not tests:
        raise ValueError("tests must name at least one test")
    if n_chains > 1 and tests != ["bands"]:
        raise ValueError("multi-chain sweeps support only the 'bands' test")
    for t in tests:
        if t != "bands" and t not in _STATS:
            raise ValueError(f"unknown test {t!r}")

    stats = [t for t in tests if t != "bands"]
    cvs = _critical_values(stats, n, alpha, m_calibration, seed + 1, threads) if stats else {}
    meta = {}
    band_reject = None
    for t in tests:
        if t == "bands":
            band_reject, gamma = _band_rejector(n, n_chains, alpha, m_calibration, seed, threads)
            meta["gamma"] = gamma.gamma
        else:
            meta[f"cv_{t}"] = cvs[t]

    transforms = [Transformation(family, k) for k in ks]

    def rejections(rng: np.random.Generator, size: int) -> np.ndarray:
        base = rng.random((size, n_chains * n))
        out = np.zeros((len(tests), len(ks)), dtype=np.int64)
        for j, tr in enumerate(transforms):
            if n_chains == 1:
                sample = apply_transform(base, tr)
            else:
                sample = base.copy()
                sample[:, :n] = apply_transform(base[:, :n], tr)
            rejected = {"bands": band_reject(sample)} if band_reject is not None else {}
            if stats:
                for t, values in _row_statistics(sample, stats).items():
                    rejected[t] = values > cvs[t]
            out[:, j] = [np.count_nonzero(rejected[t]) for t in tests]
        return out

    counts = np.sum(
        bands_single._replicate_blocks(rejections, n_chains * n, replicates, _CHUNK, seed, threads),
        axis=0,
    )
    rates = {t: tuple((c / replicates).tolist()) for t, c in zip(tests, counts)}
    return PowerCurve(
        family, n, tuple(ks), rates, replicates, seed, n_chains, alpha, meta
    )
