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
draws, as chain labels in pooled order, go to
``bands_multi._chain_levels``.  This module reads no law's table.
The labels come from one in-place sort of packed integer keys per
strength (``_pooled_labeller``), as the simulator's come from
``bands_multi._chain_labeller``: they are the labels of argsorting the
pooled floats on every replicate in which no two chains hold exactly
equal draws, and at such a tie the undistorted draw sorts first.

Within one process a sweep's Monte Carlo critical values are computed
once for each (statistics, n, alpha, m, seed) and kept in the package's
one calibration memo (``gamma_cache._calibration_slot``), beside the
band test's gamma; the thread count is not part of the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bands_multi, bands_single
from .bands_single import DEFAULT_REPLICATES
from .gamma_cache import _calibrated, calibrate
from .transform import default_grid

__all__ = [
    "FAMILIES",
    "STAT_TESTS",
    "Transformation",
    "PowerCurve",
    "apply_transform",
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
    every family.  Families B and C scale by 2^(k - 1), which overflows
    a double from k = 1025 on, so they take k below that.
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
        if self.family != "A" and self.k >= 1025.0:
            raise ValueError(
                f"k must be below 1025 for family {self.family}, where 2**(k - 1) overflows a double"
            )


def apply_transform(x, t: Transformation):
    """Apply the distortion pointwise; scalars in, scalars out.  Every
    value must lie in [0, 1]; ``_distort`` holds the formulas."""
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= 0.0) & (xa <= 1.0)):
        raise ValueError("values must lie in [0, 1]")
    out = _distort(xa, t)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _distort(x: np.ndarray, t: Transformation) -> np.ndarray:
    """The distortion of an array of draws in [0, 1], unchecked.

    Families B and C are odd about 0.5.  Each draw is folded onto one
    side (B: min(x, 1 - x); C: |x - 0.5|), raised to the power k once,
    and unfolded (B: 1 - y on the right; C: 0.5 plus y with the sign of
    x - 0.5), which rounds every draw exactly as the two halves' own
    formulas do.  Family C clamps y at 0.5, which its formula can pass by
    an ulp within a few ulps of the endpoints, so every draw stays in
    [0, 1], and maps 0 to 0 and 1 to 1 exactly.  These families work on
    at least 1-d
    arrays, so that a scalar takes the same array power as a batch of
    draws.
    """
    k = t.k
    if t.family == "A":
        return 1.0 - (1.0 - x) ** k
    v = np.atleast_1d(x)
    scale = 2.0 ** (k - 1.0)
    if t.family == "B":
        bent = np.minimum(v, 1.0 - v) ** k
        bent *= scale
        # y on the left, and 1 + (-y), which is exactly 1 - y, on the right
        out = np.copysign(bent, 0.5 - v, out=bent)
        out += v > 0.5
    else:
        d = v - 0.5
        bent = np.abs(d)
        # |x - 0.5| is 0.5 at the endpoints, where 0.5^k * 2^(k - 1) need
        # not round to 0.5; only then is the block searched for them
        edge = bent.max(initial=0.0) == 0.5
        bent **= k
        bent *= scale
        # within a few ulps of 0.5, |x - 0.5|^k * 2^(k - 1) can round
        # above 0.5, which would carry the draw out of [0, 1]
        np.minimum(bent, 0.5, out=bent)
        out = np.copysign(bent, d, out=bent)
        out += 0.5
        if edge:
            np.copyto(out, v, where=(v == 0.0) | (v == 1.0))
    return out.reshape(np.shape(x))


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
    """The Monte Carlo critical value of each named statistic: the
    empirical (1 - alpha) quantile of the statistic over m uniform null
    samples of size n, above which a sample is rejected.

    One pass of null samples through ``bands_single._replicate_blocks``,
    each chunk's stream keyed by its first replicate, serves all of
    them: each row block is drawn and sorted once.  The values are
    computed once per process for each (stats, n, alpha, m, seed) on
    any number of threads (``gamma_cache._calibrated``); every call
    returns a new dict, and a DEBUG record says when the values came
    from the memo.
    """
    stats = tuple(stats)

    def build() -> dict:
        for t in stats:
            if t not in _STATS:
                raise ValueError(f"stat must be one of {STAT_TESTS}, got {t!r}")
        if n < 1:
            raise ValueError("sample size must be positive")
        level = bands_single._check_alpha(alpha)
        if m < 1_000:
            raise ValueError("at least 1000 null replicates are required")

        def null_statistics(rng: np.random.Generator, size: int) -> dict:
            return _row_statistics(rng.random((size, n)), stats)

        blocks = bands_single._replicate_blocks(null_statistics, n, m, _CHUNK, seed, threads, by_start=True)
        quantile = bands_single._empirical_lower_quantile
        return {t: quantile(np.concatenate([block[t] for block in blocks]), 1.0 - level) for t in stats}

    return dict(_calibrated(
        ("critical values", stats, n, alpha, m, seed), build,
        lambda: f"critical values of {','.join(stats)} for n={n}, alpha={alpha:g}",
    ))


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

    The sweep hands it one row block of undistorted samples at a time,
    and it returns a rejector of that block with its first chain
    distorted, which the sweep calls once per strength.  A sample is
    rejected when its tightest tail level, read by its count law's
    level function as the simulators read their replicates', is below
    gamma, which is the verdict of the bands at gamma.  Several chains'
    draws are put in pooled order, each position labelled with its
    draw's chain, by one sort of packed integer keys per strength
    (``_pooled_labeller``); at an exact tie between chains the
    undistorted draw sorts first.
    """
    grid = default_grid(n, l * n if l > 1 else None)
    gamma = calibrate(n, l, grid, alpha, m=m, seed=seed, threads=threads)
    if l == 1:
        levels = bands_single._sample_levels(n, grid)

        def block(base: np.ndarray):
            return lambda sample: levels(sample) < gamma.gamma

    else:
        chain_levels = bands_multi._chain_levels(n, l, grid)
        labeller = _pooled_labeller(n, l)

        def block(base: np.ndarray):
            labels = labeller(base)
            return lambda first: chain_levels(labels(first)) < gamma.gamma

    return block, gamma


def _pooled_labeller(n: int, l: int):
    """Chain labels in pooled order of a row block of l chains of n
    draws whose first chain is distorted, (B, l*n) int64: a function of
    the block's undistorted draws, giving a function of its first
    chain's distorted draws, called once per strength.

    Up to ``bands_multi._PACKED_CHAIN_LIMIT`` chains, one in-place sort
    of packed integer keys orders each strength's draws, as
    ``bands_multi._chain_labeller`` orders the simulator's.  A key holds
    a draw's position on the 53-bit lattice ``rng.random`` draws from in
    its high bits and a label in its ``_LABEL_BITS`` low bits.  The
    undistorted draws' keys are built once per block: u * 2^53 is
    exactly the integer ``rng.random`` drew, and chain c (1 to l - 1)
    carries c - 1.  The distorted chain's keys are
    floor(f(u) * 2^53), clipped to [0, 2^53 - 1], and carry the all-ones
    label, so they sort after every undistorted draw at an equal key.
    After the sort one increment turns every low part into the chain
    id: c - 1 into c, and all ones, carrying out, into 0.

    So a distorted draw that lies between two lattice points sorts as
    the floats do, and the labels equal ``argsort`` of the pooled floats
    floor-divided by n, chain for chain, on every row where no two
    chains' draws are exactly equal.  At such an exact tie the
    undistorted draw sorts first, and tied undistorted draws sort by
    chain (``argsort``'s order there is unspecified).  A distorted draw
    of 1.0 sorts as the lattice's last point, and one below 0, which no
    family gives, as a draw at 0.  Past the limit the pooled
    floats are argsorted.
    """
    if l > bands_multi._PACKED_CHAIN_LIMIT:

        def block(base: np.ndarray):
            sample = base.copy()

            def labels(first: np.ndarray) -> np.ndarray:
                sample[:, :n] = first
                order = np.argsort(sample, axis=1)
                order //= n
                return order

            return labels

        return block

    bits = bands_multi._LABEL_BITS
    low = np.uint64((1 << bits) - 1)
    lattice = float(1 << 53)
    below = np.repeat(np.arange(l - 1, dtype=np.uint64), n)

    def block(base: np.ndarray):
        rest = (base[:, n:] * lattice).astype(np.uint64)
        rest <<= bits
        rest |= below

        def labels(first: np.ndarray) -> np.ndarray:
            keys = np.empty(base.shape, dtype=np.uint64)
            keys[:, n:] = rest
            head = keys[:, :n]
            scaled = first * lattice
            np.maximum(scaled, 0.0, out=scaled)
            np.minimum(scaled, lattice - 1.0, out=scaled)
            np.copyto(head, scaled, casting="unsafe")
            head <<= bits
            head |= low
            keys.sort(axis=1)
            keys += np.uint64(1)
            keys &= low
            return keys.view(np.int64)

        return labels

    return block


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
    and tested for every strength before the next; with several chains
    the undistorted chains' sort keys are built once per block, and each
    strength's pooled draws take one integer sort (``_pooled_labeller``).
    Every strength is checked (``Transformation``), and n must be
    positive, before anything is calibrated.
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
    if n < 1:
        raise ValueError("sample size must be positive")
    transforms = [Transformation(family, k) for k in ks]

    stats = [t for t in tests if t != "bands"]
    cvs = _critical_values(stats, n, alpha, m_calibration, seed + 1, threads) if stats else {}
    meta = {}
    band_block = None
    for t in tests:
        if t == "bands":
            band_block, gamma = _band_rejector(n, n_chains, alpha, m_calibration, seed, threads)
            meta["gamma"] = gamma.gamma
        else:
            meta[f"cv_{t}"] = cvs[t]

    def rejections(rng: np.random.Generator, size: int) -> np.ndarray:
        base = rng.random((size, n_chains * n))
        first = base[:, :n]
        band_reject = band_block(base) if band_block is not None else None
        out = np.zeros((len(tests), len(ks)), dtype=np.int64)
        for j, tr in enumerate(transforms):
            # with one chain the first chain is the whole sample
            sample = _distort(first, tr)
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
