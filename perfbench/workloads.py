"""Seeded inputs and request schedules for the three workloads.

A workload is an endless, deterministic list of jobs.  Job ``i`` gets
its data from ``SeedSequence((seed, i))``, so the same seed gives the
same inputs, while its shape (command, chain count, size, flags) comes
from a schedule slot and does not depend on the seed: calibration cost
depends on the shape only, and fixing it keeps runs with different
seeds comparable.  Each job writes its input files, names the CLI calls
to make, and carries a check for their outputs.

The request mixes are a measurement choice, not recorded traffic: each
workload's cycle repeats its request classes in fixed proportions so
that the overall median and tail each fall inside one class, and
``class_p50_gmean_s`` reports every class's median so that no class is
hidden by where the overall median falls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

CACHE_NS = "32,64,96"
CACHE_LS = "1,2,4"

SEARCH_DEFECT = "the exact gamma search stops on a step far from the target coverage"


@dataclass
class Job:
    """One request: CLI calls made back to back, timed as one unit."""

    cls: str
    n: int
    steps: list[list[str]]
    check: Callable[[list[int], dict], tuple[list[str], float | None]]
    gap: bool = field(default=False)
    """The check measures the served band's exact coverage (``test`` on
    at most three chains)."""

    @property
    def shape(self) -> tuple[str, int]:
        return (self.cls, self.n)


def write_csv(path: str, columns: np.ndarray, names: list[str]) -> None:
    """One column per row of ``columns``, values in round-trip repr."""
    lines = [",".join(names)]
    lines += [",".join(repr(float(v)) for v in row) for row in np.asarray(columns).T]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def spread_sizes(lo: int, step: int, count: int, stride: int) -> tuple[int, ...]:
    """The sizes lo, lo + step, ... (count of them), ordered so that each
    prefix spreads over the range."""
    if np.gcd(stride, count) != 1:
        raise ValueError("stride must be coprime with the size count")
    return tuple(lo + step * ((j * stride) % count) for j in range(count))


def ar1(rng: np.random.Generator, phi: float, chains: int, n: int) -> np.ndarray:
    """Stationary AR(1) chains with unit-variance normal margins."""
    eps = rng.standard_normal((chains, n)) * np.sqrt(1.0 - phi * phi)
    x = np.empty((chains, n))
    x[:, 0] = rng.standard_normal(chains)
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + eps[:, t]
    return x


class Workload:
    """Base class: the ``cycle`` of request kinds repeats in order, and
    ``job(i, slot)`` builds request i, with the shape of schedule slot
    ``slot``, into ``workdir``."""

    name = ""
    cycle: tuple = ()
    sizes: dict[str, tuple[int, ...]] = {}
    """Kind -> the sizes its requests take in turn."""
    cold_start = False
    """Clear the program's in-process caches before each request, as a
    fresh CLI process starts with none."""
    reference_weights = (1.0, 1.0)
    """Weights of the recursion and the vector part of the host-speed
    reference (``reference.py``)."""
    known_defects: dict = {}
    """(request class, n, failure tag) -> (largest coverage gap, or None
    for other tags; defect) for what the program fails at the seed
    commit.  Such failures are reported as known defects and not counted
    in ``failed``; every failure not listed here, and a listed coverage
    failure whose gap exceeds the seed's, counts in ``failed`` and makes
    the run incorrect."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup_argv(self, cache_path: str) -> list[str]:
        """CLI arguments run once per set-up after importing the CLI."""
        return []

    @property
    def period(self) -> int:
        """Slots after which every kind has taken each of its sizes."""
        return len(self.cycle) * max([len(v) for v in self.sizes.values()] + [1])

    def job(self, i: int, slot: int | None = None) -> Job:
        slot = i if slot is None else slot
        pos = slot % len(self.cycle)
        kind, *shape = self.cycle[pos]
        same = [p for p, entry in enumerate(self.cycle) if entry[0] == kind]
        j = (slot // len(self.cycle)) * len(same) + same.index(pos)
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, i)))
        return getattr(self, "_" + kind)(rng, j, *shape)

    def size(self, kind: str, j: int) -> int:
        sizes = self.sizes[kind]
        return sizes[j % len(sizes)]

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def test_job(self, cls, rng, chains, n, extra=()):
        """``test`` on uniform PIT values (one column) or normal chains."""
        x = rng.random((1, n)) if chains == 1 else rng.standard_normal((chains, n))
        src, out = self.path(f"{cls}.csv"), self.path(f"{cls}.json")
        names = ["pit"] if chains == 1 else [f"chain{c + 1}" for c in range(chains)]
        write_csv(src, x, names)
        argv = ["test", src, "--out", out, *extra]
        return Job(cls, n, [argv], lambda rcs, cov: checks.check_test(rcs[-1], out, x, cov), gap=chains <= 3)


class ExactCold(Workload):
    """``test`` with no gamma cache, so ``auto`` runs the exact search.
    The program's caches are cleared before each request, so every
    request builds its distribution tables cold, as a fresh CLI process
    does, also when its size was used earlier in the run.

    One PIT column at n 251-441, 2 chains at n 41-156 (both in steps of
    10 and 5) and 3 chains at n 23-26, in the ratio 6 : 2 : 2.  The ratio puts the median inside
    the one-column requests and the tail inside the 3-chain requests
    (the 3-chain recursion grows steeply with n), so neither sits on the
    edge between request kinds."""

    name = "exact-cold"
    cold_start = True
    known_defects = {
        ("test_l2", 101, "coverage"): (0.0259, SEARCH_DEFECT),
        ("test_l2", 131, "coverage"): (0.0241, SEARCH_DEFECT),
        ("test_l2", 151, "coverage"): (0.0119, SEARCH_DEFECT),
        ("test_l3", 26, "coverage"): (0.0475, SEARCH_DEFECT),
    }
    """Of all 2-chain sizes 40-159, the 12 primes above 100 fail at the
    seed commit; the sizes here include three of them."""
    cycle = (("l1",), ("l3",), ("l1",), ("l2",), ("l1",), ("l1",), ("l3",), ("l1",), ("l2",), ("l1",))
    sizes = {
        "l1": spread_sizes(251, 10, 20, 7),
        "l2": spread_sizes(41, 5, 24, 7),
        "l3": spread_sizes(23, 1, 4, 3),
    }

    def _l1(self, rng, j):
        return self.test_job("test_l1", rng, 1, self.size("l1", j))

    def _l2(self, rng, j):
        return self.test_job("test_l2", rng, 2, self.size("l2", j))

    def _l3(self, rng, j):
        return self.test_job("test_l3", rng, 3, self.size("l3", j))


class MonteCarlo(Workload):
    """Simulation-calibrated requests: ``test`` on 4 chains of 80 and
    8 chains of 40 (auto picks simulation with the CLI default of 10,000
    replicates; both cost about the same, and the median and tail fall
    inside them), a minority of one-column ``--method simulate`` tests,
    and ``power`` sweeps with Monte Carlo critical values or a 4-chain
    band test."""

    name = "monte-carlo"
    reference_weights = (1.0, 2.0)
    """The replicate harness works on large vectors, so the vector part
    of the host-speed reference counts double."""
    cycle = (
        ("multi", 4, 80),
        ("sim1",),
        ("multi", 8, 40),
        ("multi", 4, 80),
        ("power_stats",),
        ("multi", 8, 40),
        ("multi", 4, 80),
        ("sim1",),
        ("multi", 8, 40),
        ("multi", 4, 80),
        ("power_chains",),
        ("multi", 8, 40),
    )
    sizes = {"sim1": (150, 250, 350, 450)}

    def _multi(self, rng, j, chains, n):
        return self.test_job(f"test_l{chains}", rng, chains, n)

    def _sim1(self, rng, j):
        return self.test_job("test_sim1", rng, 1, self.size("sim1", j), ("--method", "simulate"))

    def _power(self, cls, n, argv, ks):
        out = self.path(f"{cls}.csv")
        argv = ["power", *argv, "--n", str(n), "--ks", ",".join(f"{k:g}" for k in ks), "--out", out]
        return Job(cls, n, [argv], lambda rcs, cov: (checks.check_power(rcs[-1], out, ks), None))

    def _power_stats(self, rng, j):
        argv = ["--family", "ABC"[j % 3], "--tests", "T1,W2,U2,KS"]
        return self._power("power_stats", 100, argv, [0.5, 1.0, 2.0])

    def _power_chains(self, rng, j):
        argv = ["--family", "ABC"[j % 3], "--chains", "4"]
        return self._power("power_chains", 40, argv, [1.0, 1.5])


class WarmCache(Workload):
    """Short requests against a gamma cache built in set-up (n = 32, 64,
    96 for 1, 2 and 4 chains), from a small set of repeated shapes:
    cached and interpolated ``test`` requests, one size below the cached
    range, ``--grid-k 20`` requests, the ``pit`` then ``test`` flow,
    ``thin`` on two AR(1) chains of 1000, and ``plot``."""

    name = "warm-cache"
    known_defects = {
        ("test_gridk", 64, "coverage"): (0.0161, "a cached gamma is served on a grid of another size"),
        ("test_gridk", 80, "coverage"): (0.0239, "a cached gamma is served on a grid of another size"),
        ("pit_test", 50, "exit2"): (None, "test rejects the header lines of the pit command's own output"),
    }
    cycle = (
        ("test", "test_l1", 1, 64),
        ("test", "test_gridk", 1, 64, ("--grid-k", "20")),
        ("test", "test_l2", 2, 64),
        ("thin",),
        ("test", "test_l4", 4, 64),
        ("pit_test",),
        ("test", "test_l1", 1, 48),
        ("test", "test_gridk", 2, 80, ("--grid-k", "20")),
        ("plot_diff",),
        ("test", "test_l2", 2, 40),
        ("test", "test_l4", 4, 50),
        ("test", "test_l1", 1, 80),
        ("plot_hist",),
        ("test", "test_l1", 1, 24),
        ("thin",),
    )

    def setup_argv(self, cache_path):
        return ["gamma", "build", "--ns", CACHE_NS, "--ls", CACHE_LS, "--out", cache_path]

    def _test(self, rng, j, cls, chains, n, extra=()):
        return self.test_job(cls, rng, chains, n, extra)

    def _thin(self, rng, j):
        x = ar1(rng, 0.7, 2, 1000)
        src, out, ess = self.path("thin.csv"), self.path("thin_out.csv"), self.path("thin_ess.json")
        write_csv(src, x, ["chain1", "chain2"])
        argv = ["thin", src, "--out", out, "--ess-out", ess]
        return Job("thin", x.shape[1], [argv], lambda rcs, cov: (checks.check_thin(rcs[-1], out, ess, x), None))

    def _pit_test(self, rng, j):
        y = rng.standard_normal(50)
        comparison = rng.standard_normal((50, 49))
        ysrc, csrc = self.path("pit_y.csv"), self.path("pit_comparison.csv")
        pit_out, test_out = self.path("pit_out.csv"), self.path("pit_test.json")
        write_csv(ysrc, y[None, :], ["y"])
        write_csv(csrc, comparison.T, [f"s{k + 1}" for k in range(comparison.shape[1])])
        steps = [["pit", ysrc, csrc, "--out", pit_out], ["test", pit_out, "--out", test_out]]

        def check(rcs, cov):
            failures = checks.check_pit(rcs[0], pit_out, y, comparison)
            if failures:
                return ["pit_" + f for f in failures], None
            u = (comparison <= y[:, None]).sum(axis=1)[None, :] / comparison.shape[1]
            return checks.check_test(rcs[1], test_out, u, cov)

        return Job("pit_test", y.size, steps, check, gap=True)

    def _plot_diff(self, rng, j):
        x = rng.standard_normal((2, 64))
        src, out = self.path("plot_diff.csv"), self.path("plot_diff.svg")
        write_csv(src, x, ["chain1", "chain2"])
        argv = ["plot", src, "--kind", "ecdf_diff", "--out", out]
        return Job("plot_diff", x.shape[1], [argv], lambda rcs, cov: (checks.check_svg(rcs[-1], out, 2), None))

    def _plot_hist(self, rng, j):
        u = rng.random((1, 64))
        src, out = self.path("plot_hist.csv"), self.path("plot_hist.svg")
        write_csv(src, u, ["pit"])
        argv = ["plot", src, "--kind", "rank_hist", "--bins", "16", "--out", out]
        return Job("plot_hist", u.shape[1], [argv], lambda rcs, cov: (checks.check_svg(rcs[-1], out, None), None))


WORKLOADS = {w.name: w for w in (ExactCold, MonteCarlo, WarmCache)}
