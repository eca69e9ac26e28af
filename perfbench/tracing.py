"""Spans around calls into each ecdf_bands module, from the outside.

``Tracer.install`` replaces each listed public function with a wrapper
in every ``ecdf_bands`` module namespace that holds it, because ``cli``
and the ``bands_*`` modules import functions by name.  A wrapper records
one span: name, start, end, parent span, request id and a small piece
of call detail.  Spans stay in memory until the run writes them out.
``layer_metrics`` turns the spans of the traced requests into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "ecdf_bands"

LAYERS = {
    "cli": ("main",),
    "transform": ("fractional_ranks", "joint_fractional_ranks", "ecdf_eval", "empirical_pit"),
    "dist": (
        "binom_cdf",
        "binom_cdf_table",
        "binom_sf_table",
        "binom_quantile",
        "hyper_cdf",
        "hyper_cdf_table",
        "hyper_sf_table",
        "hyper_quantile",
        "hyper_support",
    ),
    "bands_single": (
        "test_single",
        "gamma_optimize",
        "gamma_simulate",
        "coverage_probability",
        "bands_from_gamma",
        "band_exceedances",
    ),
    "bands_multi": (
        "test_multi",
        "gamma_optimize_multi",
        "gamma_simulate_multi",
        "coverage_probability_multi",
        "bands_from_gamma_multi",
    ),
    "gamma_cache": ("build_grid", "interpolate", "load_grid", "save_grid"),
    "thinning": ("ess_report", "thinning_factor", "thin"),
    "report": ("render_svg", "plot_data", "rank_hist"),
    "power": ("power_sweep", "critical_value"),
}
"""Module -> public functions wrapped.  The dist kernels called inside
the recursions (log_choose and the log-pmfs) are left out: they run
thousands of times per coverage evaluation and their time is part of
the recursion that calls them."""

RAISED = "raised"


def _detail(name: str, args, kwargs, out):
    """The part of a call that a metric needs, kept on its span."""
    if name == "cli.main":
        return out
    if name == "bands_single.coverage_probability":
        return (1, out)
    if name == "bands_multi.coverage_probability_multi":
        return (kwargs.get("l", args[1] if len(args) > 1 else None), out)
    if name.startswith(("bands_single.gamma_simulate", "bands_multi.gamma_simulate")):
        return out.meta.get("replicates", 0)
    if name == "power.power_sweep":
        return out.replicates * len(out.ks)
    if name == "report.render_svg":
        return len(out.encode("utf-8"))
    return None


class Tracer:
    """Records spans while installed, tagged with the current request."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._originals: dict[int, tuple[str, object]] = {}
        self._patched: list[tuple[object, str, object]] = []
        for mod, names in LAYERS.items():
            module = sys.modules.get(f"{PACKAGE}.{mod}")
            for fname in names:
                fn = getattr(module, fname, None)
                if callable(fn):
                    self._originals[id(fn)] = (f"{mod}.{fname}", fn)
        dist = sys.modules.get(f"{PACKAGE}.dist")
        self._lru = [v for v in vars(dist).values() if hasattr(v, "cache_info")] if dist else []
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache_mark = (0, 0)

    def begin_request(self, request: int) -> None:
        """Tag spans with ``request`` and mark the dist cache counters
        (a cache clear between requests resets them)."""
        self.request = request
        self._cache_mark = self._cache_totals()

    def end_request(self) -> None:
        hits, misses = self._cache_totals()
        self.cache_hits += hits - self._cache_mark[0]
        self.cache_misses += misses - self._cache_mark[1]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[2] = time.perf_counter()
                span[5] = RAISED
                stack.pop()
                raise
            span[2] = time.perf_counter()
            stack.pop()
            span[5] = _detail(name, args, kwargs, out)
            return out

        return wrapper

    def _cache_totals(self):
        infos = [f.cache_info() for f in self._lru]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def install(self) -> None:
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self._originals.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and self._originals[id(value)][1] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _ancestor(spans, i: int, names) -> int:
    p = spans[i][3]
    while p >= 0 and spans[p][0] not in names:
        p = spans[p][3]
    return p


def layer_metrics(spans, requests: int) -> dict[str, float]:
    """Per-layer metrics over the spans of ``requests`` traced requests.

    ``*_s`` values are seconds per request; counts are per request;
    ``*_ms_per_*`` and ``*_per_s`` are per call; ratios are shares.
    """
    per = 1.0 / max(requests, 1)
    selfs = self_times(spans)
    dur = defaultdict(float)
    calls = defaultdict(int)
    self_by = defaultdict(float)
    detail = defaultdict(list)
    for i, s in enumerate(spans):
        dur[s[0]] += s[2] - s[1]
        calls[s[0]] += 1
        self_by[s[0]] += selfs[i]
        detail[s[0]].append(s[5])

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["cli.self_s"] = self_by["cli.main"] * per
    m["cli.exit2"] = sum(1 for v in detail["cli.main"] if v == 2) * per
    m["transform.ranks_s"] = (dur["transform.fractional_ranks"] + dur["transform.joint_fractional_ranks"]) * per
    m["transform.ecdf_s"] = dur["transform.ecdf_eval"] * per
    m["transform.pit_s"] = dur["transform.empirical_pit"] * per
    dist_names = [f"dist.{f}" for f in LAYERS["dist"]]
    m["dist.tables_s"] = sum(self_by[n] for n in dist_names) * per
    m["dist.table_calls"] = sum(calls[n] for n in dist_names) * per

    cov_single = "bands_single.coverage_probability"
    m["bands_single.coverage_evals"] = calls[cov_single] * per
    m["bands_single.coverage_ms_per_eval"] = 1e3 * ratio(dur[cov_single], calls[cov_single])
    m["bands_single.optimize_s"] = dur["bands_single.gamma_optimize"] * per
    m["bands_single.simulate_s"] = dur["bands_single.gamma_simulate"] * per
    m["bands_single.simulate_reps_per_s"] = ratio(
        sum(detail["bands_single.gamma_simulate"]), dur["bands_single.gamma_simulate"]
    )
    m["bands_single.bands_s"] = dur["bands_single.bands_from_gamma"] * per
    m["bands_single.exceedances_s"] = dur["bands_single.band_exceedances"] * per

    cov_multi = "bands_multi.coverage_probability_multi"
    for l in (2, 3):
        idx = [i for i, s in enumerate(spans) if s[0] == cov_multi and s[5] != RAISED and s[5][0] == l]
        total = sum(spans[i][2] - spans[i][1] for i in idx)
        m[f"bands_multi.coverage_evals.l{l}"] = len(idx) * per
        m[f"bands_multi.coverage_ms_per_eval.l{l}"] = 1e3 * ratio(total, len(idx))
    m["bands_multi.optimize_s"] = dur["bands_multi.gamma_optimize_multi"] * per
    m["bands_multi.simulate_s"] = dur["bands_multi.gamma_simulate_multi"] * per
    m["bands_multi.simulate_reps_per_s"] = ratio(
        sum(detail["bands_multi.gamma_simulate_multi"]), dur["bands_multi.gamma_simulate_multi"]
    )
    m["bands_multi.bands_s"] = dur["bands_multi.bands_from_gamma_multi"] * per
    m["bands_multi.test_self_s"] = self_by["bands_multi.test_multi"] * per

    # The gamma search: each exact optimization call, its coverage
    # evaluations, and its own time outside them.
    searches = ("bands_single.gamma_optimize", "bands_multi.gamma_optimize_multi")
    n_search = calls[searches[0]] + calls[searches[1]]
    evals = defaultdict(list)
    for i, s in enumerate(spans):
        if s[0] in (cov_single, cov_multi) and s[5] != RAISED:
            owner = _ancestor(spans, i, searches)
            if owner >= 0:
                evals[owner].append(s)
    n_evals = sum(len(v) for v in evals.values())
    eval_time = sum(s[2] - s[1] for v in evals.values() for s in v)
    distinct = sum(len({s[5][1] for s in v}) for v in evals.values())
    m["optim.searches"] = n_search * per
    m["optim.evals_per_search"] = ratio(n_evals, n_search)
    m["optim.self_s"] = (dur[searches[0]] + dur[searches[1]] - eval_time) * per
    m["optim.distinct_step_ratio"] = ratio(distinct, n_evals)

    interp = detail["gamma_cache.interpolate"]
    m["gamma_cache.load_s"] = dur["gamma_cache.load_grid"] * per
    m["gamma_cache.lookups"] = len(interp) * per
    m["gamma_cache.hit_ratio"] = ratio(sum(1 for v in interp if v != RAISED), len(interp))
    failed_requests = {s[4] for s in spans if s[0] == "cli.main" and s[5] == 2}
    m["gamma_cache.fallthrough"] = sum(
        1 for s in spans if s[0] == "gamma_cache.interpolate" and s[5] == RAISED and s[4] not in failed_requests
    ) * per
    m["thinning.ess_calls"] = calls["thinning.ess_report"] * per
    m["thinning.ess_ms_per_call"] = 1e3 * ratio(dur["thinning.ess_report"], calls["thinning.ess_report"])
    m["report.render_s"] = dur["report.render_svg"] * per
    m["report.svg_bytes"] = ratio(sum(detail["report.render_svg"]), calls["report.render_svg"])
    m["power.sweep_s"] = dur["power.power_sweep"] * per
    m["power.reps_per_s"] = ratio(sum(detail["power.power_sweep"]), dur["power.power_sweep"])
    m["power.critical_value_s"] = dur["power.critical_value"] * per
    return m
