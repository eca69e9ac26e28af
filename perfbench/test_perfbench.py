"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stats import block_tail_latency, tail_latency  # noqa: E402
from tracing import layer_metrics, self_times  # noqa: E402


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = tail_latency(range(100, 0, -1))
    assert (value, pct, beyond) == (90, 90.0, 10)
    value, pct, beyond = tail_latency(range(11))
    assert (value, beyond) == (0, 10)
    assert sum(v > value for v in range(11)) == 10
    assert pct == pytest.approx(100.0 / 11)


def test_tail_of_ten_or_fewer_samples_is_the_maximum():
    assert tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail_latency(range(10)) == (9, 100.0, 0)


def test_block_tail_is_the_median_over_blocks():
    # fewer than two blocks' worth: the tail of the whole run
    assert block_tail_latency(range(100, 0, -1), block=60) == (90, 90.0, 10, 1)
    # three blocks of 20 (the 5 left over join the last), each with one
    # stall; the median ignores the block whose stalls reach its tail
    quiet = [1.0] * 9 + [2.0] * 11
    stalled = [1.0] * 9 + [2.0] * 10 + [50.0]
    busy = [1.0] * 14 + [50.0] * 11
    value, pct, beyond, blocks = block_tail_latency(quiet + stalled + busy, block=20)
    assert (value, beyond, blocks) == (2.0, 10, 3)
    assert pct == pytest.approx(50.0)


def _span(name, start, end, parent, request=0, detail=None):
    return [name, start, end, parent, request, detail]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("bands_single.test_single", 1.0, 4.0, 0),
        _span("bands_multi.test_multi", 5.0, 9.0, 0),
        _span("dist.hyper_quantile", 6.0, 7.0, 2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_layer_metrics_count_search_evaluations_and_self_time():
    spans = [
        _span("cli.main", 0.0, 2.0, -1, 0, 0),
        _span("bands_single.gamma_optimize", 0.1, 1.1, 0),
        _span("bands_single.coverage_probability", 0.2, 0.4, 1, detail=(1, 0.96)),
        _span("bands_single.coverage_probability", 0.5, 0.7, 1, detail=(1, 0.96)),
        _span("bands_single.coverage_probability", 0.8, 0.9, 1, detail=(1, 0.95)),
        _span("cli.main", 2.0, 3.0, -1, 1, 2),
        _span("gamma_cache.interpolate", 2.1, 2.2, 5, 1, "raised"),
    ]
    m = layer_metrics(spans, requests=2)
    assert m["optim.searches"] == pytest.approx(0.5)
    assert m["optim.evals_per_search"] == pytest.approx(3.0)
    assert m["optim.distinct_step_ratio"] == pytest.approx(2.0 / 3.0)
    assert m["optim.self_s"] == pytest.approx((1.0 - 0.5) / 2)
    assert m["bands_single.coverage_ms_per_eval"] == pytest.approx(1e3 * 0.5 / 3)
    assert m["cli.self_s"] == pytest.approx((2.0 - 1.0 + 1.0 - 0.1) / 2)
    assert m["cli.exit2"] == pytest.approx(0.5)
    # the miss ended in an error, so auto did not silently fall through
    assert m["gamma_cache.fallthrough"] == 0.0
    assert m["gamma_cache.hit_ratio"] == 0.0


def test_every_per_layer_metric_is_computed():
    computed = set(layer_metrics([], requests=1))
    set_by_run = {"cli.import_s", "gamma_cache.build_s", "dist.table_hit_ratio"}
    set_by_run |= {n for n in run.PER_LAYER if n.startswith("trace.")}
    assert computed | set_by_run == set(run.PER_LAYER)


def test_benchmark_json_matches_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        n: v[:2] for n, v in run.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("n, gamma", [(30, 0.02), (250, 0.003)])
def test_one_sample_oracle_agrees_with_the_program(n, gamma):
    from ecdf_bands.bands_single import bands_from_gamma, coverage_probability
    from ecdf_bands.transform import default_grid

    grid = default_grid(n)
    b = bands_from_gamma(n, grid, gamma)
    ours = checks.coverage_one_sample(n, grid.points, b.lower_counts, b.upper_counts)
    assert ours == pytest.approx(coverage_probability(n, grid, gamma), abs=1e-10)


@pytest.mark.parametrize("chains, n, gamma", [(2, 40, 0.01), (3, 15, 0.02)])
def test_chain_oracle_agrees_with_the_program(chains, n, gamma):
    from ecdf_bands.bands_multi import bands_from_gamma_multi, coverage_probability_multi
    from ecdf_bands.transform import default_grid

    grid = default_grid(n, chains * n)
    b = bands_from_gamma_multi(n, chains, grid, gamma)
    ours = checks.coverage_chains(n, chains, grid.points, b.lower_ranks, b.upper_ranks)
    assert ours == pytest.approx(coverage_probability_multi(n, chains, grid, gamma), abs=1e-10)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Real ``test`` reports for one PIT column and for two chains."""
    import ecdf_bands.cli as cli

    tmp = tmp_path_factory.mktemp("served")
    rng = np.random.default_rng(5)
    out = {}
    for chains, x in ((1, rng.random((1, 60))), (2, rng.standard_normal((2, 50)))):
        src, report = tmp / f"in{chains}.csv", tmp / f"out{chains}.json"
        workloads.write_csv(str(src), x, [f"c{c}" for c in range(chains)])
        rc = cli.main(["test", str(src), "--out", str(report)])
        out[chains] = (rc, json.loads(report.read_text()), x, tmp)
    return out


def _check(served_case, payload, rc=None):
    rc0, _, x, tmp = served_case
    path = tmp / "corrupted.json"
    path.write_text(json.dumps(payload))
    return checks.check_test(rc0 if rc is None else rc, str(path), x, {})


@pytest.mark.parametrize("chains", [1, 2])
def test_check_accepts_the_program_output(served, chains):
    failures, gap = _check(served[chains], served[chains][1])
    assert failures == []
    assert gap <= checks.COVERAGE_TOL


@pytest.mark.parametrize("chains", [1, 2])
def test_check_catches_a_narrowed_band(served, chains):
    payload = json.loads(json.dumps(served[chains][1]))
    upper = payload["bands"]["upper"]
    k = len(upper) // 2
    payload["bands"]["upper"][k] = payload["bands"]["lower"][k]
    failures, _ = _check(served[chains], payload)
    assert "coverage" in failures


@pytest.mark.parametrize("chains", [1, 2])
def test_check_catches_a_flipped_verdict(served, chains):
    payload = json.loads(json.dumps(served[chains][1]))
    payload["inside"] = not payload["inside"]
    failures, _ = _check(served[chains], payload, rc=1 - served[chains][0])
    assert failures == ["verdict"]


def test_check_catches_a_thinned_output_that_skips_draws(tmp_path):
    x = np.arange(20.0).reshape(2, 10)
    out, ess = tmp_path / "t.csv", tmp_path / "e.json"
    ess.write_text(json.dumps({"factor": 3}))
    workloads.write_csv(str(out), x[:, ::3], ["chain1", "chain2"])
    assert checks.check_thin(0, str(out), str(ess), x) == []
    workloads.write_csv(str(out), x[:, 1::3], ["chain1", "chain2"])
    assert checks.check_thin(0, str(out), str(ess), x) == ["thin"]


def test_spread_sizes_take_every_size_once():
    sizes = workloads.spread_sizes(41, 5, 24, 7)
    assert sorted(sizes) == list(range(41, 161, 5))
    assert min(sizes[:6]) < 70 and max(sizes[:6]) > 130


def _shapes(workload, slots):
    return sorted(workload.job(i, s).shape for i, s in slots)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_cycles_repeat_the_shapes_of_the_untraced_ones(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    cycle = len(workload.cycle)
    for pair in range(3):
        requests = range(2 * cycle * pair, 2 * cycle * (pair + 1))
        slots = [(i, run.schedule_slot(i, cycle, True)) for i in requests]
        plain = [(i, s) for i, s in slots if not run.is_traced(i, cycle)]
        traced = [(i, s) for i, s in slots if run.is_traced(i, cycle)]
        assert _shapes(workload, plain) == _shapes(workload, traced)
        # the traced half runs second in even pairs and first in odd ones
        assert run.is_traced(min(requests), cycle) == (pair % 2 == 1)
    # the traced schedule still walks through every size
    every = {workload.job(i, run.schedule_slot(i, cycle, True)).shape for i in range(2 * workload.period)}
    assert every == {workload.job(i).shape for i in range(workload.period)}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_period_reaches_every_size_and_every_known_defect(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    shapes = {workload.job(i).shape for i in range(workload.period)}
    for kind, sizes in workload.sizes.items():
        assert {n for cls, n in shapes if cls.endswith(kind)} == set(sizes)
    assert {(cls, n) for cls, n, _ in workload.known_defects} <= shapes


def _rec(cls, n, failures, gap=None):
    return {"cls": cls, "n": n, "failures": failures, "gap": gap}


def test_only_failures_the_seed_has_are_expected():
    known = {("test_l2", 101, "coverage"): (0.0259, ""), ("pit_test", 50, "exit2"): (None, "")}
    ok = [_rec("test_l2", 101, ["coverage"], 0.0258), _rec("pit_test", 50, ["exit2"]), _rec("test_l2", 103, [], 0.001)]
    assert run.unexpected_failures(ok, known) == []
    # the same defect at another size, or a worse gap at a known size
    assert run.unexpected_failures([_rec("test_l2", 103, ["coverage"], 0.02)], known) == ["test_l2 n=103 coverage"]
    [line] = run.unexpected_failures([_rec("test_l2", 101, ["coverage"], 0.03)], known)
    assert line.startswith("test_l2 n=101 coverage: gap 0.0300")
    assert run.unexpected_failures([_rec("test_l2", 101, ["verdict"], 0.001)], known) == ["test_l2 n=101 verdict"]


def test_known_defects_are_counted_apart_from_failed():
    known = {("test_l2", 101, "coverage"): (0.0259, ""), ("pit_test", 50, "exit2"): (None, "")}
    records = [
        _rec("test_l2", 101, ["coverage"], 0.0258),  # the seed's defect
        _rec("pit_test", 50, ["exit2"]),  # the seed's defect
        _rec("test_l2", 101, ["coverage"], 0.03),  # worse than the seed
        _rec("test_l2", 101, ["coverage", "verdict"], 0.0258),  # a new check fails too
        _rec("test_l2", 106, [], 0.001),
    ]
    assert run.count_failures(records, known) == (2, 2)
    table = run.class_table(records, [], known)
    assert (table["test_l2"]["failed"], table["test_l2"]["known"]) == (2, 1)
    assert (table["pit_test"]["failed"], table["pit_test"]["known"]) == (0, 1)


def test_host_scale_is_the_median_of_the_nearest_reference_samples():
    speed = reference.HostSpeed()
    speed.samples = [(0, 0.5), (3, 0.5), (6, 1.0), (9, 2.0)]
    # requests 0-2 lie between the samples at 0 and 3, requests 3-5
    # between 3 and 6, and so on; the last ones have no sample after
    assert speed.scales(11) == pytest.approx([0.5] * 3 + [0.75] * 3 + [1.5] * 3 + [2.0] * 2)


def test_speed_is_nominal_over_measured_reference_time():
    slow = tuple(2 * t for t in reference.NOMINAL_S)
    assert reference.relative_speed(slow, (1.0, 1.0)) == pytest.approx(0.5)
    assert reference.relative_speed((reference.NOMINAL_S[0], slow[1]), (0.0, 1.0)) == pytest.approx(0.5)
