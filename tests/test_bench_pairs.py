"""``tools/bench_pairs.py`` on canned run records; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", _ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = tuple(bench_pairs.end_to_end())


def record(side, workload, seed, p50, rps=40.0, busy=False, trace=0, sha="aaaa"):
    metrics = {m: 1.0 for m in METRICS}
    metrics.update(latency_p50_s=p50, requests_per_s=rps, coverage_gap_max=0.0118691)
    env = {
        "nproc": 2,
        "cpus_allowed": 2,
        "python": "3.11.7",
        "numpy": "2.4.6",
        "scipy": "1.17.1",
        "blas_threads": "1",
        "src_sha256": sha,
        "busy": busy,
    }
    return {
        "side": side,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": True,
        "attempted": 100,
        "failed": 0,
        "metrics": metrics,
        "env": env,
        "busy": busy,
    }


def canned(parent_p50, change_p50, workload="exact-cold", first_seed=1):
    out = []
    for i, (a, b) in enumerate(zip(parent_p50, change_p50)):
        out.append(record("parent", workload, first_seed + i, a, sha="p"))
        out.append(record("change", workload, first_seed + i, b, rps=41.0, sha="c"))
    return out


def test_sides_alternate_with_the_parent_first_on_odd_pairs():
    assert [bench_pairs.pair_order(i) for i in range(3)] == [
        ("parent", "change"),
        ("change", "parent"),
        ("parent", "change"),
    ]


def test_plans_take_ranges_and_lists():
    assert bench_pairs.parse_plan("exact-cold=7-10") == ("exact-cold", [7, 8, 9, 10])
    assert bench_pairs.parse_plan("warm-cache=3,5") == ("warm-cache", [3, 5])


def test_summary_has_medians_quartiles_wins_and_a_met_claim():
    parent = [30.0, 31.0, 29.0, 30.5, 29.5, 30.2, 30.1, 29.9, 30.3, 29.8]
    change = [26.0, 27.0, 25.5, 26.5, 26.2, 26.1, 26.4, 31.5, 26.3, 26.0]
    records = canned(parent, change)
    records.append(record("change", "exact-cold", 99, 1.0, trace=1))
    out = bench_pairs.summarize(records, 7, "note", "abc", ("exact-cold", "latency_p50_s"))
    w = out["workloads"]["exact-cold"]
    assert w["parent"]["median"]["latency_p50_s"] == pytest.approx(30.05)
    assert w["parent"]["quartiles"]["latency_p50_s"] == pytest.approx([29.825, 30.275])
    assert w["change"]["median"]["latency_p50_s"] == pytest.approx(26.25)
    assert w["pair_wins"]["latency_p50_s"] == {"change_wins": 9, "ties": 0, "pairs": 10}
    assert w["pair_wins"]["requests_per_s"] == {"change_wins": 10, "ties": 0, "pairs": 10}
    assert w["pair_wins"]["coverage_gap_max"] == {"change_wins": 0, "ties": 10, "pairs": 10}
    assert w["change_over_parent"]["latency_p50_s"] == pytest.approx(26.25 / 30.05)
    assert [r["seed"] for r in w["parent"]["runs"]] == list(range(1, 11))
    claim = out["claim"]
    assert claim["met"] and claim["change_wins"] == 9 and claim["pairs"] == 10
    assert claim["parent_iqr"] == pytest.approx(0.45)
    assert claim["median_difference"] == pytest.approx(3.8)
    assert out["seeds"] == {"exact-cold": list(range(1, 11))}
    assert out["environment"]["src_sha256"] == {"parent": ["p"], "change": ["c"]}
    assert out["environment"]["busy_runs"] == 0
    assert out["traced_exact_cold_seed99"]["change"]["latency_p50_s"] == 1.0


def test_claim_fails_on_too_few_wins_or_a_gap_inside_the_spread():
    parent = [30.0, 31.0, 29.0, 30.5, 29.5, 30.2, 30.1, 29.9, 30.3, 29.8]
    eight_wins = [26.0] * 8 + [32.0, 32.0]
    out = bench_pairs.summarize(canned(parent, eight_wins), 7, "", None, ("exact-cold", "latency_p50_s"))
    assert out["claim"]["change_wins"] == 8 and not out["claim"]["met"]
    small_gain = [p - 0.1 for p in parent]
    out = bench_pairs.summarize(canned(parent, small_gain), 7, "", None, ("exact-cold", "latency_p50_s"))
    assert out["claim"]["change_wins"] == 10 and not out["claim"]["met"]


def test_claim_fails_when_the_change_fails_more_operations():
    parent = [30.0, 31.0, 29.0, 30.5, 29.5, 30.2, 30.1, 29.9, 30.3, 29.8]
    records = canned(parent, [26.0] * 10)
    records[3]["failed"] = 1
    out = bench_pairs.summarize(records, 7, "", None, ("exact-cold", "latency_p50_s"))
    claim = out["claim"]
    assert claim["change_wins"] == 10 and claim["change_failed"] == 1 and claim["parent_failed"] == 0
    assert not claim["met"]
    records[2]["failed"] = 1
    assert bench_pairs.summarize(records, 7, "", None, ("exact-cold", "latency_p50_s"))["claim"]["met"]


def test_metrics_and_bounds_come_from_the_benchmark_declaration():
    declared = json.loads((_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(bench_pairs.end_to_end().values()) == declared


def test_a_change_within_the_bound_is_no_regression():
    # latency_p50_s is bounded at 0.2: 30 -> 35 is 16.7 % worse
    out = bench_pairs.summarize(canned([30.0, 30.0, 30.0], [35.0, 35.0, 35.0]), 7, "", None, None)
    assert out["workloads"]["exact-cold"]["regressions"] == []


def test_a_change_beyond_the_bound_is_listed_as_a_regression():
    records = canned([30.0, 30.0, 30.0], [37.0, 37.0, 37.0])
    for r in records[1::2]:
        r["metrics"]["requests_per_s"] = 30.0  # 25 % fewer than the parent's 40
    out = bench_pairs.summarize(records, 7, "", None, None)
    assert out["workloads"]["exact-cold"]["regressions"] == ["latency_p50_s", "requests_per_s"]


def test_a_run_recorded_twice_is_rejected():
    records = canned([30.0, 31.0], [26.0, 27.0])
    rerun = record("change", "exact-cold", 2, 25.0)
    with pytest.raises(ValueError, match="more than once"):
        bench_pairs.summarize(records + [rerun], 7, "", None, None)
    traced = record("change", "exact-cold", 2, 25.0, trace=1)
    assert bench_pairs.summarize(records + [traced], 7, "", None, None)["workloads"]["exact-cold"]


def test_every_run_lasts_the_fixed_run_length():
    cmd = bench_pairs.command("exact-cold", 5, 0)
    assert cmd[cmd.index("--seconds") + 1] == "20"
    assert "--seconds 20 " in bench_pairs.summarize(canned([30.0], [26.0]), 7, "", None, None)["command"]


def test_busy_runs_are_counted_and_kept_on_each_run():
    records = canned([30.0, 31.0], [26.0, 27.0], workload="warm-cache")
    records[1]["busy"] = records[1]["env"]["busy"] = True
    out = bench_pairs.summarize(records, 7, "", None, None)
    assert out["environment"]["busy_runs"] == 1
    assert [r["busy"] for r in out["workloads"]["warm-cache"]["change"]["runs"]] == [True, False]
    assert "claim" not in out


def test_from_runs_writes_the_summary_without_running(tmp_path):
    runs = tmp_path / "runs.jsonl"
    runs.write_text("".join(json.dumps(r) + "\n" for r in canned([30.0, 31.0], [26.0, 27.0])))
    out = tmp_path / "BENCH_7.json"
    argv = ["--pr", "7", "--from-runs", str(runs), "--out", str(out), "--claim", "exact-cold:latency_p50_s"]
    assert bench_pairs.main(argv) == 0
    written = json.loads(out.read_text())
    assert written["pr"] == 7 and written["claim"]["pairs"] == 2
    assert set(written["workloads"]) == {"exact-cold"}
