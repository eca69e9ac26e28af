#!/usr/bin/env python3
"""Alternated parent/change benchmark pairs, summarized as ``BENCH_<pr>.json``.

    python3 tools/bench_pairs.py --parent ../parent --change . --pr 7 \\
        --plan exact-cold=7001-7010 --plan monte-carlo=7001-7005 \\
        --claim exact-cold:latency_p50_s --note "what the change does" \\
        --runs-out runs.jsonl --out BENCH_7.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds 20 --trace 0`` once in each checkout, one run at a time: the
parent first on odd pairs (1st, 3rd, ...), the change first on even
ones.  Every run's result line, its environment and its ``busy`` flag
(from the run record ``perfbench/run.py`` writes) are appended to
``--runs-out`` as one JSON line, so ``--from-runs`` can summarize them
again without running anything.  The summary has, per workload and
side, the median and the quartiles of each end-to-end metric and the
runs; per workload the change's median over the parent's, how many
pairs the change won, and the regressions: the metrics whose change
median is worse than the parent's by more than the metric's bound; and
the claim: whether the change won at least nine pairs in ten, its
median beat the parent's by more than the parent's interquartile range,
and its runs failed no more operations than the parent's.  The metrics,
which way is better and the bounds are read from the end-to-end list of
``BENCHMARK.json`` at the repository root.  ``--traced-seed`` adds one
``--trace 1`` run per side of the claim's workload, whose per-layer
metrics are kept as they are.  The parent commit recorded is the git
HEAD of ``--parent``, which may also be given with ``--from-runs``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

SIDES = ("parent", "change")
WIN_SHARE = 0.9
SECONDS = 20
"""Run length of every benchmark run, the same on both sides."""
BUSY_NOTE = "busy means the 1-minute load average passed nproc - 0.5 at the start or end of a run"
ENV_KEYS = ("nproc", "cpus_allowed", "python", "numpy", "scipy", "blas_threads")


@functools.cache
def end_to_end() -> dict:
    """The end-to-end metrics of ``BENCHMARK.json`` by name, each with
    ``better`` (which way) and ``bound`` (how much worse than the
    parent's, as a share of the parent's median, the change's median
    may be)."""
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    return {m["name"]: m for m in declared}


def pair_order(pair: int) -> tuple[str, str]:
    """The sides of pair ``pair`` (0-based) in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def command(workload: str, seed: int, trace: int) -> list[str]:
    return [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(SECONDS),
        "--trace",
        str(trace),
    ]


def run_once(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One benchmark run in ``checkout``: its result line and its run
    record's environment."""
    proc = subprocess.run(command(workload, seed, trace), cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = checkout / ".perfbench-out" / "runs" / f"{workload}-seed{seed}-trace{trace}.json"
    env = json.loads(record.read_text())["env"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "env": env,
        "busy": bool(env.get("busy")),
    }


def quartiles(values: list[float]) -> list[float]:
    """Lower and upper quartile, interpolated linearly between order
    statistics (numpy's default)."""
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def side_summary(runs: list[dict]) -> dict:
    metrics = list(end_to_end())
    return {
        "median": {m: statistics.median(r["metrics"][m] for r in runs) for m in metrics},
        "quartiles": {m: quartiles([r["metrics"][m] for r in runs]) for m in metrics},
        "runs": [
            {
                "seed": r["seed"],
                "correct": r["correct"],
                "attempted": r["attempted"],
                "failed": r["failed"],
                "busy": r["busy"],
                **{m: r["metrics"][m] for m in metrics},
            }
            for r in runs
        ],
    }


def pair_wins(parent: list[dict], change: list[dict]) -> dict:
    """Per metric, the pairs (same seed) in which the change was better,
    and the ties."""
    by_seed = {r["seed"]: r for r in parent}
    out = {}
    for m, spec in end_to_end().items():
        wins = ties = pairs = 0
        for c in change:
            p = by_seed.get(c["seed"])
            if p is None:
                continue
            pairs += 1
            a, b = p["metrics"][m], c["metrics"][m]
            if a == b:
                ties += 1
            elif (b < a) == (spec["better"] == "lower"):
                wins += 1
        out[m] = {"change_wins": wins, "ties": ties, "pairs": pairs}
    return out


def gain(metric: str, parent_median: float, change_median: float) -> float:
    """How much better the change's median is than the parent's, in the
    metric's unit; negative when it is worse."""
    diff = parent_median - change_median
    return -diff if end_to_end()[metric]["better"] == "higher" else diff


def regressions(entry: dict) -> list[str]:
    """The metrics whose change median is worse than the parent's by
    more than their bound."""
    parent, change = entry["parent"]["median"], entry["change"]["median"]
    return [
        m for m, spec in end_to_end().items() if -gain(m, parent[m], change[m]) > spec["bound"] * parent[m]
    ]


def claim_result(workloads: dict, workload: str, metric: str) -> dict:
    """Whether the change won at least nine pairs in ten, beat the
    parent's median by more than the parent's interquartile range, and
    failed no more operations than the parent."""
    w = workloads[workload]
    parent_median = w["parent"]["median"][metric]
    change_median = w["change"]["median"][metric]
    q1, q3 = w["parent"]["quartiles"][metric]
    diff = gain(metric, parent_median, change_median)
    wins = w["pair_wins"][metric]
    failed = {s: sum(r["failed"] for r in w[s]["runs"]) for s in SIDES}
    met = (
        wins["pairs"] > 0
        and wins["change_wins"] >= math.ceil(WIN_SHARE * wins["pairs"])
        and diff > q3 - q1
        and failed["change"] <= failed["parent"]
    )
    return {
        "metric": metric,
        "workload": workload,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": q3 - q1,
        "median_difference": diff,
        "change_wins": wins["change_wins"],
        "pairs": wins["pairs"],
        "parent_failed": failed["parent"],
        "change_failed": failed["change"],
        "met": bool(met),
    }


def summarize(records: list[dict], pr: int, note: str, parent_commit, claim) -> dict:
    """``BENCH_<pr>.json`` from run records, each carrying ``side``.  A
    (side, workload, seed, trace) may appear once only."""
    keys = [(r["side"], r["workload"], r["seed"], r["trace"]) for r in records]
    duplicates = sorted({k for k in keys if keys.count(k) > 1})
    if duplicates:
        raise ValueError(f"runs recorded more than once: {duplicates}")
    plain = [r for r in records if r["trace"] == 0]
    if not plain:
        raise ValueError("no untraced runs to summarize")
    seeds: dict = {}
    for r in plain:
        if r["side"] == "parent":
            seeds.setdefault(r["workload"], []).append(r["seed"])
    env = {k: plain[0]["env"].get(k) for k in ENV_KEYS}
    env["busy_runs"] = sum(r["busy"] for r in plain)
    env["busy_note"] = BUSY_NOTE
    env["src_sha256"] = {s: sorted({r["env"].get("src_sha256") for r in plain if r["side"] == s}) for s in SIDES}
    workloads = {}
    for name in seeds:
        sides = {s: [r for r in plain if r["workload"] == name and r["side"] == s] for s in SIDES}
        entry = {s: side_summary(sides[s]) for s in SIDES}
        entry["change_over_parent"] = {
            m: (entry["change"]["median"][m] / entry["parent"]["median"][m] if entry["parent"]["median"][m] else None)
            for m in end_to_end()
        }
        entry["pair_wins"] = pair_wins(sides["parent"], sides["change"])
        entry["regressions"] = regressions(entry)
        workloads[name] = entry
    out = {
        "pr": pr,
        "change": note,
        "parent_commit": parent_commit,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {SECONDS} --trace 0",
        "protocol": (
            "parent and change in separate directories, one run at a time, nothing else running; the sides "
            "alternate, the parent first on odd pairs (1st, 3rd, ...) and the change first on even pairs"
        ),
        "seeds": seeds,
        "environment": env,
        "workloads": workloads,
    }
    if claim:
        out["claim"] = claim_result(workloads, *claim)
    for r in records:
        if r["trace"] == 1:
            key = f"traced_{r['workload'].replace('-', '_')}_seed{r['seed']}"
            traced = out.setdefault(key, {"note": "per-layer metrics of one traced run per side (--trace 1)"})
            traced[r["side"]] = r["metrics"]
    return out


def parse_plan(text: str) -> tuple[str, list[int]]:
    """``workload=first-last`` or ``workload=s1,s2,...``."""
    workload, _, seeds = text.partition("=")
    if "-" in seeds:
        first, last = (int(v) for v in seeds.split("-"))
        return workload, list(range(first, last + 1))
    return workload, [int(v) for v in seeds.split(",")]


def git_head(checkout: Path):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="parent checkout (its git HEAD is recorded)")
    parser.add_argument("--change", type=Path, help="change checkout")
    parser.add_argument("--plan", action="append", default=[], help="workload=first-last or workload=s1,s2,...")
    parser.add_argument("--traced-seed", type=int, default=None, help="one traced run per side of the claim workload")
    parser.add_argument("--claim", default=None, help="workload:metric the change claims to improve")
    parser.add_argument("--pr", type=int, required=True, help="number the summary is filed under")
    parser.add_argument("--note", default="", help="one line on what the change does")
    parser.add_argument("--runs-out", type=Path, default=None, help="append each run record here as a JSON line")
    parser.add_argument("--from-runs", type=Path, default=None, help="summarize these run records; run nothing")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    claim = tuple(args.claim.split(":")) if args.claim else None
    if args.from_runs is not None:
        records = [json.loads(line) for line in args.from_runs.read_text().splitlines() if line.strip()]
    else:
        if args.parent is None or args.change is None or not args.plan:
            parser.error("--parent, --change and --plan are needed unless --from-runs is given")
        checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        runs = [(w, s, 0) for w, seeds in map(parse_plan, args.plan) for s in seeds]
        if args.traced_seed is not None and claim:
            runs.append((claim[0], args.traced_seed, 1))
        records = []
        for pair, (workload, seed, trace) in enumerate(runs):
            for side in pair_order(pair):
                record = {"side": side, **run_once(checkouts[side], workload, seed, trace)}
                records.append(record)
                if args.runs_out is not None:
                    with args.runs_out.open("a", encoding="utf-8") as fh:
                        fh.write(json.dumps(record) + "\n")
                print(f"{workload} seed {seed} trace {trace} {side}: busy {record['busy']}", file=sys.stderr)
    out = summarize(records, args.pr, args.note, git_head(args.parent) if args.parent else None, claim)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    if "claim" in out:
        c = out["claim"]
        print(
            f"claim {c['workload']} {c['metric']}: {c['parent_median']:.6g} -> {c['change_median']:.6g}, "
            f"won {c['change_wins']} of {c['pairs']}, parent IQR {c['parent_iqr']:.3g}, met {c['met']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
