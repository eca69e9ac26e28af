#!/usr/bin/env python3
"""Benchmark of the ecdf-bands request path.

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 25 --trace 0

Generates seeded inputs and sends them through ``ecdf_bands.cli.main``
in this process: one client in a closed loop (the next request starts
when the previous one returns), CLI ``--threads`` at its default of 1,
BLAS pinned to one thread.  Every output is checked.  Set-up, the
fresh-interpreter import of the CLI (plus, for warm-cache, building the
gamma cache), runs in child processes and is timed separately.  Request
timings are scaled to a nominal host speed with a reference kernel
timed between requests (see ``reference.py``); the run record keeps the
raw wall times as well.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run.  Earlier lines give a readable report.  A
record of each run (environment, metrics, per-class results) and the
trace spans go to ``.perfbench-out/runs/`` in the checkout.  The program
is read from ``src/``; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_RUNS = 3

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "class_p50_gmean_s": "s",
    "requests_per_s": "1/s",
    "coverage_gap_max": "prob",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
"""End-to-end metrics in the result line.  error_rate is printed in the
report and carried by ``attempted``/``failed``; it is 0 on the seed
commit, whose known defects are reported apart, so it cannot be a gated
ratio."""

PER_LAYER = {
    # name: (unit, better, end-to-end metric it should move, workloads)
    "cli.import_s": ("s", "lower", "setup_s", "all"),
    "cli.self_s": ("s/req", "lower", "latency_p50_s", "warm-cache"),
    "cli.exit2": ("1/req", "lower", "error_rate", "warm-cache"),
    "transform.ranks_s": ("s/req", "lower", "latency_p50_s", "warm-cache"),
    "transform.ecdf_s": ("s/req", "lower", "latency_p50_s", "warm-cache"),
    "transform.pit_s": ("s/req", "lower", "latency_p50_s", "warm-cache"),
    "dist.tables_s": ("s/req", "lower", "latency_p50_s", "warm-cache, exact-cold"),
    "dist.table_calls": ("1/req", "lower", "latency_p50_s", "warm-cache, exact-cold"),
    "dist.table_hit_ratio": ("ratio", "higher", "latency_p50_s", "warm-cache, exact-cold"),
    "bands_single.coverage_evals": ("1/req", "lower", "latency_p50_s", "exact-cold"),
    "bands_single.coverage_ms_per_eval": ("ms", "lower", "latency_p50_s", "exact-cold"),
    "bands_single.optimize_s": ("s/req", "lower", "latency_p50_s", "exact-cold"),
    "bands_single.simulate_s": ("s/req", "lower", "requests_per_s", "monte-carlo"),
    "bands_single.simulate_reps_per_s": ("1/s", "higher", "requests_per_s", "monte-carlo"),
    "bands_single.bands_s": ("s/req", "lower", "latency_p50_s", "warm-cache"),
    "bands_single.exceedances_s": ("s/req", "lower", "latency_p50_s", "warm-cache"),
    "bands_multi.coverage_evals.l2": ("1/req", "lower", "class_p50_gmean_s, requests_per_s", "exact-cold"),
    "bands_multi.coverage_ms_per_eval.l2": ("ms", "lower", "class_p50_gmean_s, requests_per_s", "exact-cold"),
    "bands_multi.coverage_evals.l3": ("1/req", "lower", "latency_tail_s, requests_per_s", "exact-cold"),
    "bands_multi.coverage_ms_per_eval.l3": ("ms", "lower", "latency_tail_s, requests_per_s", "exact-cold"),
    "bands_multi.optimize_s": ("s/req", "lower", "latency_tail_s, requests_per_s", "exact-cold"),
    "bands_multi.simulate_s": ("s/req", "lower", "requests_per_s, latency_p50_s", "monte-carlo"),
    "bands_multi.simulate_reps_per_s": ("1/s", "higher", "requests_per_s, latency_p50_s", "monte-carlo"),
    "bands_multi.bands_s": ("s/req", "lower", "latency_p50_s", "warm-cache"),
    "bands_multi.test_self_s": ("s/req", "lower", "latency_p50_s", "warm-cache"),
    "optim.searches": ("1/req", "lower", "latency_p50_s", "exact-cold"),
    "optim.evals_per_search": ("count", "lower", "latency_p50_s", "exact-cold"),
    "optim.self_s": ("s/req", "lower", "latency_p50_s", "exact-cold"),
    "optim.distinct_step_ratio": ("ratio", "higher", "latency_p50_s, coverage_gap_max", "exact-cold"),
    "gamma_cache.build_s": ("s", "lower", "setup_s", "warm-cache"),
    "gamma_cache.load_s": ("s/req", "lower", "latency_p50_s", "warm-cache"),
    "gamma_cache.lookups": ("1/req", "lower", "latency_p50_s", "warm-cache"),
    "gamma_cache.hit_ratio": ("ratio", "higher", "latency_p50_s", "warm-cache"),
    "gamma_cache.fallthrough": ("1/req", "lower", "latency_tail_s", "warm-cache"),
    "thinning.ess_calls": ("1/req", "lower", "latency_tail_s", "warm-cache"),
    "thinning.ess_ms_per_call": ("ms", "lower", "latency_tail_s", "warm-cache"),
    "report.render_s": ("s/req", "lower", "latency_p50_s", "warm-cache"),
    "report.svg_bytes": ("B", "lower", "latency_p50_s", "warm-cache"),
    "power.sweep_s": ("s/req", "lower", "requests_per_s", "monte-carlo"),
    "power.reps_per_s": ("1/s", "higher", "requests_per_s", "monte-carlo"),
    "power.critical_value_s": ("s/req", "lower", "requests_per_s", "monte-carlo"),
    "trace.overhead_s": ("s/req", "lower", "none (tracing cost)", "all"),
    "trace.overhead_share": ("ratio", "lower", "none (tracing cost)", "all"),
    "trace.spans_per_req": ("1/req", "lower", "none (tracing cost)", "all"),
}

SETUP_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
import ecdf_bands.cli as cli
t1 = time.perf_counter()
rc = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "rc": rc}))
"""


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except (OSError, ValueError):
        return None


def _commit():
    """HEAD commit when the checkout is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "loadavg_start": _loadavg(),
    }


def busy_box(env: dict) -> bool:
    """Another process held a core: the 1-minute load average, less this
    benchmark's own one runnable thread at the end, passed nproc - 0.5."""
    limit = env["cpus_allowed"] - 0.5
    start, end = env["loadavg_start"], env["loadavg_end"]
    return bool(start and end) and (start[0] > limit or end[0] - 1.0 > limit)


def measure_setup(workload, workdir: Path) -> dict:
    """Fresh interpreters importing the CLI (and, for warm-cache, running
    the cache build), SETUP_RUNS times.  Returns medians and the cache
    path.  These wall times are not scaled: import time does not follow
    the reference kernel's speed (see ``reference.py``)."""
    from stats import median

    cache = str(workdir / "gamma.json")
    argv = workload.setup_argv(cache)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    walls, imports, builds = [], [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, *argv],
            cwd=str(workdir),
            env=env,
            capture_output=True,
            text=True,
            timeout=150,
        )
        walls.append(time.perf_counter() - t0)
        try:
            info = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            info = None
        if proc.returncode != 0 or info is None or info["rc"] != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        imports.append(info["import_s"])
        builds.append(info["build_s"])
    return {
        "setup_s": median(walls),
        "import_s": median(imports),
        "build_s": median(builds) if argv else 0.0,
        "wall_s": walls,
        "cache": cache if argv else None,
    }


def import_cli():
    """The CLI module, and every functools cache in the package."""
    sys.path.insert(0, str(SRC))
    import ecdf_bands
    import ecdf_bands.cli as cli

    if Path(ecdf_bands.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"ecdf_bands imported from {ecdf_bands.__file__}, not from {SRC}")
    caches = {
        id(v): v
        for name, module in list(sys.modules.items())
        if name.startswith("ecdf_bands") and module is not None
        for v in vars(module).values()
        if hasattr(v, "cache_clear")
    }
    return cli, list(caches.values())


def _call(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed request, not a failed benchmark
        traceback.print_exc(file=sys.__stderr__)
        return -1


def schedule_slot(i: int, cycle: int, traced: bool) -> int:
    """The schedule slot whose shape request i takes.  A traced run
    serves each cycle's shapes twice in a row, once traced and once not,
    so that both halves see the same requests."""
    if not traced:
        return i
    return (i // (2 * cycle)) * cycle + i % cycle


def is_traced(i: int, cycle: int) -> bool:
    """Whether request i of a traced run is traced: one cycle of each
    pair, the second in even pairs and the first in odd ones, so that
    neither half always runs its shapes second."""
    return (i // cycle) % 2 != (i // (2 * cycle)) % 2


def clear_caches(workload, caches) -> None:
    if workload.cold_start:
        for cache in caches:
            cache.cache_clear()


def serve(cli, job, sink) -> tuple[list[int], float]:
    """Make one request's CLI calls; returns exit codes and wall time."""
    rcs = []
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        for argv in job.steps:
            rcs.append(_call(cli, argv))
            if rcs[-1] not in (0, 1):
                break
        latency = time.perf_counter() - t0
    sink.seek(0)
    sink.truncate()
    return rcs, latency


def closed_loop(workload, cli, caches, seconds: float, tracer=None) -> tuple[list[dict], list[list]]:
    """Send jobs back to back until their summed latency, scaled to the
    nominal host speed, reaches ``seconds``.  With a tracer, one cycle of
    each pair is traced and the run goes on to the end of a pair, so
    traced and untraced requests have the same mix.
    Returns the records, each with its host-speed scale, and the
    reference samples as [next request, recursion s, vector s]."""
    from reference import HostSpeed

    records = []
    coverage_cache: dict = {}
    sink = io.StringIO()
    speed = HostSpeed(workload.reference_weights)
    busy = 0.0
    cycle = len(workload.cycle)
    block = 1 if tracer is None else 2 * cycle
    installed = False
    i = 0
    try:
        while busy < seconds or i % block:
            job = workload.job(i, schedule_slot(i, cycle, tracer is not None))
            traced = tracer is not None and is_traced(i, cycle)
            if traced and not installed:
                tracer.install()
            elif installed and not traced:
                tracer.uninstall()
            installed = traced
            speed.before_request(i)
            clear_caches(workload, caches)
            if traced:
                tracer.begin_request(i)
            rcs, latency = serve(cli, job, sink)
            if traced:
                tracer.end_request()
            speed.after_request(latency)
            busy += latency * speed.current_scale()
            failures, gap = job.check(rcs, coverage_cache)
            records.append(
                {"cls": job.cls, "n": job.n, "latency": latency, "failures": failures, "gap": gap, "traced": traced}
            )
            i += 1
    finally:
        if installed:
            tracer.uninstall()
    speed.finish(i)
    for r, s in zip(records, speed.scales(len(records))):
        r["scale"] = s
    return records, [[i, *parts] for (i, _), parts in zip(speed.samples, speed.parts)]


def fill_coverage(workload, cli, caches, records: list[dict]) -> list[dict]:
    """Serve, untimed, every shape whose check measures coverage and that
    the timed loop did not reach, so that coverage_gap_max is taken over
    the workload's whole set of shapes however many requests a run
    completes."""
    seen = {(r["cls"], r["n"]) for r in records}
    extra = []
    coverage_cache: dict = {}
    sink = io.StringIO()
    for slot in range(workload.period):
        job = workload.job(len(records) + len(extra), slot)
        if not job.gap or job.shape in seen:
            continue
        seen.add(job.shape)
        clear_caches(workload, caches)
        rcs, _ = serve(cli, job, sink)
        failures, gap = job.check(rcs, coverage_cache)
        extra.append({"cls": job.cls, "n": job.n, "failures": failures, "gap": gap})
    return extra


def unexpected_tags(r: dict, known: dict) -> list[str]:
    """The failures of record ``r`` that the seed commit does not have: a
    (class, n, tag) not in ``known``, or a known coverage failure with a
    larger gap."""
    out = []
    for tag in r["failures"]:
        entry = known.get((r["cls"], r["n"], tag))
        if entry is None:
            out.append(f"{r['cls']} n={r['n']} {tag}")
        elif entry[0] is not None and r["gap"] is not None and r["gap"] > entry[0]:
            out.append(f"{r['cls']} n={r['n']} {tag}: gap {r['gap']:.4f} above the seed's {entry[0]}")
    return out


def unexpected_failures(records: list[dict], known: dict) -> list[str]:
    return sorted({line for r in records for line in unexpected_tags(r, known)})


def count_failures(records: list[dict], known: dict) -> tuple[int, int]:
    """(failed, known): requests with a failure the seed commit does not
    have, and requests whose every failure is one of its known defects."""
    failed = known_hits = 0
    for r in records:
        if unexpected_tags(r, known):
            failed += 1
        elif r["failures"]:
            known_hits += 1
    return failed, known_hits


def summarize(records: list[dict], extra: list[dict], setup: dict, known: dict) -> tuple[dict, dict]:
    from stats import block_tail_latency, median

    wall = [r["latency"] for r in records]
    scales = [r["scale"] for r in records]
    lat = [w * s for w, s in zip(wall, scales)]
    tail, pct, beyond, blocks = block_tail_latency(lat)
    by_class: dict = {}
    for r, v in zip(records, lat):
        by_class.setdefault(r["cls"], []).append(v)
    class_p50 = {cls: median(v) for cls, v in by_class.items()}
    gaps = {(r["cls"], r["n"]): r["gap"] for r in records + extra if r["gap"] is not None}
    failed, known_hits = count_failures(records + extra, known)
    attempted = len(records) + len(extra)
    metrics = {
        "latency_p50_s": median(lat),
        "latency_tail_s": tail,
        "class_p50_gmean_s": math.exp(sum(math.log(v) for v in class_p50.values()) / len(class_p50)),
        "requests_per_s": len(lat) / sum(lat),
        "coverage_gap_max": max(gaps.values()) if gaps else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup["setup_s"],
    }
    info = {
        "requests": len(lat),
        "attempted": attempted,
        "failed": failed,
        "known_defect_requests": known_hits,
        "error_rate": failed / attempted,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "tail_blocks": blocks,
        "coverage_gaps": {f"{cls} n={n}": g for (cls, n), g in sorted(gaps.items())},
        "coverage_fill_requests": len(extra),
        "class_p50_s": class_p50,
        "host_scale_median": median(scales),
        "wall_latency_p50_s": median(wall),
        "wall_requests_per_s": len(wall) / sum(wall),
        "setup_wall_s": setup["wall_s"],
    }
    return metrics, info


def class_table(records: list[dict], extra: list[dict], known: dict) -> dict:
    table: dict = {}
    for r in records + extra:
        row = table.setdefault(r["cls"], {"attempted": 0, "failed": 0, "known": 0, "failures": {}})
        row["attempted"] += 1
        if unexpected_tags(r, known):
            row["failed"] += 1
        elif r["failures"]:
            row["known"] += 1
        for tag in r["failures"]:
            key = f"n={r['n']} {tag}"
            row["failures"][key] = row["failures"].get(key, 0) + 1
    return table


def write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            detail = s[5] if isinstance(s[5], (int, float, str, type(None))) else repr(s[5])
            fh.write(json.dumps([i, s[0], s[1], s[2], s[3], s[4], detail]) + "\n")


def run(args) -> dict:
    from workloads import WORKLOADS

    env = environment(args.seed)
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        setup = measure_setup(workload, workdir)
        cli, caches = import_cli()
        # A CLI process is short-lived; here one process serves every
        # request, so keep the collector from rescanning the import heap.
        gc.collect()
        gc.freeze()
        if setup["cache"]:
            os.environ["ECDF_BANDS_CACHE"] = setup["cache"]
        else:
            os.environ.pop("ECDF_BANDS_CACHE", None)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        records, references = closed_loop(workload, cli, caches, args.seconds, tracer)
        extra = fill_coverage(workload, cli, caches, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = _loadavg()
    env["busy"] = busy_box(env)

    known = workload.known_defects
    metrics, info = summarize(records, extra, setup, known)
    classes = class_table(records, extra, known)
    unknown = unexpected_failures(records + extra, known)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds}")
    print("environment " + json.dumps(env, sort_keys=True))
    if env["busy"]:
        print("warning: the machine was busy during this run; timings are not comparable")
    print(f"closed loop, 1 client, {info['requests']} timed requests, {len(extra)} untimed coverage requests")
    print(
        f"request timings scaled to the nominal host speed (median scale {info['host_scale_median']:.4g}); "
        f"raw wall p50 {info['wall_latency_p50_s']:.6g} s, {info['wall_requests_per_s']:.6g} requests/s"
    )
    for name, value in metrics.items():
        print(f"  {name:<18} {value:.6g} {END_TO_END[name]}")
    print(
        f"  {'error_rate':<18} {info['error_rate']:.6g} ratio ({info['failed']} of {info['attempted']} requests failed; "
        f"{info['known_defect_requests']} more hit a known defect of the seed commit)"
    )
    print(
        f"  tail is p{info['tail_percentile']:.2f} with {info['tail_samples_beyond']} samples beyond it, "
        f"median over {info['tail_blocks']} block(s) of requests"
    )
    print(f"  coverage over {len(info['coverage_gaps'])} shapes with L <= 3")
    for cls, row in sorted(classes.items()):
        tags = ", ".join(f"{t} x{c}" for t, c in sorted(row["failures"].items())) or "-"
        p50 = info["class_p50_s"].get(cls)
        p50 = f"{p50:.4g} s" if p50 is not None else "-"
        print(
            f"  class {cls:<13} attempted {row['attempted']:>5}  failed {row['failed']:>5}  known defect {row['known']:>5}"
            f"  p50 {p50}  failures {tags}"
        )
    for (cls, n, tag), (_, reason) in sorted(known.items()):
        if any(r["cls"] == cls and r["n"] == n and tag in r["failures"] for r in records + extra):
            print(f"  known defect {cls} n={n} {tag}: {reason}")
    for line in unknown:
        print(f"  UNEXPECTED failure {line}")

    record = {
        "env": env,
        "metrics": metrics,
        "info": info,
        "classes": classes,
        "requests": [[r["cls"], r["n"], r["latency"], r["scale"], r["failures"]] for r in records],
        "reference_samples": references,
        "coverage_fill": [[r["cls"], r["n"], r["gap"], r["failures"]] for r in extra],
    }
    if args.trace:
        traced = [r["latency"] * r["scale"] for r in records if r["traced"]]
        plain = [r["latency"] * r["scale"] for r in records if not r["traced"]]
        from tracing import layer_metrics

        out = layer_metrics(tracer.spans, len(traced))
        out["cli.import_s"] = setup["import_s"]
        out["gamma_cache.build_s"] = setup["build_s"]
        lookups = tracer.cache_hits + tracer.cache_misses
        out["dist.table_hit_ratio"] = tracer.cache_hits / lookups if lookups else 0.0
        mean_plain = sum(plain) / len(plain) if plain else 0.0
        mean_traced = sum(traced) / len(traced) if traced else 0.0
        out["trace.overhead_s"] = mean_traced - mean_plain
        out["trace.overhead_share"] = (mean_traced - mean_plain) / mean_plain if mean_plain else 0.0
        out["trace.spans_per_req"] = len(tracer.spans) / max(len(traced), 1)
        print(f"traced {len(traced)} of {len(records)} requests (one cycle of each pair, same shapes)")
        for name, (unit, better, moves, wl) in PER_LAYER.items():
            print(f"  {name:<36} {out[name]:.6g} {unit}  -> {moves} ({wl})")
        write_spans(runs / f"{args.workload}-seed{args.seed}-spans.jsonl.gz", tracer.spans)
        record["layers"] = out
        metrics = {name: {"value": out[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    else:
        metrics = {name: {"value": metrics[name], "unit": END_TO_END[name]} for name in END_TO_END}
    with open(runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return {
        "correct": not unknown,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    from_here = str(Path(__file__).resolve().parent)
    if from_here not in sys.path:
        sys.path.insert(0, from_here)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact-cold", "monte-carlo", "warm-cache"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="summed request time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ecdf_bands" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
