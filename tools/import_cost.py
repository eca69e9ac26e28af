"""Time what importing one module costs, package by package, or what a
whole CLI call costs in a fresh process or in a running one.

Runs ``python -X importtime -c "import MODULE"`` in a fresh interpreter,
with ``src`` next to this directory at the front of ``PYTHONPATH``, and
reads the timing lines it prints on stderr.  Prints the total (the
cumulative time of MODULE's own line, so interpreter start-up imports do
not count), then the packages imported under it with the most cumulative
time:

    python tools/import_cost.py [MODULE]

``MODULE`` defaults to ``ecdf_bands.cli``.  A package is the first two
dotted parts of a module name (``scipy.special``, ``numpy``).  Its
cumulative time sums its outermost lines, so it includes whatever the
package imports from other packages, and rows can overlap; its self time
sums the self time of all its lines.  Times are in milliseconds, one
fresh process per run.

With ``--run N``, it times N fresh ``python -m ecdf_bands.cli ARGV``
calls instead, one after another against the same ``src``, and prints
the minimum and median wall time in seconds and the exit codes seen:

    python tools/import_cost.py --run 7 -- test pit.csv --out report.json

Each call's output goes to the null device.

With ``--warm N``, it times N ``ecdf_bands.cli.main(ARGV)`` calls in this
process instead, after one untimed warm-up call, in two modes: with the
package's caches kept from call to call, and with every ``functools``
cache in the package cleared before each call, as a fresh process would
start them (its imports aside).  For each mode it prints the minimum
and median wall time in milliseconds and the exit codes seen:

    python tools/import_cost.py --warm 100 -- test pit.csv --out report.json

Output the calls write to stdout or stderr goes to the null device.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
_TOP = 10


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(_SRC), env.get("PYTHONPATH")) if p)
    return env


def measure(module: str) -> str:
    """The importtime report of one fresh interpreter importing ``module``."""
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        env=_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return run.stderr


def _parse(report: str) -> list[tuple[int, str, int, int]]:
    """(depth, name, self_us, cumulative_us) per timing line, in order."""
    rows = []
    for line in report.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cum_us, name = line[len("import time:") :].split("|")
        if not self_us.strip().isdigit():  # the header line
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(self_us), int(cum_us)))
    return rows


def package_times(report: str, module: str):
    """Total microseconds of ``module``'s import, and per package the
    cumulative and self microseconds spent under it."""
    # lines come children first: a line at depth d adopts the pending
    # lines at depth d + 1
    pending: dict[int, list] = {}
    root = None
    for d, name, self_us, cum_us in _parse(report):
        node = (name, self_us, cum_us, pending.pop(d + 1, []))
        pending.setdefault(d, []).append(node)
        if d == 0 and name == module:
            root = node
    if root is None:
        raise ValueError(f"no top-level import of {module} in the report")

    times: dict[str, list[int]] = {}

    def walk(node, outer: frozenset):
        name, self_us, cum_us, children = node
        key = ".".join(name.split(".")[:2])
        entry = times.setdefault(key, [0, 0])
        if key not in outer:
            entry[0] += cum_us
        entry[1] += self_us
        for child in children:
            walk(child, outer | {key})

    walk(root, frozenset())
    return root[2], {key: (cum, own) for key, (cum, own) in times.items()}


def time_calls(runs: int, argv: list[str]) -> tuple[list[float], set[int]]:
    """Wall seconds of ``runs`` fresh ``python -m ecdf_bands.cli ARGV``
    calls, and their exit codes."""
    walls, codes = [], set()
    for _ in range(runs):
        t0 = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "ecdf_bands.cli", *argv],
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        walls.append(time.perf_counter() - t0)
        codes.add(run.returncode)
    return walls, codes


def _package_caches() -> list:
    """Every ``functools`` cache held by a module of the imported package."""
    caches = {
        id(v): v
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "ecdf_bands" and module is not None
        for v in vars(module).values()
        if hasattr(v, "cache_clear")
    }
    return list(caches.values())


def time_in_process(runs: int, argv: list[str], cold: bool) -> tuple[list[float], set[int]]:
    """Wall seconds of ``runs`` in-process ``cli.main(ARGV)`` calls after
    one untimed warm-up, with every package cache cleared before each
    call when ``cold``, and their exit codes."""
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))
    from ecdf_bands import cli

    def call() -> int:
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    walls, codes = [], set()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        call()
        caches = _package_caches() if cold else []  # the warm-up imported every module
        for _ in range(runs):
            for cache in caches:
                cache.cache_clear()
            t0 = time.perf_counter()
            codes.add(call())
            walls.append(time.perf_counter() - t0)
    return walls, codes


def main(argv: list[str]) -> int:
    if argv[:1] in (["--run"], ["--warm"]):
        if len(argv) < 3 or argv[2] != "--" or not argv[1].isdigit() or int(argv[1]) < 1:
            print(f"usage: import_cost.py {argv[0]} N -- ARGV...", file=sys.stderr)
            return 2
        runs, call_argv = int(argv[1]), argv[3:]
        if argv[0] == "--run":
            walls, codes = time_calls(runs, call_argv)
            print(f"{len(walls)} calls: min {min(walls):.3f} s, median {statistics.median(walls):.3f} s, "
                  f"exit codes {sorted(codes)}")  # fmt: skip
            return 0
        for label, cold in (("caches kept", False), ("caches cleared", True)):
            walls, codes = time_in_process(runs, call_argv, cold)
            ms = [w * 1000.0 for w in walls]
            print(f"{len(ms)} in-process calls, {label}: min {min(ms):.3f} ms, "
                  f"median {statistics.median(ms):.3f} ms, exit codes {sorted(codes)}")  # fmt: skip
        return 0
    module = argv[0] if argv else "ecdf_bands.cli"
    total, times = package_times(measure(module), module)
    ranked = sorted(times.items(), key=lambda item: (-item[1][0], item[0]))[:_TOP]
    print(f"{'import ' + module:32s} {total / 1000:9.1f} ms")
    print(f"{'package':32s} {'cumulative':>12s} {'self':>9s}")
    for key, (cum, own) in ranked:
        print(f"{key:32s} {cum / 1000:9.1f} ms {own / 1000:6.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
