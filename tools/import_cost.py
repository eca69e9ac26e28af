"""Time what importing one module costs, package by package.

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
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
_TOP = 10


def measure(module: str) -> str:
    """The importtime report of one fresh interpreter importing ``module``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(_SRC), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        env=env,
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


def main(argv: list[str]) -> int:
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
