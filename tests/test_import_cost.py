"""What importing the CLI costs.

A fresh interpreter that imports ``ecdf_bands.cli`` and serves a cold
exact ``test`` on 1, 2 and 3 chains, a ``thin`` and a ``plot`` must not
load ``scipy.signal``, ``scipy.stats``, ``scipy.interpolate`` or
``scipy.optimize``: together they take over a second to import, and each
CLI call is a fresh process.  The importtime reader in
``tools/import_cost.py`` is checked on a fixed excerpt.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecdf_bands.cli import CACHE_ENV

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("import_cost", _ROOT / "tools" / "import_cost.py")
import_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(import_cost)

HEAVY = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize")

_CHILD = """
import json, sys
from ecdf_bands.cli import main
codes = [main(args) for args in json.loads(sys.argv[1])]
heavy = tuple(json.loads(sys.argv[2]))
loaded = sorted(m for m in sys.modules if m.startswith(tuple(h + "." for h in heavy)) or m in heavy)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _write_columns(path, draws):
    path.write_text("\n".join(",".join(f"{v:.6f}" for v in row) for row in draws.T) + "\n")
    return str(path)


def test_cli_requests_do_not_load_the_heavy_scipy_subpackages(tmp_path):
    rng = np.random.default_rng(41)
    inputs = {l: _write_columns(tmp_path / f"l{l}.csv", rng.random((l, 20))) for l in (1, 2, 3)}
    long_chains = _write_columns(tmp_path / "thin.csv", rng.standard_normal((2, 1000)))
    requests = [["test", inputs[l], "--out", str(tmp_path / f"test{l}.json")] for l in (1, 2, 3)]
    requests += [
        ["thin", long_chains, "--out", str(tmp_path / "thin.csv.out")],
        ["plot", inputs[1], "--kind", "ecdf_diff", "--out", str(tmp_path / "plot.svg")],
    ]
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = str(_ROOT / "src")
    run = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(requests), json.dumps(HEAVY)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(run.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0]
    for l in (1, 2, 3):
        report = json.loads((tmp_path / f"test{l}.json").read_text())
        assert (report["chains"], report["method"]) == (l, "optimization")
    assert result["loaded"] == []


EXCERPT = """\
import time: self [us] | cumulative | imported package
import time:       139 |        139 |   sitecustomize
import time:      9834 |      10000 | site
import time:       100 |        100 |         scipy.special._ufuncs
import time:       200 |        200 |           numpy._core
import time:       300 |        500 |         numpy
import time:       400 |       1000 |       scipy.special
import time:        50 |       1050 |     pkg.dist
import time:        60 |         60 |       numpy.linalg
import time:        70 |        130 |     pkg.thinning
import time:        10 |       1190 |   pkg
import time:        20 |       1210 | pkg.cli
"""


def test_package_times_sum_outermost_cumulative_and_all_self_time():
    total, times = import_cost.package_times(EXCERPT, "pkg.cli")
    assert total == 1210
    assert times == {
        "pkg.cli": (1210, 20),
        "pkg": (1190, 10),
        "pkg.dist": (1050, 50),
        # _ufuncs sits inside scipy.special, so only its self time adds
        "scipy.special": (1000, 500),
        "numpy": (500, 300),
        "numpy._core": (200, 200),
        "numpy.linalg": (60, 60),
        "pkg.thinning": (130, 70),
    }
    with pytest.raises(ValueError, match="no top-level import"):
        import_cost.package_times(EXCERPT, "pkg.dist")


def test_prints_the_total_and_the_top_packages(monkeypatch, capsys):
    monkeypatch.setattr(import_cost, "measure", lambda module: EXCERPT)
    assert import_cost.main(["pkg.cli"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[:2] == [["import", "pkg.cli", "1.2", "ms"], ["package", "cumulative", "self"]]
    # by cumulative time, then by name
    assert [row[0] for row in rows[2:]] == [
        "pkg.cli",
        "pkg",
        "pkg.dist",
        "scipy.special",
        "numpy",
        "numpy._core",
        "pkg.thinning",
        "numpy.linalg",
    ]
    assert rows[5] == ["scipy.special", "1.0", "ms", "0.5", "ms"]
