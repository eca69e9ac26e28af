"""What importing the CLI costs.

Each CLI call is a fresh process, and ``scipy.special`` alone takes
about as long to import as numpy.  So a fresh interpreter that serves
``test`` on 1 to 4 chains (and one column by simulation), ``plot`` of
every kind, ``pit``, ``power`` (statistics and chains) and ``gamma
build`` and ``query`` must load no ``scipy`` module at all; ``thin``
may load ``scipy.fft`` and ``scipy.special``, which its ESS estimates
need, and no other scipy subpackage.  The importtime reader and the
fresh-process timer in ``tools/import_cost.py`` are checked on a fixed
excerpt and on one tiny call.
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
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _write_columns(path, draws):
    path.write_text("\n".join(",".join(f"{v:.6f}" for v in row) for row in draws.T) + "\n")
    return str(path)


def _serve(requests):
    """Exit codes of ``requests`` served in one fresh interpreter, and the
    scipy modules it loaded."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = str(_ROOT / "src")
    run = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(requests)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(run.stdout)
    return result["codes"], result["loaded"]


def test_cli_requests_do_not_load_the_heavy_scipy_subpackages(tmp_path):
    # tightened: every request here but thin, which is checked apart,
    # loads no scipy module at all
    rng = np.random.default_rng(41)
    inputs = {l: _write_columns(tmp_path / f"l{l}.csv", rng.random((l, 20))) for l in (1, 2, 3, 4)}
    draws = _write_columns(tmp_path / "draws.csv", rng.standard_normal((1, 30)))
    comparison = _write_columns(tmp_path / "comparison.csv", rng.standard_normal((49, 30)))
    grid = str(tmp_path / "gamma.json")
    out = str(tmp_path / "out")
    reps = ["--m-reps", "1000"]
    requests = [["test", inputs[l], "--out", str(tmp_path / f"test{l}.json")] for l in (1, 2, 3, 4)]
    requests += [
        ["test", inputs[1], "--method", "simulate", "--m-reps", "200", "--out", out],
        *(["plot", inputs[1], "--kind", kind, "--out", out] for kind in ("ecdf", "ecdf_diff", "rank_hist")),
        ["plot", inputs[2], "--kind", "rank_hist", "--bins", "8", "--out", out],
        ["pit", draws, comparison, "--out", out],
        ["power", "--family", "A", "--ks", "1,2", "--n", "20", "--tests", "T1,W2,U2,KS", *reps, "--out", out],
        ["power", "--family", "B", "--ks", "1", "--n", "10", "--chains", "2", *reps, "--out", out],
        ["gamma", "build", "--ns", "12,16", "--ls", "1,2", "--m-reps", "200", "--out", grid],
        ["gamma", "query", grid, "--n", "14", "--out", out],
    ]
    codes, loaded = _serve(requests)
    assert codes == [0] * len(requests)
    for l in (1, 2, 3, 4):
        report = json.loads((tmp_path / f"test{l}.json").read_text())
        assert (report["chains"], report["method"]) == (l, "optimization" if l <= 3 else "simulation")
    assert loaded == []


def test_thin_loads_only_scipy_fft_and_special(tmp_path):
    chains = _write_columns(tmp_path / "thin.csv", np.random.default_rng(42).standard_normal((2, 1000)))
    codes, loaded = _serve([["thin", chains, "--out", str(tmp_path / "thin.out.csv")]])
    assert codes == [0]
    # scipy's own private modules load with any subpackage
    public = {m.split(".")[1] for m in loaded if "." in m and not m.split(".")[1].startswith("_")}
    assert public <= {"fft", "special", "version"}
    assert {"scipy.fft", "scipy.special"} <= set(loaded)
    assert not set(loaded) & set(HEAVY)


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


def test_run_times_fresh_cli_calls(tmp_path, capsys):
    src = _write_columns(tmp_path / "pit.csv", np.random.default_rng(43).random((1, 12)))
    out = tmp_path / "report.json"
    assert import_cost.main(["--run", "1", "--", "test", src, "--out", str(out)]) == 0
    words = capsys.readouterr().out.split()
    assert words[:2] == ["1", "calls:"]
    assert float(words[3].rstrip(",")) == float(words[6].rstrip(",")) > 0.0
    assert words[-1] in ("[0]", "[1]")
    assert json.loads(out.read_text())["n"] == 12
    assert import_cost.main(["--run", "0", "--", "test", src]) == 2


def test_warm_times_in_process_cli_calls_with_caches_kept_and_cleared(tmp_path, capsys):
    src = _write_columns(tmp_path / "pit.csv", np.random.default_rng(44).random((1, 12)))
    out = tmp_path / "report.json"
    assert import_cost.main(["--warm", "2", "--", "test", src, "--grid-k", "4", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "2 in-process calls, caches kept",
        "2 in-process calls, caches cleared",
    ]
    for line in lines:
        words = line.split()
        low, median = float(words[6]), float(words[9])
        assert 0.0 < low <= median
        assert words[-1] in ("[0]", "[1]")
    assert json.loads(out.read_text())["n"] == 12
    assert import_cost.main(["--warm", "0", "--", "test", src]) == 2
