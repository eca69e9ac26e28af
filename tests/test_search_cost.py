"""``tools/search_cost.py`` on a few small shapes: its counts must add up
and match what the searches themselves report, its gamma, coverage and
band hash must be the searches' own, and each law's windowed table must
sum no more masses than the full table of its rows."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from ecdf_bands import bands_single

from ecdf_bands.bands_multi import _pooled_counts, bands_from_gamma_multi, gamma_optimize_multi
from ecdf_bands.bands_single import bands_from_gamma, gamma_optimize
from ecdf_bands.transform import default_grid

_PATH = Path(__file__).resolve().parent.parent / "tools" / "search_cost.py"
_spec = importlib.util.spec_from_file_location("search_cost", _PATH)
search_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(search_cost)


def test_parse_shape():
    assert search_cost.parse_shape("281") == (281, 1)
    assert search_cost.parse_shape("156x2") == (156, 2)


def test_prints_one_row_per_search_and_a_total(capsys):
    assert search_cost.main(["281", "30x2", "12x3"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines[0] == list(search_cost.COLUMNS)
    rows = [dict(zip(search_cost.COLUMNS, line)) for line in lines[1:-1]]
    assert [row["shape"] for row in rows] == ["281", "30x2", "12x3"]
    results = [
        gamma_optimize(281, default_grid(281), 0.05),
        gamma_optimize_multi(30, 2, default_grid(30, 60), 0.05),
        gamma_optimize_multi(12, 3, default_grid(12, 36), 0.05),
    ]
    served = [
        bands_from_gamma(281, default_grid(281), results[0]),
        bands_from_gamma_multi(30, 2, default_grid(30, 60), results[1]),
        bands_from_gamma_multi(12, 3, default_grid(12, 36), results[2]),
    ]
    for row, res, bands in zip(rows, results, served):
        counts = {c: int(row[c]) for c in search_cost.COLUMNS[1:-6]}
        assert counts["steps"] == res.meta["steps"]
        assert counts["evals"] == res.meta["evaluations"]
        assert counts["passes"] == res.meta["passes"]
        assert counts["memo"] == counts["evals"] - counts["passes"]
        assert counts["half"] + counts["full"] == counts["passes"]
        assert 0 <= counts["dense"] <= counts["passes"]
        assert float(row["search_ms"]) >= float(row["ms_per_pass"]) > 0.0
        assert float(row["search_ms"]) >= float(row["table_ms"]) > 0.0
        # full repr: the printed numbers are the search's bits
        assert float(row["gamma"]) == res.gamma
        assert float(row["coverage"]) == res.attained_coverage
        counts = bands.lower_counts.tobytes() + bands.upper_counts.tobytes()
        assert row["bands"] == hashlib.sha256(counts).hexdigest()[:10]
    # only one column takes the half route
    assert int(rows[0]["half"]) > 0 and int(rows[1]["half"]) == int(rows[2]["half"]) == 0
    # the windowed table sums the same rows as the full table of its grid
    assert 0 < int(rows[0]["cells"]) == full_table_cells(281, default_grid(281).points)
    for row, (n, l) in zip(rows[1:], ((30, 2), (12, 3))):
        assert 0 < int(row["cells"]) == full_table_cells(n, _pooled_counts(default_grid(n, l * n), n, l), l)
    assert lines[-1][0] == "total"
    assert int(lines[-1][3]) == sum(int(row["evals"]) for row in rows)
    assert lines[-1][-3:] == ["-", "-", "-"]


def full_table_cells(n, key, l=1):
    """Masses the kernel sums to build the full (level-0) table of one
    column's grid points or l chains' pooled counts."""
    cells = []
    real = bands_single._cdf_rows

    def counted(*args):
        built = real(*args)
        cells.append(built.cells.size)
        return built

    bands_single._cdf_rows = counted
    try:
        bands_single._cdf_table(n, np.asarray(key), 0.0, l)
    finally:
        bands_single._cdf_rows = real
    return sum(cells)
