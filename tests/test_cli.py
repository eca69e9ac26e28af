"""Command-line behavior: parsing, exit codes, and output formats."""

import argparse
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecdf_bands import cli, gamma_cache, power
from ecdf_bands.cli import CACHE_ENV, main
from oracles import parse_csv_rows

# stdout, stderr and exit code of each call below, recorded at COLUMNS=80
# from the parser that built every subcommand on every call
CLI_TEXTS = json.loads(
    (Path(__file__).parent / "golden" / "cli_texts.json").read_text(encoding="utf-8")
)
PARSER_CASES = [
    [],
    ["--help"],
    ["--version"],
    ["tset"],
    ["test", "--help"],
    ["pit", "--help"],
    ["power", "--help"],
    ["thin", "--help"],
    ["gamma", "--help"],
    ["plot", "--help"],
    ["gamma", "build", "--help"],
    ["gamma", "query", "--help"],
    ["gamma"],
    ["test"],
    ["test", "x.csv", "--bogus"],
    ["gamma", "build", "--ns", "40", "--bogus"],
    ["test", "x.csv", "--method", "nope"],
    ["power", "--family", "Z", "--ks", "1", "--n", "10"],
    # range errors, raised before any input file is opened
    ["test", "x.csv", "--alpha", "0.7"],
    ["test", "x.csv", "--grid-k", "0"],
    ["test", "x.csv", "--threads", "0"],
    ["gamma", "query", "--n", "5", "--alpha", "0.6"],
    # a negative seed, refused also where no simulation would read it
    ["test", "x.csv", "--seed", "-1"],
    ["test", "x.csv", "--method", "simulate", "--seed", "-1"],
    ["power", "--family", "A", "--ks", "1", "--n", "10", "--seed", "-3"],
    ["gamma", "build", "--ns", "40", "--ls", "4", "--seed", "-1"],
    ["plot", "x.csv", "--seed", "-1"],
    # a power sweep that names no test
    ["power", "--family", "A", "--ks", "1", "--n", "10", "--tests", " , "],
    # options these subcommands do not take
    ["pit", "a.csv", "b.csv", "--alpha", "0.9"],
    ["thin", "x.csv", "--alpha", "0"],
    ["power", "--family", "A", "--ks", "1", "--n", "10", "--grid-k", "0"],
]


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def uniform_csv(tmp_path):
    values = np.linspace(0.01, 0.99, 50)
    return write(tmp_path / "u.csv", "\n".join(f"{v:.6f}" for v in values) + "\n")


@pytest.fixture
def chains_ndjson(tmp_path):
    rng = np.random.default_rng(17)
    draws = rng.standard_normal((2, 40))
    lines = []
    for chain in range(2):
        for v in draws[chain]:
            lines.append(json.dumps({"chain": chain, "value": float(v)}))
    return write(tmp_path / "chains.ndjson", "\n".join(lines) + "\n")


def test_single_column_pass_exit_zero(uniform_csv, capsys):
    code = main(["test", uniform_csv, "--grid-k", "20"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "single"
    assert payload["inside"] is True
    assert payload["n"] == 50
    assert payload["chains"] == 1
    assert payload["method"] == "optimization"
    assert payload["attained_estimate"] is None
    assert len(payload["grid"]) == 20
    assert len(payload["bands"]["lower"]) == 20


def test_rejection_exits_one(tmp_path, capsys):
    path = write(tmp_path / "bad.csv", "\n".join(["0.99"] * 40) + "\n")
    code = main(["test", path, "--grid-k", "20"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["inside"] is False
    assert payload["exceedances"][0]


def test_multi_chain_ndjson_runs_jointly(chains_ndjson, capsys):
    code = main(["test", chains_ndjson, "--grid-k", "20"])
    assert code in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "multi"
    assert payload["chains"] == 2
    assert payload["n"] == 40
    assert payload["attained_estimate"] is None
    assert len(payload["exceedances"]) == 2


def test_four_chains_report_in_sample_coverage_estimate(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    draws = np.random.default_rng(3).standard_normal((20, 4))
    path = write(tmp_path / "four.csv", "\n".join(",".join(map(str, r)) for r in draws) + "\n")
    code = main(["test", path, "--m-reps", "500"])
    assert code in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    assert payload["chains"] == 4
    assert payload["method"] == "simulation"
    assert payload["attained_estimate"] == "in_sample"
    assert payload["schema"] == "report/1"


def test_csv_header_is_skipped(tmp_path, capsys):
    path = write(tmp_path / "hdr.csv", "pit\n0.2\n0.4\n0.6\n0.8\n")
    code = main(["test", path, "--alpha", "0.2"])
    assert code in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["test", str(tmp_path / "missing.csv")]) == 2
    ragged = write(tmp_path / "ragged.csv", "0.1,0.2\n0.3\n")
    assert main(["test", ragged]) == 2
    empty = write(tmp_path / "empty.csv", "\n")
    assert main(["test", empty]) == 2
    words = write(tmp_path / "words.csv", "0.1\noops\n")
    assert main(["test", words]) == 2
    four = write(tmp_path / "four.csv", "0.1,0.2,0.3,0.4\n0.5,0.6,0.7,0.8\n")
    assert main(["test", four, "--method", "optimize"]) == 2
    # a cell past the csv module's field size limit
    huge = write(tmp_path / "huge.csv", "0.1\n" + "1" * 140_000 + "\n")
    capsys.readouterr()
    for command in ("test", "thin", "plot"):
        assert main([command, huge]) == 2
        assert f"{huge}:2: unreadable CSV" in capsys.readouterr().err
    assert main(["power", "--family", "A", "--ks", "inf", "--n", "20", "--m-reps", "1000"]) == 2
    assert capsys.readouterr().err.endswith("error: ks must be finite\n")


def test_ndjson_unequal_chains_exit_two(tmp_path, capsys):
    lines = [
        json.dumps({"chain": 0, "value": 0.1}),
        json.dumps({"chain": 0, "value": 0.2}),
        json.dumps({"chain": 1, "value": 0.3}),
    ]
    path = write(tmp_path / "uneven.ndjson", "\n".join(lines) + "\n")
    assert main(["test", path]) == 2
    err = capsys.readouterr().err
    assert "unequal" in err


@pytest.mark.parametrize(
    "record",
    [
        {"chain": 1.7, "value": 0.5},
        {"chain": True, "value": 0.5},
        {"chain": 1, "value": True},
        {"chain": float("inf"), "value": 0.5},
    ],
)
def test_ndjson_bool_and_fractional_fields_exit_two(tmp_path, capsys, record):
    lines = [json.dumps({"chain": c, "value": v}) for c in (0, 1) for v in (0.2, 0.4, 0.6)]
    lines[4] = json.dumps(record)
    path = write(tmp_path / "bad.ndjson", "\n".join(lines) + "\n")
    assert main(["test", path]) == 2
    assert f"{path}:5: bad NDJSON record" in capsys.readouterr().err


def test_ndjson_integral_float_and_string_fields_still_parse(tmp_path):
    lines = [json.dumps({"chain": 0, "value": v}) for v in (0.1, 0.5, 0.9)]
    lines += [json.dumps({"chain": 1.0, "value": "0.3"}), json.dumps({"chain": "1", "value": 0.7})]
    lines.append(json.dumps({"chain": 1, "value": 0.2}))
    got = cli._parse_ndjson("\n".join(lines), "ok.ndjson")
    np.testing.assert_array_equal(got, [[0.1, 0.3], [0.5, 0.7], [0.9, 0.2]])


def test_out_flag_writes_file(uniform_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["test", uniform_csv, "--grid-k", "10", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["schema"] == "report/1"


@pytest.mark.parametrize(
    "text, message",
    [
        ("# resolution: 4\npit\n0.25\n\n0.5\nabc\n", ":6: non-numeric cell"),
        ("a,b\n1,2\n\n3\n", ":4: ragged row"),
        ("1,2\n3,x\n4\n", ":2: non-numeric cell"),
        ("1,2\n3\n4,x\n", ":2: ragged row"),
        ("0.1\n \t\n0.2\nabc\n", ":4: non-numeric cell"),
        ('1,2\n3,4\n"5,6"\n', ":3: ragged row (1 cells, expected 2)"),
        ("a,b\n\n", ": no data rows"),
    ],
    ids=[
        "comment-and-blank",
        "blank",
        "cell-before-ragged",
        "ragged-before-cell",
        "whitespace-line",
        "quoted-ragged",
        "header-only",
    ],
)
def test_csv_errors_name_the_line_in_the_file(tmp_path, capsys, text, message):
    path = write(tmp_path / "bad.csv", text)
    assert main(["test", path]) == 2
    assert f"bad.csv{message}" in capsys.readouterr().err


# cells float() reads, ones it refuses, header words, and lines that
# hold no data: comments (valid and invalid resolutions) and blank rows
NUMBERS = [
    "0.5", "-1.25e-3", "3", "nan", "-inf", "inf", "1_0", "1e400", "\uff15", " 0.25 ", '"0.75"', '" 2 "'
]
NON_NUMBERS = ["abc", '"1,5"', "1__0", "", " ", " # x"]
WORDS = ["a", "chain1", '"x,y"', "pit"]
NO_DATA = [
    "",
    "   ",
    "\t",
    ",,",
    " , ",
    "#",
    "# note, 1",
    "# resolution: 8",
    "#resolution:3",
    "# resolution: \uff15",
    "# Resolution: x",
    "# resolution: 0",
    "# resolution: x",
]


@st.composite
def csv_texts(draw):
    """CSV text of width 1-5, with or without a header, whose lines may
    be ragged, hold a non-numeric cell or hold no data."""
    width = draw(st.integers(1, 5))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(st.sampled_from(WORDS), min_size=width, max_size=width))))
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["row"] * 8 + ["no-data"] * 3 + ["ragged", "non-numeric"]))
        if kind == "no-data":
            lines.append(draw(st.sampled_from(NO_DATA)))
            continue
        size = width
        if kind == "ragged":
            size = draw(st.integers(1, 6).filter(lambda k: k != width))
        cells = draw(st.lists(st.sampled_from(NUMBERS), min_size=size, max_size=size))
        if kind == "non-numeric":
            cells[draw(st.integers(0, size - 1))] = draw(st.sampled_from(NON_NUMBERS))
        lines.append(",".join(cells))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(csv_texts())
def test_parse_csv_matches_the_row_by_row_reader(text):
    try:
        want, want_resolution = parse_csv_rows(text, "t.csv")
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            cli._parse_csv(text, "t.csv")
        assert str(got.value) == str(exc)
        return
    table, resolution = cli._parse_csv(text, "t.csv")
    assert resolution == want_resolution
    assert table.dtype == want.dtype and table.shape == want.shape
    assert table.tobytes() == want.tobytes()


MALFORMED_CSV = [
    b"0.25", b"0.5,0.75", b"0.1,0.2,0.3", b"c1,c2", b"", b" , ", b"# note",
    b"# resolution: 4", b'"0.3"', b'"0,4",0.5', b'"unterminated', b"1e999", b"-1e999",
    b"nan", b"0.5\x00", b"\x00", b"\xff\xfe0.5", b"\xef\xbb\xbf0.5",
]
"""CSV lines: numbers, headers, blanks, comments, quoted cells, overflow,
NUL bytes, bad UTF-8 and a BOM."""

MALFORMED_NDJSON = [
    b'{"chain": 0, "value": 0.5}', b'{"chain": 1, "value": 0.25}', b'{"chain": 0}',
    b'{"chain": 0.5, "value": 0.1}', b'{"chain": "a", "value": 0.1}', b'{"chain": "1", "value": 0.1}',
    b'{"chain": null, "value": 0.1}', b'{"chain": 0, "value": null}', b'{"chain": [0], "value": 0.1}',
    b'{"chain": true, "value": 0.1}', b'{"chain": 0, "value": 1e999}', b'{"chain": 1e300, "value": 0.1}',
    b"[1, 2]", b"null", b"{", b'{"chain": 0, "value": ' + b"[" * 3000 + b"]" * 3000 + b"}",
    b'{"chain": 0, "value": "0.5"}', b"\xff{", b"\xef\xbb\xbf{\"chain\": 0, \"value\": 0.5}",
]
"""NDJSON lines: records, records with a missing key or a wrong type,
JSON lists and nulls, non-integer chain ids, deep nesting, bad UTF-8
and a BOM."""


@st.composite
def malformed_inputs(draw):
    """Bytes of a small CSV or NDJSON file, mostly broken."""
    pool = draw(st.sampled_from([MALFORMED_CSV, MALFORMED_NDJSON]))
    if pool is MALFORMED_NDJSON:
        # a file whose first non-blank character is "{" is read as NDJSON
        lines = [draw(st.sampled_from(pool[:2]))]
    else:
        lines = []
    lines += draw(st.lists(st.sampled_from(pool), max_size=6))
    return draw(st.sampled_from([b"\n", b"\r\n"])).join(lines)


MALFORMED_GRIDS = [
    "[]",
    '"x"',
    '{"schema": "gamma-grid/1", "entries": 5}',
    '{"schema": "gamma-grid/1", "entries": [1]}',
    '{"schema": "gamma-grid/1", "entries": [{"n": 50, "l": 1, "k": 50, "alpha": 0.05,'
    ' "gamma": null, "coverage": 0.95, "method": "optimization"}]}',
    '{"schema": "gamma-grid/1", "entries": [',
]
"""Gamma-grid files: a JSON list, a string, entries that are a number
or a list of numbers, an entry with a null gamma, and a file cut
short."""


@pytest.mark.parametrize("text", MALFORMED_GRIDS)
def test_malformed_gamma_grid_exits_two_naming_the_file(text, uniform_csv, tmp_path, monkeypatch, capsys):
    grid = write(tmp_path / "grid.json", text)
    monkeypatch.setenv(CACHE_ENV, grid)
    for argv in (["gamma", "query", "--n", "50", grid], ["gamma", "query", "--n", "50"], ["test", uniform_csv]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {grid}: ") and "Traceback" not in err, argv


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=malformed_inputs())
def test_malformed_input_exits_with_a_code(data, monkeypatch):
    """``test``, ``plot`` and ``thin`` on a malformed file return 0, 1 or
    2 and let no exception escape."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        Path(path).write_bytes(data)
        out = os.path.join(tmp, "out")
        calls = (
            ["test", path, "--m-reps", "100", "--grid-k", "4", "--out", out],
            ["plot", path, "--m-reps", "100", "--grid-k", "4", "--out", out],
            ["thin", path, "--out", out],
        )
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2), argv


def test_pit_subcommand(tmp_path, capsys):
    draws = write(tmp_path / "draws.csv", "0.0\n2.5\n9.0\n")
    comp = write(
        tmp_path / "comp.csv",
        "1.0,2.0,3.0,4.0\n1.0,2.0,3.0,4.0\n1.0,2.0,3.0,4.0\n",
    )
    code = main(["pit", draws, comp])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# resolution: 4"
    assert lines[1] == "pit"
    assert [float(v) for v in lines[2:]] == [0.0, 0.5, 1.0]


def test_pit_broadcasts_single_comparison_row(tmp_path, capsys):
    draws = write(tmp_path / "draws.csv", "1.5\n3.5\n")
    comp = write(tmp_path / "comp.csv", "1.0,2.0,3.0,4.0\n")
    assert main(["pit", draws, comp]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [float(v) for v in lines[2:]] == [0.25, 0.75]


def test_pit_output_feeds_test_on_the_pit_lattice(tmp_path, capsys):
    rng = np.random.default_rng(5)
    y = rng.standard_normal(30)
    comparison = rng.standard_normal((30, 14))
    draws = write(tmp_path / "y.csv", "\n".join(repr(float(v)) for v in y) + "\n")
    comp = write(
        tmp_path / "comp.csv",
        "\n".join(",".join(repr(float(v)) for v in row) for row in comparison) + "\n",
    )
    pit = str(tmp_path / "pit.csv")
    assert main(["pit", draws, comp, "--out", pit]) == 0
    code = main(["test", pit])
    assert code in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 30
    # K = 14 divides the resolution, so every grid point sits on the lattice
    assert payload["grid"] == [k / 14 for k in range(1, 15)]
    assert payload["inside"] is (code == 0)


def test_bad_declared_resolution_exits_two(tmp_path, capsys):
    for value in ("0", "-3", "2.5", "many"):
        path = write(tmp_path / "pit.csv", f"# resolution: {value}\npit\n0.5\n1.0\n")
        assert main(["test", path]) == 2
    off_lattice = write(tmp_path / "off.csv", "# resolution: 4\n0.3\n1.0\n")
    assert main(["test", off_lattice]) == 2
    capsys.readouterr()


def test_values_off_a_fine_declared_lattice_exit_two(tmp_path, capsys):
    # each value lies within a relative 1e-5 of the lattice, far from it
    # in ulps
    for resolution, value in ((10**6, "0.31415926535"), (10**5, "0.9000043")):
        path = write(tmp_path / "pit.csv", f"# resolution: {resolution}\npit\n{value}\n0.5\n1.0\n")
        assert main(["test", path]) == 2
        assert "multiples of 1/resolution" in capsys.readouterr().err


@pytest.mark.parametrize(
    "draws, comparison",
    [("nan\n0.5\n", "1.0,2.0\n"), ("0.5\n", "1.0,nan\n")],
    ids=["nan-draw", "nan-comparison"],
)
def test_pit_rejects_non_finite_values(tmp_path, capsys, draws, comparison):
    draws = write(tmp_path / "draws.csv", draws)
    comp = write(tmp_path / "comp.csv", comparison)
    assert main(["pit", draws, comp]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_pit_rejects_multicolumn_draws(tmp_path, capsys):
    draws = write(tmp_path / "draws.csv", "1.0,2.0\n")
    comp = write(tmp_path / "comp.csv", "1.0,2.0\n")
    assert main(["pit", draws, comp]) == 2
    capsys.readouterr()


def test_power_subcommand_emits_rate_table(capsys):
    code = main(
        [
            "power",
            "--family",
            "A",
            "--ks",
            "1,3",
            "--n",
            "40",
            "--tests",
            "KS,T1",
            "--m-reps",
            "1000",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,rate_KS,se_KS,rate_T1,se_T1"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert 0.0 <= float(first[1]) <= 1.0


@pytest.mark.parametrize("chains", ["1", "4"])
def test_power_subcommand_reads_a_repeated_test_once(capsys, chains):
    # a repeated name is dropped before the multi-chain check, so several
    # chains accept "bands,bands" as one chain does
    argv = ["power", "--family", "A", "--ks", "1,2", "--n", "10", "--chains", chains, "--m-reps", "1000"]
    assert main(argv + ["--tests", "bands"]) == 0
    once = capsys.readouterr().out
    assert main(argv + ["--tests", "bands,bands"]) == 0
    assert capsys.readouterr().out == once


def test_thin_subcommand_writes_csv_and_ess_json(tmp_path, capsys):
    rng = np.random.default_rng(5)
    draws = rng.standard_normal((2, 400)).cumsum(axis=1) * 0.1 + rng.standard_normal((2, 400))
    rows = "\n".join(f"{a:.8f},{b:.8f}" for a, b in draws.T)
    path = write(tmp_path / "chains.csv", rows + "\n")
    ess_out = tmp_path / "ess.json"
    code = main(["thin", path, "--ess-out", str(ess_out)])
    assert code == 0
    report = json.loads(ess_out.read_text())
    assert report["n_total"] == 800
    assert report["factor"] >= 1
    assert report["strategy"] == "BULK_TAIL_MIN"
    assert len(report["ess_quantiles"]) == 19
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "chain1,chain2"
    assert len(lines) - 1 == report["kept_per_chain"]
    assert len(lines) - 1 == -(-400 // report["factor"])


def test_gamma_build_and_query_roundtrip(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    code = main(
        [
            "gamma",
            "build",
            "--ns",
            "40,80",
            "--grid-k",
            "16",
            "--out",
            str(grid_path),
        ]
    )
    assert code == 0
    assert grid_path.exists()
    capsys.readouterr()
    code = main(["gamma", "query", str(grid_path), "--n", "60"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "interpolated"
    assert 0.0 < payload["gamma"] < 0.05
    code = main(["gamma", "query", str(grid_path), "--n", "40"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "optimization"


def test_cached_gamma_reports_how_its_coverage_was_made(tmp_path, capsys, monkeypatch):
    grid_path = tmp_path / "grid.json"
    build = ["gamma", "build", "--ns", "32,64", "--ls", "1,4", "--m-reps", "2000"]
    assert main(build + ["--out", str(grid_path)]) == 0
    capsys.readouterr()
    monkeypatch.setenv(CACHE_ENV, str(grid_path))
    rng = np.random.default_rng(8)
    cases = [
        (4, 32, "simulation", "in_sample"),
        (4, 48, "interpolated", "blend"),
        (1, 32, "optimization", None),
    ]
    for chains, n, method, estimate in cases:
        draws = rng.uniform(size=(n, chains))
        text = "\n".join(",".join(map(str, r)) for r in draws) + "\n"
        path = write(tmp_path / f"d{chains}x{n}.csv", text)
        assert main(["test", path]) in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        assert (payload["chains"], payload["n"]) == (chains, n)
        assert payload["method"] == method
        assert payload["attained_estimate"] == estimate


def test_gamma_build_requires_out(capsys):
    assert main(["gamma", "build", "--ns", "40"]) == 2
    capsys.readouterr()


def test_gamma_query_uses_cache_env(uniform_csv, tmp_path, capsys, monkeypatch):
    grid_path = tmp_path / "grid.json"
    main(["gamma", "build", "--ns", "30", "--grid-k", "10", "--out", str(grid_path)])
    capsys.readouterr()
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert main(["gamma", "query", "--n", "30"]) == 2
    capsys.readouterr()
    monkeypatch.setenv(CACHE_ENV, str(grid_path))
    assert main(["gamma", "query", "--n", "30"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 30
    # a cache miss is a usage error whose message prints without quotes
    tail = " outside the stored range [30, 30]; extrapolation is not supported\n"
    assert main(["gamma", "query", "--n", "300"]) == 2
    assert capsys.readouterr().err == "error: n=300" + tail
    assert main(["test", uniform_csv, "--method", "cache"]) == 2
    assert capsys.readouterr().err == "error: n=50" + tail


def test_plot_svg_is_byte_deterministic(uniform_csv, tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    args = ["plot", uniform_csv, "--kind", "ecdf_diff", "--grid-k", "10"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith('<?xml version="1.0"')
    capsys.readouterr()


def test_plot_data_out_payload(uniform_csv, tmp_path, capsys):
    svg = tmp_path / "fig.svg"
    data = tmp_path / "fig.json"
    code = main(
        [
            "plot",
            uniform_csv,
            "--kind",
            "ecdf",
            "--grid-k",
            "10",
            "--out",
            str(svg),
            "--data-out",
            str(data),
        ]
    )
    assert code == 0
    payload = json.loads(data.read_text())
    assert payload["kind"] == "ecdf"
    assert len(payload["points"]) == 10
    capsys.readouterr()


def test_plot_rank_hist_multi_writes_one_file_per_chain(tmp_path, capsys):
    rng = np.random.default_rng(8)
    draws = rng.standard_normal((30, 2))
    rows = "\n".join(f"{a:.8f},{b:.8f}" for a, b in draws)
    path = write(tmp_path / "two.csv", rows + "\n")
    out = tmp_path / "hist.svg"
    code = main(["plot", path, "--kind", "rank_hist", "--bins", "6", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "hist_chain1.svg").exists()
    assert (tmp_path / "hist_chain2.svg").exists()
    capsys.readouterr()
    # with --data-out, each chain's plot data goes next to its figure
    data = tmp_path / "hist.json"
    argv = ["plot", path, "--kind", "rank_hist", "--bins", "6", "--out", str(out)]
    assert main(argv + ["--data-out", str(data)]) == 0
    assert not data.exists()
    for ci in (1, 2):
        payload = json.loads((tmp_path / f"hist_chain{ci}.json").read_text())
        assert payload["kind"] == "rank_hist" and payload["title"] == f"chain {ci}"
        assert payload["n"] == 30 and sum(payload["heights"]) == 30
    capsys.readouterr()
    # multi-chain histograms cannot go to stdout
    assert main(["plot", path, "--kind", "rank_hist", "--bins", "6"]) == 2
    capsys.readouterr()


def test_plot_rank_hist_does_not_read_the_gamma_cache(uniform_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "missing.json"))
    out = tmp_path / "hist.svg"
    assert main(["plot", uniform_csv, "--kind", "rank_hist", "--out", str(out)]) == 0
    assert out.read_text().startswith('<?xml version="1.0"')
    # band plots still calibrate through the cache, so they report it
    assert main(["plot", uniform_csv, "--kind", "ecdf", "--out", str(out)]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_plot_rank_hist_rejects_values_outside_unit_interval(tmp_path, capsys):
    path = write(tmp_path / "raw.csv", "1.5\n0.2\n0.7\n")
    assert main(["plot", path, "--kind", "rank_hist"]) == 2
    nan = write(tmp_path / "nan.csv", "0.1\nnan\n0.3\n0.7\n")
    data = tmp_path / "hist.json"
    assert main(["plot", nan, "--kind", "rank_hist", "--bins", "4", "--data-out", str(data)]) == 2
    assert not data.exists()
    capsys.readouterr()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_bad_alpha_is_a_usage_error(uniform_csv, capsys):
    assert main(["test", uniform_csv, "--alpha", "0.9"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_texts_are_byte_identical(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert {"code": code, "stdout": out, "stderr": err} == CLI_TEXTS[" ".join(argv)]


BAND_TEST_DEFAULTS = {
    "alpha": 0.05,
    "seed": 0,
    "threads": 1,
    "out": None,
    "method": "auto",
    "m_reps": 10_000,
    "grid_k": 100,
    "tie_policy": "deterministic",
}


NAMESPACES = [
    (
        ["test", "x.csv"],
        {"command": "test", "input": "x.csv", **BAND_TEST_DEFAULTS, "func": cli.cmd_test},
    ),
    (
        ["pit", "a.csv", "b.csv"],
        {"command": "pit", "draws": "a.csv", "comparison": "b.csv", "out": None, "func": cli.cmd_pit},
    ),
    (
        ["power", "--family", "A", "--ks", "1", "--n", "10"],
        {
            "command": "power",
            "family": "A",
            "ks": "1",
            "n": 10,
            "tests": "bands",
            "chains": 1,
            "alpha": 0.05,
            "seed": 0,
            "threads": 1,
            "out": None,
            "m_reps": 10_000,
            "func": cli.cmd_power,
        },
    ),
    (
        ["thin", "x.csv"],
        {
            "command": "thin",
            "input": "x.csv",
            "strategy": "BULK_TAIL_MIN",
            "ess_out": None,
            "out": None,
            "func": cli.cmd_thin,
        },
    ),
    (
        ["gamma", "build", "--ns", "40"],
        {
            "command": "gamma",
            "gamma_action": "build",
            "ns": "40",
            "ls": "1",
            "alphas": "0.05",
            "seed": 0,
            "threads": 1,
            "out": None,
            "m_reps": 10_000,
            "grid_k": 100,
            "func": cli.cmd_gamma_build,
        },
    ),
    (
        ["gamma", "query", "--n", "5"],
        {
            "command": "gamma",
            "gamma_action": "query",
            "grid_file": None,
            "n": 5,
            "l": 1,
            "alpha": 0.05,
            "out": None,
            "func": cli.cmd_gamma_query,
        },
    ),
    (
        ["plot", "x.csv"],
        {
            "command": "plot",
            "input": "x.csv",
            "kind": "ecdf_diff",
            "bins": 50,
            "title": "",
            "data_out": None,
            **BAND_TEST_DEFAULTS,
            "func": cli.cmd_plot,
        },
    ),
]
"""Each subcommand's parsed namespace at its defaults, with an argv
that names it."""
NAMESPACE_IDS = ["test", "pit", "power", "thin", "gamma build", "gamma query", "plot"]


@pytest.mark.parametrize("argv, namespace", NAMESPACES, ids=NAMESPACE_IDS)
def test_parsed_namespace_carries_every_default(argv, namespace):
    """Each subcommand's namespace holds exactly the options its command
    reads, at their defaults."""
    args = vars(cli._parse(argv))
    assert args == namespace
    for name, value in namespace.items():
        assert type(args[name]) is type(value), name


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["pit", "a.csv", "b.csv"], "--alpha", "0.05"),
        (["pit", "a.csv", "b.csv"], "--seed", "0"),
        (["pit", "a.csv", "b.csv"], "--threads", "1"),
        (["thin", "x.csv"], "--alpha", "0.05"),
        (["thin", "x.csv"], "--seed", "0"),
        (["thin", "x.csv"], "--threads", "1"),
        (["power", "--family", "A", "--ks", "1", "--n", "10"], "--method", "simulate"),
        (["power", "--family", "A", "--ks", "1", "--n", "10"], "--grid-k", "20"),
        (["gamma", "build", "--ns", "40"], "--alpha", "0.1"),
        (["gamma", "build", "--ns", "40"], "--method", "simulate"),
        (["gamma", "query", "--n", "5"], "--seed", "0"),
        (["gamma", "query", "--n", "5"], "--threads", "1"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_options_a_command_does_not_read_are_refused(argv, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    # gamma query takes a lone value as its grid file
    assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, progs",
    [
        ("test", ["ecdf-bands", "ecdf-bands test"]),
        (
            "gamma",
            ["ecdf-bands", "ecdf-bands gamma", "ecdf-bands gamma build", "ecdf-bands gamma query"],
        ),
    ],
)
def test_a_call_builds_only_its_own_subcommand(command, progs, uniform_csv, monkeypatch, capsys):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    # the first call in a process builds; earlier tests may have made it
    cli._build_parser.cache_clear()
    built, added = [], []
    init, add_argument = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_add_argument(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add_argument)
    def call():
        if command == "test":
            assert main(["test", uniform_csv, "--grid-k", "10"]) == 0
        else:
            # parsed, then refused for want of a grid file
            assert main(["gamma", "query", "--n", "30"]) == 2
        capsys.readouterr()

    call()
    assert [p.prog for p in built] == progs
    needed = sum(
        not isinstance(action, argparse._SubParsersAction) for p in built for action in p._actions
    )
    assert len(added) <= needed
    # a second call in the same process reuses the parser
    call()
    assert len(built) == len(progs)


def test_gamma_build_checks_out_before_calibrating(monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("build_grid ran before the --out check")

    monkeypatch.setattr(cli, "build_grid", no_build)
    assert main(["gamma", "build", "--ns", "400,800,1600,3200", "--ls", "1,4"]) == 2
    assert capsys.readouterr().err == "error: gamma build requires --out\n"


@pytest.mark.parametrize("alphas", ["0.7", "0.05,0.7", "0", "-0.1", "nan"])
def test_gamma_build_checks_alphas_before_calibrating(alphas, tmp_path, monkeypatch, capsys):
    # every stored level must be one that test and gamma query accept
    def no_build(*args, **kwargs):
        raise AssertionError("build_grid ran before the --alphas check")

    monkeypatch.setattr(cli, "build_grid", no_build)
    out = tmp_path / "grid.json"
    assert main(["gamma", "build", "--ns", "40", "--alphas", alphas, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: alpha must lie in (0, 0.5]\n"
    assert not out.exists()


def test_multi_chain_rank_hist_checks_out_before_ranking(tmp_path, monkeypatch, capsys):
    def no_ranks(*args, **kwargs):
        raise AssertionError("ranks computed before the --out check")

    monkeypatch.setattr(cli, "joint_fractional_ranks", no_ranks)
    path = write(tmp_path / "two.csv", "0.1,0.2\n0.3,0.4\n0.5,0.6\n")
    assert main(["plot", path, "--kind", "rank_hist"]) == 2
    expected = "error: multi-chain rank_hist requires --out (one file per chain)\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("method, made_by", [("optimize", "optimization"), ("simulate", "simulation")])
def test_cache_env_is_read_only_by_methods_that_use_it(
    method, made_by, uniform_csv, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "nonexistent.json"))
    opts = ["--grid-k", "10", "--m-reps", "500"]
    assert main(["test", uniform_csv, "--method", method, *opts]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["method"] == made_by
    svg = tmp_path / "fig.svg"
    assert main(["plot", uniform_csv, "--method", method, *opts, "--out", str(svg)]) == 0
    assert svg.read_text().startswith('<?xml version="1.0"')
    # auto and cache still load the file, so a stale path is still reported
    for uses_cache in ("auto", "cache"):
        assert main(["test", uniform_csv, "--method", uses_cache, *opts]) == 2
        assert "nonexistent.json" in capsys.readouterr().err


def test_parser_texts_hold_on_repeated_calls_in_one_process(monkeypatch, capsys):
    """Each golden call, made twice over in one process after every
    other, prints its recorded text and exits with its recorded code
    both times, from the parsers the first round built."""
    monkeypatch.setenv("COLUMNS", "80")
    assert {" ".join(argv) for argv in PARSER_CASES} == set(CLI_TEXTS)
    cli._build_parser.cache_clear()
    for _ in range(2):
        for argv in PARSER_CASES:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert {"code": code, "stdout": out, "stderr": err} == CLI_TEXTS[" ".join(argv)], argv


def test_namespaces_keep_their_defaults_after_other_subcommands_ran(uniform_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    svg = str(tmp_path / "fig.svg")
    calls = [
        ["test", uniform_csv, "--grid-k", "10", "--alpha", "0.1", "--seed", "3"],
        ["plot", uniform_csv, "--kind", "rank_hist", "--bins", "5", "--title", "t", "--out", svg],
        ["thin", uniform_csv, "--strategy", "MEAN_ESS", "--out", str(tmp_path / "thin.csv")],
        ["pit", uniform_csv, uniform_csv, "--out", str(tmp_path / "pit.csv")],
        ["gamma", "query", "--n", "5", "--l", "2", "--alpha", "0.1"],
    ]
    for _ in range(2):
        for argv in calls:
            main(argv)
        capsys.readouterr()
        for argv, namespace in NAMESPACES:
            assert vars(cli._parse(argv)) == namespace, argv


def test_build_parser_returns_a_new_parser_that_main_does_not_read(uniform_csv, monkeypatch, capsys):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    assert first is not cli._build_parser(tuple(cli._COMMANDS))

    def hijacked(args):
        raise AssertionError("main read a parser that build_parser returned")

    # reach the test subcommand's own parser, as a caller might
    (commands,) = [a for a in first._actions if isinstance(a, argparse._SubParsersAction)]
    commands.choices["test"].set_defaults(func=hijacked, alpha=0.3)
    first.set_defaults(func=hijacked)
    assert vars(cli._parse(["test", "x.csv"])) == NAMESPACES[0][1]
    assert main(["test", uniform_csv, "--grid-k", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 0.05


def test_clearing_the_parser_memo_rebuilds_the_parser():
    # the cold benchmark clears every functools cache before a request,
    # as a fresh process would start
    first = cli._build_parser(("test",))
    assert cli._build_parser(("test",)) is first
    cli._build_parser.cache_clear()
    rebuilt = cli._build_parser(("test",))
    assert rebuilt is not first
    assert vars(rebuilt.parse_args(["test", "x.csv"])) == vars(first.parse_args(["test", "x.csv"]))


GRID_ENTRY = (
    '{"schema": "gamma-grid/1", "entries": [{"n": 50, "l": 1, "k": 50, "alpha": 0.05,'
    ' "gamma": %s, "coverage": 0.95, "method": "optimization"}]}'
)


def test_a_grid_rewritten_in_place_is_read_anew(tmp_path, monkeypatch, capsys):
    """Same path, same byte length, old mtime: the new text is served."""
    path = tmp_path / "grid.json"
    path.write_text(GRID_ENTRY % "0.0031")
    stat = path.stat()
    monkeypatch.setenv(CACHE_ENV, str(path))
    assert main(["gamma", "query", "--n", "50"]) == 0
    assert json.loads(capsys.readouterr().out)["gamma"] == 0.0031
    path.write_text(GRID_ENTRY % "0.0042")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    assert main(["gamma", "query", "--n", "50"]) == 0
    assert json.loads(capsys.readouterr().out)["gamma"] == 0.0042


@pytest.mark.parametrize("text", MALFORMED_GRIDS)
def test_a_malformed_grid_is_refused_on_every_call(text, tmp_path, monkeypatch, capsys):
    path = tmp_path / "grid.json"
    monkeypatch.setenv(CACHE_ENV, str(path))
    path.write_text(GRID_ENTRY % "0.0031")
    assert main(["gamma", "query", "--n", "50"]) == 0
    capsys.readouterr()
    path.write_text(text)
    for _ in range(3):
        assert main(["gamma", "query", "--n", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err


NUMPY_OOM = "Unable to allocate 745. GiB for an array with shape (100000000001,) and data type int64"


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError(NUMPY_OOM), NUMPY_OOM),
        (MemoryError(), "out of memory"),
    ],
)
def test_a_request_too_large_for_memory_is_a_usage_error(exc, message, uniform_csv, monkeypatch, capsys):
    # exit 1 is a rejection, so running out of memory must not exit 1
    def no_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "rank_hist", no_memory)
    argv = ["plot", uniform_csv, "--kind", "rank_hist", "--bins", "100000000000"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_repeated_calibrations_in_one_process_keep_the_output_bytes(tmp_path, monkeypatch):
    """The second call of each shape is served from the process's
    calibration memos and writes the same bytes as the first."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    chains = np.random.default_rng(35).standard_normal((80, 4))
    src = write(tmp_path / "chains.csv", "\n".join(",".join(map(repr, row)) for row in chains.tolist()) + "\n")
    calls = {
        "json": ["test", src],
        "csv": ["power", "--family", "B", "--ks", "0.8,1.25", "--n", "40", "--tests", "T1,W2", "--m-reps", "2000"],
    }
    for ext, argv in calls.items():
        outs = [tmp_path / f"{i}.{ext}" for i in range(2)]
        codes = [main([*argv, "--out", str(out)]) for out in outs]
        assert codes[0] == codes[1] and codes[0] in (0, 1)
        assert outs[0].read_bytes() == outs[1].read_bytes()
    assert gamma_cache._calibration_slot.cache_info().hits >= 1
    assert power._critical_slot.cache_info().hits >= 1
