"""Command-line behavior: parsing, exit codes, and output formats."""

import json

import numpy as np
import pytest

from ecdf_bands.cli import CACHE_ENV, main


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
    capsys.readouterr()


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


def test_out_flag_writes_file(uniform_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["test", uniform_csv, "--grid-k", "10", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["schema"] == "report/1"


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


def test_gamma_query_uses_cache_env(tmp_path, capsys, monkeypatch):
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
    # multi-chain histograms cannot go to stdout
    assert main(["plot", path, "--kind", "rank_hist", "--bins", "6"]) == 2
    capsys.readouterr()


def test_plot_rank_hist_rejects_values_outside_unit_interval(tmp_path, capsys):
    path = write(tmp_path / "raw.csv", "1.5\n0.2\n0.7\n")
    assert main(["plot", path, "--kind", "rank_hist"]) == 2
    capsys.readouterr()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_bad_alpha_is_a_usage_error(uniform_csv, capsys):
    assert main(["test", uniform_csv, "--alpha", "0.9"]) == 2
    capsys.readouterr()
