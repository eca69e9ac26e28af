"""Command-line front end.

Subcommands: ``test`` (band test on one PIT column or several chains),
``pit`` (empirical PIT from draws plus comparison samples), ``power``
(rejection-rate sweeps), ``thin`` (ESS-based thinning), ``gamma``
(build or query precomputed adjustment grids), and ``plot`` (SVG
figures).  Exit codes: 0 for a passing test, 1 for a statistical
rejection, 2 for usage or data errors.

Input files are CSV (optional header, one column per chain, lines that
start with ``#`` are comments) or NDJSON with records like
{"chain": 0, "value": 1.25}.  A ``# resolution: S`` comment, as written
by ``pit``, declares PIT values on the lattice of multiples of 1/S.  The
environment variable ECDF_BANDS_CACHE can point at a default gamma-grid
file, which ``--method auto`` and ``cache`` read.

Each subcommand parses only the options its command reads, and each
option's default and help are written once: in its ``add_argument``
call, or in ``_SHARED`` for the options several subcommands take.  The
commands read the parsed namespace.  ``main`` checks the ranges argparse
cannot state, for the options the parsed subcommand has: ``--alpha`` in
(0, 0.5] (``test``, ``plot``, ``power``, ``gamma query``), ``--grid-k``
at least 1 (``test``, ``plot``, ``gamma build``), ``--threads`` at
least 1 and ``--seed`` at least 0 (``test``, ``plot``, ``power``,
``gamma build``).  It checks
them before the command runs, so a bad value exits 2 before any file is
read; ``gamma build`` holds each of its ``--alphas`` to the alpha range
before it calibrates.  A request too large for memory exits 2 as well.

A process builds each subcommand's parser once, on its first call to
``main`` for that subcommand, and reuses it afterwards (``_build_parser``
is memoized; parsing leaves a parser as it was).  So a ``cmd_*``
function patched on this module after that call is not seen, because
``set_defaults(func=...)`` bound the old one.  ``build_parser`` still
returns a new full parser each call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .bands_multi import test_multi
from .bands_single import test_single
from .gamma_cache import build_grid, interpolate, load_grid, save_grid
from .power import power_sweep
from .report import PlotSpec, plot_data, rank_hist, render_svg
from .thinning import STRATEGIES, ess_report, thin, thinning_factor
from .transform import (
    ChainSet,
    PitValues,
    default_grid,
    empirical_pit,
    joint_fractional_ranks,
)

REPORT_SCHEMA = "report/1"
CACHE_ENV = "ECDF_BANDS_CACHE"


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 0.5]")


def _check_ranges(args: argparse.Namespace) -> None:
    """The ranges argparse cannot state, of the shared options the
    parsed subcommand has."""
    if "alpha" in args:
        _check_alpha(args.alpha)
    if "grid_k" in args and args.grid_k < 1:
        raise ValueError("grid-k must be positive")
    if "threads" in args and args.threads < 1:
        raise ValueError("threads must be positive")
    if "seed" in args and args.seed < 0:
        raise ValueError("seed must be nonnegative")


def _read_table(path: str) -> tuple[np.ndarray, int | None]:
    """Rectangular float table from CSV or NDJSON; rows kept as rows.

    Text whose first non-blank character is ``{`` is NDJSON, any other
    text CSV (see ``_parse_csv``).  Also returns the resolution a
    ``# resolution: S`` CSV comment declares, or None.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty input")
    if stripped[0] == "{":
        return _parse_ndjson(text, path), None
    return _parse_csv(text, path)


def _parse_ndjson(text: str, path: str) -> np.ndarray:
    series: dict[int, list[float]] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            chain, value = rec["chain"], rec["value"]
            # int() and float() would read true as 1 and 1.7 as chain 1
            if isinstance(chain, bool) or isinstance(value, bool):
                raise TypeError("chain and value must not be booleans")
            if isinstance(chain, float) and not chain.is_integer():
                raise ValueError(f"chain id {chain!r} is not an integer")
            chain, value = int(chain), float(value)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{ln}: bad NDJSON record ({exc})") from exc
        series.setdefault(chain, []).append(value)
    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1:
        raise ValueError(f"{path}: chains have unequal lengths {sorted(lengths)}")
    cols = [series[c] for c in sorted(series)]
    # one row per draw position, one column per chain
    return np.array(cols, dtype=np.float64).T


def _parse_csv(text: str, path: str) -> tuple[np.ndarray, int | None]:
    """Float table and declared resolution from CSV text.

    Lines that start with ``#`` are comments; a ``# resolution: S`` one
    declares the resolution.  The csv module splits the rest, so a
    quoted cell may hold a comma, and rows whose cells are all blank or
    whitespace are skipped.  A first row with a cell ``float()`` cannot
    read is a header.  Every cell is read by ``float()``, so ``nan``,
    ``inf``, ``1_000`` and spaces around a number are accepted.  The
    table is read in one pass; only when a row is ragged or holds a
    non-numeric cell are the rows walked again, to name the first bad
    one by its line in the file.
    """
    resolution = None
    lines = text.splitlines()
    for i, line in enumerate(lines) if "#" in text else ():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            if key.strip() == "resolution":
                value = value.strip()
                if not value.isdecimal() or int(value) < 1:
                    raise ValueError(
                        f"{path}: resolution must be a positive integer, got {value!r}"
                    )
                resolution = int(value)
            lines[i] = ""  # a blank line in its place keeps the reader's line numbers
    reader = csv.reader(lines)
    try:
        rows = [row for row in reader if "".join(row).strip()]
    except csv.Error as exc:  # a cell past the field size limit, say
        raise ValueError(f"{path}:{reader.line_num}: unreadable CSV ({exc})") from exc
    if not rows:
        raise ValueError(f"{path}: empty input")
    start = 0
    try:
        list(map(float, rows[0]))
    except ValueError:
        start = 1
    body = rows[start:]
    if not body:
        raise ValueError(f"{path}: no data rows")
    width = len(body[0])
    if set(map(len, body)) == {width}:
        try:
            cells = map(float, itertools.chain.from_iterable(body))
            table = np.fromiter(cells, np.float64, len(body) * width)
            return table.reshape(len(body), width), resolution
        except ValueError:
            pass
    _raise_first_bad_row(lines, path, start, width)


def _raise_first_bad_row(lines: list[str], path: str, start: int, width: int) -> None:
    """Raise the error of the first data row, in file order, that is
    ragged or holds a non-numeric cell, named by its line in the file."""
    reader = csv.reader(lines)
    kept = (row for row in reader if "".join(row).strip())
    for row in itertools.islice(kept, start, None):
        if len(row) != width:
            raise ValueError(
                f"{path}:{reader.line_num}: ragged row ({len(row)} cells, expected {width})"
            )
        try:
            list(map(float, row))
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: non-numeric cell ({exc})") from exc


def _columns(path: str) -> tuple[np.ndarray, int | None]:
    """(L, N) array with one row per column of the input file, and the
    declared PIT resolution."""
    table, resolution = _read_table(path)
    return table.T, resolution


def _load_cache(explicit: str | None = None):
    path = explicit or os.environ.get(CACHE_ENV)
    if not path:
        return None
    return load_grid(path)


def _write_text(out: str | None, text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _band_test(args: argparse.Namespace, cols: np.ndarray, resolution: int | None):
    """``test_single`` on one column, ``test_multi`` on several; returns
    the report and its per-chain reports.  Only ``--method auto`` and
    ``cache`` read a gamma grid, so only they load ECDF_BANDS_CACHE."""
    cache = _load_cache() if args.method in ("auto", "cache") else None
    opts = dict(
        alpha=args.alpha,
        method=args.method,
        m=args.m_reps,
        seed=args.seed,
        threads=args.threads,
        cache=cache,
    )
    if cols.shape[0] == 1:
        values = PitValues(cols[0], resolution)
        grid = default_grid(values.size, resolution, k_max=args.grid_k)
        rep = test_single(values, grid=grid, **opts)
        return rep, (rep,)
    cs = ChainSet(cols)
    grid = default_grid(cs.n_draws, cs.n_chains * cs.n_draws, k_max=args.grid_k)
    rep = test_multi(cs, grid=grid, tie_policy=args.tie_policy, **opts)
    return rep, rep.chains


def cmd_test(args: argparse.Namespace) -> int:
    cols, resolution = _columns(args.input)
    rep, chains = _band_test(args, cols, resolution)
    info = rep.bands.gamma_info
    payload = {
        "schema": REPORT_SCHEMA,
        "mode": "single" if len(chains) == 1 else "multi",
        "n": rep.bands.n,
        "chains": len(chains),
        "alpha": args.alpha,
        "gamma": rep.bands.gamma,
        "attained_coverage": info.attained_coverage if info else None,
        "attained_estimate": info.meta.get("attained_estimate") if info else None,
        "method": info.method if info else "fixed",
        "grid": [float(z) for z in rep.bands.grid.points],
        "bands": {
            "lower": [float(v) for v in rep.bands.lower],
            "upper": [float(v) for v in rep.bands.upper],
        },
        "inside": rep.inside,
        "exceedances": [[asdict(e) for e in r.exceedances] for r in chains],
    }
    _write_text(args.out, _json_text(payload))
    return 0 if rep.inside else 1


def cmd_pit(args: argparse.Namespace) -> int:
    draws, _ = _columns(args.draws)
    if draws.shape[0] != 1:
        raise ValueError("draws file must have exactly one column")
    y = draws[0]
    comp, _ = _read_table(args.comparison)
    if comp.shape[0] == 1 and y.size > 1:
        comp = np.repeat(comp, y.size, axis=0)
    pit = empirical_pit(y, comp)
    lines = [f"# resolution: {pit.resolution}", "pit"]
    lines += map(repr, pit.values.tolist())
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    ks = [float(k) for k in args.ks.split(",") if k.strip()]
    tests = [t.strip() for t in args.tests.split(",") if t.strip()]
    curve = power_sweep(
        tests,
        args.family,
        ks,
        args.n,
        replicates=args.m_reps,
        seed=args.seed,
        n_chains=args.chains,
        alpha=args.alpha,
        threads=args.threads,
    )
    names = sorted(curve.rates)
    header = ["k"]
    for t in names:
        header += [f"rate_{t}", f"se_{t}"]
    lines = [",".join(header)]
    for j, k in enumerate(curve.ks):
        row = [f"{k:g}"]
        for t in names:
            r = curve.rates[t][j]
            se = (r * (1.0 - r) / curve.replicates) ** 0.5
            row += [f"{r:.6f}", f"{se:.6f}"]
        lines.append(",".join(row))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_thin(args: argparse.Namespace) -> int:
    cs = ChainSet(_columns(args.input)[0])
    rep = ess_report(cs)
    plan = thinning_factor(rep, cs.n_chains * cs.n_draws, args.strategy)
    thinned = thin(cs, plan.factor)
    lines = [",".join(f"chain{i + 1}" for i in range(thinned.n_chains))]
    lines += [",".join(map(repr, row)) for row in thinned.chains.T.tolist()]
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.ess_out:
        payload = {
            "ess_mean": rep.ess_mean,
            "ess_bulk": rep.ess_bulk,
            "ess_tail": rep.ess_tail,
            "ess_quantiles": list(rep.ess_quantiles),
            "n_total": rep.n_total,
            "strategy": plan.strategy,
            "factor": plan.factor,
            "kept_per_chain": thinned.n_draws,
        }
        _write_text(args.ess_out, _json_text(payload))
    else:
        sys.stderr.write(
            f"thinned by {plan.factor} ({args.strategy}): kept {thinned.n_draws} of "
            f"{cs.n_draws} draws per chain\n"
        )
    return 0


def cmd_gamma_build(args: argparse.Namespace) -> int:
    ns = [int(v) for v in args.ns.split(",") if v.strip()]
    ls = [int(v) for v in args.ls.split(",") if v.strip()]
    alphas = [float(v) for v in args.alphas.split(",") if v.strip()]
    for alpha in alphas:
        _check_alpha(alpha)
    if not args.out:
        raise ValueError("gamma build requires --out")
    grid = build_grid(
        ns, ls, alphas, k_policy=args.grid_k, m=args.m_reps, seed=args.seed, threads=args.threads
    )
    save_grid(grid, args.out)
    sys.stderr.write(f"wrote {len(grid.entries)} entries to {args.out}\n")
    return 0


def cmd_gamma_query(args: argparse.Namespace) -> int:
    grid = _load_cache(args.grid_file)
    if grid is None:
        raise ValueError(f"no grid file given and {CACHE_ENV} is not set")
    res = interpolate(grid, args.n, args.l, args.alpha)
    payload = {
        "n": args.n,
        "l": args.l,
        "alpha": args.alpha,
        "gamma": res.gamma,
        "attained_coverage": res.attained_coverage,
        "method": res.method,
    }
    _write_text(args.out, _json_text(payload))
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    cols, resolution = _columns(args.input)
    if args.kind == "rank_hist":
        return _plot_hist(args, cols)
    rep, chains = _band_test(args, cols, resolution)
    labels = tuple(f"chain {i + 1}" for i in range(len(chains))) if len(chains) > 1 else ()
    spec = PlotSpec(
        args.kind, rep.bands, tuple(r.trajectory for r in chains), labels=labels, title=args.title
    )
    if args.data_out:
        _write_text(args.data_out, _json_text(plot_data(spec)))
    _write_text(args.out, render_svg(spec))
    return 0


def _plot_hist(args: argparse.Namespace, cols: np.ndarray) -> int:
    """One rank histogram of a PIT column, or one per chain of its joint
    fractional ranks; chain i's SVG and plot data go to the ``--out``
    and ``--data-out`` paths with ``_chain{i}`` before the extension."""
    if cols.shape[0] == 1:
        samples, total = [cols[0]], None
        figures = [(args.title, args.out, args.data_out)]
    else:
        cs = ChainSet(cols)
        if not args.out:
            raise ValueError("multi-chain rank_hist requires --out (one file per chain)")
        samples = joint_fractional_ranks(cs, tie_policy=args.tie_policy, seed=args.seed)
        total = cs.n_draws
        figures = [
            (
                args.title or f"chain {ci}",
                _chain_path(args.out, ci, ".svg"),
                _chain_path(args.data_out, ci, ".json") if args.data_out else None,
            )
            for ci in range(1, cs.n_chains + 1)
        ]
    for sample, (title, out, data_out) in zip(samples, figures):
        hist = rank_hist(sample, args.bins, alpha=args.alpha, expected_total=total)
        spec = PlotSpec("rank_hist", hist=hist, title=title)
        if data_out:
            _write_text(data_out, _json_text(plot_data(spec)))
        _write_text(out, render_svg(spec))
    return 0


def _chain_path(path: str, chain: int, default_ext: str) -> str:
    """``path`` with ``_chain{chain}`` before its extension, or before
    ``default_ext`` when it has none."""
    stem, ext = os.path.splitext(path)
    return f"{stem}_chain{chain}{ext or default_ext}"


_SHARED = {
    "--alpha": dict(type=float, default=0.05, help="test level (default 0.05)"),
    "--seed": dict(type=int, default=0, help="RNG seed (default 0)"),
    "--threads": dict(type=int, default=1, help="worker threads"),
    "--out": dict(default=None, help="output path (default stdout)"),
    "--method": dict(
        choices=("auto", "simulate", "optimize", "cache"), default="auto", help="gamma calibration method"
    ),
    "--m-reps": dict(type=int, default=10_000, help="simulation replicates"),
    "--grid-k": dict(type=int, default=100, help="largest evaluation grid size"),
    "--tie-policy": dict(
        choices=("deterministic", "random"), default="deterministic", help="how pooled rank ties break"
    ),
}
"""The options several subcommands take, in the order ``test`` lists
them."""


def _shared(p, *flags):
    """Add the named ``_SHARED`` options."""
    for flag in flags:
        p.add_argument(flag, **_SHARED[flag])


def _test_args(p):
    p.add_argument("input", help="CSV or NDJSON file; one column per chain")
    _shared(p, *_SHARED)
    p.set_defaults(func=cmd_test)


def _pit_args(p):
    p.add_argument("draws", help="single-column file of draws")
    p.add_argument("comparison", help="file with one comparison row per draw")
    _shared(p, "--out")
    p.set_defaults(func=cmd_pit)


def _power_args(p):
    p.add_argument("--family", choices=("A", "B", "C"), required=True)
    p.add_argument("--ks", required=True, help="comma-separated strengths, e.g. 0.2,0.5,1,2")
    p.add_argument("--n", type=int, required=True, help="sample size per chain")
    p.add_argument("--tests", default="bands", help="comma-separated: bands,T1,W2,U2,KS")
    p.add_argument("--chains", type=int, default=1, help="chain count (bands test only if > 1)")
    _shared(p, "--alpha", "--seed", "--threads", "--out", "--m-reps")
    p.set_defaults(func=cmd_power)


def _thin_args(p):
    p.add_argument("input", help="CSV or NDJSON file; one column per chain")
    p.add_argument("--strategy", choices=STRATEGIES, default="BULK_TAIL_MIN")
    p.add_argument("--ess-out", default=None, help="where to write the ESS report JSON")
    _shared(p, "--out")
    p.set_defaults(func=cmd_thin)


def _gamma_args(p):
    gsub = p.add_subparsers(dest="gamma_action", required=True)
    # no abbreviations, so that --alpha is refused rather than read as --alphas
    pb = gsub.add_parser("build", help="calibrate a grid of adjustment levels", allow_abbrev=False)
    pb.add_argument("--ns", required=True, help="comma-separated sample sizes")
    pb.add_argument("--ls", default="1", help="comma-separated chain counts")
    pb.add_argument("--alphas", default="0.05", help="comma-separated levels")
    _shared(pb, "--seed", "--threads", "--out", "--m-reps", "--grid-k")
    pb.set_defaults(func=cmd_gamma_build)
    pq = gsub.add_parser("query", help="interpolate a stored grid")
    pq.add_argument("grid_file", nargs="?", default=None, help=f"grid JSON (default ${CACHE_ENV})")
    pq.add_argument("--n", type=int, required=True)
    pq.add_argument("--l", type=int, default=1)
    _shared(pq, "--alpha", "--out")
    pq.set_defaults(func=cmd_gamma_query)


def _plot_args(p):
    p.add_argument("input", help="CSV or NDJSON file")
    p.add_argument("--kind", choices=("ecdf", "ecdf_diff", "rank_hist"), default="ecdf_diff")
    p.add_argument("--bins", type=int, default=50, help="histogram bin count")
    p.add_argument("--title", default="", help="figure title")
    p.add_argument("--data-out", default=None, help="also write plot data JSON here")
    _shared(p, *_SHARED)
    p.set_defaults(func=cmd_plot)


_COMMANDS = {
    "test": ("band test for one PIT column or several chains", _test_args),
    "pit": ("empirical PIT values from draws and comparison samples", _pit_args),
    "power": ("rejection-rate sweep over a transformation family", _power_args),
    "thin": ("ESS-based thinning of chains", _thin_args),
    "gamma": ("build or query a precomputed adjustment grid", _gamma_args),
    "plot": ("render an SVG figure", _plot_args),
}
"""Each subcommand's help line and the function that adds its arguments."""


@functools.lru_cache(maxsize=None)
def _build_parser(commands: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser holding ``commands``, built once per tuple; callers
    must not change it."""
    parser = argparse.ArgumentParser(
        prog="ecdf-bands",
        description="Simultaneous confidence bands and uniformity tests for PIT ECDFs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        help_text, add_args = _COMMANDS[name]
        add_args(sub.add_parser(name, help=help_text))
    return parser


def build_parser() -> argparse.ArgumentParser:
    """A new parser with every subcommand."""
    return _build_parser.__wrapped__(tuple(_COMMANDS))


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``, building only the subcommand it names.

    A parser holding one subcommand parses its arguments, help and
    errors exactly as the full one does; only the top-level usage
    differs, as it lists the commands.  So anything that does not start
    with a command name, and any call whose leftovers the top level
    would refuse, goes through the full parser.
    """
    if argv and argv[0] in _COMMANDS:
        args, extras = _build_parser((argv[0],)).parse_known_args(argv)
        if not extras:
            return args
    return _build_parser(tuple(_COMMANDS)).parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        _check_ranges(args)
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError, MemoryError) as exc:
        if isinstance(exc, KeyError) and exc.args:
            message = exc.args[0]  # str() of a KeyError quotes its message
        elif isinstance(exc, MemoryError):
            # numpy's names the array it could not allocate; a bare one says nothing
            message = str(exc) or "out of memory"
        else:
            message = exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
