"""Command-line surface: fixture generation, cost tables, single-point
simulation, grid-search exploration, and report re-emission.

Files are the machine contract (CSV with mandatory header rows, JSON with
format_version); stdout is human-oriented. Each layout has one definition:
``load_run_config`` builds the resolved run config that ``config_resolved.json``
and ``simulate_result.json`` hold, ``RESULT_COLUMNS`` is a row of
``results.csv`` and ``ranking.csv`` for writing and reading, and every CSV
file goes through ``_write_csv``. Exit codes: 0 success, 1 runtime failure, 2
usage or configuration error. A command refuses with exit 2 in at most two
stages, each one error listing every problem the stage can see: what the
arguments and the run config show (its space by ``dse.SearchSpace.problems``),
before any input is loaded; then what the inputs show, before any point runs.

Stage 2 loads every input file and lists every problem in each (at most 20
lines a file, then ``... and N more``), every way the dataset does not fit
the network (``qnet.fit_problems``) and, if the network parsed, one line for
every layer that a design point cannot map (``dse.infeasible``). A lone file
or pairing problem is its line alone (``error: dataset row 5: non-finite
feature``); otherwise those go under the command's stage-1 heading and the
layers under ``infeasible design points``::

    error: invalid configuration:
      layers[0].scale: must be a positive finite number
      dataset row 3: non-finite feature
    infeasible design points:
      scheme dense_kernel, tile_size 2: kernel footprint 3 exceeds tile size 2 (layer 0, conv1d)
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dse, mapping, qnet, xbar

FIXTURE_SHAPE = (1, 16)
FIXTURE_CLASSES = 4


class ConfigError(ValueError):
    """Bad usage or configuration; maps to exit code 2."""


def _refuse(heading: str, errors: list[str], *more: tuple[str, list[str]]) -> None:
    """Raise one ConfigError listing every problem, if there is any: those in
    ``errors`` under ``heading``, then those of each (heading, lines) of
    ``more`` under its own."""
    listings = [f"{h}:\n  " + "\n  ".join(lines) for h, lines in ((heading, errors), *more)
                if lines]
    if listings:
        raise ConfigError("\n".join(listings))


def _load(loader, path) -> tuple[object, list[str]]:
    """``loader(path)`` and no problems, or None and the problem lines of
    the one error the loader raised."""
    try:
        return loader(path), []
    except (ConfigError, qnet.NetworkFormatError) as err:
        return None, str(err).splitlines()


def _refuse_inputs(heading: str, problems: list[str], infeasible: list[str] = ()) -> None:
    """Stage 2's one refusal, in the format of the module docstring."""
    if len(problems) == 1 and not infeasible:
        raise ConfigError(problems[0])
    _refuse(heading, problems, ("infeasible design points", infeasible))


def _out_dir_errors(out) -> list[str]:
    """The output-directory problem of ``out`` as a list entry, or none."""
    return [] if Path(out).is_dir() else [f"output directory does not exist: {out}"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list], comment: str = "") -> None:
    """``header`` and ``rows`` as CSV, each cell as ``_fmt`` writes it, under
    a ``# comment`` line if ``comment`` is given."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# run configuration


JOBS_HELP = ("positive integer, accepted for compatibility; design points are "
             "evaluated serially, but a large layer is programmed on every CPU the "
             "process may use, whatever its value")

DEVICE_FIELDS = ("r_on_mean", "r_on_std", "r_off_mean", "r_off_std")


def load_run_config(path: str, seed_override: int | None = None,
                    out_override: str | None = None,
                    jobs_override: int | None = None, *,
                    single_point: bool = False
                    ) -> tuple[dict, dse.SearchSpace, xbar.DeviceModel]:
    """Load and validate a run configuration, materializing all defaults.
    Returns the resolved document, which ``dse`` writes as
    ``config_resolved.json`` and ``simulate`` as its result's ``config``,
    with the ``SearchSpace`` and base ``DeviceModel`` it describes.

    Collects every validation problem before failing, so a bad config is
    reported exhaustively, including unknown top-level keys, the output
    directory, the space's size (one point if ``single_point``, else at most
    ``max_grid``) and each problem of the device block and of the space
    against it (the default one if the block has problems), as
    ``dse.SearchSpace.problems`` lists them. ``jobs`` must be a positive
    integer; design points are evaluated serially whatever its value
    (``JOBS_HELP``).
    """
    errors: list[str] = []
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config top level must be an object")

    cfg = {
        "format_version": doc.get("format_version", 1),
        "network": doc.get("network"),
        "dataset": doc.get("dataset"),
        "out": out_override or doc.get("out", "."),
        "seed": seed_override if seed_override is not None else doc.get("seed", 0),
        "jobs": jobs_override if jobs_override is not None else doc.get("jobs", 1),
        "max_grid": doc.get("max_grid", 4096),
        "svg": doc.get("svg", False),
        "device": doc.get("device", {}),
        "space": doc.get("space", {}),
    }
    errors += [f"{key}: unknown field" for key in doc if key not in cfg]
    for key in ("device", "space"):
        if not isinstance(cfg[key], dict):
            errors.append(f"{key}: must be an object, got {cfg[key]!r}")
            cfg[key] = {}
    if not qnet._is_int(cfg["format_version"]) or cfg["format_version"] != 1:
        errors.append(f"format_version: unsupported value {cfg['format_version']}")
    for key in ("network", "dataset"):
        if not cfg[key]:
            errors.append(f"{key}: missing path")
        elif not isinstance(cfg[key], str):
            errors.append(f"{key}: must be a path string, got {cfg[key]!r}")
        elif not Path(cfg[key]).is_file():
            errors.append(f"{key}: file not found: {cfg[key]}")
    if not isinstance(cfg["out"], str):
        errors.append(f"out: must be a path string, got {cfg['out']!r}")
    else:
        errors += _out_dir_errors(cfg["out"])
    if not qnet._is_int(cfg["seed"]):
        errors.append("seed: must be an integer")
    if not qnet._is_int(cfg["jobs"]) or cfg["jobs"] < 1:
        errors.append("jobs: must be a positive integer")
    max_grid_ok = qnet._is_int(cfg["max_grid"]) and cfg["max_grid"] >= 1
    if not max_grid_ok:
        errors.append("max_grid: must be a positive integer")
    if not isinstance(cfg["svg"], bool):
        errors.append("svg: must be true or false")

    errors += [f"device.{key}: unknown device field" for key in cfg["device"]
               if key not in DEVICE_FIELDS]
    device = {**vars(xbar.DeviceModel()), **{k: cfg["device"][k] for k in DEVICE_FIELDS
                                              if cfg["device"].get(k) is not None}}
    device_errors = [f"device: {problem}" for problem in xbar.device_problems(**device)]
    errors += device_errors
    base_model = xbar.DeviceModel() if device_errors else xbar.DeviceModel(**device)

    space = dse.SearchSpace()
    for key, value in cfg["space"].items():
        if key not in dse.DIMENSIONS:
            errors.append(f"space.{key}: unknown dimension")
        elif key == "network":
            errors.append("space.network: derived from the network path, not configurable")
        else:
            setattr(space, key, value if isinstance(value, list) else [value])
    errors += [f"space.{problem}" for problem in space.problems(base_model)]
    if single_point:
        oversized = [name for name in dse.DIMENSIONS if len(getattr(space, name)) > 1]
        if oversized:
            errors.append("simulate needs a single-point space; dimensions "
                          f"with multiple values: {', '.join(oversized)}")
    elif max_grid_ok and space.size() > cfg["max_grid"]:
        errors.append(f"grid has {space.size()} configurations, exceeding "
                      f"max_grid={cfg['max_grid']}; raise max_grid or "
                      "shrink the space")
    _refuse("invalid configuration", errors)

    cfg["device"] = {k: getattr(base_model, k) for k in DEVICE_FIELDS}
    cfg["space"] = {name: getattr(space, name) for name in dse.DIMENSIONS
                    if name != "network"}
    return cfg, space, base_model


def _run_space(args, single_point: bool) -> tuple[dict, list[dse.ConfigResult]]:
    """Evaluate the space of ``args.config``. Refuses what the config shows,
    then what the network, the dataset, their pairing and the space show;
    both before any point runs."""
    cfg, space, base_model = load_run_config(args.config, args.seed, args.out, args.jobs,
                                            single_point=single_point)
    net, problems = _load(qnet.load_network, cfg["network"])
    data, data_problems = _load(qnet.load_dataset, cfg["dataset"])
    problems += data_problems
    if net is not None and data is not None:
        problems += qnet.fit_problems(net.input_shape, net.layers[-1].spec.out_shape, data)
    _refuse_inputs("invalid configuration", problems,
                   dse.infeasible(net, space.scheme, space.tile_size) if net else [])
    space.network = [net.name]
    results = dse.grid_search(space, data, {net.name: net}, seed=cfg["seed"],
                              base_model=base_model, jobs=cfg["jobs"])
    return cfg, results


# ---------------------------------------------------------------------------
# results round-trip


RESULT_COLUMNS = ["order_index", *dse.DIMENSIONS, "tsa", "rd", "rwo", "tiles",
                  "raw_score", "normalized_score", "seed"]


def write_results_csv(path: Path, results: list[dse.ConfigResult]) -> None:
    """One row per result: a dimension column holds ``config[column]``, any
    other column the ``ConfigResult`` field of its name."""
    _write_csv(path, RESULT_COLUMNS,
               [[res.config[col] if col in dse.DIMENSIONS else getattr(res, col)
                 for col in RESULT_COLUMNS] for res in results])


def _parse_cell(column: str, text: str):
    """A results cell as ``_fmt`` wrote it: empty is None, network and scheme
    are text, any other cell an int if it reads as one, else a finite float. A
    dimension value then keeps the type its config gave it, so ``report``
    re-emits the ranking and contour files ``dse`` wrote, byte for byte."""
    if text == "":
        return None
    if column in ("network", "scheme"):
        return text
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def load_results_csv(path) -> list[dse.ConfigResult]:
    """Read a results file as ``write_results_csv`` wrote it. Every row of
    the wrong length, cell that does not parse to a finite value and empty
    cell outside the dimension columns is a line naming the file, the row
    (counted from 0 after the header) and the column; all of them are raised
    as one ConfigError, capped as ``qnet``'s loaders cap theirs. A file whose
    first line is not the header raises at once."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RESULT_COLUMNS:
            raise ConfigError(f"{path}: unexpected results header {header}")
        results, problems = [], []
        for i, row in enumerate(reader):
            if len(row) != len(header):
                problems.append(f"{path} row {i}: {len(row)} cells, expected {len(header)}")
                continue
            cells = {}
            for col, text in zip(header, row):
                try:
                    cells[col] = _parse_cell(col, text)
                except ValueError as err:
                    problems.append(f"{path} row {i}, column {col}: {err}")
                    continue
                if cells[col] is None and col not in dse.DIMENSIONS:
                    problems.append(f"{path} row {i}, column {col}: empty cell")
            if problems:  # the rows are only checked from here on
                continue
            results.append(dse.ConfigResult(
                config={d: cells[d] for d in dse.DIMENSIONS},
                **{col: cells[col] for col in RESULT_COLUMNS if col not in dse.DIMENSIONS}))
    qnet._raise_all(problems, ConfigError)
    return results


def write_contour_csv(path: Path, grid: dse.ContourGrid, seed: int,
                      slice_tag: str = "") -> None:
    header = [f"{grid.y_dim}\\{grid.x_dim}"] + [_fmt(v) for v in grid.x_values]
    rows = [[yv, *("missing" if missing else value
                   for missing, value in zip(grid.missing[yi], grid.matrix[yi]))]
            for yi, yv in enumerate(grid.y_values)]
    _write_csv(path, header, rows, f"seed: {seed}, metric: tsa"
               + (f", slice: {slice_tag}" if slice_tag else ""))


# ---------------------------------------------------------------------------
# SVG heatmap (presentational only)


_COLOR_STOPS = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98),
                (253, 231, 37)]


def _colormap(frac: float) -> str:
    pos = min(max(frac, 0.0), 1.0) * (len(_COLOR_STOPS) - 1)
    i = min(int(pos), len(_COLOR_STOPS) - 2)
    t = pos - i
    rgb = [round(a + (b - a) * t) for a, b in zip(_COLOR_STOPS[i], _COLOR_STOPS[i + 1])]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def write_heatmap_svg(path: Path, grid: dse.ContourGrid, title: str) -> None:
    cell, margin = 64, 70
    width = margin + cell * len(grid.x_values) + 20
    height = margin + cell * len(grid.y_values) + 40
    finite = grid.matrix[~grid.missing]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = (hi - lo) or 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'font-family="monospace" font-size="11">',
             f'<text x="{margin}" y="16">{title}</text>',
             f'<text x="{margin}" y="30">tsa: min={lo:.6g} max={hi:.6g}</text>']
    for yi, yv in enumerate(grid.y_values):
        for xi, xv in enumerate(grid.x_values):
            x0 = margin + xi * cell
            y0 = margin + yi * cell - 30
            if grid.missing[yi, xi]:
                fill, label = "rgb(220,220,220)", "n/a"
            else:
                val = grid.matrix[yi, xi]
                fill, label = _colormap((val - lo) / span), f"{val:.4g}"
            parts.append(f'<rect x="{x0}" y="{y0}" width="{cell - 2}" '
                         f'height="{cell - 2}" fill="{fill}"/>')
            parts.append(f'<text x="{x0 + 4}" y="{y0 + cell // 2}" '
                         f'fill="white">{label}</text>')
        parts.append(f'<text x="{margin - 64}" y="{margin + yi * cell + 6}">'
                     f'{_fmt(yv)}</text>')
    for xi, xv in enumerate(grid.x_values):
        parts.append(f'<text x="{margin + xi * cell}" '
                     f'y="{margin + len(grid.y_values) * cell - 16}">{_fmt(xv)}</text>')
    parts.append(f'<text x="4" y="{margin + 6}">{grid.y_dim}</text>')
    parts.append(f'<text x="{margin}" y="{height - 6}">{grid.x_dim}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


# ---------------------------------------------------------------------------
# commands


def cmd_fixture(args) -> int:
    out = Path(args.out)
    errors = [f"--{name.replace('_', '-')}: must be >= {FIXTURE_CLASSES}, one sample "
              f"per class, got {getattr(args, name)}"
              for name in ("train_size", "test_size")
              if getattr(args, name) < FIXTURE_CLASSES]
    if not 0 <= args.l1 < math.inf:
        errors.append(f"--l1: must be finite and >= 0, got {args.l1}")
    if args.seed < 0:
        errors.append(f"--seed: must be >= 0, got {args.seed}")
    _refuse("invalid arguments", errors + _out_dir_errors(out))
    train = qnet.generate_synthetic_dataset(args.seed, args.train_size,
                                            FIXTURE_CLASSES, FIXTURE_SHAPE)
    test = qnet.generate_synthetic_dataset(args.seed + 1, args.test_size,
                                           FIXTURE_CLASSES, FIXTURE_SHAPE)
    arch = [qnet.conv1d(kernels=4, kernel_h=3), qnet.linear(FIXTURE_CLASSES)]
    net = qnet.train_fixture(args.seed, arch, train, l1=args.l1,
                             bit_width=args.bit_width,
                             name=f"fixture-s{args.seed}-b{args.bit_width}")
    gate = qnet.accuracy(net, test)
    zeros, frac = qnet.sparsity(net)
    qnet.save_network(net, out / "fixture_net.json")
    qnet.save_dataset(train, out / "fixture_train.csv")
    qnet.save_dataset(test, out / "fixture_test.csv")
    print(f"fixture network: {net.name} ({net.total_weights()} weights, "
          f"{zeros} zero codes, sparsity {frac:.3f})")
    print(f"held-out ideal accuracy: {gate:.4f} (gate >= 0.90: "
          f"{'yes' if gate >= 0.90 else 'NO'})")
    print(f"wrote {out / 'fixture_net.json'}, fixture_train.csv, fixture_test.csv")
    return 0


def cmd_cost(args) -> int:
    errors = [] if Path(args.net).is_file() else [f"network file not found: {args.net}"]
    errors += mapping.layer_problems(None, args.scheme, None) + \
        mapping.layer_problems(None, None, args.tile_size)
    _refuse("invalid arguments", errors + (_out_dir_errors(args.out) if args.out else []))
    net, problems = _load(qnet.load_network, args.net)
    _refuse_inputs("invalid arguments", problems,
                   dse.infeasible(net, [args.scheme], [args.tile_size]) if net else [])
    total, reports = mapping.cost_network(net, args.scheme, args.tile_size)
    header = ["layer", "kind", "rd", "tiles", "rwo", "programming_writes",
              "eq1_staggered_devices", "eq1_remainder", "eq2_dense_devices",
              "eq3_dense_steps", "eq3_remainder"]
    # closed-form (Eq. 1, its remainder, Eq. 2, Eq. 3 floor, Eq. 3 remainder)
    # per conv layer; Eq. 1 stays an exact Fraction until it is printed
    closed = {}
    for i, layer in enumerate(net.layers):
        if layer.spec.kind != "linear":
            eq1 = mapping.devices_sparse_eq1(layer.spec)
            closed[i] = (eq1, eq1.denominator != 1, mapping.devices_dense_eq2(layer.spec),
                         *mapping.steps_dense_eq3(layer.spec))

    def eq_cells(eq1, rem1, eq2, eq3, rem3):
        return [float(eq1), rem1, eq2, eq3, rem3]

    # a device is programmed once, so the programming writes are rd
    rows = [[i, layer.spec.kind, rep.rd, rep.tiles, rep.rwo, rep.rd,
             *(eq_cells(*closed[i]) if i in closed else [""] * 5)]
            for i, (layer, rep) in enumerate(zip(net.layers, reports))]
    total_eq = [""] * 5
    if closed:
        eq1, rem1, eq2, eq3, rem3 = zip(*closed.values())
        total_eq = eq_cells(sum(eq1), any(rem1), sum(eq2), sum(eq3), any(rem3))
    rows.append(["total", args.scheme, total.rd, total.tiles, total.rwo, total.rd,
                 *total_eq])
    widths = [max(len(_fmt(r[c])) for r in [header] + rows) for c in range(len(header))]
    for row in [header] + rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    if args.out:
        out = Path(args.out)
        _write_csv(out / "cost.csv", header, rows)
        print(f"wrote {out / 'cost.csv'}")
    return 0


def cmd_simulate(args) -> int:
    cfg, (res,) = _run_space(args, single_point=True)
    out = Path(cfg["out"])
    doc = {"format_version": 1, "config": cfg,
           "point": res.config, "tsa": res.tsa, "rd": res.rd, "rwo": res.rwo,
           "tiles": res.tiles, "raw_score": res.raw_score, "seed": res.seed}
    (out / "simulate_result.json").write_text(json.dumps(doc, indent=1))
    print(f"TSA: {res.tsa:.6f}")
    print(f"RD: {res.rd}   RWO: {res.rwo}   tiles: {res.tiles}")
    print(f"raw score TSA/(RD*RWO): {res.raw_score!r}")
    print(f"wrote {out / 'simulate_result.json'}")
    return 0


def _emit_reports(out: Path, results: list[dse.ConfigResult], svg: bool) -> list[str]:
    """ranking.csv plus one contour CSV (tile_size x batch_size) per value
    combination of the other non-singleton dimensions."""
    written = []
    ranking = dse.rank(results)
    write_results_csv(out / "ranking.csv", ranking)
    written.append("ranking.csv")
    seed = results[0].seed
    slice_dims = [d for d in dse.DIMENSIONS if d not in ("tile_size", "batch_size")
                  and len({repr(r.config[d]) for r in results}) > 1]
    groups: dict[tuple, list] = {}
    for res in results:
        groups.setdefault(tuple(res.config[d] for d in slice_dims), []).append(res)
    for key in sorted(groups, key=repr):
        subset = groups[key]
        tag = "".join(f"_{d}={v}" for d, v in zip(slice_dims, key))
        grid = dse.contour_grid(subset, "tile_size", "batch_size")
        name = f"contour_tsa{tag}.csv"
        write_contour_csv(out / name, grid, seed, tag.lstrip("_"))
        written.append(name)
        if svg:
            svg_name = f"contour_tsa{tag}.svg"
            write_heatmap_svg(out / svg_name, grid, f"TSA{tag or ' (full grid)'}")
            written.append(svg_name)
    return written


def cmd_dse(args) -> int:
    cfg, results = _run_space(args, single_point=False)
    out = Path(cfg["out"])
    (out / "config_resolved.json").write_text(json.dumps(cfg, indent=1))
    write_results_csv(out / "results.csv", results)
    written = ["config_resolved.json", "results.csv"]
    written += _emit_reports(out, results, svg=cfg["svg"] or args.svg)
    best = dse.rank(results)[0]
    print(f"evaluated {len(results)} configurations (seed {cfg['seed']})")
    print(f"best: {best.config} TSA={best.tsa:.6f} "
          f"normalized score={best.normalized_score:.4f}")
    print("wrote " + ", ".join(written))
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    errors = [] if Path(args.results).is_file() else [f"results file not found: {args.results}"]
    _refuse("invalid arguments", errors + _out_dir_errors(out))
    results, problems = _load(load_results_csv, args.results)
    _refuse_inputs("invalid arguments",
                   problems or ([] if results else [f"{args.results}: no result rows"]))
    written = _emit_reports(out, results, svg=args.svg)
    print(f"re-emitted reports for {len(results)} configurations")
    print("wrote " + ", ".join(written))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xbardse",
        description="Tiled crossbar inference simulator and mapping-scheme "
                    "design-space exploration")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixture", help="generate the fixture network and datasets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="existing output directory")
    p.add_argument("--train-size", type=int, default=256)
    p.add_argument("--test-size", type=int, default=200)
    p.add_argument("--bit-width", type=int, default=8, choices=qnet.SUPPORTED_BIT_WIDTHS)
    p.add_argument("--l1", type=float, default=5e-4)
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("cost", help="per-layer mapping cost table with the Eq. 1-3 "
                       "values; the total row sums each column (Eq. 1-3 over the "
                       "conv layers, a remainder if any layer has one)")
    p.add_argument("--net", required=True, help="network JSON file")
    p.add_argument("--scheme", required=True)
    p.add_argument("--tile-size", type=int, required=True)
    p.add_argument("--out", default=None, help="also write cost.csv here")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("simulate", help="evaluate one configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dse", help="grid-search the configured space")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", action="store_true", help="also emit SVG heatmaps")
    p.set_defaults(func=cmd_dse)

    p = sub.add_parser("report", help="re-emit ranking and contours from results.csv")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, qnet.NetworkFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
