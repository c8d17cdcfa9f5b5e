"""Grid-search design-space exploration with weighted device/read/accuracy
scoring, min-max normalization, contour grids, and deterministic ranking.

Every configuration is evaluated exactly once, serially and in-process,
population-major: the points of one device population (every dimension
except the I/O ones, io_bit_width, v_max and batch_size) run one after
another and share its conductance matrices, which are sampled and programmed
once and then only read. The result list is still ordered lexicographically
over the dimension value lists, so reruns are bit-identical. ``grid_search``
and the CLI refuse a bad space value by one rule, ``SearchSpace.problems``,
and an unmappable (scheme, tile_size, layer) by one more, ``infeasible``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import mapping, qnet, xbar
from .qnet import Dataset, QuantizedNetwork

# canonical dimension order; also the lexicographic result order
DIMENSIONS = ("network", "scheme", "tile_size", "io_bit_width", "v_max",
              "batch_size", "n_states", "p_stuck_on", "p_stuck_off",
              "std_multiplier")
# dimensions that set the sampled and programmed devices; the others are I/O
POPULATION = ("network", "scheme", "tile_size", "n_states", "p_stuck_on",
              "p_stuck_off", "std_multiplier")


class EvaluationError(RuntimeError):
    """Evaluation of one configuration failed; carries the configuration."""

    def __init__(self, config: dict, cause: Exception):
        super().__init__(f"configuration {config} failed: {cause}")
        self.config = config
        self.cause = cause


@dataclass
class SearchSpace:
    """Value lists per search dimension; fixed dimensions hold one value."""

    network: list = field(default_factory=lambda: ["net"])
    scheme: list = field(default_factory=lambda: ["sparse_staggered"])
    tile_size: list = field(default_factory=lambda: [64])
    io_bit_width: list = field(default_factory=lambda: [xbar.IOConfig.io_bit_width])
    v_max: list = field(default_factory=lambda: [xbar.IOConfig.v_max])
    batch_size: list = field(default_factory=lambda: [xbar.IOConfig.batch_size])
    n_states: list = field(default_factory=lambda: [xbar.DeviceModel.n_states])
    p_stuck_on: list = field(default_factory=lambda: [xbar.DeviceModel.p_stuck_on])
    p_stuck_off: list = field(default_factory=lambda: [xbar.DeviceModel.p_stuck_off])
    std_multiplier: list = field(default_factory=lambda: [1.0])

    def problems(self, base_model: xbar.DeviceModel) -> list[str]:
        """The space rule, a line a problem: each dimension not a non-empty list, unknown
        scheme, tile size not an integer >= 2, and I/O value, device value and stuck pair
        that ``IOConfig``'s defaults and ``base_model`` refuse. Network names are
        ``grid_search``'s to check, against the networks it is given."""
        dims = {name: getattr(self, name) for name in DIMENSIONS}
        problems = [f"{name}: {'empty value list' if isinstance(v, list) else 'not a list'}"
                    for name, v in dims.items() if not isinstance(v, list) or not v]
        dims = {name: v if isinstance(v, list) else [] for name, v in dims.items()}
        problems += [f"scheme: {problem}" for scheme in dims["scheme"]
                     for problem in mapping.layer_problems(None, scheme, None)]
        problems += [f"tile_size: {t!r}: {problem}" for t in dims["tile_size"]
                     for problem in (mapping.layer_problems(None, None, t) if qnet._is_int(t)
                                     else ["not an integer"])]
        checks = [{name: value} for name in ("io_bit_width", "v_max", "batch_size", "n_states",
                                             "std_multiplier") for value in dims[name]]
        checks += [{"p_stuck_on": on, "p_stuck_off": off}
                   for on in dims["p_stuck_on"] for off in dims["p_stuck_off"]]
        for values in checks:
            io, device, bad = _hardware_fields(base_model, values)
            where = f"{'/'.join(values)}: {'/'.join(map(repr, values.values()))}"
            problems += [f"{where}: {problem}" for problem in
                         xbar.io_problems(**io) + (bad or xbar.device_problems(**device))]
        return problems

    def size(self) -> int:
        return math.prod(len(getattr(self, name)) for name in DIMENSIONS)

    def points(self):
        """All configurations in lexicographic order over the value lists."""
        for values in itertools.product(*(getattr(self, name) for name in DIMENSIONS)):
            yield dict(zip(DIMENSIONS, values))


@dataclass
class ConfigResult:
    """One evaluated design point."""

    config: dict
    order_index: int
    tsa: float
    rd: int
    rwo: int
    tiles: int
    raw_score: float
    seed: int
    normalized_score: float | None = None


def weighted_score(tsa: float, rd: float, rwo: float,
                   exponents: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> float:
    """Raw weighted score TSA / (RD * RWO); optional per-term exponents
    generalize to TSA^a / (RD^b * RWO^c) for standardized weightings."""
    if rd <= 0 or rwo <= 0:
        raise ValueError("RD and RWO must be positive to score")
    a, b, c = exponents
    return tsa ** a / (rd ** b * rwo ** c)


def min_max_normalize(scores: list[float]) -> list[float]:
    """(s - min) / (max - min); a constant list maps to all ones."""
    if not scores:
        raise ValueError("cannot normalize an empty score list")
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return [1.0] * len(scores)
    return [(s - lo) / (hi - lo) for s in scores]


def _hardware_fields(base: xbar.DeviceModel, dims: dict) -> tuple[dict, dict, list[str]]:
    """The ``IOConfig`` fields of the I/O dimensions in ``dims`` (defaults for the missing),
    ``base``'s fields with the device ones applied (std_multiplier scales both stds), and
    the problem of a std_multiplier that is not a number, which neither constructor sees;
    an integer one past float range scales the stds as its infinity would."""
    io = {f.name: dims.get(f.name, f.default) for f in fields(xbar.IOConfig)}
    device = {f.name: dims.get(f.name, getattr(base, f.name)) for f in fields(base)}
    mult = dims.get("std_multiplier", 1.0)
    if not (bad := xbar._non_numbers(std_multiplier=mult)):
        if qnet._is_int(mult) and not qnet._is_finite(mult):
            mult = math.inf if mult > 0 else -math.inf      # past float range: infinite
        device.update(r_on_std=base.r_on_std * mult, r_off_std=base.r_off_std * mult)
    return io, device, bad


def infeasible(net: QuantizedNetwork, schemes: list, tile_sizes: list) -> list[str]:
    """One line per (scheme, tile_size, layer of ``net``) that cannot be mapped."""
    return [f"scheme {scheme}, tile_size {t}: {problem} (layer {i}, {layer.spec.kind})"
            for scheme in schemes for t in tile_sizes for i, layer in enumerate(net.layers)
            for problem in mapping.layer_problems(layer.spec, scheme, t)]


def evaluate_config(cfg: dict, order_index: int, networks: dict, data: Dataset,
                    seed: int, base_model: xbar.DeviceModel,
                    conductances: list[np.ndarray]) -> ConfigResult:
    """Evaluate one design point: simulated accuracy plus the constructive
    cost report of the simulated scheme only, so a point never fails on
    another scheme's infeasibility. The layer plans are built once and
    serve both.

    ``conductances`` is the list of layer conductance matrices of the
    point's device population: an empty list is filled, read-only, from this
    point's plans, and a filled one is read. A fresh ``[]`` gives a point
    that samples and programs its own devices.
    """
    try:
        net = networks[cfg["network"]]
        io, device, bad = _hardware_fields(base_model, cfg)
        qnet._raise_all(bad, ValueError)     # the constructors check the rest
        hw = xbar.HardwareConfig(tile_size=cfg["tile_size"], io=xbar.IOConfig(**io),
                                 device=xbar.DeviceModel(**device))
        plans = mapping.network_plans(net, cfg["scheme"], cfg["tile_size"])
        if not conductances:
            conductances += xbar.program_network(net, cfg["scheme"], hw, seed, plans)
            for g in conductances:
                g.setflags(write=False)
        tsa = xbar.evaluate_accuracy(net, cfg["scheme"], hw, data, seed, plans=plans,
                                     conductances=conductances)
        report, _ = mapping.plans_cost(cfg["scheme"], plans)
        raw = weighted_score(tsa, report.rd, report.rwo)
        return ConfigResult(config=dict(cfg), order_index=order_index, tsa=tsa,
                            rd=report.rd, rwo=report.rwo, tiles=report.tiles,
                            raw_score=raw, seed=seed)
    except Exception as err:  # noqa: BLE001 - context added, re-raised
        raise EvaluationError(cfg, err) from err


def grid_search(space: SearchSpace, data: Dataset, networks: dict,
                seed: int = 0, base_model: xbar.DeviceModel | None = None,
                jobs: int = 1) -> list[ConfigResult]:
    """Evaluate every configuration once; results in lexicographic order.

    Points run serially in-process (a thread pool measured slower),
    population-major: device populations (the ``POPULATION`` dimensions) in
    the order they first appear, each one's points in lexicographic order.
    A population's first point samples and programs its conductance
    matrices, the rest read them, and they are freed before the next
    population. Before the first point, one ``ValueError`` lists a bad
    ``jobs`` and every ``space.problems``; once those pass, one lists each
    network of ``space.network`` missing from ``networks``, with problems of
    its own, unpaired with ``data`` (``qnet.fit_problems``) or unmappable
    (``infeasible``), a line each after ``network: '<name>': ``. ``jobs`` is
    otherwise ignored: points run one at a time, but ``xbar.program_network``
    programs a large layer on every CPU the process may use. Randomness is
    keyed per structural identity (network, scheme, tile size), so the
    output does not depend on ``jobs``, the CPU count or the visiting order.
    """
    base_model = base_model or xbar.DeviceModel()
    problems = [] if qnet._is_int(jobs) and jobs >= 1 else ["jobs must be a positive integer"]
    qnet._raise_all(problems + space.problems(base_model), ValueError)
    for name in space.network:      # the space rule passed: known schemes, integer tile sizes
        net = networks[name] if name in list(networks) else None    # unhashable names too
        lines = ["not in networks"] if net is None else net.problems() or (  # may not compose
            qnet.fit_problems(net.input_shape, net.layers[-1].spec.out_shape, data)
            + infeasible(net, space.scheme, space.tile_size))
        problems += [f"network: {name!r}: {line}" for line in lines]
    qnet._raise_all(problems, ValueError)
    points = list(space.points())
    populations: dict[tuple, list[int]] = {}   # keyed by values, all hashable past the space rule
    for i, point in enumerate(points):
        populations.setdefault(tuple(point[name] for name in POPULATION), []).append(i)
    results: list[ConfigResult] = [None] * len(points)
    for members in populations.values():
        shared: list[np.ndarray] = []   # filled by the population's first point
        for i in members:
            results[i] = evaluate_config(points[i], i, networks, data, seed, base_model,
                                         shared)
    normalized = min_max_normalize([r.raw_score for r in results])
    for res, norm in zip(results, normalized):
        res.normalized_score = norm
    return results


@dataclass
class ContourGrid:
    x_dim: str
    y_dim: str
    x_values: list
    y_values: list
    matrix: np.ndarray    # (len(y_values), len(x_values))
    missing: np.ndarray   # boolean mask of unevaluated cells


def contour_grid(results: list[ConfigResult], x_dim: str, y_dim: str) -> ContourGrid:
    """Dense TSA matrix over two chosen dimensions; remaining dimensions
    collapse to their maximum. Cells with no result are flagged."""
    if x_dim == y_dim:
        raise ValueError("x_dim and y_dim must differ")
    for dim in (x_dim, y_dim):
        if dim not in DIMENSIONS:
            raise ValueError(f"unknown dimension {dim!r}")
    x_values = list(dict.fromkeys(res.config[x_dim] for res in results))
    y_values = list(dict.fromkeys(res.config[y_dim] for res in results))
    matrix = np.full((len(y_values), len(x_values)), np.nan)
    for res in results:
        xi = x_values.index(res.config[x_dim])
        yi = y_values.index(res.config[y_dim])
        if np.isnan(matrix[yi, xi]) or res.tsa > matrix[yi, xi]:
            matrix[yi, xi] = res.tsa
    return ContourGrid(x_dim, y_dim, x_values, y_values, matrix, np.isnan(matrix))


def rank(results: list[ConfigResult]) -> list[ConfigResult]:
    """Descending by normalized score; ties broken by smaller RD, smaller
    RWO, then lexicographic configuration order."""
    for res in results:
        if res.normalized_score is None:
            raise ValueError("results must be normalized before ranking")
    return sorted(results, key=lambda r: (-r.normalized_score, r.rd, r.rwo,
                                          r.order_index))
