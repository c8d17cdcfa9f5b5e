"""Grid-search design-space exploration with weighted device/read/accuracy
scoring, min-max normalization, contour grids, and deterministic ranking.

Every configuration is evaluated exactly once, serially and in-process,
population-major: the points of one device population (every dimension
except the I/O ones, io_bit_width, v_max and batch_size) run one after
another and share its conductance matrices, which are sampled and programmed
once and then only read. The result list is still ordered lexicographically
over the dimension value lists, so reruns are bit-identical.
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
    io_bit_width: list = field(default_factory=lambda: [None])
    v_max: list = field(default_factory=lambda: [0.3])
    batch_size: list = field(default_factory=lambda: [256])
    n_states: list = field(default_factory=lambda: [None])
    p_stuck_on: list = field(default_factory=lambda: [0.005])
    p_stuck_off: list = field(default_factory=lambda: [0.005])
    std_multiplier: list = field(default_factory=lambda: [1.0])

    def validate(self) -> None:
        for f in fields(self):
            values = getattr(self, f.name)
            if not isinstance(values, list) or not values:
                raise ValueError(f"dimension '{f.name}' must be a non-empty list")
        for scheme in self.scheme:
            mapping._require_mappable(None, scheme, None)

    def size(self) -> int:
        return math.prod(len(getattr(self, name)) for name in DIMENSIONS)

    def points(self):
        """All configurations in lexicographic order over the value lists."""
        self.validate()
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
    every problem of both; a std_multiplier that is not a number is the device's one."""
    io = {f.name: dims.get(f.name, f.default) for f in fields(xbar.IOConfig)}
    device = {f.name: dims.get(f.name, getattr(base, f.name)) for f in fields(base)}
    mult = dims.get("std_multiplier", 1.0)
    if not (bad := xbar._non_numbers(std_multiplier=mult)):
        device.update(r_on_std=base.r_on_std * mult, r_off_std=base.r_off_std * mult)
    return io, device, xbar.io_problems(**io) + (bad or xbar.device_problems(**device))


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
        io, device, problems = _hardware_fields(base_model, cfg)
        qnet._raise_all(problems, ValueError)
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
    """Evaluate every configuration exactly once; results in lexicographic
    order.

    Points run serially in-process (a thread pool measured slower),
    population-major: device populations (the ``POPULATION`` dimensions) in
    the order they first appear, each one's points in lexicographic order.
    A population's first point samples and programs its conductance
    matrices, the rest read them, and they are freed before the next
    population. So a failure that depends only on the I/O dimensions, or
    only on the population, raises ``EvaluationError`` for the configuration
    a lexicographic walk would reach first. ``jobs`` must be a positive
    integer and is otherwise ignored. Randomness is keyed per structural
    identity (network, scheme, tile size), so the output does not depend on
    ``jobs`` or the visiting order.
    """
    if not qnet._is_int(jobs) or jobs < 1:
        raise ValueError("jobs must be a positive integer")
    base_model = base_model or xbar.DeviceModel()
    points = list(space.points())
    # keyed by positions in the value lists, so values need not be hashable
    axes = [DIMENSIONS.index(name) for name in POPULATION]
    positions = itertools.product(*(range(len(getattr(space, name))) for name in DIMENSIONS))
    populations: dict[tuple, list[int]] = {}
    for i, pos in enumerate(positions):
        populations.setdefault(tuple(pos[a] for a in axes), []).append(i)
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
    metric: str
    x_values: list
    y_values: list
    matrix: np.ndarray    # (len(y_values), len(x_values))
    missing: np.ndarray   # boolean mask of unevaluated cells


def contour_grid(results: list[ConfigResult], x_dim: str, y_dim: str,
                 metric: str = "tsa") -> ContourGrid:
    """Dense metric matrix over two chosen dimensions; remaining dimensions
    collapse to their maximum. Cells with no result are flagged."""
    if x_dim == y_dim:
        raise ValueError("x_dim and y_dim must differ")
    for dim in (x_dim, y_dim):
        if dim not in DIMENSIONS:
            raise ValueError(f"unknown dimension {dim!r}")
    x_values: list = []
    y_values: list = []
    for res in results:
        if res.config[x_dim] not in x_values:
            x_values.append(res.config[x_dim])
        if res.config[y_dim] not in y_values:
            y_values.append(res.config[y_dim])
    matrix = np.full((len(y_values), len(x_values)), np.nan)
    for res in results:
        xi = x_values.index(res.config[x_dim])
        yi = y_values.index(res.config[y_dim])
        value = getattr(res, metric)
        if np.isnan(matrix[yi, xi]) or value > matrix[yi, xi]:
            matrix[yi, xi] = value
    return ContourGrid(x_dim, y_dim, metric, x_values, y_values, matrix,
                       np.isnan(matrix))


def rank(results: list[ConfigResult]) -> list[ConfigResult]:
    """Descending by normalized score; ties broken by smaller RD, smaller
    RWO, then lexicographic configuration order."""
    for res in results:
        if res.normalized_score is None:
            raise ValueError("results must be normalized before ranking")
    return sorted(results, key=lambda r: (-r.normalized_score, r.rd, r.rwo,
                                          r.order_index))
