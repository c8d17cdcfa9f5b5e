"""Analog crossbar execution: device sampling, differential programming,
voltage encoding, layer current summation, and calibrated readout.

Every scheme places logical cell (m, n) of a layer on one differential
device pair, and tile partial sums add before readout. So programming also
gathers the programmed pairs into the layer conductance matrix G of shape
(rows, 2 * cols), cell (m, n) at columns 2n and 2n + 1, and
``simulate_forward`` reads each layer with one ``tile_vmm`` against G.
Each tile is a rectangle of its plan's physical matrix, written straight
into G, the only matrix allocated: a full layout's block as one slice of G,
so stuck devices on zero weights contribute; a compacted layout's mapped
cells to their logical rows through its ``row_map``. Cells without devices
stay 0.

A device's programmed value is 1/r_off unless it is the active device (the
polarity of the code's sign) of a nonzero cell and free, or stuck on, since
a zero target fraction adds +-0 to g_off. So each tile writes 1/r_off into
G, 1/r_on where stuck on, and only the active devices of nonzero cells are
patched with their targets, for a run of tiles at a time whose nonzero
cells are bounded (``_program_tiles``).

``program_network`` streams: it draws each tile and writes its block into
G in one pass, so it holds G, the draws of the tile at hand and the g_on and
free flags of one run's active devices, never a layer's sampled population.
``sample_devices``, which returns a layer's sampled tiles as a dict, and
``program``, which programs such a dict, run the same draw and programming
code; they remain as the reference that tests and the benchmark's
noise-off check call.

Scaling groups, the io.batch_size rows that share one input-voltage scale
per layer, and their scale v_max / max|x| are defined in ``simulate_forward``
alone: it reads a chunk of whole groups per layer at once, each row with
its group's scale, and keeps all-zero groups out of the read.
``encode_inputs`` only applies a given scale and the DAC grid.

All randomness flows through counter-based Philox streams keyed by
(seed, configuration hash, layer, tile), the tile's position in the tile
grid, with devices drawn in a fixed canonical order inside each tile, so
results never depend on evaluation order or worker count; one bit
generator per layer is re-keyed for every stream rather than one built per
tile. Resistance samples are truncated at three standard
deviations and redrawn, which keeps them positive and preserves
r_on < r_off for the default parameters; after the first pass only the
redrawn positions are re-checked, which consumes the same draws.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import mmap
import struct
from dataclasses import dataclass, field

import numpy as np

from . import mapping, qnet
from .mapping import MappingPlan
from .qnet import QuantizedNetwork, WeightTensor, _round_half_away, ideal_forward

# DAC/ADC resolutions at or beyond this are treated as ideal (no conversion
# quantization): the modeled analog chain has no meaningful precision left.
IDEAL_IO_BITS = 16

FREE, STUCK_ON, STUCK_OFF = 0, 1, 2


def _non_numbers(**values) -> list[str]:
    """A line for each of ``values`` that is not a number (``qnet._is_number``)."""
    return [f"{name} must be a number, not {value}" for name, value in values.items()
            if not qnet._is_number(value)]


def device_problems(*, r_on_mean, r_on_std, r_off_mean, r_off_std, n_states,
                    p_stuck_on, p_stuck_off) -> list[str]:
    """Every problem of these ``DeviceModel`` fields, one line each: the means',
    the stds', n_states' and the stuck probabilities' rules each form one chain,
    whose first failure is its line (a NaN std, or both stds, fail ">= 0" alone)."""
    problems = _non_numbers(r_on_mean=r_on_mean, r_off_mean=r_off_mean)
    if not problems and not (qnet._is_positive_finite(r_off_mean) and 0 < r_on_mean < r_off_mean):
        problems.append("need 0 < r_on_mean < r_off_mean < inf")
    # positive conditions, so that NaN fails each of them
    if bad := _non_numbers(r_on_std=r_on_std, r_off_std=r_off_std):
        problems += bad
    elif not (r_on_std >= 0 and r_off_std >= 0):
        problems.append("resistance std must be >= 0")
    elif not (r_on_std < math.inf and r_off_std < math.inf):
        problems.append("resistance std must be finite")
    if n_states is not None and not qnet._is_whole(n_states):
        problems.append("n_states must be a whole number (or None for continuous)")
    elif n_states is not None and n_states < 2:
        problems.append("n_states must be >= 2 (or None for continuous)")
    if bad := _non_numbers(p_stuck_on=p_stuck_on, p_stuck_off=p_stuck_off):
        problems += bad
    elif not (0 <= p_stuck_on <= 1 and 0 <= p_stuck_off <= 1 and p_stuck_on + p_stuck_off <= 1):
        problems.append("stuck probabilities must be >= 0 and sum to <= 1")
    return problems


def io_problems(*, io_bit_width, v_max, batch_size) -> list[str]:
    """Every problem of these ``IOConfig`` fields: each field's first failed rule."""
    problems = _non_numbers(v_max=v_max)
    if not problems and not qnet._is_positive_finite(v_max):
        problems.append("v_max must be finite" if v_max > 0 else "v_max must be > 0")
    if io_bit_width is not None and not qnet._is_whole(io_bit_width):
        problems.append("io_bit_width must be a whole number (or None for ideal)")
    elif io_bit_width is not None and io_bit_width < 1:
        problems.append("io_bit_width must be >= 1")
    if not qnet._is_int(batch_size):
        problems.append("batch_size must be an integer")
    elif batch_size < 1:
        problems.append("batch_size must be >= 1")
    return problems


@dataclass(frozen=True)
class DeviceModel:
    """Per-device resistance distributions and failure rates, checked by ``device_problems``.

    n_states is the number of programmable conductance levels per device;
    None means continuous (the infinite-state surrogate).
    """

    r_on_mean: float = 10_000.0
    r_on_std: float = 1_000.0
    r_off_mean: float = 100_000.0
    r_off_std: float = 10_000.0
    n_states: int | None = None
    p_stuck_on: float = 0.005
    p_stuck_off: float = 0.005

    def __post_init__(self):
        qnet._raise_all(device_problems(**vars(self)), ValueError)

    @property
    def g_span(self) -> float:
        """Nominal conductance swing used for readout calibration."""
        return 1.0 / self.r_on_mean - 1.0 / self.r_off_mean


@dataclass(frozen=True)
class IOConfig:
    """DAC/ADC resolution, encoding voltage ceiling, and scaling-group size:
    ``simulate_forward`` gives each batch_size rows of its batch, the last
    group possibly short, one input-voltage scale per layer. v_max changes no
    result beyond rounding: the DAC step is a fixed fraction of it, and the
    readout divides the voltage scale back out. Checked by ``io_problems``."""

    io_bit_width: int | None = None
    v_max: float = 0.3
    batch_size: int = 256

    def __post_init__(self):
        qnet._raise_all(io_problems(**vars(self)), ValueError)

    @property
    def quantizes(self) -> bool:
        return self.io_bit_width is not None and self.io_bit_width < IDEAL_IO_BITS


@dataclass(frozen=True)
class HardwareConfig:
    tile_size: int
    io: IOConfig = field(default_factory=IOConfig)
    device: DeviceModel = field(default_factory=DeviceModel)


def config_hash(net: QuantizedNetwork, scheme: str, hw: HardwareConfig) -> str:
    """Stable digest of the evaluation point's structural identity.

    Only fields that determine which device population is laid out enter
    the key (network, scheme, tile size). Device-model parameters transform
    the same underlying draws (affine for resistances, a threshold for
    stuck states) and I/O settings touch no randomness, so fixed-seed
    sweeps along those dimensions compare identical sampled non-idealities.
    """
    parts = (net.name, net.bit_width, scheme, hw.tile_size)
    return hashlib.blake2b("|".join(str(p) for p in parts).encode(),
                           digest_size=8).hexdigest()


def _rekey(gen: np.random.Generator, *parts) -> None:
    """Restart ``gen``'s Philox bit generator on the stream keyed by the
    blake2b digest of ``parts`` joined by "|": counter 0 and empty output
    buffers, the state ``np.random.Philox(key=...)`` starts in, without
    building a new one."""
    digest = hashlib.blake2b("|".join(map(str, parts)).encode(), digest_size=16).digest()
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": struct.unpack("<2Q", digest)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _truncated_normal(gen: np.random.Generator, mean: float, std: float,
                      shape) -> np.ndarray:
    """Normal samples truncated at 3 sigma, out-of-range values redrawn."""
    vals = gen.normal(mean, std, shape)
    limit = 3.0 * std
    flat = vals.reshape(-1)
    bad = (np.abs(flat - mean) > limit).nonzero()[0]
    for _ in range(100):
        if bad.size == 0:
            return vals
        # only redrawn positions can still be out of range; they stay in
        # flat order, so each round consumes the stream as a full re-check would
        redraw = gen.normal(mean, std, bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw - mean) > limit]
    return np.clip(vals, mean - limit, mean + limit)


@dataclass
class TileArray:
    """Sampled device population of one physical tile; ``g`` is each device's
    conductance before programming: 1/r_off, or 1/r_on if stuck on."""

    g: np.ndarray
    r_on: np.ndarray
    r_off: np.ndarray
    stuck: np.ndarray


def _stuck_from_uniform(u: np.ndarray, model: DeviceModel) -> np.ndarray:
    """u < p_on: stuck on; p_on <= u < p_on + p_off: stuck off; else free."""
    stuck = np.zeros(u.shape, dtype=np.int8)
    stuck[u < model.p_stuck_on + model.p_stuck_off] = STUCK_OFF
    stuck[u < model.p_stuck_on] = STUCK_ON
    return stuck


def _unprogrammed(r_on: np.ndarray, r_off: np.ndarray, stuck: np.ndarray) -> np.ndarray:
    """Conductances before programming: 1/r_off, stuck-on devices at 1/r_on."""
    g = 1.0 / r_off
    on = stuck == STUCK_ON
    g[on] = 1.0 / r_on[on]
    return g


def _tile_draws(seed: int, plan: MappingPlan, model: DeviceModel, cfg_hash: str,
                layer_index: int):
    """Yield (tile, r_on, r_off, u) for every tile of ``plan``, in plan order:
    full t x t arrays drawn from the stream keyed by (seed, cfg_hash,
    layer_index, tile_row, tile_col), r_on, then r_off, then the uniforms
    that set the stuck states (``_stuck_from_uniform``). One generator is
    re-keyed for every tile (``_rekey``)."""
    t = plan.tile_size
    gen = np.random.Generator(np.random.Philox(key=0))
    for tp in plan.tiles:
        _rekey(gen, seed, cfg_hash, layer_index, tp.tile_row, tp.tile_col)
        r_on = _truncated_normal(gen, model.r_on_mean, model.r_on_std, (t, t))
        r_off = _truncated_normal(gen, model.r_off_mean, model.r_off_std, (t, t))
        yield tp, r_on, r_off, gen.random((t, t))


def sample_devices(seed: int, plan: MappingPlan, model: DeviceModel,
                   cfg_hash: str, layer_index: int) -> dict:
    """Draw per-device (r_on, r_off) and stuck states for every tile a plan
    occupies, each tile from the stream keyed by (seed, cfg_hash,
    layer_index, tile_row, tile_col). Returns {(tile_row, tile_col): TileArray}.

    ``program_network`` does not build this dict: it programs each tile as
    it is drawn, from the same draws. The dict, and ``program`` over it,
    remain as the reference that tests and the benchmark's noise-off check
    call.
    """
    tiles = {}
    for tp, r_on, r_off, u in _tile_draws(seed, plan, model, cfg_hash, layer_index):
        stuck = _stuck_from_uniform(u, model)
        tiles[(tp.tile_row, tp.tile_col)] = TileArray(_unprogrammed(r_on, r_off, stuck),
                                                      r_on, r_off, stuck)
    return tiles


def _target_fractions(codes: np.ndarray, w_max: int, model: DeviceModel) -> np.ndarray:
    """The fraction of g_on - g_off that cells of ``codes`` program on their
    active device: |code| / w_max, snapped to the n_states uniform grid."""
    frac = np.abs(codes) / w_max if w_max else np.zeros(codes.shape)
    if model.n_states is not None:
        levels = model.n_states - 1
        frac = np.clip(_round_half_away(frac * levels), 0, levels) / levels
    return frac


def _code_peak(weights: WeightTensor) -> int:
    """Largest |code| of a layer; times ``weights.scale`` it is the peak
    |weight|, since the scale is positive. Taken from the extremes, so no
    layer-sized |codes| is allocated; ``int`` lets a bool minimum be negated."""
    codes = weights.codes
    return int(max(codes.max(initial=0), -int(codes.min(initial=0))))


# Nonzero cells whose active devices ``_program_tiles`` patches in one run of
# tiles, unless a single tile holds more.
_RUN_CELLS = 512


def _program_tiles(tiles, plan: MappingPlan, weights: WeightTensor,
                   model: DeviceModel) -> np.ndarray:
    """The layer's conductance matrix G, of shape (plan.rows, 2 * plan.cols),
    programmed tile by tile from ``tiles``, an iterable of (tile, r_on,
    r_rest, free) in plan order: each tile's t x t r_on, the resistance each
    device shows unprogrammed (r_off, or r_on if stuck on) and the mask of
    its free devices, neither stuck on nor stuck off. The arrays are only
    read, and not after the next tile is taken.

    A weight w with layer peak w_max targets, on its own device,
    g = g_off + (|w| / w_max)(g_on - g_off) on the polarity matching its
    sign and g_off on the other; targets snap to the device's n_states
    uniform grid. Stuck devices ignore programming: stuck on at 1/r_on,
    stuck off at 1/r_off. G holds each mapped cell's device pair as
    programmed at columns 2n and 2n + 1; cells without devices stay 0.

    Each tile's nr x nc block of the physical matrix (``TilePlan``) sits
    on its first nr device rows and 2 * nc device columns. Its 1/r_rest
    goes straight into G: a full layout's as one slice, a compacted
    layout's mapped cells to their logical rows through ``plan.row_map``.
    That is every device's programmed value but a free active device's, the
    one of a nonzero cell on its code's polarity, as a zero target fraction
    adds +-0 to g_off. Those are patched with their targets a run of tiles
    at a time (``_tile_runs``): each tile of the run gives the g_on and free
    flag of its active devices only, and the run's targets go into G at
    once, so a run holds at most ``_RUN_CELLS`` cells' worth, or one tile's.
    G has a memory mapping of its own (``_mapped_zeros``).
    """
    if plan.spec is None or plan.spec.kind == "linear":
        if plan.rows != weights.codes.shape[1] or plan.cols != weights.codes.shape[0]:
            raise ValueError("weight tensor does not match plan dimensions")
    elif weights.codes.size != plan.spec.kernels * plan.spec.footprint:
        raise ValueError("weight tensor does not match plan geometry")
    t, cap = plan.tile_size, mapping.pair_capacity(plan.tile_size)
    depth, width = plan.codes.shape
    w_max = _code_peak(weights)
    g = _mapped_zeros((plan.rows, plan.cols, 2))
    g2, gf = g.reshape(plan.rows, 2 * plan.cols), g.reshape(-1)
    tiles = iter(tiles)
    for run in _tile_runs(plan):
        at, dev, code, bounds = _active_devices(plan, run)
        g_on, free = [], []
        for k, (tp, r_on, r_rest, tile_free) in zip(range(len(run)), tiles):
            r0, c0 = tp.tile_row * t, tp.tile_col * cap
            nr, nc = min(t, depth - r0), min(cap, width - c0)
            if plan.row_map is None:
                np.reciprocal(r_rest[:nr, :2 * nc], out=g2[r0:r0 + nr, 2 * c0:2 * (c0 + nc)])
            else:
                block = np.reciprocal(r_rest[:nr, :2 * nc]).reshape(nr, nc, 2)
                logical = plan.row_map[r0:r0 + nr, c0:c0 + nc]
                pr, pc = np.nonzero(logical >= 0)
                g[logical[pr, pc], c0 + pc] = block[pr, pc]
            if bounds[k] < bounds[k + 1]:
                own = dev[bounds[k]:bounds[k + 1]]
                g_on.append(r_on.reshape(-1)[own])
                free.append(tile_free.reshape(-1)[own])
        if g_on:
            # g_off + frac * (g_on - g_off), in place; G holds g_off there
            g_off = gf[at]
            target = np.reciprocal(np.concatenate(g_on))
            target -= g_off
            target *= _target_fractions(code, w_max, model)
            target += g_off
            gf[at] = np.where(np.concatenate(free), target, g_off)
    return g2


def _mapped_zeros(shape: tuple) -> np.ndarray:
    """``np.zeros(shape)`` in an anonymous memory mapping of its own, so
    its pages go back to the OS when the array is freed, wherever the heap
    would have had room for it."""
    nbytes = math.prod(shape) * np.dtype(float).itemsize
    if nbytes == 0:
        return np.zeros(shape)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=float).reshape(shape)


def _tile_runs(plan: MappingPlan):
    """The plan's tiles in plan order, cut into runs of consecutive tiles of
    one tile row that hold at most ``_RUN_CELLS`` nonzero cells, or one
    tile."""
    t, cap = plan.tile_size, mapping.pair_capacity(plan.tile_size)
    for tile_row, row in itertools.groupby(plan.tiles, key=lambda tp: tp.tile_row):
        per_column = np.count_nonzero(plan.codes[tile_row * t:(tile_row + 1) * t], axis=0)
        nonzero = np.add.reduceat(per_column, np.arange(0, per_column.size, cap)).tolist()
        run, cells = [], 0
        for tp in row:
            if run and (cells + nonzero[tp.tile_col] > _RUN_CELLS
                        or tp.tile_col != run[-1].tile_col + 1):
                yield run
                run, cells = [], 0
            run.append(tp)
            cells += nonzero[tp.tile_col]
        yield run


def _active_devices(plan: MappingPlan, run: list):
    """(at, dev, code, bounds) of the active devices of the nonzero cells of
    ``run``, column by column: each one's flat index into G as (rows, cols,
    2), its flat index into its tile's t x t draws, its cell's code, and the
    list ``bounds``, the k-th tile's devices being ``bounds[k]:bounds[k + 1]``."""
    t, cap = plan.tile_size, mapping.pair_capacity(plan.tile_size)
    r0, c0 = run[0].tile_row * t, run[0].tile_col * cap
    cells = np.s_[r0:r0 + t, c0:(run[-1].tile_col + 1) * cap]
    codes = plan.codes[cells].T             # column by column, so tile by tile
    flat = (codes != 0).reshape(-1).nonzero()[0]
    code = codes.reshape(-1)[flat]
    n, i = np.divmod(flat, codes.shape[1])
    bounds = np.searchsorted(n, np.arange(len(run) + 1) * cap).tolist()
    col = n                                 # the active device's column in the run
    col *= 2
    col += code < 0
    dev = i * t
    dev += col % (2 * cap)
    at = (i + r0 if plan.row_map is None
          else plan.row_map[cells].T.reshape(-1)[flat].astype(np.intp))
    at *= 2 * plan.cols
    at += col
    at += 2 * c0
    return at, dev, code, bounds


def program(tiles: dict, plan: MappingPlan, weights: WeightTensor,
            model: DeviceModel) -> np.ndarray:
    """``_program_tiles`` over the sampled ``tiles`` of ``sample_devices``,
    in plan order; raises if a plan tile has no sampled tile. The tiles are
    only read. ``program_network`` streams the same draws instead; this
    form remains as the reference that tests and the benchmark's noise-off
    check call."""
    def draws():
        for tp in plan.tiles:
            ta = tiles.get((tp.tile_row, tp.tile_col))
            if ta is None:
                raise ValueError(f"no sampled tile for {(tp.tile_row, tp.tile_col)}")
            yield (tp, ta.r_on, np.where(ta.stuck == STUCK_ON, ta.r_on, ta.r_off),
                   ta.stuck == FREE)
    return _program_tiles(draws(), plan, weights, model)


def _stuck_states(draws, model: DeviceModel):
    """``_tile_draws``' tiles as ``_program_tiles`` takes them, with the stuck
    states of ``_stuck_from_uniform``: r_off turns into r_rest in place,
    taking r_on where stuck on, and free is u >= p_on + p_off (u is never NaN)."""
    on, off = model.p_stuck_on, model.p_stuck_on + model.p_stuck_off
    for tp, r_on, r_off, u in draws:
        np.copyto(r_off, r_on, where=u < on)
        yield tp, r_on, r_off, u >= off


def _require_plans_of(plans: list[MappingPlan], scheme: str, tile_size: int) -> None:
    """Refuse plans laid out for another design point: the devices are keyed
    by (scheme, tile_size), so another point's plans would read a population
    drawn for a layout they do not have."""
    for li, plan in enumerate(plans):
        if (plan.scheme, plan.tile_size) != (scheme, tile_size):
            raise ValueError(f"layer {li}: plan of scheme {plan.scheme}, tile_size "
                             f"{plan.tile_size}, for a point of scheme {scheme}, "
                             f"tile_size {tile_size}")


def program_network(net: QuantizedNetwork, scheme: str, hw: HardwareConfig, seed: int,
                    plans: list[MappingPlan]) -> list[np.ndarray]:
    """Sample and program every layer of ``net`` under its ``plans``; returns
    the layer conductance matrices ``simulate_forward`` reads. They depend on
    the device population alone (network, scheme, tile size, device model
    and seed), never on ``hw.io``.

    Each tile is drawn and written into G in one pass, 1/r_off with 1/r_on
    where stuck on, and the active devices of its nonzero cells are patched
    with their run of tiles (``_program_tiles``), so no layer's sampled
    population is held. G is byte-identical to ``program(sample_devices(...))``
    of each layer."""
    _require_plans_of(plans, scheme, hw.tile_size)
    chash = config_hash(net, scheme, hw)
    return [_program_tiles(_stuck_states(_tile_draws(seed, plan, hw.device, chash, li),
                                         hw.device),
                           plan, net.layers[li].weights, hw.device)
            for li, plan in enumerate(plans)]


def encode_inputs(batch: np.ndarray, io: IOConfig, scale: float | np.ndarray) -> np.ndarray:
    """Voltages of a batch of activations: v = x * scale, quantized to the
    signed mid-tread DAC grid (step v_max / 2^(b-1)). ``scale`` is one value
    or an (rows, 1) column giving each row of a 2-D batch its own scaling
    group's scale; ``simulate_forward`` sets it to v_max / max|x| per group,
    so v / v_max, and with it every result, does not depend on v_max.
    The voltages are one new array, each later step runs in place on it,
    and ``batch`` is only read.
    """
    x = np.asarray(batch, dtype=float)
    if x.size == 0:
        raise ValueError("empty batch")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite inputs")
    v = np.multiply(x, scale)
    if io.quantizes:
        half = 2 ** (io.io_bit_width - 1)
        step = io.v_max / half
        v /= step
        np.clip(_round_half_away(v, out=v), -half, half, out=v)
        v *= step
    return v


def tile_vmm(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Bit-line currents of one crossbar read: I[n] = sum_m V[m] * G[m, n]."""
    v = np.asarray(v, dtype=float)
    g = np.asarray(g, dtype=float)
    if v.shape[-1] != g.shape[0]:
        raise ValueError(f"voltage length {v.shape[-1]} != tile rows {g.shape[0]}")
    return v @ g


@dataclass(frozen=True)
class ReadoutCalibration:
    voltage_scale: float | np.ndarray   # volts per input unit: v_max / max|x| of a
                                        # scaling group, or an (rows, 1) column of them
    weight_scale: float                 # siemens per weight unit
    out_lo: float | None = None         # ADC range, per layer
    out_hi: float | None = None


def readout(i_pos: np.ndarray, i_neg: np.ndarray, cal: ReadoutCalibration,
            io: IOConfig) -> np.ndarray:
    """Differential currents back to the weight-times-input domain, then
    ADC-quantized to 2^b uniform levels over the calibrated output range.
    The result is one new array, each later step runs in place on it, and
    ``i_pos`` and ``i_neg`` are only read."""
    if not np.all(cal.voltage_scale) or cal.weight_scale == 0:
        raise ValueError("zero calibration scale")
    y = np.subtract(i_pos, i_neg, dtype=float)
    y /= cal.voltage_scale * cal.weight_scale
    if io.quantizes and cal.out_lo is not None and cal.out_hi is not None:
        lo, hi = cal.out_lo, cal.out_hi
        if hi <= lo:
            return np.full_like(y, lo)
        levels = 2 ** io.io_bit_width - 1
        step = (hi - lo) / levels
        y -= lo
        y /= step
        np.clip(_round_half_away(y, out=y), 0, levels, out=y)
        y *= step
        y += lo
    return y


def simulate_forward(net: QuantizedNetwork, plans: list[MappingPlan],
                     conductances: list[np.ndarray], batch: np.ndarray, io: IOConfig,
                     model: DeviceModel,
                     adc_ranges: list[tuple[float, float]] | None = None) -> np.ndarray:
    """End-to-end analog inference: per layer encode -> one read of the
    layer conductance matrix from ``program_network`` (tile partial sums included)
    -> differential readout -> activation, shaped by the plan's ``out_shape``.
    A sliding plan (``MappingPlan.slides``) reads every output position, a
    window of its ``gather``, as one row of the batch.

    The batch is split into scaling groups of io.batch_size rows, the last
    possibly short; each group has its own input-voltage scale per layer.
    Groups go through in chunks of as many whole groups as keep the largest
    layer current matrix (reads_per_sample * 2 * cols per sample) within
    ``qnet._CONV_CHUNK_ELEMENTS`` elements, at least one group: the rule of
    ``qnet._chunk_rows``, which ADC calibration shares. Each layer of
    a chunk is encoded, read with one ``tile_vmm`` and read out once, with
    the per-row scales as an (rows, 1) column, or as one scalar when a
    single group is read. A group whose input peak is 0, and a layer whose
    weights are all 0, give zero pre-activations.
    """
    x = qnet._float_batch(net, batch)
    if len(x) == 0:
        raise ValueError("empty batch")
    if not len(plans) == len(conductances) == len(net.layers):
        raise ValueError(f"{len(net.layers)} layers, {len(plans)} plans and "
                         f"{len(conductances)} conductance matrices")
    for li, (plan, g) in enumerate(zip(plans, conductances)):
        if np.shape(g) != (plan.rows, 2 * plan.cols):
            raise ValueError(f"layer {li}: conductance matrix of shape {np.shape(g)}, "
                             f"plan needs {(plan.rows, 2 * plan.cols)}")
    per_sample = max(plan.reads_per_sample * 2 * plan.cols for plan in plans)
    step = qnet._chunk_rows(per_sample, io.batch_size)
    return np.concatenate([_forward_chunk(net, plans, conductances, x[start:start + step],
                                          io, model, adc_ranges)
                           for start in range(0, len(x), step)])


def _forward_chunk(net: QuantizedNetwork, plans: list[MappingPlan],
                   conductances: list[np.ndarray], x: np.ndarray, io: IOConfig,
                   model: DeviceModel,
                   adc_ranges: list[tuple[float, float]] | None) -> np.ndarray:
    """``simulate_forward`` of whole scaling groups, each layer read once."""
    n = x.shape[0]
    starts = np.arange(0, n, io.batch_size)
    sizes = np.diff(starts, append=n)
    last = len(net.layers) - 1
    for li, (layer, plan) in enumerate(zip(net.layers, plans)):
        # a linear layer's padding is 0, which leaves its input as it is
        flat = qnet._pad_flat(layer.spec, x)
        peaks = np.maximum.reduceat(np.abs(flat).max(axis=1), starts)
        live = peaks != 0
        scale = io.v_max / peaks[live]
        # numpy scales by a scalar several times faster than by a column
        scale = scale[0] if scale.size == 1 else np.repeat(scale, sizes[live])[:, None]
        layer_args = (layer, plan, conductances[li], io, model,
                      adc_ranges[li] if adc_ranges is not None else (None, None))
        if live.all():
            z = _read_layer(flat, scale, *layer_args)
        else:
            # rows of all-zero groups stay out of the DAC, the read and the ADC
            z = np.zeros((n, *plan.out_shape))
            if live.any():
                rows = np.repeat(live, sizes)
                z[rows] = _read_layer(flat[rows], scale, *layer_args)
        # a sliding layer's z is a strided view: both write it C-contiguous
        x = np.maximum(z, 0.0, order="C") if li < last else np.ascontiguousarray(z)
    return x


def _read_layer(flat: np.ndarray, scale: float | np.ndarray, layer: qnet.Layer,
                plan: MappingPlan, g: np.ndarray, io: IOConfig,
                model: DeviceModel, adc_range: tuple) -> np.ndarray:
    """One layer's pre-activations, shaped (rows, *plan.out_shape), for
    flattened inputs ``flat`` with voltage scale ``scale`` (one, or an
    (rows, 1) column), read against the layer conductance matrix ``g``. A
    sliding plan reads the windows of its ``gather``; its pre-activations
    are the (rows, kernels, *spatial) view of the readout buffer, which
    holds them position by position; the caller makes it contiguous."""
    m = flat.shape[0]
    out_shape = plan.out_shape
    v = encode_inputs(flat, io, scale)
    w_max = _code_peak(layer.weights) * layer.weights.scale
    if w_max == 0.0:
        return np.zeros((m, *out_shape))
    if plan.slides:
        v = np.take(v, plan.gather, axis=1).reshape(m * plan.reads_per_sample, -1)
    # one row per sample, so the scale column broadcasts over all its reads
    i = tile_vmm(v, g).reshape(m, -1)
    y = readout(i[:, 0::2], i[:, 1::2],
                ReadoutCalibration(scale, model.g_span / w_max, *adc_range), io)
    if plan.slides:
        # (m, *spatial, K) -> (m, K, *spatial), a view
        return np.moveaxis(y.reshape(m, *out_shape[1:], out_shape[0]), -1, 1)
    # other conv plans order their columns k * P + p; linear ones are the outputs
    return y.reshape(m, *out_shape)


def calibrate_adc_ranges(net: QuantizedNetwork, data: qnet.Dataset) -> list[tuple[float, float]]:
    """Per-layer pre-activation output ranges of the noiseless
    ``ideal_forward`` over the dataset; the fixed ADC window every
    non-ideal run then uses.

    The samples go through ``ideal_forward`` in chunks of
    ``qnet._chunk_rows(w)`` rows, where w is the widest per-sample array the
    pass builds (``qnet._forward_width``), and each layer's (min, max) is
    folded as the chunks pass. Only those two numbers per layer are kept, so
    the pass holds one layer's input and output for one chunk at a time,
    whatever the size of the set. A set within one chunk is one
    ``ideal_forward`` call and gets exactly the ranges of one full pass; a
    larger one may differ from those by a few ulps, since BLAS blocks the
    rows of a product differently with their count."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    step = qnet._chunk_rows(qnet._forward_width(net))
    ranges = []
    for start in range(0, len(data), step):
        chunk = []
        ideal_forward(net, data.features[start:start + step],
                      on_preact=lambda z, chunk=chunk: chunk.append((float(z.min()),
                                                                      float(z.max()))))
        if ranges:
            chunk = [(min(lo, c_lo), max(hi, c_hi))
                     for (lo, hi), (c_lo, c_hi) in zip(ranges, chunk)]
        ranges = chunk
    return ranges


def evaluate_accuracy(net: QuantizedNetwork, scheme: str, hw: HardwareConfig,
                      data: qnet.Dataset, seed: int,
                      plans: list[MappingPlan] | None = None,
                      conductances: list[np.ndarray] | None = None) -> float:
    """Test-set accuracy of the simulated crossbar implementation.

    The whole dataset goes through one ``simulate_forward`` call, which
    splits it into scaling groups of io.batch_size samples, each sharing one
    dynamic input-voltage scale per layer, and reads them in chunks. ``plans``
    are the layer plans of (scheme, hw.tile_size) if the caller has built
    them already, a ValueError if they are another point's; otherwise they
    are built here. ``conductances`` are the layer matrices
    ``program_network`` returns for this device population (scheme,
    hw.tile_size, hw.device, seed) if the caller holds them, as
    ``dse.grid_search`` does for points that differ only in ``hw.io``; they
    are only read. Otherwise they are sampled and programmed here.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    if plans is None:
        plans = mapping.network_plans(net, scheme, hw.tile_size)
    _require_plans_of(plans, scheme, hw.tile_size)
    if conductances is None:
        conductances = program_network(net, scheme, hw, seed, plans)
    adc_ranges = calibrate_adc_ranges(net, data) if hw.io.quantizes else None
    logits = simulate_forward(net, plans, conductances, data.features, hw.io, hw.device,
                              adc_ranges)
    return int(np.sum(np.argmax(logits, axis=1) == data.labels)) / len(data)
