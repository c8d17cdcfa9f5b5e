"""Analog crossbar execution: device sampling, differential programming,
voltage encoding, layer current summation, and calibrated readout.

Every scheme places logical cell (m, n) of a layer on one differential
device pair, and tile partial sums add before readout. So programming also
gathers the programmed pairs into the layer conductance matrix G of shape
(rows, 2 * cols), cell (m, n) at columns 2n and 2n + 1, and
``simulate_forward`` reads each layer with one ``tile_vmm`` against G.
Each tile is a rectangle of its plan's physical matrix, programmed through
basic slices. A full layout's physical G is G, so stuck devices on zero
weights contribute; a compacted layout's cells go to their logical rows
through its ``row_map``, the rest of G 0.

``program_network`` streams: it draws each tile and writes its block into
G in one pass, so it holds G and the draws of the tile at hand, never a
layer's sampled population.
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
from dataclasses import dataclass, field

import numpy as np

from . import mapping, qnet
from .mapping import MappingPlan
from .qnet import QuantizedNetwork, WeightTensor, _round_half_away, ideal_forward

# DAC/ADC resolutions at or beyond this are treated as ideal (no conversion
# quantization): the modeled analog chain has no meaningful precision left.
IDEAL_IO_BITS = 16

FREE, STUCK_ON, STUCK_OFF = 0, 1, 2


@dataclass(frozen=True)
class DeviceModel:
    """Per-device resistance distributions and failure rates.

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
        if not 0 < self.r_on_mean < self.r_off_mean:
            raise ValueError("need 0 < r_on_mean < r_off_mean")
        if self.r_on_std < 0 or self.r_off_std < 0:
            raise ValueError("resistance std must be >= 0")
        if self.n_states is not None and self.n_states < 2:
            raise ValueError("n_states must be >= 2 (or None for continuous)")
        if min(self.p_stuck_on, self.p_stuck_off) < 0 or \
                self.p_stuck_on + self.p_stuck_off > 1:
            raise ValueError("stuck probabilities must be >= 0 and sum to <= 1")

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
    readout divides the voltage scale back out."""

    io_bit_width: int | None = None
    v_max: float = 0.3
    batch_size: int = 256

    def __post_init__(self):
        if self.io_bit_width is not None and self.io_bit_width < 1:
            raise ValueError("io_bit_width must be >= 1")
        if self.v_max <= 0:
            raise ValueError("v_max must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

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
    blake2b digest of ``parts``: counter 0 and empty output buffers, the state
    ``np.random.Philox(key=...)`` starts in, without building a new one."""
    digest = hashlib.blake2b("|".join(str(p) for p in parts).encode(),
                             digest_size=16).digest()
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.frombuffer(digest, dtype="<u8").astype(np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}


def _truncated_normal(gen: np.random.Generator, mean: float, std: float,
                      shape) -> np.ndarray:
    """Normal samples truncated at 3 sigma, out-of-range values redrawn."""
    vals = gen.normal(mean, std, shape)
    if std == 0:
        return vals
    flat = vals.reshape(-1)
    bad = np.flatnonzero(np.abs(flat - mean) > 3.0 * std)
    for _ in range(100):
        if bad.size == 0:
            return vals
        # only redrawn positions can still be out of range; they stay in
        # flat order, so each round consumes the stream as a full re-check would
        redraw = gen.normal(mean, std, bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw - mean) > 3.0 * std]
    return np.clip(vals, mean - 3.0 * std, mean + 3.0 * std)


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
    """Yield (tile, r_on, r_off, stuck) for every tile of ``plan``, in plan
    order: full t x t arrays drawn from the stream keyed by (seed, cfg_hash,
    layer_index, tile_row, tile_col), r_on, then r_off, then the uniforms
    that set the stuck states."""
    t = plan.tile_size
    gen = np.random.Generator(np.random.Philox(key=0))   # re-keyed for every stream
    for tp in plan.tiles:
        _rekey(gen, seed, cfg_hash, layer_index, tp.tile_row, tp.tile_col)
        r_on = _truncated_normal(gen, model.r_on_mean, model.r_on_std, (t, t))
        r_off = _truncated_normal(gen, model.r_off_mean, model.r_off_std, (t, t))
        yield tp, r_on, r_off, _stuck_from_uniform(gen.random((t, t)), model)


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
    return {(tp.tile_row, tp.tile_col): TileArray(_unprogrammed(r_on, r_off, stuck),
                                                  r_on, r_off, stuck)
            for tp, r_on, r_off, stuck in _tile_draws(seed, plan, model, cfg_hash,
                                                      layer_index)}


def _pair_targets(codes: np.ndarray, g_on: np.ndarray, g_off: np.ndarray,
                  w_max: int, model: DeviceModel) -> np.ndarray:
    """Target conductances of the device pairs of cells ``codes``, from the
    devices' 1/r_on and 1/r_off. The device arrays carry one more trailing
    axis than ``codes``: (positive, negative)."""
    mag = np.abs(codes) / w_max if w_max else np.zeros(codes.shape)
    active = np.sign(codes)[..., None] == (1, -1)
    frac = np.where(active, mag[..., None], 0.0)
    if model.n_states is not None:
        levels = model.n_states - 1
        frac = np.clip(_round_half_away(frac * levels), 0, levels) / levels
    return g_off + frac * (g_on - g_off)


def _code_peak(weights: WeightTensor) -> int:
    """Largest |code| of a layer; times ``weights.scale`` it is the peak
    |weight|, since the scale is positive."""
    return int(np.abs(weights.codes).max(initial=0))


def _program_tiles(draws, plan: MappingPlan, weights: WeightTensor,
                   model: DeviceModel) -> np.ndarray:
    """The layer's conductance matrix G, of shape (plan.rows, 2 * plan.cols),
    programmed tile by tile from ``draws``, an iterable of (tile, r_on,
    r_off, stuck) in plan order as ``_tile_draws`` yields them; each tile's
    arrays are only read, and no longer needed once its block is written.

    A weight w with layer peak w_max targets, on its own device,
    g = g_off + (|w| / w_max)(g_on - g_off) on the polarity matching its
    sign and g_off on the other; targets snap to the device's n_states
    uniform grid. Stuck devices ignore programming: stuck on at 1/r_on,
    stuck off at 1/r_off. G holds each mapped cell's device pair as
    programmed at columns 2n and 2n + 1; cells without devices stay 0.

    Each tile's nr x nc block of the physical matrix (``plan.tile_slices``)
    sits on its first nr device rows and 2 * nc device columns.
    """
    if plan.geometry is None:
        if plan.rows != weights.codes.shape[1] or plan.cols != weights.codes.shape[0]:
            raise ValueError("weight tensor does not match plan dimensions")
    else:
        geom = plan.geometry
        if weights.codes.size != geom.kernels * geom.footprint:
            raise ValueError("weight tensor does not match plan geometry")
    w_max = _code_peak(weights)
    g = np.zeros((plan.codes.shape[0], 2 * plan.cols))
    for tp, r_on, r_off, stuck in draws:
        rows, cols = plan.tile_slices(tp)
        codes = plan.codes[rows, cols]
        nr, nc = codes.shape
        dev = np.s_[:nr, :2 * nc]
        g_on = 1.0 / r_on[dev]
        g_off = 1.0 / r_off[dev]
        block = _pair_targets(codes, g_on.reshape(nr, nc, 2), g_off.reshape(nr, nc, 2),
                              w_max, model).reshape(nr, 2 * nc)
        np.copyto(block, g_on, where=stuck[dev] == STUCK_ON)
        np.copyto(block, g_off, where=stuck[dev] == STUCK_OFF)
        g[rows, 2 * cols.start:2 * cols.start + 2 * nc] = block
    if plan.row_map is None:
        return g
    mapped = plan.row_map >= 0
    g_layer = np.zeros((plan.rows, plan.cols, 2))
    g_layer[plan.row_map[mapped], np.nonzero(mapped)[1]] = g.reshape(*mapped.shape, 2)[mapped]
    return g_layer.reshape(plan.rows, 2 * plan.cols)


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
            yield tp, ta.r_on, ta.r_off, ta.stuck
    return _program_tiles(draws(), plan, weights, model)


def program_network(net: QuantizedNetwork, scheme: str, hw: HardwareConfig, seed: int,
                    plans: list[MappingPlan]) -> list[np.ndarray]:
    """Sample and program every layer of ``net`` under its ``plans``; returns
    the layer conductance matrices ``simulate_forward`` reads. They depend on
    the device population alone (network, scheme, tile size, device model
    and seed), never on ``hw.io``.

    Each tile is drawn and programmed in one pass, so no layer's sampled
    population is held. G is byte-identical to
    ``program(sample_devices(...))`` of each layer."""
    chash = config_hash(net, scheme, hw)
    return [_program_tiles(_tile_draws(seed, plan, hw.device, chash, li),
                           plan, net.layers[li].weights, hw.device)
            for li, plan in enumerate(plans)]


def encode_inputs(batch: np.ndarray, io: IOConfig, scale: float | np.ndarray) -> np.ndarray:
    """Voltages of a batch of activations: v = x * scale, quantized to the
    signed mid-tread DAC grid (step v_max / 2^(b-1)). ``scale`` is one value
    or an (rows, 1) column giving each row of a 2-D batch its own scaling
    group's scale; ``simulate_forward`` sets it to v_max / max|x| per group,
    so v / v_max, and with it every result, does not depend on v_max.
    """
    x = np.asarray(batch, dtype=float)
    if x.size == 0:
        raise ValueError("empty batch")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite inputs")
    v = x * scale
    if io.quantizes:
        half = 2 ** (io.io_bit_width - 1)
        step = io.v_max / half
        v = np.clip(_round_half_away(v / step), -half, half) * step
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
    ADC-quantized to 2^b uniform levels over the calibrated output range."""
    if not np.all(cal.voltage_scale) or cal.weight_scale == 0:
        raise ValueError("zero calibration scale")
    y = (np.asarray(i_pos) - np.asarray(i_neg)) / (cal.voltage_scale * cal.weight_scale)
    if io.quantizes and cal.out_lo is not None and cal.out_hi is not None:
        lo, hi = cal.out_lo, cal.out_hi
        if hi <= lo:
            return np.full_like(y, lo)
        levels = 2 ** io.io_bit_width - 1
        step = (hi - lo) / levels
        y = lo + np.clip(_round_half_away((y - lo) / step), 0, levels) * step
    return y


def simulate_forward(net: QuantizedNetwork, plans: list[MappingPlan],
                     conductances: list[np.ndarray], batch: np.ndarray, io: IOConfig,
                     model: DeviceModel,
                     adc_ranges: list[tuple[float, float]] | None = None) -> np.ndarray:
    """End-to-end analog inference: per layer encode -> one read of the
    layer conductance matrix from ``program_network`` (tile partial sums included)
    -> differential readout -> activation. A sliding plan
    (``MappingPlan.slides``) reads every output position as one row of the batch.

    The batch is split into scaling groups of io.batch_size rows, the last
    possibly short; each group has its own input-voltage scale per layer.
    Groups go through in chunks of as many whole groups as keep the largest
    layer current matrix (reads_per_sample * 2 * cols per sample) within
    ``qnet._CONV_CHUNK_ELEMENTS`` elements, at least one group. Each layer of
    a chunk is encoded, read with one ``tile_vmm`` and read out once, with
    the per-row scales as an (rows, 1) column, or as one scalar when a
    single group is read. A group whose input peak is 0, and a layer whose
    weights are all 0, give zero pre-activations.
    """
    x = np.asarray(batch, dtype=float)
    if x.shape[1:] != tuple(net.input_shape):
        raise ValueError(
            f"batch feature shape {x.shape[1:]} != network input {net.input_shape}")
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
    step = io.batch_size * max(1, qnet._CONV_CHUNK_ELEMENTS // (io.batch_size * per_sample))
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
        spec = layer.spec
        if spec.kind == "linear":
            flat = x.reshape(n, -1)
            out_shape = (spec.out_features,)
        else:
            flat = qnet._pad_flat(spec, x)
            out_shape = ((spec.kernels, plan.geometry.out_x) if spec.kind == "conv1d"
                         else (spec.kernels, plan.geometry.out_x, plan.geometry.out_y))
        peaks = np.maximum.reduceat(np.abs(flat).max(axis=1), starts)
        live = peaks != 0
        scale = io.v_max / peaks[live]
        # numpy scales by a scalar several times faster than by a column
        scale = scale[0] if scale.size == 1 else np.repeat(scale, sizes[live])[:, None]
        layer_args = (layer, plan, conductances[li], out_shape, io, model,
                      adc_ranges[li] if adc_ranges is not None else (None, None))
        if live.all():
            z = _read_layer(flat, scale, *layer_args)
        else:
            # rows of all-zero groups stay out of the DAC, the read and the ADC
            z = np.zeros((n, *out_shape))
            if live.any():
                rows = np.repeat(live, sizes)
                z[rows] = _read_layer(flat[rows], scale, *layer_args)
        x = np.maximum(z, 0.0) if li < last else z
    return x


def _read_layer(flat: np.ndarray, scale: float | np.ndarray, layer: qnet.Layer,
                plan: MappingPlan, g: np.ndarray, out_shape: tuple, io: IOConfig,
                model: DeviceModel, adc_range: tuple) -> np.ndarray:
    """One layer's pre-activations, shaped (rows, *out_shape), for flattened
    inputs ``flat`` with voltage scale ``scale`` (one, or an (rows, 1) column),
    read against the layer conductance matrix ``g``."""
    m = flat.shape[0]
    geom = plan.geometry
    v = encode_inputs(flat, io, scale)
    w_max = _code_peak(layer.weights) * layer.weights.scale
    if w_max == 0.0:
        return np.zeros((m, *out_shape))
    if plan.slides:
        v = v[:, geom.read_indices()].reshape(m * geom.out_positions, -1)
    # one row per sample, so the scale column broadcasts over all its reads
    i = tile_vmm(v, g).reshape(m, -1)
    y = readout(i[:, 0::2], i[:, 1::2],
                ReadoutCalibration(scale, model.g_span / w_max, *adc_range), io)
    if plan.slides:
        # (m, P, K) -> (m, K, P)
        y = np.moveaxis(y.reshape(m, geom.out_positions, geom.kernels), 1, 2)
    # other conv plans order their columns k * P + p; linear ones are the outputs
    return y.reshape(m, *out_shape)


def calibrate_adc_ranges(net: QuantizedNetwork, data: qnet.Dataset) -> list[tuple[float, float]]:
    """Per-layer pre-activation output ranges from a noiseless pass over the
    dataset; the fixed ADC window every non-ideal run then uses."""
    _, preacts = ideal_forward(net, data.features, collect_preacts=True)
    return [(float(z.min()), float(z.max())) for z in preacts]


def evaluate_accuracy(net: QuantizedNetwork, scheme: str, hw: HardwareConfig,
                      data: qnet.Dataset, seed: int,
                      plans: list[MappingPlan] | None = None,
                      conductances: list[np.ndarray] | None = None) -> float:
    """Test-set accuracy of the simulated crossbar implementation.

    The whole dataset goes through one ``simulate_forward`` call, which
    splits it into scaling groups of io.batch_size samples, each sharing one
    dynamic input-voltage scale per layer, and reads them in chunks. ``plans``
    are the layer plans of (scheme, hw.tile_size) if the caller has built
    them already; otherwise they are built here. ``conductances`` are the
    layer matrices ``program_network`` returns for this device population
    (scheme, hw.tile_size, hw.device, seed) if the caller holds them, as
    ``dse.grid_search`` does for points that differ only in ``hw.io``; they
    are only read. Otherwise they are sampled and programmed here.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    if plans is None:
        plans = mapping.network_plans(net, scheme, hw.tile_size)
    if conductances is None:
        conductances = program_network(net, scheme, hw, seed, plans)
    adc_ranges = calibrate_adc_ranges(net, data) if hw.io.quantizes else None
    logits = simulate_forward(net, plans, conductances, data.features, hw.io, hw.device,
                              adc_ranges)
    return int(np.sum(np.argmax(logits, axis=1) == data.labels)) / len(data)
