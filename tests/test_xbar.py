import copy
import hashlib
import itertools
import math
import mmap
import os
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from test_mapping import tile_cells
from test_qnet import copysign_round
from xbardse import mapping, qnet, xbar
from xbardse.xbar import (
    DeviceModel,
    HardwareConfig,
    IOConfig,
    ReadoutCalibration,
    encode_inputs,
    evaluate_accuracy,
    program,
    readout,
    sample_devices,
    simulate_forward,
    tile_vmm,
)

IDEAL_DEVICES = DeviceModel(r_on_std=0.0, r_off_std=0.0, p_stuck_on=0.0,
                            p_stuck_off=0.0)


def ones_plan(rows=8, cols=8, t=8):
    return mapping.map_linear_sparse(np.ones((rows, cols)), t)


def tile_slices(plan, tp):
    """Physical rows and columns of tile ``tp``: [tile_row * t, +t) x
    [tile_col * pair_capacity, +pair_capacity). An edge tile's slices
    reach past the matrix; indexing the matrix with them clips them."""
    t, cap = plan.tile_size, mapping.pair_capacity(plan.tile_size)
    return (slice(tp.tile_row * t, (tp.tile_row + 1) * t),
            slice(tp.tile_col * cap, (tp.tile_col + 1) * cap))


def per_tile_currents(plan, tiles, v):
    """Reference read, tile by tile, of interleaved (pos, neg) currents.

    Full layouts read each tile as one block, so stuck devices on zero
    cells contribute; routed layouts gather per-entry voltages through each
    cell's logical row. Tile partial sums accumulate per logical column.
    """
    cap = mapping.pair_capacity(plan.tile_size)
    i = np.zeros((v.shape[0], 2 * plan.cols))
    for tp in tile_cells(plan):
        g = tiles[(tp.tile_row, tp.tile_col)].g
        if plan.row_map is not None:
            cols = tp.tile_col * cap + tp.pair_slots
            for offset in (0, 1):
                np.add.at(i, (slice(None), 2 * cols + offset),
                          v[:, tp.logical_rows] * g[tp.rows, 2 * tp.pair_slots + offset])
        else:
            r0 = tp.tile_row * plan.tile_size
            c0 = tp.tile_col * cap
            nrows = int(tp.rows.max()) + 1
            ncols = int(tp.pair_slots.max()) + 1
            i[:, 2 * c0: 2 * (c0 + ncols)] += tile_vmm(v[:, r0: r0 + nrows],
                                                       g[:nrows, : 2 * ncols])
    return i


def per_tile_program(tiles, plan, weights, model):
    """Reference programming, tile by tile, through the cell arrays
    ``tile_cells`` expands, for every layout. Unlike ``program`` it writes
    the programmed values into the tiles' ``g``, which ``per_tile_currents``
    reads, and returns the layer conductance matrix."""
    w_max = int(np.abs(weights.codes).max(initial=0))
    g_layer = np.zeros((plan.rows, 2 * plan.cols))
    for tp in tile_cells(plan):
        ta = tiles[(tp.tile_row, tp.tile_col)]
        mag = np.abs(tp.codes) / w_max if w_max else np.zeros(tp.codes.shape)
        for offset, active in ((0, tp.codes > 0), (1, tp.codes < 0)):
            cols = 2 * tp.pair_slots + offset
            g_on = 1.0 / ta.r_on[tp.rows, cols]
            g_off = 1.0 / ta.r_off[tp.rows, cols]
            frac = np.where(active, mag, 0.0)
            if model.n_states is not None:
                levels = model.n_states - 1
                frac = np.clip(qnet._round_half_away(frac * levels), 0, levels) / levels
            target = g_off + frac * (g_on - g_off)
            free = ta.stuck[tp.rows, cols] == xbar.FREE
            ta.g[tp.rows[free], cols[free]] = target[free]
            g_layer[tp.logical_rows, 2 * tp.logical_cols + offset] = ta.g[tp.rows, cols]
    return g_layer


def layer_layout(plan, tiles, name):
    """Tile field ``name`` of every mapped device, laid out like G: cell
    (m, n)'s pair at columns 2n and 2n + 1, NaN where no device is mapped."""
    out = np.full((plan.rows, 2 * plan.cols), np.nan)
    for tp in tile_cells(plan):
        values = getattr(tiles[(tp.tile_row, tp.tile_col)], name)
        for offset in (0, 1):
            out[tp.logical_rows, 2 * tp.logical_cols + offset] = \
                values[tp.rows, 2 * tp.pair_slots + offset]
    return out


def frozen_program(tiles, plan, weights, model):
    """Programming as it stood before G was written with 1/r_off and patched
    on nonzero cells only, kept as a frozen oracle: per tile, every device
    pair's target g_off + frac * (g_on - g_off) on the polarity of its
    code's sign (frac 0 on the other), snapped to n_states levels, then
    stuck-on devices at g_on and stuck-off ones at g_off; the block goes
    into G as one slice, or through ``row_map`` for compacted layouts."""
    w_max = int(np.abs(weights.codes).max(initial=0))
    g = np.zeros((plan.rows, plan.cols, 2))
    for tp in plan.tiles:
        ta = tiles[(tp.tile_row, tp.tile_col)]
        rows, cols = tile_slices(plan, tp)
        codes = plan.codes[rows, cols]
        nr, nc = codes.shape
        dev = np.s_[:nr, :2 * nc]
        g_on = (1.0 / ta.r_on[dev]).reshape(nr, nc, 2)
        g_off = (1.0 / ta.r_off[dev]).reshape(nr, nc, 2)
        state = ta.stuck[dev].reshape(nr, nc, 2)
        mag = np.abs(codes) / w_max if w_max else np.zeros(codes.shape)
        frac = np.where(np.sign(codes)[..., None] == (1, -1), mag[..., None], 0.0)
        if model.n_states is not None:
            levels = model.n_states - 1
            frac = np.clip(qnet._round_half_away(frac * levels), 0, levels) / levels
        block = g_off + frac * (g_on - g_off)
        np.copyto(block, g_on, where=state == xbar.STUCK_ON)
        np.copyto(block, g_off, where=state == xbar.STUCK_OFF)
        if plan.row_map is None:
            g[rows, cols] = block
        else:
            logical = plan.row_map[rows, cols]
            pr, pc = np.nonzero(logical >= 0)
            g[logical[pr, pc], cols.start + pc] = block[pr, pc]
    return g.reshape(plan.rows, 2 * plan.cols)


class PlantedNormals:
    """Generator stand-in for ``_truncated_normal``: its first ``normal``
    call returns ``first``, every later one the mean; ``sizes`` records the
    size of each call."""

    def __init__(self, first):
        self.first, self.sizes = first, []

    def normal(self, mean, std, size):
        self.sizes.append(size)
        return self.first.copy() if len(self.sizes) == 1 else np.full(size, mean)


def reference_stream(*parts):
    digest = hashlib.blake2b("|".join(str(p) for p in parts).encode(),
                             digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


def reference_truncated_normal(gen, mean, std, shape, rounds):
    """3-sigma truncation that re-checks the whole array after every redraw;
    appends the number of redraw rounds to ``rounds``."""
    vals = gen.normal(mean, std, shape)
    if std == 0:
        return vals
    for i in range(100):
        bad = np.abs(vals - mean) > 3.0 * std
        count = int(bad.sum())
        if count == 0:
            rounds.append(i)
            return vals
        vals[bad] = gen.normal(mean, std, count)
    rounds.append(100)
    return np.clip(vals, mean - 3.0 * std, mean + 3.0 * std)


def reference_sample(seed, plan, model, cfg_hash, layer_index, rounds):
    """Reference physical-keyed sampler: one Philox stream per tile, drawing
    r_on, r_off, then the stuck uniforms over the whole (t, t) tile."""
    t = plan.tile_size
    tiles = {}
    for tp in plan.tiles:
        gen = reference_stream(seed, cfg_hash, layer_index, tp.tile_row, tp.tile_col)
        r_on = reference_truncated_normal(gen, model.r_on_mean, model.r_on_std, (t, t),
                                          rounds)
        r_off = reference_truncated_normal(gen, model.r_off_mean, model.r_off_std, (t, t),
                                           rounds)
        u = gen.random((t, t))
        stuck = np.zeros((t, t), dtype=np.int8)
        stuck[u < model.p_stuck_on] = xbar.STUCK_ON
        stuck[(u >= model.p_stuck_on)
              & (u < model.p_stuck_on + model.p_stuck_off)] = xbar.STUCK_OFF
        g = 1.0 / r_off.copy()
        g[stuck == xbar.STUCK_ON] = 1.0 / r_on[stuck == xbar.STUCK_ON]
        g[stuck == xbar.STUCK_OFF] = 1.0 / r_off[stuck == xbar.STUCK_OFF]
        tiles[(tp.tile_row, tp.tile_col)] = xbar.TileArray(g, r_on, r_off, stuck)
    return tiles


def logical_sample(seed, plan, model, layer_index):
    """Logical-keyed sampler: one stream per layer draws a sample per logical
    matrix cell, shared by both polarities of its pair and independent of
    scheme and tile size, then scatters it into the plan's tiles. Devices
    without a cell stay at the means, unstuck."""
    t = plan.tile_size
    tiles = {}
    gen = np.random.Generator(np.random.Philox(key=0))
    xbar._rekey(gen, seed, "logical", layer_index, plan.rows, plan.cols)
    r_on_l = xbar._truncated_normal(gen, model.r_on_mean, model.r_on_std,
                                    (plan.rows, plan.cols))
    r_off_l = xbar._truncated_normal(gen, model.r_off_mean, model.r_off_std,
                                     (plan.rows, plan.cols))
    stuck_l = xbar._stuck_from_uniform(gen.random((plan.rows, plan.cols)), model)
    for tp in tile_cells(plan):
        r_on = np.full((t, t), model.r_on_mean)
        r_off = np.full((t, t), model.r_off_mean)
        stuck = np.zeros((t, t), dtype=np.int8)
        for offset in (0, 1):
            cols = 2 * tp.pair_slots + offset
            r_on[tp.rows, cols] = r_on_l[tp.logical_rows, tp.logical_cols]
            r_off[tp.rows, cols] = r_off_l[tp.logical_rows, tp.logical_cols]
            stuck[tp.rows, cols] = stuck_l[tp.logical_rows, tp.logical_cols]
        tiles[(tp.tile_row, tp.tile_col)] = xbar.TileArray(
            xbar._unprogrammed(r_on, r_off, stuck), r_on, r_off, stuck)
    return tiles


def per_group_forward(net, plans, mats, batch, io, model, adc_ranges=None):
    """Reference grouped read: one ``simulate_forward`` call per scaling group
    of io.batch_size rows, so each call shares one voltage scale per layer."""
    return np.concatenate([simulate_forward(net, plans, mats, batch[s:s + io.batch_size],
                                            io, model, adc_ranges)
                           for s in range(0, len(batch), io.batch_size)])


def assert_same_tiles(got, want):
    assert list(got) == list(want)
    for key, ta in want.items():
        for name in ("g", "r_on", "r_off", "stuck"):
            a, b = getattr(got[key], name), getattr(ta, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), \
                f"tile {key} {name}"


def random_net(name, arch, input_shape, seed, zero_frac=0.4):
    """Random-code network over ``arch``; zero_frac=1 gives all-zero layers."""
    specs, _ = qnet.propagate_shapes(arch, input_shape)
    rng = np.random.default_rng(seed)
    layers = []
    for spec in specs:
        codes = rng.integers(-7, 8, size=spec.weight_shape())
        codes[rng.random(codes.shape) < zero_frac] = 0
        layers.append(qnet.Layer(spec, qnet.WeightTensor(codes, 0.1, 4)))
    return qnet.QuantizedNetwork(name, 4, input_shape, layers)


def random_conv2d_net():
    """conv2d(3, 3x3, pad 1) -> linear(4) on 1x6x6, about 40 % zero codes."""
    specs, _ = qnet.propagate_shapes([qnet.conv2d(3, 3, 3, padding=1), qnet.linear(4)],
                                     (1, 6, 6))
    rng = np.random.default_rng(5)
    layers = []
    for spec in specs:
        codes = rng.integers(-7, 8, size=spec.weight_shape())
        codes[rng.random(codes.shape) < 0.4] = 0
        layers.append(qnet.Layer(spec, qnet.WeightTensor(codes, 0.1, 4)))
    return qnet.QuantizedNetwork("conv2d-random", 4, (1, 6, 6), layers)


def force_split(monkeypatch, cpus):
    """Cut every layer of two or more tile rows into blocks, as if the
    process could run on ``cpus`` CPUs."""
    monkeypatch.setattr(xbar, "_SPLIT_DEVICES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def fork_spy(monkeypatch) -> list:
    """The pids of the children ``os.fork`` makes from now on, in the caller."""
    pids, real = [], os.fork

    def spy():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pinned_conv2d_net():
    """conv2d(5, 2x2, pad 1) -> linear(10) on 2x6x6, about 40 % zero codes:
    footprint 8, so every scheme maps it at t=8."""
    specs, _ = qnet.propagate_shapes([qnet.conv2d(5, 2, 2, padding=1), qnet.linear(10)],
                                     (2, 6, 6))
    rng = np.random.default_rng(2024)
    layers = []
    for spec in specs:
        codes = rng.integers(-7, 8, size=spec.weight_shape())
        codes[rng.random(codes.shape) < 0.4] = 0
        layers.append(qnet.Layer(spec, qnet.WeightTensor(codes, 0.1, 4)))
    return qnet.QuantizedNetwork("pinned-conv2d", 4, (2, 6, 6), layers)


# SHA-256 of the bytes of each G that program_network returns for
# pinned_conv2d_net at seed 7, by "scheme/tile_size/device model/layer", however
# its layers are split between processes; changing one changes a correctness check
PINNED_G_SHA256 = {
    "sparse_staggered/8/default/0":
        "15cbacbb1d0e59ea87eec7e5aac8e0963755f801137f9f6e85061d82ec076592",
    "sparse_staggered/8/default/1":
        "0318a3b294f858e97927369b4296fa17a58ca15a4df3006387cbfba0e263e1a5",
    "sparse_staggered/8/stuck/0":
        "8f533bf123b354b64d98731c6db27b7f969f94ab0a5d547ed23697a4be27dbd8",
    "sparse_staggered/8/stuck/1":
        "8852568d82516b5ba175b9092f86dbf9952583e456165f21a75f7ba003ce018f",
    "sparse_staggered/32/default/0":
        "120981b4689cc7ba084028e6c8fc5c5007757f6ac28731dc563224373b84f29d",
    "sparse_staggered/32/default/1":
        "e3b26edbf78506a010b3c0f3e9fe6eb89d5e5f724b203b2b264fb718b1d6c7f7",
    "sparse_staggered/32/stuck/0":
        "93cb486ac421a4ed0d17d9d1189761756e8d58fc5e3cc4ce10c817acb9298113",
    "sparse_staggered/32/stuck/1":
        "5bc9345adc65d5a31ac01df34303fc5c99e6c31cf9f91213da32ed8f42afbccf",
    "dense_routed/8/default/0":
        "516684793430471bb4b80281a429ff41003a67918562221ee55f4e5e80b58b72",
    "dense_routed/8/default/1":
        "38eb098bc0611a10511a406d3084e8e299eac86e9e3e11b6ffd32a363e436e16",
    "dense_routed/8/stuck/0":
        "e4b6e1d8b2024954616f0822e5da397dc84d1671109ba037d816b352d99ab3d0",
    "dense_routed/8/stuck/1":
        "b9c9d29ba56eb163cfbcc5e9b448e9a658f1dc86c3a39799e035f559e00457ab",
    "dense_routed/32/default/0":
        "84bc4bc8c8b56765a3c690c714a1ec2c19a3355c70f19e379d9ad1e88320b107",
    "dense_routed/32/default/1":
        "881767e4fbd6d6a468c85c92a8dc2ce884a0accec8192f5779cbd58228afc4e4",
    "dense_routed/32/stuck/0":
        "5f7d27dec7356f6bcc65e5eafdc244488cffd8394fe9ce768fa2e1dff86eb030",
    "dense_routed/32/stuck/1":
        "8e59cadce8574674bcf33c8bec196616c3ee4906c21e0b2d44de85a3764b2ae3",
    "dense_kernel/8/default/0":
        "4be004238ff5777b59ef79d9ce5db44d1d149e062675aaff9ac2ff33bbdcafd6",
    "dense_kernel/8/default/1":
        "087cefe363a9f7de8ffbf22ef26594443c6e4069fdc768b9f2944b7347c7458a",
    "dense_kernel/8/stuck/0":
        "e22a228403fa7a20c40fa55bcfe3d84df3b640a9980af7fef9ab5a390fc0515e",
    "dense_kernel/8/stuck/1":
        "2b2314bac5bfbb6811bbf7d363c47844a1c9bdb0e6f38d142ab568592c292806",
    "dense_kernel/32/default/0":
        "a1ea8c844bdbee4add7ab3e2b7f58a4e354ea5589da597ef33918b6b76f3147c",
    "dense_kernel/32/default/1":
        "064e293fd109b501f0ed1ba30a2fed17425b81027a7063cc330d4aab3668df9b",
    "dense_kernel/32/stuck/0":
        "7aee11bd78c9164007e896b9928cabf7782d31c6bffb4a2b54fb56a851d1fbff",
    "dense_kernel/32/stuck/1":
        "1439f9acd7a797bd75e95f2f4620c4081392b4a34119e0247c83ccb78f5006a0",
}


class TestDeviceModel:
    def test_defaults_match_fixed_parameters(self):
        m = DeviceModel()
        assert (m.r_off_mean, m.r_off_std) == (100_000.0, 10_000.0)
        assert (m.r_on_mean, m.r_on_std) == (10_000.0, 1_000.0)
        assert m.p_stuck_on == m.p_stuck_off == 0.005

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceModel(r_on_mean=200_000.0)
        with pytest.raises(ValueError):
            DeviceModel(n_states=1)
        with pytest.raises(ValueError):
            DeviceModel(p_stuck_on=0.6, p_stuck_off=0.6)
        DeviceModel(p_stuck_on=0.0, p_stuck_off=1.0)  # all-stuck-off is legal

    def test_io_validation(self):
        with pytest.raises(ValueError):
            IOConfig(io_bit_width=0)
        with pytest.raises(ValueError):
            IOConfig(v_max=0.0)
        assert IOConfig(io_bit_width=16).quantizes is False
        assert IOConfig(io_bit_width=8).quantizes is True

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_states": 4.5}, "n_states must be a whole number"),
        ({"n_states": True}, "n_states must be a whole number"),
        ({"r_on_std": math.nan}, "resistance std must be >= 0"),
        ({"r_off_std": -math.inf}, "resistance std must be >= 0"),
        ({"r_off_std": math.inf}, "resistance std must be finite"),
        ({"r_on_mean": math.nan}, "r_on_mean < r_off_mean"),
        ({"r_off_mean": math.inf}, "r_off_mean < inf"),
        ({"p_stuck_on": math.nan}, "stuck probabilities"),
        ({"p_stuck_off": math.nan}, "stuck probabilities"),
        ({"p_stuck_on": math.inf}, "stuck probabilities"),
        ({"p_stuck_off": -math.inf}, "stuck probabilities"),
        ({"r_on_std": True}, "r_on_std must be a number, not True"),
        ({"r_off_mean": np.bool_(True)}, "r_off_mean must be a number, not True"),
        ({"p_stuck_on": True, "p_stuck_off": False}, "p_stuck_on must be a number, not True"),
        ({"p_stuck_off": False}, "p_stuck_off must be a number, not False"),
        ({"p_stuck_on": "a"}, "p_stuck_on must be a number, not a"),
        ({"p_stuck_off": None}, "p_stuck_off must be a number, not None"),
        ({"r_on_mean": "x"}, "r_on_mean must be a number, not x"),
    ])
    def test_rejects_non_integer_and_non_finite_values(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DeviceModel(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"io_bit_width": 4.5}, "io_bit_width must be a whole number"),
        ({"io_bit_width": True}, "io_bit_width must be a whole number"),
        ({"io_bit_width": np.float64(8.5)}, "io_bit_width must be a whole number"),
        ({"batch_size": 16.5}, "batch_size must be an integer"),
        ({"batch_size": True}, "batch_size must be an integer"),
        ({"batch_size": np.bool_(True)}, "batch_size must be an integer"),
        ({"v_max": math.nan}, "v_max must be > 0"),
        ({"v_max": -math.inf}, "v_max must be > 0"),
        ({"v_max": math.inf}, "v_max must be finite"),
        ({"v_max": True}, "v_max must be a number, not True"),
        ({"v_max": np.bool_(True)}, "v_max must be a number, not True"),
        ({"v_max": "x"}, "v_max must be a number, not x"),
        ({"v_max": None}, "v_max must be a number, not None"),
    ])
    def test_io_rejects_non_integer_and_non_finite_values(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            IOConfig(**kwargs)

    def test_every_failed_rule_listed(self):
        """The first failed rule of the means, the stds, n_states and the
        stuck probabilities, one line each: both stds below 0 are one line."""
        bad = {"r_on_mean": 200_000.0, "r_on_std": -1.0, "r_off_std": -5.0, "n_states": 1,
               "p_stuck_on": "a"}
        problems = ["need 0 < r_on_mean < r_off_mean < inf", "resistance std must be >= 0",
                    "n_states must be >= 2 (or None for continuous)",
                    "p_stuck_on must be a number, not a"]
        assert xbar.device_problems(**{**vars(DeviceModel()), **bad}) == problems
        with pytest.raises(ValueError) as err:
            DeviceModel(**bad)
        assert str(err.value).splitlines() == problems
        assert xbar.device_problems(**vars(DeviceModel())) == []
        io = {"io_bit_width": 4.5, "v_max": math.inf, "batch_size": 0}
        problems = ["v_max must be finite",
                    "io_bit_width must be a whole number (or None for ideal)",
                    "batch_size must be >= 1"]
        assert xbar.io_problems(**io) == problems
        with pytest.raises(ValueError) as err:
            IOConfig(**io)
        assert str(err.value).splitlines() == problems
        assert xbar.io_problems(**vars(IOConfig())) == []

    @pytest.mark.parametrize("bad, problems", [
        ({"r_on_std": 10 ** 400}, ["resistance std must be finite"]),
        ({"r_off_std": -10 ** 400}, ["resistance std must be >= 0"]),
        ({"r_on_mean": 10 ** 400}, ["need 0 < r_on_mean < r_off_mean < inf"]),
        ({"r_on_mean": 10 ** 400, "r_off_mean": 10 ** 401},
         ["need 0 < r_on_mean < r_off_mean < inf"]),
        ({"p_stuck_off": 10 ** 400}, ["stuck probabilities must be >= 0 and sum to <= 1"]),
        ({"n_states": 2 ** 63}, ["n_states must be < 2**63 (or None for continuous)"]),
        ({"n_states": 1e300}, ["n_states must be < 2**63 (or None for continuous)"]),
        ({"n_states": 10 ** 400, "r_off_std": 10 ** 400},
         ["resistance std must be finite", "n_states must be < 2**63 (or None for continuous)"]),
    ], ids=["r_on_std", "r_off_std-negative", "r_on_mean", "means", "p_stuck_off",
            "n_states", "n_states-float", "two"])
    def test_device_values_past_float_or_int64_range_listed(self, bad, problems):
        """Resistances and probabilities must convert to finite float64s, and
        n_states must fit int64."""
        assert xbar.device_problems(**{**vars(DeviceModel()), **bad}) == problems
        with pytest.raises(ValueError) as err:
            DeviceModel(**bad)
        assert str(err.value).splitlines() == problems

    @pytest.mark.parametrize("bad, problems", [
        ({"batch_size": 2 ** 63}, ["batch_size must be < 2**63"]),
        ({"batch_size": 10 ** 400}, ["batch_size must be < 2**63"]),
        ({"io_bit_width": 10 ** 400}, ["io_bit_width must be < 2**63 (or None for ideal)"]),
        ({"v_max": 10 ** 400}, ["v_max must be finite"]),
        ({"v_max": -10 ** 400, "batch_size": 10 ** 400},
         ["v_max must be > 0", "batch_size must be < 2**63"]),
    ], ids=["batch_size", "batch_size-huge", "io_bit_width", "v_max", "two"])
    def test_io_values_past_float_or_int64_range_listed(self, bad, problems):
        assert xbar.io_problems(**{**vars(IOConfig()), **bad}) == problems
        with pytest.raises(ValueError) as err:
            IOConfig(**bad)
        assert str(err.value).splitlines() == problems

    def test_largest_counts_accepted(self):
        top = 2 ** 63 - 1
        assert xbar.device_problems(**{**vars(DeviceModel()), "n_states": top}) == []
        assert xbar.io_problems(io_bit_width=top, v_max=1e308, batch_size=top) == []

    @pytest.mark.parametrize("bad, problems", [
        ({"p_stuck_on": "a", "p_stuck_off": math.nan},
         ["p_stuck_on must be a number, not a",
          "stuck probabilities must be >= 0 and sum to <= 1"]),
        ({"r_on_std": math.nan, "r_off_std": math.inf},
         ["resistance std must be >= 0", "resistance std must be finite"]),
        ({"r_on_std": "x", "r_off_std": -1.0},
         ["r_on_std must be a number, not x", "resistance std must be >= 0"]),
        ({"r_on_mean": None, "r_off_mean": math.inf},
         ["r_on_mean must be a number, not None", "need 0 < r_on_mean < r_off_mean < inf"]),
        ({"r_on_std": math.nan, "r_off_std": -1.0}, ["resistance std must be >= 0"]),
        ({"p_stuck_on": 2.0, "p_stuck_off": -1.0},
         ["stuck probabilities must be >= 0 and sum to <= 1"]),
        ({"p_stuck_on": "a", "p_stuck_off": 0.9}, ["p_stuck_on must be a number, not a"]),
    ], ids=["stuck", "stds", "std-string", "mean-none", "stds-one-line", "stuck-one-line",
            "no-joint-rule"])
    def test_non_number_hides_no_partner_problem(self, bad, problems):
        """Each field's own rules are checked apart, a pair's joint rule only
        when both are numbers, and no line is listed twice."""
        assert xbar.device_problems(**{**vars(DeviceModel()), **bad}) == problems

    def test_integer_values_are_accepted(self):
        assert DeviceModel(n_states=np.int64(16)).n_states == 16
        io = IOConfig(io_bit_width=np.int32(8), batch_size=np.int64(64))
        assert io.quantizes and io.batch_size == 64
        # a float of integral value counts levels or bits as the integer does
        assert DeviceModel(n_states=16.0).n_states == 16
        assert IOConfig(io_bit_width=8.0).quantizes


class TestSampling:
    def test_deterministic(self):
        plan = ones_plan()
        a = sample_devices(0, plan, DeviceModel(), "h", 0)
        b = sample_devices(0, plan, DeviceModel(), "h", 0)
        for key in a:
            assert np.array_equal(a[key].g, b[key].g)
            assert np.array_equal(a[key].stuck, b[key].stuck)

    def test_seed_changes_samples(self):
        plan = ones_plan()
        a = sample_devices(0, plan, DeviceModel(), "h", 0)
        b = sample_devices(1, plan, DeviceModel(), "h", 0)
        assert not np.array_equal(a[(0, 0)].r_on, b[(0, 0)].r_on)

    def test_three_sigma_truncation(self):
        plan = mapping.map_linear_sparse(np.ones((64, 64)), 64)
        tiles = sample_devices(0, plan, DeviceModel(), "h", 0)
        ta = tiles[(0, 0)]
        assert np.all(np.abs(ta.r_on - 10_000) <= 3_000)
        assert np.all(np.abs(ta.r_off - 100_000) <= 30_000)
        assert np.all(ta.r_on < ta.r_off)

    def test_logical_mode_shares_pair_samples(self):
        plan = ones_plan()
        tiles = logical_sample(0, plan, DeviceModel(), 0)
        ta = tiles[(0, 0)]
        tp = tile_cells(plan)[0]
        pos = ta.r_on[tp.rows, 2 * tp.pair_slots]
        neg = ta.r_on[tp.rows, 2 * tp.pair_slots + 1]
        assert np.array_equal(pos, neg)

    def test_monte_carlo_statistics(self):
        # 16 full 256x256 tiles = 1,048,576 devices
        plan = mapping.map_linear_sparse(np.ones((256, 2048)), 256)
        tiles = sample_devices(0, plan, DeviceModel(), "mc", 0)
        r_off = np.concatenate([t.r_off.ravel() for t in tiles.values()])
        r_on = np.concatenate([t.r_on.ravel() for t in tiles.values()])
        stuck = np.concatenate([t.stuck.ravel() for t in tiles.values()])
        assert r_off.size >= 1_000_000
        assert abs(r_off.mean() - 100_000) / 100_000 < 0.01
        assert abs(r_off.std() - 10_000) / 10_000 < 0.05
        assert abs(r_on.mean() - 10_000) / 10_000 < 0.01
        assert abs((stuck == xbar.STUCK_ON).mean() - 0.005) < 0.001
        assert abs((stuck == xbar.STUCK_OFF).mean() - 0.005) < 0.001

    @pytest.mark.parametrize("model, shape, t, tiles, redraw_rounds", [
        (DeviceModel(p_stuck_on=0.05, p_stuck_off=0.05), (20, 30), 8, 24, 1),
        (DeviceModel(r_on_std=0.0, r_off_std=0.0), (9, 9), 4, 15, 0),
        (DeviceModel(r_on_std=2_000.0, r_off_std=20_000.0), (40, 40), 16, 15, 1),
        (DeviceModel(p_stuck_on=0.4, p_stuck_off=0.6), (12, 12), 8, 6, 1),
        (DeviceModel(p_stuck_on=0.0, p_stuck_off=1.0), (12, 12), 8, 6, 1),
        (DeviceModel(), (1024, 512), 1024, 1, 2),
    ], ids=["multi_tile", "std_zero", "std_multiplier_2", "stuck_sum_one",
            "all_stuck_off", "redraw_rounds"])
    def test_draws_match_per_tile_reference(self, model, shape, t, tiles, redraw_rounds):
        plan = mapping.map_linear_sparse(np.ones(shape), t)
        rounds = []
        want = reference_sample(3, plan, model, "ref", 2, rounds)
        assert_same_tiles(sample_devices(3, plan, model, "ref", 2), want)
        assert len(plan.tiles) == tiles
        assert max(rounds, default=0) >= redraw_rounds

    def test_rekey_matches_fresh_philox(self):
        gen = np.random.Generator(np.random.Philox())
        xbar._rekey(gen, 5, "first", 0, 1, 2)
        gen.integers(0, 2 ** 32, size=3, dtype=np.uint32)   # odd: half a word left
        gen.random(1)                                       # part of the buffer left
        state = gen.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
        xbar._rekey(gen, 5, "second", 0, 3, 4)
        fresh = reference_stream(5, "second", 0, 3, 4)
        for draw in (lambda g: g.integers(0, 2 ** 32, size=5, dtype=np.uint32),
                     lambda g: g.random(7), lambda g: g.normal(size=9)):
            assert draw(gen).tobytes() == draw(fresh).tobytes()

    @pytest.mark.parametrize("mean, std", [(10_000.0, 1_000.0), (100_000.0, 10_000.0),
                                           (1.0, 0.1), (10_000.0, 1_234.5678), (3e-5, 7e-7)])
    def test_truncation_redraws_the_formulas_set_at_the_edges(self, mean, std):
        """Planted at mean +- 3 std and one ulp either side, the values
        ``_truncated_normal`` redraws are exactly those with
        abs(x - mean) > 3 * std, in flat order."""
        limit = 3.0 * std
        edges = [mean - limit, mean + limit]
        values = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)] + edges
        first = np.array(values + [mean, mean - 2 * limit, mean + 2 * limit]).reshape(3, 3)
        want = np.abs(first - mean) > 3.0 * std
        assert want.any() and not want.all()
        gen = PlantedNormals(first)
        got = xbar._truncated_normal(gen, mean, std, first.shape)
        redrawn = got != first
        assert np.array_equal(redrawn, want)
        assert gen.sizes == [first.shape, int(want.sum())]
        assert (got[redrawn] == mean).all()

    def test_truncation_draws_once_without_out_of_range_values(self):
        first = np.array([[9_000.0, 11_000.0], [7_000.0, 13_000.0]])
        gen = PlantedNormals(first)
        got = xbar._truncated_normal(gen, 10_000.0, 1_000.0, first.shape)
        assert got.tobytes() == first.tobytes() and gen.sizes == [first.shape]

    @pytest.mark.parametrize("seed, cfg_hash, layer, row, col", [
        (0, "", 0, 0, 0), (3, "0123456789abcdef", 1, 12, 7), (-1, "a|b", 12, 3, 4),
        (2 ** 40, "ffffffffffffffff", 7, 1000, 99), (5, "x", 0, 0, 10)])
    def test_rekey_keys_the_stream_of_the_joined_parts(self, seed, cfg_hash, layer, row, col):
        """From a used state, ``_rekey`` on a tile's key parts gives the
        stream of the blake2b digest of the whole "|"-joined key string."""
        gen = np.random.Generator(np.random.Philox())
        gen.random(3)                                       # a used state
        xbar._rekey(gen, seed, cfg_hash, layer, row, col)
        fresh = reference_stream(seed, cfg_hash, layer, row, col)
        for draw in (lambda g: g.random(5), lambda g: g.normal(size=9)):
            assert draw(gen).tobytes() == draw(fresh).tobytes()


class TestProgramming:
    def test_code_peak_is_abs_max(self):
        """The layer peak is int(max |code|) for integer, float and bool codes,
        all-zero and empty ones included, and where the largest magnitude is
        negative."""
        rng = np.random.default_rng(21)
        ints = rng.integers(-7, 8, size=(6, 5))
        cases = [ints, ints.astype(float), np.array([[3, -7, 5]]),
                 np.array([[-2.0, 1.0]]), np.zeros((3, 4), dtype=np.int64), np.zeros((2, 2)),
                 np.zeros((0, 3), dtype=np.int64), np.zeros((4, 0)),
                 np.array([[True, False]])]
        for codes in cases:
            got = xbar._code_peak(qnet.WeightTensor(codes, 1.0, 4))
            want = int(np.abs(codes).max(initial=0))
            assert type(got) is int and got == want, codes

    def test_full_scale_weight_hits_endpoints(self):
        wt = qnet.WeightTensor(np.array([[7]]), 1.0, 4)
        plan = mapping.map_linear_sparse(wt.codes.T, 4)
        tiles = sample_devices(0, plan, IDEAL_DEVICES, "h", 0)
        g = program(tiles, plan, wt, IDEAL_DEVICES)
        assert g[0, 0] == pytest.approx(1e-4)   # positive column at 1/r_on
        assert g[0, 1] == pytest.approx(1e-5)   # negative column at 1/r_off

    def test_zero_weight_both_off(self):
        wt = qnet.WeightTensor(np.array([[0]]), 1.0, 4)
        plan = mapping.map_linear_sparse(wt.codes.T, 4)
        tiles = sample_devices(0, plan, IDEAL_DEVICES, "h", 0)
        g = program(tiles, plan, wt, IDEAL_DEVICES)
        assert g[0, 0] == pytest.approx(1e-5)
        assert g[0, 1] == pytest.approx(1e-5)

    def test_state_snapping_error_bound(self):
        model = DeviceModel(r_on_std=0.0, r_off_std=0.0, p_stuck_on=0.0,
                            p_stuck_off=0.0, n_states=4)
        plan = mapping.map_linear_sparse(np.ones((1, 15)), 32)
        tiles = sample_devices(0, plan, model, "h", 0)
        codes = np.arange(1, 16, dtype=np.int64).reshape(15, 1).T  # (1, 15) logical
        wt = qnet.WeightTensor(codes.T, 1.0, 8)  # weights (out=15, in=1)
        plan = mapping.layer_plan(qnet.propagate_shapes([qnet.linear(15)], (1,))[0][0],
                                  wt, "sparse_staggered", 32)
        tiles = sample_devices(0, plan, model, "h", 0)
        g_layer = program(tiles, plan, wt, model)
        g_levels = 1e-5 + (1e-4 - 1e-5) * np.arange(4) / 3
        tp, = tile_cells(plan)
        programmed = g_layer[tp.logical_rows, 2 * tp.logical_cols]
        assert programmed.size == 15
        for g in programmed:
            assert np.min(np.abs(g_levels - g)) < 1e-12
        # snap error bounded by half a level gap
        span = 1e-4 - 1e-5
        targets = 1e-5 + span * np.abs(tp.codes) / 15
        assert np.all(np.abs(programmed - targets) <= span / 3 / 2 + 1e-15)

    def test_stuck_devices_ignore_programming(self):
        model = DeviceModel(p_stuck_on=0.5, p_stuck_off=0.5)
        plan = ones_plan(16, 16, 16)
        tiles = sample_devices(0, plan, model, "h", 0)
        wt = qnet.WeightTensor(np.full((16, 16), 7, dtype=np.int64), 1.0, 4)
        g = program(tiles, plan, wt, model)
        stuck = layer_layout(plan, tiles, "stuck") != xbar.FREE
        assert stuck.any()
        assert np.array_equal(g[stuck], layer_layout(plan, tiles, "g")[stuck])

    def test_conductance_bounds_invariant(self):
        model = DeviceModel(n_states=16)
        plan = ones_plan(16, 16, 16)
        tiles = sample_devices(3, plan, model, "h", 0)
        rng = np.random.default_rng(0)
        codes = rng.integers(-7, 8, size=(16, 16))
        wt = qnet.WeightTensor(codes, 1.0, 4)
        g = program(tiles, plan, wt, model)
        # every entry of G within its own device's [1/r_off, 1/r_on]
        slack = 1e-12
        assert np.all(g <= 1.0 / layer_layout(plan, tiles, "r_on") * (1 + slack))
        assert np.all(g >= 1.0 / layer_layout(plan, tiles, "r_off") * (1 - slack))

    def test_mismatched_plan_rejected(self):
        plan = ones_plan(4, 4, 8)
        tiles = sample_devices(0, plan, IDEAL_DEVICES, "h", 0)
        wt = qnet.WeightTensor(np.zeros((3, 3), dtype=np.int64), 1.0, 4)
        with pytest.raises(ValueError):
            program(tiles, plan, wt, IDEAL_DEVICES)

    def test_mismatched_layer_plan_rejected(self):
        """A layer plan checks the weights against its spec: a conv layer's
        by its geometry, a linear layer's by the plan's dimensions."""
        specs, _ = qnet.propagate_shapes([qnet.conv1d(2, 3), qnet.linear(4)], (1, 8))
        wrong = qnet.WeightTensor(np.ones((3, 3), dtype=np.int64), 1.0, 4)
        for spec, message in zip(specs, ("plan geometry", "plan dimensions")):
            wt = qnet.WeightTensor(np.ones(spec.weight_shape(), dtype=np.int64), 1.0, 4)
            plan = mapping.layer_plan(spec, wt, "dense_routed", 8)
            with pytest.raises(ValueError, match=message):
                xbar._program_tiles((), plan, wrong, IDEAL_DEVICES)

    @pytest.mark.parametrize("scheme", mapping.SCHEMES)
    def test_program_matches_per_tile_reference(self, scheme):
        arch = [qnet.conv1d(kernels=11, kernel_h=3), qnet.linear(5)]
        nets = [random_net("conv1d-random", arch, (1, 12), 8),
                random_conv2d_net(),
                random_net("conv1d-zero", arch, (1, 12), 8, zero_frac=1.0)]
        full_layout = set()
        for n_states in (None, 16):
            model = DeviceModel(p_stuck_on=0.05, p_stuck_off=0.05, n_states=n_states)
            for net in nets:
                for t in (4, 5, 7, 8, 10):
                    for li, layer in enumerate(net.layers):
                        try:
                            plan = mapping.layer_plan(layer.spec, layer.weights, scheme, t)
                        except mapping.MappingError:
                            continue   # dense_kernel: kernel footprint exceeds t
                        sampled = sample_devices(1, plan, model, "prog", li)
                        before = copy.deepcopy(sampled)
                        g = program(sampled, plan, layer.weights, model)
                        assert_same_tiles(sampled, before)   # the tiles are only read
                        ref = per_tile_program(before, plan, layer.weights, model)
                        assert np.array_equal(g, ref), (net.name, t, li, n_states)
                        full_layout.add(plan.row_map is None)
        expected = {"sparse_staggered": {True}, "dense_kernel": {True, False},
                    "dense_routed": {False}}
        assert full_layout == expected[scheme]


def reference_encode(batch, io, scale):
    """``encode_inputs``' formula, one new array per step."""
    v = np.asarray(batch, dtype=float) * scale
    if io.quantizes:
        half = 2 ** (io.io_bit_width - 1)
        step = io.v_max / half
        v = np.clip(copysign_round(v / step), -half, half) * step
    return v


def reference_readout(i_pos, i_neg, cal, io):
    """``readout``'s formula, one new array per step."""
    y = (np.asarray(i_pos) - np.asarray(i_neg)) / (cal.voltage_scale * cal.weight_scale)
    if io.quantizes and cal.out_lo is not None and cal.out_hi is not None:
        lo, hi = cal.out_lo, cal.out_hi
        if hi <= lo:
            return np.full_like(y, lo)
        levels = 2 ** io.io_bit_width - 1
        step = (hi - lo) / levels
        y = lo + np.clip(copysign_round((y - lo) / step), 0, levels) * step
    return y


IO_WIDTHS = (None, 1, 4, 6, 16)


class TestEncode:
    def test_matches_the_formula_and_reads_its_batch_only(self):
        """Scalar and per-row column scales, ideal and quantized DACs: the
        bytes of the formula, -0.0 and values near DAC half-steps included,
        and the batch is left as it was."""
        rng = np.random.default_rng(21)
        x = rng.normal(size=(12, 40))
        x[0, :4] = [0.0, -0.0, 1e-300, -1e-300]
        x[1] *= 1e6                                      # beyond the DAC's clip
        x[2, :12] = (np.arange(-6, 6) + 0.5) / 8        # near 4-bit DAC half-steps
        column = rng.uniform(0.01, 2.0, size=(12, 1))
        for bits in IO_WIDTHS:
            io = IOConfig(io_bit_width=bits)
            for scale in (0.3, column):
                before = x.tobytes()
                got = encode_inputs(x, io, scale)
                want = reference_encode(x, io, scale)
                assert x.tobytes() == before
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes(), (bits, np.ndim(scale))

    def test_linear_scaling(self):
        v = encode_inputs(np.array([1.0, 2.0]), IOConfig(), 0.15)
        assert v[0] == pytest.approx(0.15)
        assert v[1] == pytest.approx(0.3)

    def test_one_bit_levels(self):
        x = np.random.default_rng(0).normal(size=1000)
        v = encode_inputs(x, IOConfig(io_bit_width=1), 0.3 / np.abs(x).max())
        assert set(np.round(v, 10)) <= {-0.3, 0.0, 0.3}

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            encode_inputs(np.array([np.inf]), IOConfig(), 1.0)


class TestVmmAndReadout:
    def test_hand_dot_products(self):
        i = tile_vmm(np.array([0.1, 0.2]), np.array([[1e-4, 2e-4], [3e-4, 4e-4]]))
        assert np.allclose(i, [7e-5, 1.0e-4])

    def test_zero_voltage(self):
        assert not tile_vmm(np.zeros(3), np.ones((3, 2))).any()

    def test_diagonal(self):
        v = np.array([0.1, -0.2, 0.3])
        assert np.allclose(tile_vmm(v, 2e-4 * np.eye(3)), 2e-4 * v)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(1e-5, 1e-4, (6, 4))
        v1, v2 = rng.normal(size=6), rng.normal(size=6)
        a, b = 1.7, -0.3
        lhs = tile_vmm(a * v1 + b * v2, g)
        rhs = a * tile_vmm(v1, g) + b * tile_vmm(v2, g)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            tile_vmm(np.zeros(3), np.ones((4, 2)))

    def test_readout_matches_the_formula_and_reads_its_currents_only(self):
        """Strided views of one current matrix, as ``simulate_forward``
        passes them; scalar and column voltage scales; ideal and quantized
        ADCs, with and without a range, and empty ranges (hi <= lo): the bytes
        of the formula, and the currents are left as they were, since a
        caller may read them again."""
        rng = np.random.default_rng(22)
        i = rng.normal(scale=1e-5, size=(10, 64))
        i[0, :4] = [0.0, -0.0, 0.0, 0.0]
        column = rng.uniform(0.01, 2.0, size=(10, 1))
        for bits in IO_WIDTHS:
            io = IOConfig(io_bit_width=bits)
            for vs in (0.3, column):
                for lo, hi in ((None, None), (-2e-4, 3e-4), (-1e-5, 1e-5), (1e-4, 1e-4),
                               (2e-4, -1e-4)):
                    cal = ReadoutCalibration(vs, 0.02, lo, hi)
                    before = i.tobytes()
                    got = readout(i[:, 0::2], i[:, 1::2], cal, io)
                    want = reference_readout(i[:, 0::2], i[:, 1::2], cal, io)
                    assert i.tobytes() == before
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes(), (bits, np.ndim(vs), lo, hi)

    def test_readout_equal_currents_zero(self):
        cal = ReadoutCalibration(0.1, 1e-4)
        y = readout(np.ones(3), np.ones(3), cal, IOConfig())
        assert not y.any()

    def test_readout_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            readout(np.ones(2), np.zeros(2), ReadoutCalibration(0.0, 1e-4), IOConfig())

    def test_adc_level_cardinality(self):
        cal = ReadoutCalibration(1.0, 1.0, out_lo=-1.0, out_hi=1.0)
        rng = np.random.default_rng(2)
        y = readout(rng.normal(size=500), np.zeros(500), cal, IOConfig(io_bit_width=2))
        assert len(set(np.round(y, 12))) <= 4

    def test_single_weight_recovered_exactly(self):
        spec, = qnet.propagate_shapes([qnet.linear(1)], (1,))[0]
        wt = qnet.WeightTensor(np.array([[5]]), 0.07, 4)
        net = qnet.QuantizedNetwork("w", 4, (1,), [qnet.Layer(spec, wt)])
        plan = mapping.layer_plan(spec, wt, "sparse_staggered", 4)
        tiles = sample_devices(0, plan, IDEAL_DEVICES, "h", 0)
        g = program(tiles, plan, wt, IDEAL_DEVICES)
        x = np.array([[1.3]])
        y = simulate_forward(net, [plan], [g], x, IOConfig(), IDEAL_DEVICES)
        assert y[0, 0] == pytest.approx(1.3 * 5 * 0.07, rel=1e-12)


class TestCalibration:
    def test_matches_stored_preact_reference(self, monkeypatch):
        """One ``ideal_forward`` call per calibration, and its ranges equal
        the min and max of each layer's stored pre-activations: the logits
        of the network cut after that layer."""
        cases = [random_net("conv1d", [qnet.conv1d(4, 3, padding=1), qnet.conv1d(3, 2, stride=2),
                                       qnet.linear(4)], (2, 11), 1),
                 random_conv2d_net(),
                 random_net("linear", [qnet.linear(6), qnet.linear(5), qnet.linear(3)], (7,), 2)]
        calls = []
        forward = xbar.ideal_forward
        monkeypatch.setattr(xbar, "ideal_forward",
                            lambda *args, **kw: calls.append(1) or forward(*args, **kw))
        for i, net in enumerate(cases):
            x = np.random.default_rng(i).normal(size=(40, *net.input_shape))
            got = xbar.calibrate_adc_ranges(net, qnet.Dataset(x, np.zeros(40, np.int64), 4))
            assert len(calls) == i + 1
            want = []
            for li in range(len(net.layers)):
                cut = qnet.QuantizedNetwork("cut", net.bit_width, net.input_shape,
                                            net.layers[:li + 1])
                z = qnet.ideal_forward(cut, x)
                want.append((float(z.min()), float(z.max())))
            assert got == want
            assert all(lo < 0 < hi for lo, hi in got)

    def test_holds_no_stored_preacts(self):
        """On four 4 MiB conv1d layers and a linear one, the traced peak of
        calibration stays within three activation arrays (a layer's input,
        padded input and output) plus two contraction chunks; holding every
        layer's pre-activations, or a ReLU copy of each, would not fit."""
        n, channels, length = 256, 8, 256
        arch = [qnet.conv1d(channels, 3, padding=1) for _ in range(4)] + [qnet.linear(4)]
        net = random_net("calibrated", arch, (channels, length), 3)
        x = np.random.default_rng(3).normal(size=(n, channels, length))
        data = qnet.Dataset(x, np.zeros(n, np.int64), 4)
        activation = x.nbytes
        assert activation == 4 * 2 ** 20
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ranges = xbar.calibrate_adc_ranges(net, data)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(ranges) == len(arch)
        assert peak <= 3 * activation + 2 * qnet._CONV_CHUNK_ELEMENTS * 8

    def test_peak_does_not_grow_with_the_set(self):
        """On a conv net whose first layer's output is 12.5 kB a sample, the
        traced peak of calibrating 4,096 samples is that of 512 samples, to
        within one chunk's arrays; one pass over the whole set would hold
        layer outputs of 6.4 MB and 51 MB."""
        arch = [qnet.conv2d(8, 3, 3), qnet.conv2d(16, 3, 3, stride=2), qnet.linear(10)]
        net = random_net("streamed", arch, (1, 16, 16), 4)
        x = np.random.default_rng(4).normal(size=(4096, 1, 16, 16))
        peaks = []
        for n in (512, 4096):
            data = qnet.Dataset(x[:n], np.zeros(n, np.int64), 10)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                ranges = xbar.calibrate_adc_ranges(net, data)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            assert len(ranges) == len(arch)
        assert abs(peaks[1] - peaks[0]) <= qnet._CONV_CHUNK_ELEMENTS * 8, peaks

    def test_streams_chunks_and_matches_one_full_pass(self, monkeypatch):
        """On three chunks and a remainder, calibration calls ``ideal_forward``
        once per chunk, on consecutive slices of the set, and its ranges equal
        the min and max of one full-batch pass within 1e-12 relative. The
        chunk width is the widest array of the pass, checked against the
        conv layers' geometry."""
        conv2d = [qnet.conv2d(8, 3, 3), qnet.conv2d(16, 3, 3, stride=2), qnet.linear(10)]
        conv1d = [qnet.conv1d(4, 3, padding=2, dilation=2), qnet.conv1d(3, 2, stride=2),
                  qnet.linear(4)]
        dense = [qnet.linear(6), qnet.linear(9), qnet.linear(3)]
        # rows per chunk: None keeps the default chunk
        cases = [(random_net("conv2d-stride", conv2d, (1, 16, 16), 6), None),
                 (random_net("conv1d", conv1d, (2, 11), 1), 5),
                 (random_conv2d_net(), 4),
                 (random_net("linear", dense, (7,), 2), 6)]
        forward = xbar.ideal_forward
        for i, (net, rows) in enumerate(cases):
            width = math.prod(net.input_shape)
            for layer in net.layers:
                if layer.spec.kind == "linear":
                    width = max(width, layer.spec.in_features, layer.spec.out_features)
                else:
                    spec = layer.spec
                    width = max(width, spec.padded_inputs, spec.out_positions * spec.footprint,
                                spec.kernels * spec.out_positions)
            assert qnet._forward_width(net) == width, net.name
            with monkeypatch.context() as patch:
                if rows is not None:
                    patch.setattr(qnet, "_CONV_CHUNK_ELEMENTS", rows * width + width - 1)
                step = qnet._chunk_rows(width)
                assert step == (rows or qnet._CONV_CHUNK_ELEMENTS // width)
                n = 3 * step + step // 2 + 1
                x = np.random.default_rng(i).normal(size=(n, *net.input_shape))
                calls = []
                patch.setattr(xbar, "ideal_forward", lambda net, batch, **kw:
                              calls.append(batch) or forward(net, batch, **kw))
                got = xbar.calibrate_adc_ranges(net, qnet.Dataset(x, np.zeros(n, np.int64), 4))
            assert [len(batch) for batch in calls] == [step] * 3 + [n - 3 * step], net.name
            for c, batch in enumerate(calls):
                assert np.array_equal(batch, x[c * step:(c + 1) * step])
            want = []
            forward(net, x, on_preact=lambda z: want.append((z.min(), z.max())))
            assert len(got) == len(want) == len(net.layers)
            for (lo, hi), (want_lo, want_hi) in zip(got, want):
                assert abs(lo - want_lo) <= 1e-12 * abs(want_lo), net.name
                assert abs(hi - want_hi) <= 1e-12 * abs(want_hi), net.name


class TestSimulation:
    def test_noise_off_equivalence(self, fixture_net, test_data):
        hw = HardwareConfig(tile_size=32, io=IOConfig(io_bit_width=16, batch_size=64),
                            device=IDEAL_DEVICES)
        ref = qnet.ideal_forward(fixture_net, test_data.features[:64])
        for scheme in mapping.SCHEMES:
            plans = mapping.network_plans(fixture_net, scheme, 32)
            chash = xbar.config_hash(fixture_net, scheme, hw)
            tiles = []
            for li, plan in enumerate(plans):
                sampled = sample_devices(0, plan, hw.device, chash, li)
                tiles.append(program(sampled, plan, fixture_net.layers[li].weights,
                                     hw.device))
            logits = simulate_forward(fixture_net, plans, tiles,
                                      test_data.features[:64], hw.io, hw.device)
            rel = np.abs(logits - ref) / np.maximum(np.abs(ref), 1e-12)
            assert rel.max() < 1e-6

    def test_program_network_programs_every_layer(self, fixture_net):
        """The streamed path is byte-identical to programming the sampled
        tile dict, for every scheme and device model, on tile sizes that
        leave tiles partly filled."""
        models = [DeviceModel(), DeviceModel(n_states=16), DeviceModel(n_states=2),
                  DeviceModel(p_stuck_on=0.05, p_stuck_off=0.05),
                  DeviceModel(p_stuck_on=0.05, n_states=4), IDEAL_DEVICES]
        layouts, partial = set(), 0
        for net, t in ((fixture_net, 5), (fixture_net, 8), (random_conv2d_net(), 10)):
            for scheme in mapping.SCHEMES:
                plans = mapping.network_plans(net, scheme, t)
                for plan in plans:
                    layouts.add(plan.row_map is None)
                    for tp in plan.tiles:
                        nr, nc = plan.codes[tile_slices(plan, tp)].shape
                        partial += nr < t or nc < t // 2
                for model in models:
                    hw = HardwareConfig(tile_size=t, device=model)
                    chash = xbar.config_hash(net, scheme, hw)
                    got = xbar.program_network(net, scheme, hw, 5, plans)
                    assert len(got) == len(plans)
                    for li, (plan, g) in enumerate(zip(plans, got)):
                        want = program(sample_devices(5, plan, model, chash, li), plan,
                                       net.layers[li].weights, model)
                        assert (g.dtype, g.shape, g.tobytes()) == \
                            (want.dtype, want.shape, want.tobytes()), (scheme, t, model, li)
        assert layouts == {True, False} and partial > 0

    def test_program_network_of_a_layer_without_inputs(self):
        """A linear layer on an empty input has a plan of 0 rows, and its
        conductance matrix is empty, since a memory mapping cannot be."""
        (spec,), _ = qnet.propagate_shapes([qnet.linear(2)], (0,))
        codes = np.zeros((2, 0), dtype=np.int64)
        net = qnet.QuantizedNetwork("empty", 4, (0,),
                                    [qnet.Layer(spec, qnet.WeightTensor(codes, 1.0, 4))])
        for scheme in mapping.SCHEMES:
            plans = mapping.network_plans(net, scheme, 8)
            g, = xbar.program_network(net, scheme, HardwareConfig(8), 0, plans)
            assert (g.shape, g.dtype) == ((0, 4), np.dtype(float))

    def test_programming_equals_the_frozen_reference(self, fixture_net):
        """``program_network`` and ``program`` give G byte-equal to
        ``frozen_program`` over the sampled tiles: full and compacted
        layouts, partly filled edge tiles, all-zero and all-nonzero layers,
        n_states None, 2, 4 and 16, every device stuck on or stuck off, 5 %
        each, and std 0."""
        arch = [qnet.conv1d(kernels=5, kernel_h=3), qnet.linear(4)]
        rng = np.random.default_rng(4)
        full_codes = random_net("all-nonzero", arch, (2, 9), 4, zero_frac=0.0)
        for layer in full_codes.layers:
            codes = layer.weights.codes
            codes[codes == 0] = rng.choice([-7, 7], size=int((codes == 0).sum()))
        nets = [(fixture_net, (5, 8)), (random_conv2d_net(), (7, 10)),
                (random_net("all-zero", arch, (2, 9), 4, zero_frac=1.0), (6,)),
                (full_codes, (4, 9))]
        models = [DeviceModel(), DeviceModel(n_states=2), DeviceModel(n_states=4),
                  DeviceModel(n_states=16, p_stuck_on=0.05, p_stuck_off=0.05),
                  DeviceModel(p_stuck_on=1.0, p_stuck_off=0.0),
                  DeviceModel(p_stuck_on=0.0, p_stuck_off=1.0, n_states=16),
                  DeviceModel(r_on_std=0.0, r_off_std=0.0, p_stuck_on=0.05, p_stuck_off=0.05)]
        seen = set()
        for net, sizes in nets:
            for scheme in mapping.SCHEMES:
                for t in sizes:
                    try:
                        plans = mapping.network_plans(net, scheme, t)
                    except mapping.MappingError:
                        continue   # dense_kernel: kernel footprint exceeds t
                    for model in models:
                        hw = HardwareConfig(tile_size=t, device=model)
                        chash = xbar.config_hash(net, scheme, hw)
                        got = xbar.program_network(net, scheme, hw, 9, plans)
                        for li, (plan, g) in enumerate(zip(plans, got)):
                            weights = net.layers[li].weights
                            sampled = sample_devices(9, plan, model, chash, li)
                            want = frozen_program(sampled, plan, weights, model)
                            for mat in (g, program(sampled, plan, weights, model)):
                                assert (mat.dtype, mat.shape, mat.tobytes()) == \
                                    (want.dtype, want.shape, want.tobytes()), \
                                    (net.name, scheme, t, model, li)
                            seen.add("full" if plan.row_map is None else "compacted")
                            seen.add("all-zero" if not weights.codes.any() else
                                     "all-nonzero" if weights.codes.all() else "mixed")
                            seen.update("partial" for tp in plan.tiles
                                        if plan.codes[tile_slices(plan, tp)].shape
                                        != (t, t // 2))
        assert seen == {"full", "compacted", "all-zero", "all-nonzero", "mixed", "partial"}

    @pytest.mark.parametrize("scheme, full, tiles, split", [
        ("sparse_staggered", True, 64, False), ("dense_routed", False, 40, False),
        ("dense_kernel", False, 40, False), ("sparse_staggered", True, 64, True),
        ("dense_routed", False, 40, True)],
        ids=["sparse_staggered", "dense_routed", "dense_kernel", "sparse_staggered-split",
             "dense_routed-split"])
    def test_program_network_holds_no_sampled_population(self, scheme, full, tiles, split,
                                                         monkeypatch):
        """On a linear layer of 64 full or 40 compacted tiles, the traced
        peak of programming stays within 16 t x t float64 tiles: a tile or
        two of draws and the temporaries of a block, never the layer's
        sampled tiles (each of which holds over three tiles' worth of arrays)
        nor a physical matrix. G is not traced: it is one memory mapping of
        its own size. With the split forced, the parent's peak, the one
        traced, stays within the same bound."""
        t = 32
        net = random_net("streamed", [qnet.linear(64)], (1, 512), 0)
        plans = mapping.network_plans(net, scheme, t)
        assert (plans[0].row_map is None) == full and len(plans[0].tiles) == tiles
        hw = HardwareConfig(t, device=DeviceModel(n_states=16, p_stuck_on=0.05,
                                                  p_stuck_off=0.05))
        if split:
            force_split(monkeypatch, 2)
            assert len(xbar._row_blocks(plans[0], 2)) == 2
        xbar.program_network(net, scheme, hw, 0, plans)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            mats = xbar.program_network(net, scheme, hw, 0, plans)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 16 * t * t * 8
        for g, plan in zip(mats, plans):
            assert g.nbytes == plan.rows * 2 * plan.cols * 8
            base = g   # ndarray views, then np.frombuffer's memoryview of the mapping
            while not isinstance(base, mmap.mmap):
                base = base.obj if isinstance(base, memoryview) else base.base
            assert len(base) == g.nbytes

    def test_rejects_conductances_that_do_not_fit_the_plans(self, fixture_net, test_data):
        hw = HardwareConfig(tile_size=8)
        plans = mapping.network_plans(fixture_net, "sparse_staggered", 8)
        mats = xbar.program_network(fixture_net, "sparse_staggered", hw, 0, plans)
        batch = test_data.features[:8]
        for bad, match in (([mats[0].T, mats[1]], "layer 0"),
                           ([mats[0], mats[1][:, :-2]], "layer 1"),
                           (mats[:1], "1 conductance matrices")):
            with pytest.raises(ValueError, match=match):
                simulate_forward(fixture_net, plans, bad, batch, hw.io, hw.device)

    def test_rejects_plans_of_another_design_point(self, fixture_net, test_data):
        """The devices are keyed by the point's scheme and tile size, so plans
        of another point are refused, naming the first layer, whether or not
        the caller holds the conductances."""
        hw = HardwareConfig(tile_size=8)
        own = mapping.network_plans(fixture_net, "dense_kernel", 8)
        mats = xbar.program_network(fixture_net, "dense_kernel", hw, 0, own)
        for scheme, t in (("sparse_staggered", 16), ("sparse_staggered", 8),
                          ("dense_kernel", 16)):
            plans = mapping.network_plans(fixture_net, scheme, t)
            match = (f"layer 0: plan of scheme {scheme}, tile_size {t}, "
                     "for a point of scheme dense_kernel, tile_size 8")
            with pytest.raises(ValueError, match=match):
                xbar.program_network(fixture_net, "dense_kernel", hw, 0, plans)
            for conductances in (None, mats):
                with pytest.raises(ValueError, match=match):
                    evaluate_accuracy(fixture_net, "dense_kernel", hw, test_data, 0,
                                      plans=plans, conductances=conductances)
        with pytest.raises(ValueError, match="layer 1: plan of scheme sparse_staggered"):
            xbar.program_network(fixture_net, "dense_kernel", hw, 0,
                                 own[:1] + mapping.network_plans(fixture_net,
                                                                 "sparse_staggered", 8)[1:])

    @pytest.mark.parametrize("scheme", mapping.SCHEMES)
    def test_layer_matrix_read_matches_per_tile_reference(self, scheme, fixture_net,
                                                          test_data, monkeypatch):
        model = DeviceModel(p_stuck_on=0.05, p_stuck_off=0.05, n_states=16)
        io = IOConfig(batch_size=64)
        conv2d_net = random_conv2d_net()
        conv2d_batch = np.random.default_rng(6).normal(size=(32, 1, 6, 6))
        cases = [(fixture_net, 4, test_data.features[:64]),
                 (fixture_net, 8, test_data.features[:64]),
                 (conv2d_net, 10, conv2d_batch)]
        for net, t, batch in cases:
            plans = mapping.network_plans(net, scheme, t)
            sampled, mats = [], []
            for li, plan in enumerate(plans):
                cells = np.concatenate([tp.logical_rows * plan.cols + tp.logical_cols
                                        for tp in tile_cells(plan)])
                assert np.unique(cells).size == cells.size
                sampled.append(sample_devices(0, plan, model, "ref", li))
                mats.append(program(sampled[-1], plan, net.layers[li].weights, model))
                # the per-tile read takes the programmed tiles
                per_tile_program(sampled[-1], plan, net.layers[li].weights, model)
            logits = simulate_forward(net, plans, mats, batch, io, model)

            layer_of = {id(g): li for li, g in enumerate(mats)}
            reads = []

            def reference_read(v, g):
                li = layer_of[id(g)]
                reads.append(li)
                return per_tile_currents(plans[li], sampled[li], v)

            with monkeypatch.context() as patch:
                patch.setattr(xbar, "tile_vmm", reference_read)
                ref = simulate_forward(net, plans, mats, batch, io, model)
            assert reads == list(range(len(net.layers)))
            assert np.abs(logits - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("scheme", mapping.SCHEMES)
    def test_grouped_read_matches_per_group_reference(self, scheme, fixture_net,
                                                      test_data, monkeypatch):
        model = DeviceModel(p_stuck_on=0.05, p_stuck_off=0.05, n_states=16)
        arch = [qnet.conv1d(kernels=4, kernel_h=3), qnet.linear(4)]
        bs = 16
        batches = {"fixture": test_data.features[:5 * bs + 7].copy(),
                   "conv2d": np.random.default_rng(7).normal(size=(5 * bs + 7, 1, 6, 6))}
        for batch in batches.values():
            batch[2 * bs:3 * bs] = 0.0            # an all-zero group in the middle
        cases = [(fixture_net, 8, batches["fixture"]),
                 (random_conv2d_net(), 10, batches["conv2d"]),
                 (random_net("conv1d-zero", arch, (1, 16), 8, zero_frac=1.0), 8,
                  batches["fixture"])]
        chunk_elements = qnet._CONV_CHUNK_ELEMENTS
        for net, t, batch in cases:
            plans = mapping.network_plans(net, scheme, t)
            mats = [program(sample_devices(2, plan, model, "groups", li), plan,
                            net.layers[li].weights, model)
                    for li, plan in enumerate(plans)]
            per_sample = max(plan.reads_per_sample * 2 * plan.cols for plan in plans)
            calibrated = xbar.calibrate_adc_ranges(net, qnet.Dataset(
                batch, np.zeros(len(batch), dtype=np.int64), 4))
            inverted = [(0.25, -0.5)] * len(plans)   # hi <= lo: every ADC sample at lo
            groups = np.split(np.arange(len(batch)), range(bs, len(batch), bs))
            live = [bool(np.abs(batch[g]).max()) for g in groups]
            assert len(groups) == 6 and len(groups[-1]) == 7 and live.count(False) == 1
            weighted = sum(bool(layer.weights.codes.any()) for layer in net.layers)
            for bits, adc_ranges in ((None, None), (4, None), (4, calibrated),
                                     (6, calibrated), (6, inverted)):
                io = IOConfig(io_bit_width=bits, batch_size=bs)
                ref = per_group_forward(net, plans, mats, batch, io, model, adc_ranges)
                assert not ref[groups[2]].any()
                # default constant (one chunk), then 1, 2 and 4 groups per chunk
                for per_chunk in (None, 1, 2, 4):
                    elements = (chunk_elements if per_chunk is None
                                else per_chunk * bs * per_sample + bs * per_sample - 1)
                    step = max(1, elements // (bs * per_sample))
                    chunks = [live[c:c + step] for c in range(0, len(groups), step)]
                    assert per_chunk is None or step == per_chunk
                    reads = []

                    def counted_read(v, g, reads=reads):
                        reads.append(g)
                        return tile_vmm(v, g)

                    with monkeypatch.context() as patch:
                        patch.setattr(qnet, "_CONV_CHUNK_ELEMENTS", elements)
                        patch.setattr(xbar, "tile_vmm", counted_read)
                        logits = simulate_forward(net, plans, mats, batch, io, model,
                                                  adc_ranges)
                    assert np.array_equal(logits, ref), (net.name, bits, per_chunk)
                    assert len(reads) == weighted * sum(any(c) for c in chunks), \
                        (net.name, per_chunk)

    @pytest.mark.parametrize("scheme", mapping.SCHEMES)
    def test_encodes_each_live_group_at_its_own_scale(self, scheme, monkeypatch):
        """``simulate_forward`` hands ``encode_inputs`` every live scaling group
        at scale v_max / max|x| and never an all-zero group. Positive codes on
        non-negative inputs and ideal devices keep each non-zero group live
        at every layer."""
        bs, v_max = 16, 0.25
        io = IOConfig(io_bit_width=6, v_max=v_max, batch_size=bs)
        sizes = [bs] * 5 + [7]
        live = [True, True, False, False, True, True]
        rng = np.random.default_rng(9)
        nets = (([qnet.conv1d(kernels=4, kernel_h=3), qnet.linear(4)], (1, 16)),
                ([qnet.conv2d(3, 3, 3, padding=1), qnet.linear(4)], (1, 6, 6)))
        for arch, input_shape in nets:
            specs, _ = qnet.propagate_shapes(arch, input_shape)
            net = qnet.QuantizedNetwork("positive", 4, input_shape, [
                qnet.Layer(spec, qnet.WeightTensor(rng.integers(1, 8, spec.weight_shape()),
                                                   0.1, 4)) for spec in specs])
            batch = np.abs(rng.normal(size=(sum(sizes), *input_shape)))
            batch[2 * bs:4 * bs] = 0.0            # groups 2 and 3 all zero
            plans = mapping.network_plans(net, scheme, 10)
            mats = xbar.program_network(net, scheme, HardwareConfig(10, device=IDEAL_DEVICES),
                                        0, plans)
            per_sample = max(plan.reads_per_sample * 2 * plan.cols for plan in plans)
            # one chunk, then two groups per chunk: the middle chunk is all zero
            for per_chunk in (len(sizes), 2):
                calls = []

                def recording_encode(x, io, scale, calls=calls):
                    calls.append((np.array(x), np.broadcast_to(scale, (len(x), 1))[:, 0]))
                    return encode_inputs(x, io, scale)

                with monkeypatch.context() as patch:
                    patch.setattr(qnet, "_CONV_CHUNK_ELEMENTS", per_chunk * bs * per_sample)
                    patch.setattr(xbar, "encode_inputs", recording_encode)
                    simulate_forward(net, plans, mats, batch, io, IDEAL_DEVICES)
                encoded = []                      # live group sizes of each call
                for c in range(0, len(sizes), per_chunk):
                    chunk = [n for n, on in zip(sizes[c:c + per_chunk], live[c:c + per_chunk])
                             if on]
                    encoded += [chunk] * len(net.layers) if chunk else []
                assert len(calls) == len(encoded), (scheme, per_chunk)
                for (x, scale), group_sizes in zip(calls, encoded):
                    assert len(x) == sum(group_sizes)
                    for rows in np.split(np.arange(len(x)), np.cumsum(group_sizes)[:-1]):
                        peak = np.abs(x[rows]).max()
                        assert peak > 0 and np.all(scale[rows] == scale[rows[0]])
                        assert peak * scale[rows[0]] == pytest.approx(v_max, rel=1e-15)

    @pytest.mark.parametrize("scheme", ["dense_routed", "dense_kernel"])
    def test_sliding_last_layer_gives_contiguous_logits(self, scheme):
        """A network that ends in a sliding conv returns C-contiguous logits,
        one or several chunks at a time, equal to the ideal oracle's with
        ideal devices and I/O."""
        net = random_net("conv-tail", [qnet.conv2d(3, 3, 3, padding=1),
                                       qnet.conv2d(2, 2, 2, stride=2)], (2, 6, 6), 8)
        plans = mapping.network_plans(net, scheme, 32)
        assert all(plan.slides for plan in plans)
        mats = xbar.program_network(net, scheme, HardwareConfig(32, device=IDEAL_DEVICES),
                                    0, plans)
        batch = np.random.default_rng(8).normal(size=(40, 2, 6, 6))
        io = IOConfig(io_bit_width=16, batch_size=8)
        want = qnet.ideal_forward(net, batch)
        for groups_per_chunk in (5, 2):
            per_sample = max(plan.reads_per_sample * 2 * plan.cols for plan in plans)
            with mock.patch.object(qnet, "_CONV_CHUNK_ELEMENTS",
                                   groups_per_chunk * io.batch_size * per_sample):
                logits = simulate_forward(net, plans, mats, batch, io, IDEAL_DEVICES)
            assert logits.shape == want.shape and logits.flags.c_contiguous
            assert np.allclose(logits, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("scheme", mapping.SCHEMES)
    def test_window_indices_are_built_with_the_plans_only(self, scheme):
        """``LayerSpec.read_indices`` runs once per conv layer when the
        plans are built, and never while programming, calibrating or
        reading: a sliding read takes its plan's gather."""
        net = random_net("two-convs", [qnet.conv2d(3, 3, 3, padding=1),
                                       qnet.conv2d(2, 2, 2, stride=2), qnet.linear(4)],
                         (2, 6, 6), 9)
        batch = np.random.default_rng(9).normal(size=(40, 2, 6, 6))
        hw = HardwareConfig(32)
        with mock.patch.object(qnet.LayerSpec, "read_indices", autospec=True,
                               side_effect=qnet.LayerSpec.read_indices) as built:
            plans = mapping.network_plans(net, scheme, 32)
            assert built.call_count == 2
            mats = xbar.program_network(net, scheme, hw, 0, plans)
            ranges = xbar.calibrate_adc_ranges(net, qnet.Dataset(batch, np.zeros(40, int), 4))
            for io in (IOConfig(io_bit_width=6, batch_size=8), IOConfig(batch_size=8)):
                simulate_forward(net, plans, mats, batch, io, hw.device,
                                 ranges if io.quantizes else None)
        assert built.call_count == 2

    def test_same_seed_identical_logits(self, fixture_net, test_data):
        hw = HardwareConfig(tile_size=32, io=IOConfig(io_bit_width=8, batch_size=64))
        a = evaluate_accuracy(fixture_net, "sparse_staggered", hw, test_data, 7)
        b = evaluate_accuracy(fixture_net, "sparse_staggered", hw, test_data, 7)
        assert a == b

    def test_all_stuck_off_near_chance(self, fixture_net, test_data):
        """With every device stuck off, TSA is chance (1/4 classes) on
        average over device seeds: the mean of seeds 0-19 lies within 0.05
        of 0.25. One seed's TSA spreads about 0.03, so a single-seed bound
        fails on some seeds; the mean's spreads about 0.007."""
        model = DeviceModel(p_stuck_on=0.0, p_stuck_off=1.0)
        hw = HardwareConfig(tile_size=32, io=IOConfig(io_bit_width=8, batch_size=64),
                            device=model)
        tsa = [evaluate_accuracy(fixture_net, "sparse_staggered", hw, test_data, seed)
               for seed in range(20)]
        assert abs(np.mean(tsa) - 0.25) <= 0.05

    def test_permutation_invariance_logical_keying(self, linear_net, test_data):
        hw = HardwareConfig(tile_size=16, io=IOConfig(io_bit_width=None, batch_size=64))
        tsa = []
        for scheme in ("sparse_staggered", "dense_routed"):
            plans = mapping.network_plans(linear_net, scheme, hw.tile_size)
            mats = [program(logical_sample(0, plan, hw.device, li), plan,
                            linear_net.layers[li].weights, hw.device)
                    for li, plan in enumerate(plans)]
            tsa.append(evaluate_accuracy(linear_net, scheme, hw, test_data, 0,
                                         plans=plans, conductances=mats))
        assert tsa[0] == tsa[1]

    @pytest.mark.parametrize("scheme", mapping.SCHEMES)
    @pytest.mark.parametrize("bits", [None, 4, 6])
    def test_v_max_changes_no_result(self, scheme, bits, fixture_net, test_data):
        # the DAC step is a fixed fraction of v_max and the readout divides
        # the voltage scale back out, so v_max cancels up to rounding
        hw = HardwareConfig(tile_size=32)
        plans = mapping.network_plans(fixture_net, scheme, 32)
        mats = xbar.program_network(fixture_net, scheme, hw, 3, plans)
        ranges = xbar.calibrate_adc_ranges(fixture_net, test_data) if bits else None
        logits = [simulate_forward(fixture_net, plans, mats, test_data.features,
                                   IOConfig(io_bit_width=bits, v_max=v_max, batch_size=64),
                                   hw.device, ranges)
                  for v_max in (0.3, 0.2, 1.0, 0.05)]
        ref = logits[0]
        bound = 1e-12 * np.abs(ref).max(axis=1, keepdims=True)
        for got in logits[1:]:
            assert np.array_equal(np.argmax(got, axis=1), np.argmax(ref, axis=1))
            assert (np.abs(got - ref) <= bound).all()

    def test_batch_size_changes_scaling_groups(self, fixture_net, test_data):
        hw16 = HardwareConfig(tile_size=32, io=IOConfig(io_bit_width=4, batch_size=16))
        hw256 = HardwareConfig(tile_size=32, io=IOConfig(io_bit_width=4, batch_size=256))
        a = evaluate_accuracy(fixture_net, "sparse_staggered", hw16, test_data, 0)
        b = evaluate_accuracy(fixture_net, "sparse_staggered", hw256, test_data, 0)
        assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0

    def test_empty_dataset_rejected(self, fixture_net):
        empty = qnet.Dataset(np.zeros((0, 1, 16)), np.zeros(0, dtype=np.int64), 4)
        hw = HardwareConfig(tile_size=32)
        with pytest.raises(ValueError):
            evaluate_accuracy(fixture_net, "sparse_staggered", hw, empty, 0)


class TestSplitProgramming:
    """``program_network`` cuts a layer of at least ``_SPLIT_DEVICES`` devices
    into blocks of tile rows, one per CPU, and programs all but the first in
    forked children, straight into the shared G."""

    def test_program_network_bytes_pinned(self, monkeypatch):
        """Every G of a small conv2d network under all three schemes at t=8
        and t=32, with the default devices and with 5 %/5 % stuck and
        n_states 16, has its committed digest, whether or not its layers are
        split between 2 or 3 processes."""
        net = pinned_conv2d_net()
        models = {"default": DeviceModel(),
                  "stuck": DeviceModel(n_states=16, p_stuck_on=0.05, p_stuck_off=0.05)}
        for cpus in (None, 2, 3):
            with monkeypatch.context() as patch:
                forks = fork_spy(patch)
                if cpus:
                    force_split(patch, cpus)
                got = {}
                for scheme, t, name in itertools.product(mapping.SCHEMES, (8, 32), models):
                    hw = HardwareConfig(t, device=models[name])
                    mats = xbar.program_network(net, scheme, hw, 7,
                                                mapping.network_plans(net, scheme, t))
                    for li, g in enumerate(mats):
                        got[f"{scheme}/{t}/{name}/{li}"] = hashlib.sha256(g.tobytes()).hexdigest()
                assert got == PINNED_G_SHA256, f"cpus {cpus}"
                assert (len(forks) > 0) == bool(cpus)
        assert_no_children()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_split_equals_serial_and_reference(self, cpus, monkeypatch):
        """With the split forced, every layer's G equals the serial G and
        ``program(sample_devices(...))``."""
        arch = [qnet.conv1d(kernels=11, kernel_h=3), qnet.linear(5)]
        nets = [random_net("conv1d-random", arch, (1, 12), 8), random_conv2d_net(),
                random_net("conv1d-zero", arch, (1, 12), 8, zero_frac=1.0)]
        model = DeviceModel(p_stuck_on=0.05, p_stuck_off=0.05, n_states=16)
        for net, scheme, t in itertools.product(nets, mapping.SCHEMES, (5, 10)):
            hw = HardwareConfig(t, device=model)
            try:
                plans = mapping.network_plans(net, scheme, t)
            except mapping.MappingError:
                continue   # dense_kernel: kernel footprint exceeds t
            serial = xbar.program_network(net, scheme, hw, 5, plans)
            with monkeypatch.context() as patch:
                forks = fork_spy(patch)
                force_split(patch, cpus)
                split = xbar.program_network(net, scheme, hw, 5, plans)
                blocks = max(len(xbar._row_blocks(p, cpus)) for p in plans)
            assert len(forks) == blocks - 1
            chash = xbar.config_hash(net, scheme, hw)
            for li, (plan, a, b) in enumerate(zip(plans, serial, split)):
                ref = program(sample_devices(5, plan, model, chash, li), plan,
                              net.layers[li].weights, model)
                assert a.tobytes() == b.tobytes() == ref.tobytes(), (net.name, scheme, li)
        assert_no_children()

    def test_blocks_are_whole_tile_rows(self):
        """Blocks are contiguous runs of plan.tiles made of whole tile rows,
        of about equal tile counts: at most one per CPU and one per
        ``_SPLIT_DEVICES`` devices."""
        net = random_net("rows", [qnet.linear(200)], (1, 300), 0)
        plan = mapping.network_plans(net, "sparse_staggered", 8)[0]
        devices = len(plan.tiles) * 8 * 8
        assert xbar._row_blocks(plan, 64) == [plan.tiles]     # below _SPLIT_DEVICES
        with mock.patch.object(xbar, "_SPLIT_DEVICES", devices // 3):
            assert len(xbar._row_blocks(plan, 64)) == 3
            assert len(xbar._row_blocks(plan, 2)) == 2
            assert xbar._row_blocks(plan, 1) == [plan.tiles]
        with mock.patch.object(xbar, "_SPLIT_DEVICES", 1):
            for cpus in (2, 3, 7, 38, 1000):
                blocks = xbar._row_blocks(plan, cpus)
                assert [tp for block in blocks for tp in block] == plan.tiles
                rows = [{tp.tile_row for tp in block} for block in blocks]
                assert all(max(a) < min(b) for a, b in zip(rows, rows[1:]))
                assert len(blocks) == min(cpus, 38)             # 38 tile rows
                sizes = [len(block) for block in blocks]
                assert max(sizes) - min(sizes) <= 2 * 50     # two rows of 50 tiles

    def test_small_layers_never_fork(self, fixture_net, monkeypatch):
        """Neither the fixture network nor a layer of three t=128 tiles, the
        size of the bench conv_read network's largest, forks, even with 4 CPUs."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        forks = fork_spy(monkeypatch)
        for scheme in mapping.SCHEMES:
            for t in (8, 32):
                plans = mapping.network_plans(fixture_net, scheme, t)
                xbar.program_network(fixture_net, scheme, HardwareConfig(t), 0, plans)
        net = random_net("conv-read-sized", [qnet.linear(64)], (1, 384), 0, zero_frac=0.0)
        for scheme in mapping.SCHEMES:
            plans = mapping.network_plans(net, scheme, 128)
            assert len(plans[0].tiles) == 3
            xbar.program_network(net, scheme, HardwareConfig(128), 0, plans)
        assert forks == []

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_platform_without_fork_or_affinity_programs_in_process(self, missing,
                                                                   monkeypatch):
        net = pinned_conv2d_net()
        plans = mapping.network_plans(net, "sparse_staggered", 8)
        serial = xbar.program_network(net, "sparse_staggered", HardwareConfig(8), 0, plans)
        forks = fork_spy(monkeypatch)
        force_split(monkeypatch, 3)
        monkeypatch.delattr(os, missing)
        mats = xbar.program_network(net, "sparse_staggered", HardwareConfig(8), 0, plans)
        assert forks == []
        assert [g.tobytes() for g in mats] == [g.tobytes() for g in serial]

    def test_children_end_in_os_exit_writing_nothing(self, tmp_path, monkeypatch, capfd):
        """One fork per extra block of the largest split layer; each child
        ends in ``os._exit(0)``, prints nothing, and is reaped."""
        net = pinned_conv2d_net()
        plans = mapping.network_plans(net, "sparse_staggered", 8)
        exits, real_exit = tmp_path / "exits", os._exit

        def exit_spy(status):
            with open(exits, "a") as fh:
                fh.write(f"{status}\n")
            real_exit(status)

        monkeypatch.setattr(os, "_exit", exit_spy)
        forks = fork_spy(monkeypatch)
        force_split(monkeypatch, 3)
        xbar.program_network(net, "sparse_staggered", HardwareConfig(8), 0, plans)
        assert len(forks) == 2
        assert exits.read_text().split() == ["0", "0"]
        assert capfd.readouterr() == ("", "")
        assert_no_children()

    def test_failing_child_raises_naming_the_layer(self, monkeypatch, capfd):
        net = pinned_conv2d_net()
        plans = mapping.network_plans(net, "sparse_staggered", 8)
        parent, draws = os.getpid(), xbar._tile_draws

        def failing(seed, plan, model, cfg_hash, layer_index, tiles):
            if os.getpid() != parent and layer_index == 1:
                raise ValueError("a child's own failure")
            return draws(seed, plan, model, cfg_hash, layer_index, tiles)

        monkeypatch.setattr(xbar, "_tile_draws", failing)
        force_split(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="^layer 1: .* forked process failed"):
            xbar.program_network(net, "sparse_staggered", HardwareConfig(8), 0, plans)
        assert capfd.readouterr() == ("", "")
        assert_no_children()

    def test_parent_failure_kills_and_reaps_children(self, monkeypatch):
        """The parent's own exception propagates, once its children, which
        would otherwise run for a minute, are killed and reaped."""
        net = pinned_conv2d_net()
        plans = mapping.network_plans(net, "sparse_staggered", 8)
        parent = os.getpid()

        def failing(*args):
            if os.getpid() == parent:
                raise ValueError("the parent's own failure")
            time.sleep(60)

        monkeypatch.setattr(xbar, "_tile_draws", failing)
        forks = fork_spy(monkeypatch)
        force_split(monkeypatch, 3)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="the parent's own failure"):
            xbar.program_network(net, "sparse_staggered", HardwareConfig(8), 0, plans)
        assert len(forks) == 2 and time.perf_counter() - start < 30
        assert_no_children()

    def test_shape_errors_raised_before_any_fork(self, monkeypatch):
        net = pinned_conv2d_net()
        other = random_net("other", [qnet.conv2d(5, 2, 2, padding=1), qnet.linear(3)],
                           (2, 6, 6), 0)
        plans = mapping.network_plans(other, "sparse_staggered", 8)
        forks = fork_spy(monkeypatch)
        force_split(monkeypatch, 3)
        with pytest.raises(ValueError, match="^weight tensor does not match plan dimensions$"):
            xbar.program_network(net, "sparse_staggered", HardwareConfig(8), 0, plans)
        assert forks == []
