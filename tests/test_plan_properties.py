"""Property tests of the mapping plans on random conv1d/conv2d layers.

Hypothesis draws the geometry (stride, padding, dilation), the share of
zero codes and the tile size; ``derandomize`` fixes the examples, so the
tests are deterministic.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_mapping import plan_products, unroll_conv_staggered
from test_xbar import assert_same_tiles, per_tile_program
from xbardse import mapping, qnet, xbar

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=40)


@st.composite
def conv_nets(draw):
    """(network, tile size): one conv1d or conv2d layer, then linear(3), with
    each code zero with a drawn probability in [0, 1]."""
    two_d = draw(st.booleans())
    stride, padding, dilation = (draw(st.integers(1, 3)), draw(st.integers(0, 2)),
                                 draw(st.integers(1, 3)))
    kernel = [draw(st.integers(1, 3)) for _ in range(1 + two_d)]
    # inputs long enough for 1 to 4 output positions per axis
    extent = [max(1, (draw(st.integers(1, 4)) - 1) * stride + dilation * (k - 1) + 1
                  - 2 * padding + draw(st.integers(0, stride - 1))) for k in kernel]
    kernels = draw(st.integers(1, 4))
    conv = (qnet.conv2d(kernels, *kernel, stride=stride, padding=padding, dilation=dilation)
            if two_d else
            qnet.conv1d(kernels, *kernel, stride=stride, padding=padding, dilation=dilation))
    input_shape = (draw(st.integers(1, 3)), *extent)
    specs, _ = qnet.propagate_shapes([conv, qnet.linear(3)], input_shape)
    sparsity = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layers = []
    for spec in specs:
        codes = rng.integers(1, 8, size=spec.weight_shape()) * rng.choice((-1, 1),
                                                                         spec.weight_shape())
        codes[rng.random(codes.shape) < sparsity] = 0
        layers.append(qnet.Layer(spec, qnet.WeightTensor(codes, 0.1, 4)))
    net = qnet.QuantizedNetwork("property", 4, input_shape, layers)
    return net, draw(st.integers(2, 40))


def plans_or_none(net, scheme, t):
    """The network's plans, or None where dense_kernel's footprint exceeds t."""
    try:
        return mapping.network_plans(net, scheme, t)
    except mapping.MappingError as err:
        assert scheme == "dense_kernel" and "footprint" in str(err)
        return None


def brute_force_products(layer, scheme):
    """(input, output, weight id) products of one layer: the staggered ones
    from ``unroll_conv_staggered`` with weight id + 1 as the kernel, the dense
    ones from ``read_indices``; linear layers pair input m with output n."""
    codes = layer.weights.codes
    if layer.spec.kind == "linear":
        outs, ins = np.indices(codes.shape)
        kept = (codes != 0) | (scheme == "sparse_staggered")
        return set(zip(ins[kept].tolist(), outs[kept].tolist(),
                       np.flatnonzero(kept.ravel()).tolist()))
    geom = layer.spec
    k, p, f = geom.kernels, geom.out_positions, geom.footprint
    if scheme == "sparse_staggered":
        unrolled = unroll_conv_staggered(geom, np.arange(1, k * f + 1)).tocoo()
        return set(zip(unrolled.row.tolist(), unrolled.col.tolist(),
                       (unrolled.data.astype(np.int64) - 1).tolist()))
    idx = geom.read_indices()
    kflat = codes.reshape(k, f)
    return {(int(idx[pos, tap]), kern * p + pos, kern * f + tap)
            for kern in range(k) for pos in range(p) for tap in range(f)
            if scheme == "dense_kernel" or kflat[kern, tap] != 0}


@PROPERTY_SETTINGS
@given(conv_nets())
def test_plan_products_match_brute_force(case):
    """Each plan realizes the layer's products, and reads as its geometry
    and spec say: a conv's dense layouts slide, once per output position."""
    net, t = case
    for scheme in mapping.SCHEMES:
        plans = plans_or_none(net, scheme, t)
        for layer, plan in zip(net.layers, plans or []):
            slides = layer.spec.kind != "linear" and scheme != "sparse_staggered"
            reads = layer.spec.out_positions if slides else 1
            assert (plan.slides, plan.reads_per_sample, plan.out_shape) == \
                (slides, reads, layer.spec.out_shape)
            assert plan_products(plan, layer.spec, layer.weights) == \
                brute_force_products(layer, scheme)


@PROPERTY_SETTINGS
@given(conv_nets())
def test_analytic_cost_equals_plans_cost(case):
    net, t = case
    for scheme in mapping.SCHEMES:
        plans = plans_or_none(net, scheme, t)
        if plans is None:
            with pytest.raises(mapping.MappingError, match="footprint"):
                mapping.analytic_network_cost(net, scheme, t)
            continue
        assert mapping.analytic_network_cost(net, scheme, t) == \
            mapping.plans_cost(scheme, plans)[0]


@PROPERTY_SETTINGS
@given(conv_nets(), st.sampled_from([None, 16]))
def test_program_matches_per_tile_reference(case, n_states):
    net, t = case
    model = xbar.DeviceModel(p_stuck_on=0.05, p_stuck_off=0.05, n_states=n_states)
    for scheme in mapping.SCHEMES:
        for li, plan in enumerate(plans_or_none(net, scheme, t) or []):
            sampled = xbar.sample_devices(4, plan, model, "property", li)
            before = copy.deepcopy(sampled)
            g = xbar.program(sampled, plan, net.layers[li].weights, model)
            assert_same_tiles(sampled, before)
            ref = per_tile_program(before, plan, net.layers[li].weights, model)
            assert (g.dtype, g.shape, g.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())


@PROPERTY_SETTINGS
@given(conv_nets())
def test_noise_off_simulation_equals_ideal(case):
    """With std 0, no stuck devices and 16-bit I/O, every scheme's logits
    equal the ideal oracle's within 1e-6 of each sample's largest ideal
    |pre-activation| over all layers (at least 1e-12). Rounding acts on that
    scale: cancellation can leave a logit, or all logits of a sample, at
    a residue near 0 whose exact value is 0."""
    net, t = case
    hw = xbar.HardwareConfig(tile_size=t, io=xbar.IOConfig(io_bit_width=16),
                             device=xbar.DeviceModel(r_on_std=0.0, r_off_std=0.0,
                                                     p_stuck_on=0.0, p_stuck_off=0.0))
    x = np.random.default_rng(0).standard_normal((8, *net.input_shape))
    peaks = []
    ideal = qnet.ideal_forward(
        net, x, on_preact=lambda z: peaks.append(np.abs(z).reshape(len(x), -1).max(axis=1)))
    peak = np.max(peaks, axis=0)
    bound = 1e-6 * np.maximum(peak, 1e-12)[:, None]
    for scheme in mapping.SCHEMES:
        plans = plans_or_none(net, scheme, t)
        if plans is None:
            continue
        conductances = xbar.program_network(net, scheme, hw, 0, plans)
        logits = xbar.simulate_forward(net, plans, conductances, x, hw.io, hw.device)
        assert (np.abs(logits - ideal) <= bound).all(), scheme


@PROPERTY_SETTINGS
@given(conv_nets(), st.integers(1, 28))
def test_rule_decides_feasibility(case, t):
    """The feasibility rule finds no problem exactly when every plan builds
    and the analytic cost is given, at tile sizes from 1 past the largest
    footprint: a caller the rule has passed gets no ``MappingError``."""
    net, _ = case
    for scheme in mapping.SCHEMES:
        failed = []
        for build in (mapping.network_plans, mapping.analytic_network_cost):
            try:
                build(net, scheme, t)
            except mapping.MappingError:
                failed.append(build.__name__)
        problems = [line for layer in net.layers
                    for line in mapping.layer_problems(layer.spec, scheme, t)]
        expected = ["network_plans", "analytic_network_cost"] if problems else []
        assert failed == expected, (scheme, t)
