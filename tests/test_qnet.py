import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from xbardse import qnet
from xbardse.qnet import (
    Dataset,
    NetworkFormatError,
    QuantizedNetwork,
    WeightTensor,
    generate_synthetic_dataset,
    ideal_forward,
    load_dataset,
    load_network,
    out_extent,
    propagate_shapes,
    quantize_weights,
    save_dataset,
    save_network,
    sparsity,
    train_fixture,
)


class TestQuantize:
    def test_worked_example(self):
        wt = quantize_weights(np.array([-1.0, 0.0, 0.5]), 4)
        assert wt.codes.tolist() == [-7, 0, 4]
        assert wt.scale == pytest.approx(1 / 7)

    def test_all_zero(self):
        wt = quantize_weights(np.zeros((3, 3)), 8)
        assert wt.scale == 1.0
        assert not wt.codes.any()

    def test_max_element_hits_top_code(self):
        wt = quantize_weights(np.array([3.0]), 6)
        assert wt.codes.tolist() == [31]
        assert wt.scale == pytest.approx(3 / 31)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            quantize_weights(np.array([]), 4)
        with pytest.raises(ValueError):
            quantize_weights(np.array([1.0, np.nan]), 4)
        with pytest.raises(ValueError):
            quantize_weights(np.array([1.0]), 5)

    def test_idempotence(self):
        rng = np.random.default_rng(0)
        for b in (4, 6, 8):
            for _ in range(20):
                v = rng.normal(size=rng.integers(1, 40))
                wt = quantize_weights(v, b)
                again = quantize_weights(wt.dequantized(), b)
                assert np.array_equal(wt.codes, again.codes)

    def test_error_bound_half_scale(self):
        rng = np.random.default_rng(1)
        for b in (4, 6, 8):
            for _ in range(20):
                v = rng.normal(size=30)
                wt = quantize_weights(v, b)
                err = np.abs(wt.dequantized() - v)
                assert np.all(err <= wt.scale / 2 * (1 + 1e-9))

    def test_codes_within_range(self):
        rng = np.random.default_rng(2)
        for b in (4, 6, 8):
            wt = quantize_weights(rng.normal(size=100), b)
            assert np.abs(wt.codes).max() <= 2 ** (b - 1) - 1

    def test_round_half_away_matches_sign_floor_reference(self):
        rng = np.random.default_rng(3)
        halves = np.arange(-40, 41) / 2
        near_halves = np.concatenate([np.nextafter(halves, np.inf),
                                      np.nextafter(halves, -np.inf)])
        big = np.array([2.0 ** 52 - 0.5, 2.0 ** 52 + 1, 2.0 ** 53, 2.0 ** 53 + 2,
                        np.finfo(float).max, np.finfo(float).tiny, 5e-324,
                        0.49999999999999994, np.inf])
        x = np.concatenate([rng.normal(scale=s, size=2000) for s in (0.3, 7.0, 1e9)]
                           + [halves, near_halves, big, -big, [0.0, -0.0]])
        want = np.sign(x) * np.floor(np.abs(x) + 0.5)
        got = qnet._round_half_away(x)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        negative_zero = (x == 0) & np.signbit(x)
        assert negative_zero.sum() == 1
        assert got[~negative_zero].tobytes() == want[~negative_zero].tobytes()
        assert np.signbit(got[negative_zero]).all()

    def test_round_half_away_in_place_matches_allocating_and_copysign_forms(self):
        """With ``out``, itself or another buffer, the rounding writes the
        bytes of the allocating form and of the sign-copying formula, -0.0
        included, and ``out=x`` returns ``x``."""
        halves = np.arange(-6, 7) + 0.5
        x = np.concatenate([[0.0, -0.0, 0.49999999999999994, -0.49999999999999994,
                             2.0 ** 52 - 0.5, 2.0 ** 52 + 0.5, -(2.0 ** 52 - 0.5),
                             -(2.0 ** 52 + 0.5), 1e300, -1e300, 129.5, -129.5],
                            halves, np.nextafter(halves, 0.0),
                            np.random.default_rng(4).normal(scale=200.0, size=500)])
        want = copysign_round(x)
        assert qnet._round_half_away(x).tobytes() == want.tobytes()
        out = np.full_like(x, np.nan)
        got = qnet._round_half_away(x, out=out)
        assert got is out and got.tobytes() == want.tobytes()
        buf = x.copy()
        got = qnet._round_half_away(buf, out=buf)
        assert got is buf and got.tobytes() == want.tobytes()
        assert np.signbit(got[1]) and not np.signbit(got[0])


class TestWeightValidation:
    def one_layer_net(self, codes):
        spec, = propagate_shapes([qnet.linear(1)], (2,))[0]
        return QuantizedNetwork("v", 4, (2,), [qnet.Layer(spec, WeightTensor(codes, 1.0, 4))])

    @pytest.mark.parametrize("bad, message", [(np.nan, "finite"), (np.inf, "finite"),
                                              (-np.inf, "finite"), (0.5, "integers"),
                                              (8.0, "range"), (-8, "range")],
                             ids=["nan", "inf", "-inf", "half", "above_range", "below_range"])
    def test_rejects_codes_that_are_not_in_range_integers(self, bad, message):
        codes = np.array([[bad, 1.0]])
        with pytest.raises(ValueError, match=message):
            WeightTensor(codes, 1.0, 4).validate()
        with pytest.raises(NetworkFormatError, match=rf"layers\[0\]: .*{message}"):
            self.one_layer_net(codes).validate()

    @pytest.mark.parametrize("codes", [np.array([[7.0, -7.0]]), np.array([[3, 0]], np.int16),
                                       np.array([[-0.0, 1.0]]), np.zeros((1, 2), bool)],
                             ids=["float", "int16", "negative_zero", "bool"])
    def test_accepts_integral_codes_of_any_numeric_dtype(self, codes):
        WeightTensor(codes, 1.0, 4).validate()
        self.one_layer_net(codes).validate()

    def test_rejects_non_numeric_codes(self):
        with pytest.raises(ValueError, match="numbers"):
            WeightTensor(np.array([["1", "2"]]), 1.0, 4).validate()


class TestSparsity:
    def test_direct_count(self):
        wt = WeightTensor(np.array([[0, 0, 3, -2]]), 1.0, 4)
        spec, = propagate_shapes([qnet.linear(1)], (4,))[0]
        net = QuantizedNetwork("t", 4, (4,), [qnet.Layer(spec, wt)])
        assert sparsity(net) == (2, 0.5)

    def test_all_zero_network(self):
        wt = WeightTensor(np.zeros((2, 5), dtype=np.int64), 1.0, 4)
        spec, = propagate_shapes([qnet.linear(2)], (5,))[0]
        net = QuantizedNetwork("t", 4, (5,), [qnet.Layer(spec, wt)])
        assert sparsity(net) == (10, 1.0)

    def test_matches_brute_force(self, fixture_net):
        zeros, frac = sparsity(fixture_net)
        brute = sum(int((layer.weights.codes == 0).sum()) for layer in fixture_net.layers)
        assert zeros == brute
        assert 0.0 <= frac <= 1.0

    def test_l1_increases_sparsity(self, train_data, fixture_arch):
        lo = train_fixture(0, fixture_arch, train_data, l1=0.0)
        hi = train_fixture(0, fixture_arch, train_data, l1=0.05)
        assert sparsity(hi)[0] >= sparsity(lo)[0]
        assert sparsity(hi)[0] > 0


class TestIdealForward:
    def test_identity_linear(self):
        spec, = propagate_shapes([qnet.linear(2)], (2,))[0]
        wt = quantize_weights(np.eye(2), 8)
        net = QuantizedNetwork("id", 8, (2,), [qnet.Layer(spec, wt)])
        out = ideal_forward(net, np.array([[1.0, 2.0]]))
        assert np.allclose(out, [[1.0, 2.0]])
        assert spec.out_shape == out.shape[1:] == (2,)

    def test_hand_convolution(self):
        spec, = propagate_shapes([qnet.conv1d(kernels=1, kernel_h=3)], (1, 5))[0]
        wt = WeightTensor(np.ones((1, 1, 3), dtype=np.int64), 1.0, 4)
        net = QuantizedNetwork("c", 4, (1, 5), [qnet.Layer(spec, wt)])
        out = ideal_forward(net, np.array([[[1.0, 2, 3, 4, 5]]]))
        assert np.allclose(out.ravel(), [6, 9, 12])

    def test_zero_input_zero_logits(self, fixture_net):
        out = ideal_forward(fixture_net, np.zeros((3, *fixture_net.input_shape)))
        assert np.allclose(out, 0.0)

    def test_shape_mismatch(self, fixture_net):
        with pytest.raises(ValueError):
            ideal_forward(fixture_net, np.zeros((1, 2, 2)))

    def test_output_extent_matches_sliding_window_count(self):
        # >= 200 randomized geometries against a brute-force position count
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 200:
            x = int(rng.integers(1, 20))
            h = int(rng.integers(1, 6))
            s = int(rng.integers(1, 4))
            p = int(rng.integers(0, 3))
            d = int(rng.integers(1, 3))
            brute = sum(1 for o in range(x + 2 * p)
                        if o * s + d * (h - 1) < x + 2 * p)
            try:
                got = out_extent(x, h, s, p, d)
            except ValueError:
                assert brute == 0
                continue
            assert got == brute
            checked += 1

    def test_conv_matches_nested_loop_reference(self, monkeypatch):
        # the oracle must not borrow the simulator's gather
        def gather_used(self):
            raise AssertionError("ideal_forward used LayerSpec.read_indices")
        monkeypatch.setattr(qnet.LayerSpec, "read_indices", gather_used)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 60:
            one_d = checked % 2 == 0
            h = int(rng.integers(1, 4))
            w = 1 if one_d else int(rng.integers(1, 4))
            s, p, d = int(rng.integers(1, 4)), int(rng.integers(0, 3)), int(rng.integers(1, 3))
            channels = int(rng.integers(2, 4))
            kernels = int(rng.integers(1, 5))
            if one_d:
                spec = qnet.conv1d(kernels, h, s, p, d)
                shape = (channels, int(rng.integers(1, 12)))
            else:
                spec = qnet.conv2d(kernels, h, w, s, p, d)
                shape = (channels, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            try:
                (spec,), out_shape = propagate_shapes([spec], shape)
            except ValueError:
                continue
            wt = quantize_weights(rng.normal(size=spec.weight_shape()), 8)
            net = QuantizedNetwork("c", 8, shape, [qnet.Layer(spec, wt)])
            # chunks of `chunk` samples; n covers one partial, one exact and
            # two full chunks plus a remainder
            chunk = int(rng.integers(2, 5))
            per_sample = channels * h * w * int(np.prod(out_shape[1:]))
            monkeypatch.setattr(qnet, "_CONV_CHUNK_ELEMENTS", chunk * per_sample + per_sample - 1)
            for n in (1, chunk, 2 * chunk + int(rng.integers(1, chunk))):
                x = rng.normal(size=(n, *shape))
                want = nested_loop_conv(spec, wt.dequantized(), x)
                got = ideal_forward(net, x)
                assert got.shape == want.shape
                assert spec.out_shape == got.shape[1:] == out_shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            checked += 1

    def test_on_preact_sees_each_layer_before_the_relu(self, fixture_net, test_data):
        """The callback gets each layer's pre-activations once, in order, equal
        to the logits of the network cut after that layer; the logits do not
        depend on whether a callback is given."""
        x = test_data.features[:32]
        seen = []
        logits = ideal_forward(fixture_net, x, on_preact=lambda z: seen.append(z.copy()))
        assert len(seen) == len(fixture_net.layers)
        for i, z in enumerate(seen):
            cut = QuantizedNetwork("cut", fixture_net.bit_width, fixture_net.input_shape,
                                   fixture_net.layers[:i + 1])
            want = ideal_forward(cut, x)
            assert (z.dtype, z.shape, z.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert (seen[0] < 0).any()      # a ReLU had something to clip
        plain = ideal_forward(fixture_net, x)
        assert logits.tobytes() == plain.tobytes() == seen[-1].tobytes()

    def test_conv_crosses_the_default_chunk(self):
        (spec,), _ = propagate_shapes([qnet.conv2d(5, 3, 3, padding=1)], (2, 12, 12))
        step = qnet._CONV_CHUNK_ELEMENTS // (2 * 12 * 12 * 9)
        rng = np.random.default_rng(12)
        wt = quantize_weights(rng.normal(size=spec.weight_shape()), 8)
        net = QuantizedNetwork("c", 8, (2, 12, 12), [qnet.Layer(spec, wt)])
        x = rng.normal(size=(2 * step + 7, 2, 12, 12))
        want = nested_loop_conv(spec, wt.dequantized(), x)
        assert np.abs(ideal_forward(net, x) - want).max() <= 1e-12 * np.abs(want).max()


def copysign_round(x):
    """Halves away from zero as floor(|x| + 0.5) with x's sign copied back:
    the formula ``qnet._round_half_away`` must match byte for byte."""
    y = np.asarray(np.abs(x), dtype=float)
    y += 0.5
    np.floor(y, out=y)
    return np.copysign(y, x, out=y)


def tensordot_conv(spec, w, x):
    """The oracle's convolution as ``np.tensordot`` over a strided window view,
    in chunks of at most ``qnet._CONV_CHUNK_ELEMENTS`` window elements: the
    products ``qnet._conv_forward`` must reproduce byte for byte."""
    p, s, d = spec.padding, spec.stride, spec.dilation
    xp = np.pad(x, [(0, 0), (0, 0)] + [(p, p)] * (x.ndim - 2))
    if spec.kind == "conv1d":
        span = d * (spec.kernel_h - 1) + 1
        win = sliding_window_view(xp, span, axis=2)[:, :, ::s, ::d]
        spatial, axes = win.shape[2:3], ([1, 3], [1, 2])
    else:
        spans = (d * (spec.kernel_h - 1) + 1, d * (spec.kernel_w - 1) + 1)
        win = sliding_window_view(xp, spans, axis=(2, 3))[:, :, ::s, ::s, ::d, ::d]
        spatial, axes = win.shape[2:4], ([1, 4, 5], [1, 2, 3])
    out = np.empty((len(x), w.shape[0], *spatial))
    step = max(1, qnet._CONV_CHUNK_ELEMENTS // math.prod(win.shape[1:]))
    for start in range(0, len(x), step):
        chunk = slice(start, start + step)
        out[chunk] = np.moveaxis(np.tensordot(win[chunk], w, axes=axes), -1, 1)
    return out


@st.composite
def conv_layers(draw):
    """(spec, input shape): one conv1d or conv2d layer with drawn stride,
    padding, dilation, kernel and 1 to 4 channels, 1 to 5 outputs per axis."""
    two_d = draw(st.booleans())
    s, p, d = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 3))
    kernel = [draw(st.integers(1, 3)) for _ in range(1 + two_d)]
    extent = [max(1, (draw(st.integers(1, 5)) - 1) * s + d * (k - 1) + 1 - 2 * p
                  + draw(st.integers(0, s - 1))) for k in kernel]
    kernels = draw(st.integers(1, 5))
    spec = (qnet.conv2d(kernels, *kernel, stride=s, padding=p, dilation=d) if two_d
            else qnet.conv1d(kernels, *kernel, stride=s, padding=p, dilation=d))
    shape = (draw(st.integers(1, 4)), *extent)
    (spec,), _ = propagate_shapes([spec], shape)
    return spec, shape


class TestConvForwardProducts:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(layer=conv_layers(), chunks=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_the_tensordot_reference_byte_for_byte(self, layer, chunks, seed):
        """Chunks of 1 to 3 samples and a batch that spans ``chunks`` of them
        plus a remainder; the oracle never asks ``read_indices``."""
        spec, shape = layer
        rng = np.random.default_rng(seed)
        w = quantize_weights(rng.normal(size=spec.weight_shape()), 8).dequantized()
        per_sample = spec.out_positions * spec.footprint
        per_chunk = int(rng.integers(1, 4))
        x = rng.normal(size=(chunks * per_chunk + int(rng.integers(0, per_chunk)), *shape))
        with mock.patch.object(qnet, "_CONV_CHUNK_ELEMENTS", per_chunk * per_sample), \
                mock.patch.object(qnet.LayerSpec, "read_indices",
                                  side_effect=AssertionError("oracle used read_indices")):
            want = tensordot_conv(spec, w, x)
            got = qnet._conv_forward(spec, w, x)
        assert (got.dtype, got.shape, got.flags.c_contiguous) == (want.dtype, want.shape, True)
        assert got.tobytes() == want.tobytes()


def nested_loop_conv(spec, w, x):
    """Convolution by explicit loops over outputs and kernel taps, skipping
    taps that fall into the padding; vectorized only over samples and kernels."""
    if spec.kind == "conv1d":
        w, x = w[..., None], x[..., None]
    n, c, in_x, in_y = x.shape
    s, p, d = spec.stride, spec.padding, spec.dilation
    pad_y = 0 if spec.kind == "conv1d" else p
    out_x = out_extent(in_x, spec.kernel_h, s, p, d)
    out_y = 1 if spec.kind == "conv1d" else out_extent(in_y, spec.kernel_w, s, p, d)
    z = np.zeros((n, w.shape[0], out_x, out_y))
    for ox in range(out_x):
        for oy in range(out_y):
            for ch in range(c):
                for i in range(w.shape[2]):
                    for j in range(w.shape[3]):
                        ix = ox * s + i * d - p
                        iy = oy * s + j * d - pad_y
                        if 0 <= ix < in_x and 0 <= iy < in_y:
                            z[:, :, ox, oy] += x[:, ch, ix, iy][:, None] * w[None, :, ch, i, j]
    return z[..., 0] if spec.kind == "conv1d" else z


class TestFixtureTraining:
    def test_deterministic(self, train_data, fixture_arch):
        a = train_fixture(0, fixture_arch, train_data, l1=5e-4)
        b = train_fixture(0, fixture_arch, train_data, l1=5e-4)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights.codes, lb.weights.codes)
            assert la.weights.scale == lb.weights.scale

    def test_builds_each_conv_layers_windows_once(self):
        """A training run builds each conv layer's window indices once, and
        every step's forward and backward pass gathers with them."""
        data = generate_synthetic_dataset(3, 40, 3, (2, 9))
        arch = [qnet.conv1d(2, 3, padding=1), qnet.conv1d(2, 2, stride=2), qnet.linear(3)]
        with mock.patch.object(qnet.LayerSpec, "read_indices", autospec=True,
                               side_effect=qnet.LayerSpec.read_indices) as built:
            train_fixture(0, arch, data, l1=5e-4)
        assert built.call_count == 2

    def test_accuracy_gate(self, fixture_net, test_data):
        assert qnet.accuracy(fixture_net, test_data) >= 0.90

    def test_conv_gradients_match_finite_differences(self):
        """Backprop equals central differences on a conv1d -> linear stack and
        on conv -> conv -> linear stacks of each kind, whose second conv layer
        (padding 1, stride 2, dilation 2) sends its gradient back through the
        crop of its padded input."""
        rng = np.random.default_rng(4)
        stacks = [((1, 7), [qnet.conv1d(kernels=2, kernel_h=3), qnet.linear(3)]),
                  ((2, 9), [qnet.conv1d(2, 3, padding=1),
                            qnet.conv1d(2, 2, stride=2, padding=1, dilation=2), qnet.linear(3)]),
                  ((2, 7, 6), [qnet.conv2d(2, 3, 2, padding=1),
                               qnet.conv2d(2, 2, 3, stride=2, padding=1, dilation=2),
                               qnet.linear(3)])]
        for shape, arch in stacks:
            data = generate_synthetic_dataset(5, 24, 3, shape)
            specs, _ = propagate_shapes(arch, data.feature_shape)
            weights = [rng.normal(size=s.weight_shape()) for s in specs]
            gathers = [None if s.kind == "linear" else s.read_indices() for s in specs]
            x, y = data.features, data.labels

            def loss_of(ws):
                logits, _ = qnet._forward_cache(specs, ws, gathers, x)
                loss, _ = qnet._softmax_grad(logits, y)
                return loss

            logits, cache = qnet._forward_cache(specs, weights, gathers, x)
            _, dlogits = qnet._softmax_grad(logits, y)
            grads = qnet._backward(specs, weights, gathers, cache, dlogits)
            eps = 1e-6
            for li in range(len(weights)):
                flat = weights[li].ravel()
                for idx in rng.choice(flat.size, size=5, replace=False):
                    saved = flat[idx]
                    flat[idx] = saved + eps
                    up = loss_of(weights)
                    flat[idx] = saved - eps
                    down = loss_of(weights)
                    flat[idx] = saved
                    fd = (up - down) / (2 * eps)
                    assert grads[li].ravel()[idx] == pytest.approx(fd, abs=1e-5), (shape, li)

    def test_rejects_noncomposing_arch(self, train_data):
        arch = [qnet.conv1d(kernels=2, kernel_h=3), qnet.linear(3)]  # 3 != 4 classes
        with pytest.raises(ValueError):
            train_fixture(0, arch, train_data, l1=0.0)
        arch = [qnet.conv1d(kernels=2, kernel_h=3), replace(qnet.linear(4), padding=1)]
        with pytest.raises(ValueError, match=r"layers\[1\]: linear layer takes no padding"):
            train_fixture(0, arch, train_data, l1=0.0)


class TestSyntheticDataset:
    def test_deterministic(self):
        a = generate_synthetic_dataset(0, 50, 4, (8,))
        b = generate_synthetic_dataset(0, 50, 4, (8,))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_balanced(self):
        data = generate_synthetic_dataset(0, 100, 4, (8,))
        assert np.bincount(data.labels).tolist() == [25, 25, 25, 25]

    def test_nearest_mean_beats_chance(self):
        data = generate_synthetic_dataset(2, 200, 4, (8,))
        means = qnet.class_means(4, (8,))
        flat = data.features.reshape(len(data), -1)
        dists = ((flat[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        acc = np.mean(np.argmin(dists, axis=1) == data.labels)
        assert acc > 0.25

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            generate_synthetic_dataset(0, 1, 2, (4,))
        with pytest.raises(ValueError):
            generate_synthetic_dataset(0, 10, 1, (4,))


class TestFileFormats:
    def test_network_round_trip(self, fixture_net, tmp_path):
        path = tmp_path / "net.json"
        save_network(fixture_net, path)
        loaded = load_network(path)
        assert loaded.name == fixture_net.name
        assert loaded.bit_width == fixture_net.bit_width
        assert loaded.input_shape == fixture_net.input_shape
        for la, lb in zip(loaded.layers, fixture_net.layers):
            assert np.array_equal(la.weights.codes, lb.weights.codes)
            assert la.weights.scale == lb.weights.scale
            assert la.spec == lb.spec

    def test_out_of_range_code_names_layer(self, fixture_net, tmp_path):
        import json
        path = tmp_path / "net.json"
        save_network(fixture_net, path)
        doc = json.loads(path.read_text())
        doc["layers"][1]["codes"][0] = 1000  # beyond 8-bit symmetric range
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError, match=r"layers\[1\]"):
            load_network(path)

    def test_missing_scale_is_parse_error(self, fixture_net, tmp_path):
        import json
        path = tmp_path / "net.json"
        save_network(fixture_net, path)
        doc = json.loads(path.read_text())
        del doc["layers"][0]["scale"]
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError, match="scale"):
            load_network(path)

    @pytest.mark.parametrize("scale", [True, math.nan, math.inf, -math.inf, 0, -1, 10 ** 400])
    def test_bad_scale_is_parse_error(self, fixture_net, tmp_path, scale):
        """JSON true, NaN and +-Infinity, which Python's json reads, are no
        scale; nor is a number <= 0 or an integer too large for a float.
        ``WeightTensor.validate`` refuses the numbers too."""
        import json
        path = tmp_path / "net.json"
        save_network(fixture_net, path)
        doc = json.loads(path.read_text())
        doc["layers"][0]["scale"] = scale
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError, match=r"layers\[0\]\.scale"):
            load_network(path)
        if not isinstance(scale, bool):
            with pytest.raises(ValueError, match="scale must be > 0 and finite"):
                replace(fixture_net.layers[0].weights, scale=scale).validate()

    @pytest.mark.parametrize("field, value, message", [
        ("dilation", 0, "dilation must be >= 1, got 0"),
        ("stride", 0, "stride must be >= 1, got 0"),
        ("padding", -1, "padding must be >= 0, got -1")])
    def test_bad_conv_geometry_names_layer(self, fixture_net, tmp_path, field, value,
                                           message):
        import json
        path = tmp_path / "net.json"
        save_network(fixture_net, path)
        doc = json.loads(path.read_text())
        doc["layers"][0][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError, match=rf"layers\[0\]: {message}"):
            load_network(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["layers"][1].update(codes=[c + 0.4 for c in doc["layers"][1]["codes"]]),
         r"layers\[1\]\.codes: must be JSON integers"),
        (lambda doc: doc["layers"][1].update(codes=[float(c) for c in doc["layers"][1]["codes"]]),
         r"layers\[1\]\.codes: must be JSON integers"),
        (lambda doc: doc["layers"][0].update(kernel_h=3.7),
         r"layers\[0\]\.kernel_h: must be an integer, got 3\.7"),
        (lambda doc: doc["layers"][0].update(stride=True),
         r"layers\[0\]\.stride: must be an integer, got True"),
        (lambda doc: doc["layers"][1].update(out_features="4"),
         r"layers\[1\]\.out_features: must be an integer, got '4'"),
        (lambda doc: doc.update(input_shape=16),
         r"input_shape: must be a list of integers, got 16"),
        (lambda doc: doc.update(input_shape=[1, 16.0]),
         r"input_shape: must be a list of integers, got \[1, 16\.0\]"),
        (lambda doc: doc.update(format_version=True), r"unsupported format_version True"),
        (lambda doc: doc["layers"][1].update(codes=[True] + doc["layers"][1]["codes"][1:]),
         r"layers\[1\]\.codes: must be JSON integers in one flat list"),
        (lambda doc: doc["layers"][0].update(codes=[doc["layers"][0]["codes"][:5],
                                                    doc["layers"][0]["codes"][5:]]),
         r"layers\[0\]\.codes: must be JSON integers in one flat list"),
        (lambda doc: doc["layers"][0].update(codes=7),
         r"layers\[0\]\.codes: must be JSON integers in one flat list"),
        (lambda doc: doc["layers"][0].update(codes=[2 ** 70] + doc["layers"][0]["codes"][1:]),
         r"layers\[0\]\.codes: codes exceed 8-bit symmetric range"),
    ], ids=["fractional-codes", "float-codes", "float-kernel_h", "bool-stride",
            "string-out_features", "int-input_shape", "float-input_shape-entry",
            "bool-format_version", "bool-code", "ragged-codes", "scalar-codes",
            "int64-overflow-code"])
    def test_non_integer_fields_rejected(self, fixture_net, tmp_path, edit, message):
        """Nothing is truncated or coerced: a non-integer where the format
        has integers is a NetworkFormatError naming the field."""
        import json
        path = tmp_path / "net.json"
        save_network(fixture_net, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError, match=message):
            load_network(path)

    @pytest.mark.parametrize("input_shape, spec, codes", [
        ((), qnet.LayerSpec("linear", in_features=1, out_features=2), np.ones((2, 1), np.int64)),
        ((0, 16), qnet.LayerSpec("conv1d", in_channels=0, kernels=2, kernel_h=3),
         np.zeros((2, 0, 3), np.int64)),
    ], ids=["no-extent", "zero-channels"])
    def test_save_refuses_what_load_refuses_for_input_shape(self, tmp_path, input_shape, spec,
                                                            codes):
        """The input_shape rule has one owner, ``QuantizedNetwork.problems``:
        a network that ``load_network`` would refuse is not written."""
        net = QuantizedNetwork("flat", 4, input_shape,
                               [qnet.Layer(spec, WeightTensor(codes, 1.0, 4))])
        path = tmp_path / "net.json"
        with pytest.raises(NetworkFormatError) as err:
            save_network(net, path)
        assert str(err.value) == \
            f"input_shape: needs one or more extents, each >= 1, got {list(input_shape)}"
        assert not path.exists()

    def test_bad_bit_width_and_input_shape_listed_together(self, fixture_net, tmp_path):
        """The input_shape rule is the network's, and still listed when
        bit_width, which the network's other rules need, did not parse."""
        import json
        path = tmp_path / "net.json"
        save_network(fixture_net, path)
        doc = json.loads(path.read_text())
        doc.update(bit_width=5, input_shape=[])
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError) as err:
            load_network(path)
        assert str(err.value).splitlines() == [
            "bit_width: must be one of (4, 6, 8)",
            "input_shape: needs one or more extents, each >= 1, got []"]

    def test_network_without_layers_has_the_loaders_line(self, fixture_net, tmp_path):
        """A network built in code without layers is refused with the line the
        loader gives a file without layers, once, and after an input_shape
        problem; the file's line is not listed twice."""
        import json
        line = "layers: must be a non-empty list, got []"
        assert QuantizedNetwork("empty", 8, (1, 16), []).problems() == [line]
        assert QuantizedNetwork("empty", 8, (0, 16), []).problems() == [
            "input_shape: needs one or more extents, each >= 1, got [0, 16]", line]
        with pytest.raises(NetworkFormatError) as err:
            save_network(QuantizedNetwork("empty", 8, (1, 16), []), tmp_path / "empty.json")
        assert str(err.value) == line
        path = tmp_path / "net.json"
        save_network(fixture_net, path)
        doc = json.loads(path.read_text())
        doc["layers"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError) as err:
            load_network(path)
        assert str(err.value).splitlines() == [line]

    def test_dataset_round_trip(self, test_data, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(test_data, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, test_data.features)
        assert np.array_equal(loaded.labels, test_data.labels)
        assert loaded.class_count == test_data.class_count

    def test_dataset_bad_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,f0\n0,1.0\n")
        with pytest.raises(NetworkFormatError):
            load_dataset(path)

    def test_network_problems_listed_together(self, fixture_net, tmp_path):
        """Field problems of every layer come first. Then shapes propagate
        over the layers that parsed, here layer 0 alone, and stop at its
        stride before its out-of-range code is checked."""
        import json
        path = tmp_path / "net.json"
        save_network(fixture_net, path)
        doc = json.loads(path.read_text())
        doc["layers"][0].update(stride=0, codes=[1000] + doc["layers"][0]["codes"][1:])
        del doc["layers"][1]["scale"]
        doc["layers"][1]["codes"] = "none"
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError) as err:
            load_network(path)
        assert str(err.value).splitlines() == [
            "layers[1]: missing field 'scale'",
            "layers[1].codes: must be JSON integers in one flat list",
            "layers[0]: stride must be >= 1, got 0"]

    def test_weight_problems_of_every_layer_listed(self, fixture_net, tmp_path):
        import json
        path = tmp_path / "net.json"
        save_network(fixture_net, path)
        doc = json.loads(path.read_text())
        for layer in doc["layers"]:
            layer["codes"][0] = -1000
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError) as err:
            load_network(path)
        assert str(err.value).splitlines() == [
            f"layers[{i}]: codes exceed 8-bit symmetric range" for i in (0, 1)]

    def test_dataset_lists_every_bad_row_in_order(self, test_data, tmp_path):
        """Rows that do not parse and rows with a non-finite feature, which a
        separate pass finds, are listed together in row order."""
        path = tmp_path / "data.csv"
        save_dataset(test_data, path)
        lines = path.read_text().splitlines()
        for row, field, text in ((1, 3, "inf"), (2, 16, "1.0,2.0"), (4, 0, "x"), (6, 5, "-inf")):
            parts = lines[2 + row].split(",")
            parts[field] = text
            lines[2 + row] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NetworkFormatError) as err:
            load_dataset(path)
        assert str(err.value).splitlines() == [
            "dataset row 1: non-finite feature",
            "dataset row 2: 17 features, expected 16",
            "dataset row 4: invalid literal for int() with base 10: 'x'",
            "dataset row 6: non-finite feature"]
