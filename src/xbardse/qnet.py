"""Quantized bias-free networks, post-hoc uniform quantization, and the
noise-free forward oracle.

Networks are stacks of conv2d / conv1d / linear layers without biases, with
ReLU between layers (none after the last). Weights are stored as signed
integer codes plus one per-tensor scale, so that every analog simulation
result can be checked against ``ideal_forward`` on the dequantized weights.
Also provides a desk-scale trainer and synthetic dataset generator used to
produce reproducible fixture networks.

``load_network`` and ``load_dataset`` collect every problem in their file
and raise one NetworkFormatError, one line each, prefixed with what it names
(``layers[i].field``, ``dataset header``, ``dataset row i``): at most 20
lines (``_MAX_LISTED``), then ``... and N more``. Only a file that leaves
nothing to parse raises at its first problem.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SUPPORTED_BIT_WIDTHS = (4, 6, 8)
FORMAT_VERSION = 1

LAYER_KINDS = ("conv2d", "conv1d", "linear")


class NetworkFormatError(ValueError):
    """A network or dataset file failed validation; each line of the message
    is one problem and names its field or row."""


# the most problems one file's error lists before it counts the rest
_MAX_LISTED = 20


def _raise_all(problems: list[str], error: type[ValueError] = NetworkFormatError) -> None:
    """Raise one ``error`` for every problem in ``problems``, one line each,
    if there are any: at most ``_MAX_LISTED`` lines, then ``... and N more``."""
    if problems:
        more = len(problems) - _MAX_LISTED
        raise error("\n".join(problems[:_MAX_LISTED]
                              + ([f"... and {more} more"] if more > 0 else [])))


# The one home of the value-kind predicates: each answers a bool, none takes a bool for a number.
def _is_int(value) -> bool:
    """An int or numpy integer, never a bool: JSON true and false load as bools (ints)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_whole(value) -> bool:
    """An integer (``_is_int``) or a float of integral value: a level or bit
    count enters only arithmetic, where 4.0 computes what 4 does."""
    return _is_int(value) or (isinstance(value, float) and value.is_integer())


def _is_number(value) -> bool:
    """A real number: an integer (``_is_int``), a float or a numpy floating, never a bool."""
    return _is_int(value) or isinstance(value, (float, np.floating))


def _is_finite(value) -> bool:
    """A number (``_is_number``) that converts to a finite float64: NaN, +-inf
    and ints past float range fail."""
    return _is_number(value) and -sys.float_info.max <= value <= sys.float_info.max


def _is_positive_finite(value) -> bool:
    """A finite number (``_is_finite``) above 0."""
    return _is_finite(value) and value > 0


def _round_half_away(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Round to the nearest integer, halves away from zero.

    Equal to sign(x) * floor(|x| + 0.5) in value; computed in one buffer,
    a new one or ``out``, which may be ``x`` itself to round in place. The
    sign goes back by negating where x's sign bit was set, so -0.0 stays
    -0.0.
    """
    neg = np.signbit(x)
    y = np.asarray(np.abs(x), dtype=float) if out is None else np.abs(x, out=out)
    y += 0.5
    np.floor(y, out=y)
    return np.negative(y, out=y, where=neg)


# ---------------------------------------------------------------------------
# layer geometry


@dataclass
class LayerSpec:
    """One layer's kind and geometry.

    Spatial fields (in_x, in_y) and the fan-in fields (in_channels /
    in_features) are filled in by ``propagate_shapes``; only the free
    parameters need to be set when describing an architecture.
    """

    kind: str
    in_channels: int = 0
    kernels: int = 0
    kernel_h: int = 1
    kernel_w: int = 1
    stride: int = 1
    padding: int = 0
    dilation: int = 1
    in_features: int = 0
    out_features: int = 0
    in_x: int = 0  # input spatial height (conv), per shape propagation
    in_y: int = 0  # input spatial width; 1 for conv1d

    def validate(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "linear":
            if self.out_features < 1:
                raise ValueError("linear layer needs out_features >= 1")
            if self.padding != 0:  # _pad_flat reads it on every layer
                raise ValueError("linear layer takes no padding")
            return
        if self.kernels < 1:
            raise ValueError("conv layer needs kernels >= 1")
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise ValueError("kernel extents must be >= 1")
        if self.kind == "conv1d" and self.kernel_w != 1:
            raise ValueError("conv1d requires kernel_w == 1")

    def weight_shape(self) -> tuple[int, ...]:
        if self.kind == "linear":
            return (self.out_features, self.in_features)
        if self.kind == "conv1d":
            return (self.kernels, self.in_channels, self.kernel_h)
        return (self.kernels, self.in_channels, self.kernel_h, self.kernel_w)

    @property
    def out_shape(self) -> tuple[int, ...]:
        """The layer's output shape, once its inputs are filled in:
        (out_features,) for linear, (kernels, out_x) for conv1d and
        (kernels, out_x, out_y) for conv2d."""
        if self.kind == "linear":
            return (self.out_features,)
        if self.kind == "conv1d":
            return (self.kernels, self.out_x)
        return (self.kernels, self.out_x, self.out_y)

    # A conv layer's geometry in crossbar terms (kernel count K, kernel
    # extents H x W, input extents X x Y, stride S, padding P, dilation D,
    # channels C). A conv1d layer is the unit-width case: Y = 1 whatever
    # in_y holds, W = 1 and no padding along y; every other formula is the
    # 2-D one.

    @property
    def padded_x(self) -> int:
        return self.in_x + 2 * self.padding

    @property
    def padded_y(self) -> int:
        return 1 if self.kind == "conv1d" else self.in_y + 2 * self.padding

    @property
    def out_x(self) -> int:
        return out_extent(self.in_x, self.kernel_h, self.stride, self.padding, self.dilation)

    @property
    def out_y(self) -> int:
        if self.kind == "conv1d":
            return 1
        return out_extent(self.in_y, self.kernel_w, self.stride, self.padding, self.dilation)

    @property
    def out_positions(self) -> int:
        return self.out_x * self.out_y

    @property
    def footprint(self) -> int:
        """Devices per kernel column: channels x kernel_h x kernel_w."""
        return self.in_channels * self.kernel_h * self.kernel_w

    @property
    def padded_inputs(self) -> int:
        return self.in_channels * self.padded_x * self.padded_y

    def read_indices(self) -> np.ndarray:
        """(out_positions, footprint) gather indices into the flattened
        padded input, ordered (c, kh, kw) to match flattened kernels."""
        s, d = self.stride, self.dilation
        pos_x = (np.arange(self.out_x) * s)[:, None] + (np.arange(self.kernel_h) * d)[None, :]
        pos_y = (np.arange(self.out_y) * s)[:, None] + (np.arange(self.kernel_w) * d)[None, :]
        chan = np.arange(self.in_channels) * self.padded_x * self.padded_y
        idx = (chan[None, None, :, None, None]
               + pos_x[:, None, None, :, None] * self.padded_y
               + pos_y[None, :, None, None, :])                  # (ox, oy, C, H, W)
        return idx.reshape(self.out_positions, self.footprint)


def conv2d(kernels: int, kernel_h: int, kernel_w: int, stride: int = 1,
           padding: int = 0, dilation: int = 1) -> LayerSpec:
    return LayerSpec("conv2d", kernels=kernels, kernel_h=kernel_h,
                     kernel_w=kernel_w, stride=stride, padding=padding,
                     dilation=dilation)


def conv1d(kernels: int, kernel_h: int, stride: int = 1, padding: int = 0,
           dilation: int = 1) -> LayerSpec:
    return LayerSpec("conv1d", kernels=kernels, kernel_h=kernel_h, kernel_w=1,
                     stride=stride, padding=padding, dilation=dilation)


def linear(out_features: int) -> LayerSpec:
    return LayerSpec("linear", out_features=out_features)


def out_extent(extent: int, kernel: int, stride: int, padding: int,
               dilation: int) -> int:
    """Output length of one convolved dimension (standard formula); always
    >= 1, so the mappers and the cost model need no check of their own. The
    one check of stride, dilation and padding: ``propagate_shapes`` calls it
    for every conv layer, and ``LayerSpec`` for every extent it reads."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    span = extent + 2 * padding - dilation * (kernel - 1) - 1
    if span < 0:
        raise ValueError(
            f"non-positive output extent: input {extent}, kernel {kernel}, "
            f"padding {padding}, dilation {dilation}")
    return span // stride + 1


def _composed(spec: LayerSpec, shape: tuple[int, ...]) -> tuple[LayerSpec, tuple[int, ...]]:
    """A copy of ``spec`` with its fan-in/spatial fields filled in from an
    input of ``shape``, and its output shape; raises ValueError if the layer
    does not compose."""
    spec = replace(spec)
    spec.validate()
    if spec.kind == "linear":
        spec.in_features = int(np.prod(shape))
    elif spec.kind == "conv1d":
        if len(shape) != 2:
            raise ValueError(f"conv1d expects (channels, length) input, got {shape}")
        spec.in_channels, spec.in_x, spec.in_y = (*shape, 1)
    else:  # conv2d
        if len(shape) != 3:
            raise ValueError(f"conv2d expects (channels, height, width) input, got {shape}")
        spec.in_channels, spec.in_x, spec.in_y = shape
    return spec, spec.out_shape


def propagate_shapes(specs: list[LayerSpec],
                     feature_shape: tuple[int, ...]) -> tuple[list[LayerSpec], tuple[int, ...]]:
    """Fill in fan-in/spatial fields layer by layer; returns (specs, out_shape).

    Raises ValueError naming the first layer whose shape does not compose.
    """
    shape = tuple(int(d) for d in feature_shape)
    out: list[LayerSpec] = []
    for i, spec in enumerate(specs):
        try:
            spec, shape = _composed(spec, shape)
        except ValueError as err:
            raise ValueError(f"layers[{i}]: {err}") from err
        out.append(spec)
    return out, shape


# ---------------------------------------------------------------------------
# quantization


def _code_limit(bit_width: int) -> int:
    """The largest code magnitude of a supported ``bit_width``, 2^(b-1) - 1:
    codes are symmetric, so the most negative code is never used."""
    if bit_width not in SUPPORTED_BIT_WIDTHS:
        raise ValueError(f"bit_width must be one of {SUPPORTED_BIT_WIDTHS}")
    return 2 ** (bit_width - 1) - 1


@dataclass
class WeightTensor:
    """Signed integer weight codes with a single per-tensor scale."""

    codes: np.ndarray
    scale: float
    bit_width: int

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape

    def code_limit(self) -> int:
        return _code_limit(self.bit_width)

    def dequantized(self) -> np.ndarray:
        return self.codes.astype(float) * self.scale

    def validate(self) -> None:
        """Codes must be finite integers, of a bool, integer or float dtype,
        within the symmetric range of ``bit_width``."""
        limit = self.code_limit()  # raises first on an unsupported bit width
        if not _is_positive_finite(self.scale):
            raise ValueError("scale must be > 0 and finite")
        codes = np.asarray(self.codes)
        if codes.dtype.kind not in "biuf":
            raise ValueError(f"codes must be numbers, not {codes.dtype}")
        if codes.dtype.kind == "f":
            if not np.isfinite(codes).all():
                raise ValueError("codes must be finite")
            if (codes != np.trunc(codes)).any():
                raise ValueError("codes must be integers")
        if codes.size and (codes.min() < -limit or codes.max() > limit):
            raise ValueError(f"codes exceed {self.bit_width}-bit symmetric range")


def quantize_weights(values: np.ndarray, bit_width: int) -> WeightTensor:
    """Per-tensor symmetric uniform quantization.

    scale = max|values| / (2^(b-1) - 1); codes round half away from zero and
    clamp to the symmetric range (the most negative code is never used).
    An all-zero tensor quantizes to scale 1 with all-zero codes.
    """
    limit = _code_limit(bit_width)  # raises first on an unsupported bit width
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot quantize an empty tensor")
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot quantize non-finite values")
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return WeightTensor(np.zeros(values.shape, dtype=np.int64), 1.0, bit_width)
    scale = peak / limit
    codes = _round_half_away(values / scale)
    codes = np.clip(codes, -limit, limit).astype(np.int64)
    return WeightTensor(codes, scale, bit_width)


# ---------------------------------------------------------------------------
# network and dataset containers


@dataclass
class Layer:
    spec: LayerSpec
    weights: WeightTensor


@dataclass
class QuantizedNetwork:
    name: str
    bit_width: int
    input_shape: tuple[int, ...]
    layers: list[Layer]
    seed: int | None = None

    def problems(self) -> list[str]:
        """Every problem of the network, one line each, naming its layer:
        an ``input_shape`` without one or more extents, each >= 1, alone;
        else shapes propagate from it up to the first layer that does not
        compose, whose line ends the list, and each layer before it gets its
        fan-in/spatial fields filled in and its weights checked."""
        shape = tuple(int(d) for d in self.input_shape)
        if min(shape, default=0) < 1:
            return [f"input_shape: needs one or more extents, each >= 1, got {list(shape)}"]
        problems = []
        for i, layer in enumerate(self.layers):
            where = f"layers[{i}]"
            try:
                layer.spec, shape = _composed(layer.spec, shape)
            except ValueError as err:
                return problems + [f"{where}: {err}"]
            try:
                layer.weights.validate()
            except ValueError as err:
                problems.append(f"{where}: {err}")
            if layer.weights.bit_width != self.bit_width:
                problems.append(
                    f"{where}: bit_width {layer.weights.bit_width} != network {self.bit_width}")
            if layer.weights.shape != layer.spec.weight_shape():
                problems.append(f"{where}: weight shape {layer.weights.shape} != expected "
                                f"{layer.spec.weight_shape()}")
        return problems

    def validate(self) -> None:
        _raise_all(self.problems())

    def total_weights(self) -> int:
        return sum(layer.weights.codes.size for layer in self.layers)


def sparsity(net: QuantizedNetwork) -> tuple[int, float]:
    """Count of zero weight codes across all layers and the zero fraction."""
    total = net.total_weights()
    zeros = sum(int(np.count_nonzero(layer.weights.codes == 0)) for layer in net.layers)
    return zeros, zeros / total


@dataclass
class Dataset:
    features: np.ndarray  # (n, *feature_shape)
    labels: np.ndarray    # (n,) integer class ids
    class_count: int

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return self.features.shape[1:]

    def __len__(self) -> int:
        return self.features.shape[0]

    def validate(self) -> None:
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if len(self) == 0:
            raise ValueError("needs at least one sample")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.class_count:
            raise ValueError("labels must lie in [0, class_count)")


def fit_problems(input_shape: tuple[int, ...], output_shape: tuple[int, ...],
                 data: Dataset) -> list[str]:
    """The pairing rule: why a network of ``input_shape`` and ``output_shape``
    cannot be scored on ``data``, one line each. The dataset's feature shape
    must be the network's input shape, the network's output must be one
    vector of logits, and every class must be an output the network can give:
    ``class_count`` at most the network's output count."""
    problems = []
    if data.feature_shape != input_shape:
        problems.append(f"dataset feature shape {data.feature_shape} != "
                        f"network input {input_shape}")
    if len(output_shape) != 1:
        problems.append(f"architecture output {output_shape} is not a vector of logits")
    if data.class_count > math.prod(output_shape):
        problems.append(f"architecture output {output_shape} does not match "
                        f"{data.class_count} classes")
    return problems


# ---------------------------------------------------------------------------
# ideal forward oracle


# im2col elements one contraction chunk of _conv_forward may copy (2 MiB)
_CONV_CHUNK_ELEMENTS = 1 << 18


def _chunk_rows(width: int, multiple: int = 1) -> int:
    """Rows per chunk of a batch whose rows hold ``width`` elements each: the
    most whole multiples of ``multiple`` rows that stay within
    ``_CONV_CHUNK_ELEMENTS`` elements, and at least one multiple."""
    return multiple * max(1, _CONV_CHUNK_ELEMENTS // (multiple * width))


def _forward_width(net: QuantizedNetwork) -> int:
    """Elements per sample of the widest array ``ideal_forward`` builds: the
    input, every layer's output, and a conv layer's padded input and window
    copy (out positions x footprint)."""
    widest = math.prod(net.input_shape)
    for spec in (layer.spec for layer in net.layers):
        widest = max(widest, math.prod(spec.out_shape))
        if spec.kind != "linear":
            widest = max(widest, spec.padded_inputs, spec.out_positions * spec.footprint)
    return widest


def _zero_pad(x: np.ndarray, p: int) -> np.ndarray:
    """``x`` with ``p`` zeros on both sides of every spatial axis (axes 2 on),
    ``x`` itself when p is 0; callers only read it. The values of ``np.pad``,
    which costs several times more on the small batches the simulator pads
    per layer and copies even when there is nothing to pad."""
    if p == 0:
        return x
    xp = np.zeros((*x.shape[:2], *(n + 2 * p for n in x.shape[2:])), dtype=x.dtype)
    xp[(..., *(slice(p, p + n) for n in x.shape[2:]))] = x
    return xp


def _conv_forward(spec: LayerSpec, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Direct sliding-window convolution; the reference for everything else.

    One path serves conv1d and conv2d: the spatial axes are those of ``x``
    after the channel axis, and the kernel extents are read from the weight
    tensor ``w`` (kernels, channels, *kernel). The kernels are contracted
    with every window over the channel and kernel axes as one BLAS matrix
    product per chunk, on the matrices ``np.tensordot`` would build: the
    windows as an (n * positions, footprint) matrix ordered (c, *kernel),
    and the kernels transposed to (footprint, kernels). The window matrix is
    gathered from the padded input at window positions taken from a strided
    view of an index grid, built here and not from
    ``LayerSpec.read_indices``, so the oracle stays independent of the
    gather the simulator uses. The samples go through in chunks of at most
    ``_CONV_CHUNK_ELEMENTS`` window elements (``_chunk_rows``), each written
    into one preallocated output, so peak memory stays near that of the
    output.
    """
    p, s, d = spec.padding, spec.stride, spec.dilation
    xp = _zero_pad(x, p)
    grid = np.arange(math.prod(xp.shape[1:])).reshape(xp.shape[1:])
    axes = tuple(range(1, grid.ndim))
    spans = tuple(d * (k - 1) + 1 for k in w.shape[2:])
    # (c, *spatial, *kernel): a window every s along each spatial axis, a tap every d
    steps = (slice(None, None, s),) * len(axes) + (slice(None, None, d),) * len(axes)
    win = sliding_window_view(grid, spans, axis=axes)[(slice(None), *steps)]
    spatial = win.shape[1:grid.ndim]
    # (c, *spatial, *kernel) -> (positions, footprint), footprint ordered (c, *kernel)
    idx = np.moveaxis(win, 0, len(spatial)).reshape(math.prod(spatial), -1)
    kernels = w.shape[0]
    b = w.transpose(*range(1, w.ndim), 0).reshape(-1, kernels)
    n = x.shape[0]
    flat = xp.reshape(n, grid.size)
    out = np.empty((n, kernels, *spatial))
    step = _chunk_rows(idx.size)
    for start in range(0, n, step):
        chunk = slice(start, start + step)
        a = np.take(flat[chunk], idx, axis=1).reshape(-1, idx.shape[1])
        # (chunk, *spatial, k) -> (chunk, k, *spatial)
        out[chunk] = np.moveaxis(np.dot(a, b).reshape(-1, *spatial, kernels), -1, 1)
    return out


def _float_batch(net: QuantizedNetwork, batch) -> np.ndarray:
    """``batch`` as a float array of samples of the network's input shape."""
    x = np.asarray(batch, dtype=float)
    if x.shape[1:] != tuple(net.input_shape):
        raise ValueError(
            f"batch feature shape {x.shape[1:]} != network input {net.input_shape}")
    return x


def ideal_forward(net: QuantizedNetwork, batch: np.ndarray,
                  on_preact: Callable[[np.ndarray], None] | None = None) -> np.ndarray:
    """Noise-free forward pass on dequantized weights; returns the logits
    (n, classes).

    ``on_preact(z)``, if given, is called once per layer, in layer order,
    with that layer's pre-activations (the last layer's are the logits).
    ``z`` is valid only during the call: the ReLU then runs in place on it,
    so a callback that keeps more than a reduction of it must copy it. The
    pass itself holds one layer's input and output at a time.
    """
    x = _float_batch(net, batch)
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        w = layer.weights.dequantized()
        if layer.spec.kind == "linear":
            z = x.reshape(x.shape[0], -1) @ w.T
        else:
            z = _conv_forward(layer.spec, w, x)
        if on_preact is not None:
            on_preact(z)
        if i < last:
            np.maximum(z, 0.0, out=z)
        x = z
    return x


# ---------------------------------------------------------------------------
# synthetic data and fixture training


_MEANS_SEED = 0x5EED  # class means depend only on (classes, shape)
_SEPARATION, _NOISE = 4.0, 1.0        # class-mean norm; per-feature sample std
_EPOCHS, _LR, _BATCH = 60, 0.05, 32   # fixture trainer: epochs, step, batch size


def class_means(classes: int, shape: tuple[int, ...]) -> np.ndarray:
    """Fixed per-class mean vectors, scaled to a common norm."""
    dim = int(np.prod(shape))
    rng = np.random.default_rng(_MEANS_SEED + classes * 1000 + dim)
    means = rng.normal(size=(classes, dim))
    return means * (_SEPARATION / np.linalg.norm(means, axis=1, keepdims=True))


def generate_synthetic_dataset(seed: int, n: int, classes: int,
                               shape: tuple[int, ...]) -> Dataset:
    """Class-conditional Gaussian blobs around fixed per-class means.

    The means depend only on (classes, shape), so differently seeded draws
    are held-out samples of the same task. Labels are balanced (the first
    n % classes classes get one extra sample) and shuffled deterministically.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if n < classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    dim = int(np.prod(shape))
    means = class_means(classes, shape)
    counts = np.full(classes, n // classes)
    counts[: n % classes] += 1
    labels = np.repeat(np.arange(classes), counts)
    labels = labels[rng.permutation(n)]
    feats = means[labels] + _NOISE * rng.normal(size=(n, dim))
    return Dataset(feats.reshape(n, *shape), labels.astype(np.int64), classes)


def _pad_flat(spec: LayerSpec, x: np.ndarray) -> np.ndarray:
    return _zero_pad(x, spec.padding).reshape(x.shape[0], -1)


def _forward_cache(specs, weights, gathers, x):
    """Forward pass used by the trainer; caches what backprop needs. Conv
    layers gather with their ``gathers`` entry, ``read_indices`` built once."""
    cache = []
    last = len(specs) - 1
    for i, (spec, w, idx) in enumerate(zip(specs, weights, gathers)):
        saved = _pad_flat(spec, x)
        if spec.kind == "linear":
            z = saved @ w.T
        else:
            saved = saved[:, idx]                         # (n, P, F)
            wf = w.reshape(w.shape[0], -1)                # (K, F)
            zp = saved @ wf.T                             # (n, P, K)
            z = np.moveaxis(zp, -1, 1).reshape(x.shape[0], *spec.out_shape)
        cache.append((saved, x.shape, z))
        x = np.maximum(z, 0.0) if i < last else z
    return x, cache


def _backward(specs, weights, gathers, cache, dlogits):
    grads = [None] * len(specs)
    dz = dlogits
    for i in range(len(specs) - 1, -1, -1):
        saved, in_shape, z = cache[i]
        if i < len(specs) - 1:
            dz = dz * (z > 0)
        if specs[i].kind == "linear":
            grads[i] = dz.T @ saved
            dx = dz @ weights[i]
            dz = dx.reshape(in_shape)
        else:
            spec = specs[i]
            n = in_shape[0]
            dzp = np.moveaxis(dz.reshape(n, spec.kernels, -1), 1, -1)  # (n, P, K)
            wf = weights[i].reshape(spec.kernels, -1)
            grads[i] = np.einsum("npk,npf->kf", dzp, saved).reshape(weights[i].shape)
            dpatch = dzp @ wf                                          # (n, P, F)
            dxp = np.zeros((n, spec.padded_inputs))
            np.add.at(dxp, (slice(None), gathers[i]), dpatch)
            # crop the padding: the inverse of _zero_pad, one slice per spatial axis
            p, spatial = spec.padding, in_shape[2:]
            dxp = dxp.reshape(*in_shape[:2], *(e + 2 * p for e in spatial))
            dz = dxp[(..., *(slice(p, p + e) for e in spatial))]
    return grads


def _softmax_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    norm = expz.sum(axis=1, keepdims=True)
    probs = expz / norm
    n = logits.shape[0]
    loss = float(np.mean(np.log(norm[:, 0]) - shifted[np.arange(n), labels]))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def train_fixture(seed: int, arch: list[LayerSpec], data: Dataset, l1: float,
                  bit_width: int = 8, name: str = "fixture") -> QuantizedNetwork:
    """Mini-batch gradient descent with an L1 penalty, then quantize.

    The L1 term is applied as a soft-threshold step after each gradient
    update, so large penalties produce exact zeros. Single-threaded and
    bit-reproducible for a fixed seed.
    """
    data.validate()
    specs, out_shape = propagate_shapes(arch, data.feature_shape)
    _raise_all(fit_problems(data.feature_shape, out_shape, data), ValueError)
    rng = np.random.default_rng(seed)
    weights = []
    for spec in specs:
        shape = spec.weight_shape()
        fan_in = int(np.prod(shape[1:]))
        weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), shape))
    x_all = data.features.astype(float)
    y_all = data.labels
    gathers = [None if spec.kind == "linear" else spec.read_indices() for spec in specs]
    for _ in range(_EPOCHS):
        order = rng.permutation(len(data))
        for start in range(0, len(data), _BATCH):
            idx = order[start: start + _BATCH]
            logits, cache = _forward_cache(specs, weights, gathers, x_all[idx])
            _, dlogits = _softmax_grad(logits, y_all[idx])
            grads = _backward(specs, weights, gathers, cache, dlogits)
            for w, g in zip(weights, grads):
                w -= _LR * g
                np.copyto(w, np.sign(w) * np.maximum(np.abs(w) - _LR * l1, 0.0))
    layers = [Layer(spec, quantize_weights(w, bit_width)) for spec, w in zip(specs, weights)]
    net = QuantizedNetwork(name, bit_width, tuple(data.feature_shape), layers, seed=seed)
    net.validate()
    return net


def accuracy(net: QuantizedNetwork, data: Dataset) -> float:
    """Ideal (noise-free) argmax accuracy of the quantized network."""
    logits = ideal_forward(net, data.features)
    return float(np.mean(np.argmax(logits, axis=1) == data.labels))


# ---------------------------------------------------------------------------
# file formats


_CONV_PARAMS = ("in_channels", "kernels", "kernel_h", "kernel_w", "stride",
                "padding", "dilation")


def _int_fields(kind: str) -> tuple[str, ...]:
    """The integer fields a network file holds for a layer of ``kind``."""
    return ("in_features", "out_features") if kind == "linear" else _CONV_PARAMS


def save_network(net: QuantizedNetwork, path) -> None:
    net.validate()
    layers = []
    for layer in net.layers:
        entry = {"kind": layer.spec.kind}
        for key in _int_fields(layer.spec.kind):
            entry[key] = getattr(layer.spec, key)
        entry["scale"] = layer.weights.scale
        entry["codes"] = [int(c) for c in layer.weights.codes.ravel()]
        layers.append(entry)
    doc = {
        "format_version": FORMAT_VERSION,
        "name": net.name,
        "bit_width": net.bit_width,
        "seed": net.seed,
        "input_shape": list(net.input_shape),
        "layers": layers,
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def _take(entry: dict, key: str, where: str, problems: list[str], ok=None,
          message: str = ""):
    """``entry[key]`` if it is there and ``ok`` holds for it; else None, with
    the problem added to ``problems``: the missing field, or ``message``
    formatted with the ``value``."""
    if key not in entry:
        problems.append(f"{where}: missing field '{key}'")
    elif ok is None or ok(entry[key]):
        return entry[key]
    else:
        problems.append(message.format(value=entry[key]))
    return None


def _load_layer(entry, where: str, bit_width, problems: list[str]) -> Layer | None:
    """One ``layers`` entry as a Layer, or None with its problems added."""
    if not isinstance(entry, dict):
        problems.append(f"{where}: must be an object, got {entry!r}")
        return None
    known = len(problems)
    kind = _take(entry, "kind", where, problems, lambda v: v in LAYER_KINDS,
                 f"{where}.kind: unknown kind {{value!r}}")
    params = {key: _take(entry, key, where, problems, _is_int,
                         f"{where}.{key}: must be an integer, got {{value!r}}")
              for key in (() if kind is None else _int_fields(kind))}
    scale = _take(entry, "scale", where, problems, _is_positive_finite,
                  f"{where}.scale: must be a positive finite number")
    # one flat list: nested lists, ragged or not, and true/false are refused
    raw = _take(entry, "codes", where, problems,
                lambda v: isinstance(v, list) and all(map(_is_int, v)),
                f"{where}.codes: must be JSON integers in one flat list")
    if len(problems) > known:
        return None
    spec = LayerSpec(kind, **params)
    if kind == "linear" and (spec.in_features < 1 or spec.out_features < 1):
        problems.append(f"{where}: linear features must be >= 1")
        return None
    try:
        codes = np.array(raw, dtype=np.int64)
    except OverflowError:
        problems.append(f"{where}.codes: codes exceed {bit_width}-bit symmetric range")
        return None
    shape = spec.weight_shape()
    expected = math.prod(shape) if all(d > 0 for d in shape) else 0
    if codes.size != expected:
        problems.append(f"{where}.codes: {codes.size} values, expected {expected}")
        return None
    return Layer(spec, WeightTensor(codes.reshape(shape), float(scale), bit_width))


def load_network(path) -> QuantizedNetwork:
    """Read a network file as ``save_network`` writes it, refusing once for
    every problem in it (see the module docstring). A file that is not JSON,
    or whose top level is not an object, raises at once. The top level's and
    every layer's field problems come first. Then, if ``input_shape``
    parsed, the network's own problems follow (``QuantizedNetwork.problems``):
    its extents, then, if ``bit_width`` parsed too, shapes propagate over
    the leading layers that parsed, up to the first that does not compose,
    and their weights are checked."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise NetworkFormatError(f"not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise NetworkFormatError("top level must be an object")
    problems: list[str] = []
    top = "top level"
    _take(doc, "format_version", top, problems, lambda v: _is_int(v) and v == FORMAT_VERSION,
          "unsupported format_version {value}")
    name = _take(doc, "name", top, problems)
    bit_width = _take(doc, "bit_width", top, problems, lambda v: v in SUPPORTED_BIT_WIDTHS,
                      f"bit_width: must be one of {SUPPORTED_BIT_WIDTHS}")
    input_shape = _take(doc, "input_shape", top, problems,
                        lambda v: isinstance(v, list) and all(map(_is_int, v)),
                        "input_shape: must be a list of integers, got {value!r}")
    raw_layers = _take(doc, "layers", top, problems, lambda v: isinstance(v, list) and v,
                       "layers: must be a non-empty list, got {value!r}")
    layers = [_load_layer(entry, f"layers[{i}]", doc.get("bit_width"), problems)
              for i, entry in enumerate(raw_layers or [])]
    if input_shape is not None:
        parsed = itertools.takewhile(lambda layer: layer is not None, layers)
        net = QuantizedNetwork(str(name), int(bit_width or 0), tuple(input_shape),
                               list(parsed) if bit_width else [], seed=doc.get("seed"))
        problems += net.problems()
    _raise_all(problems)  # a None bit_width or input_shape has put its problem there
    return net


def save_dataset(data: Dataset, path) -> None:
    data.validate()
    shape_txt = "x".join(str(d) for d in data.feature_shape)
    dim = int(np.prod(data.feature_shape))
    lines = [
        f"# format_version: {FORMAT_VERSION}, feature_shape: {shape_txt}, "
        f"class_count: {data.class_count}",
        "label," + ",".join(f"f{j}" for j in range(dim)),
    ]
    flat = data.features.reshape(len(data), dim)
    for label, row in zip(data.labels, flat):
        lines.append(str(int(label)) + "," + ",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _read_rows(lines: list[str], dim: int, problems: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The labels and (n, dim) features of the non-blank data ``lines``,
    adding to ``problems`` one line for every bad row, in row order: a wrong
    length, a label or feature that does not parse, or a non-finite feature.
    A bad row's label reads 0. Only the failure branches collect, so a clean
    file costs one parse per row and one vectorized finiteness check."""
    rows = [line for line in lines if line.strip()]
    labels = np.empty(len(rows), dtype=np.int64)
    feats = np.empty((len(rows), dim))
    bad = {}  # row -> its problem
    for i, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != dim + 1:
            bad[i], labels[i] = f"{len(parts) - 1} features, expected {dim}", 0
            continue
        try:
            labels[i] = int(parts[0])
            feats[i] = [float(v) for v in parts[1:]]
        except (ValueError, OverflowError) as err:
            bad[i], labels[i] = str(err), 0
    for i in np.flatnonzero(~np.isfinite(feats).all(axis=1)):
        bad.setdefault(int(i), "non-finite feature")  # a bad row's features are unread
    problems.extend(f"dataset row {i}: {bad[i]}" for i in sorted(bad))
    return labels, feats


def load_dataset(path) -> Dataset:
    """Read a dataset file as ``save_dataset`` writes it, refusing once for
    every problem in it (see the module docstring): the header's, every bad
    row's (``_read_rows``), then the labels' range. A file without its
    ``# format_version`` line raises at once, and the rows are only read
    against a feature_shape that parsed."""
    text = Path(path).read_text().splitlines()
    if not text or not text[0].startswith("#"):
        raise NetworkFormatError("dataset: missing '# format_version ...' header line")
    header = {}
    for part in text[0].lstrip("# ").split(","):
        key, _, value = part.partition(":")
        header[key.strip()] = value.strip()
    problems = []
    if header.get("format_version") != str(FORMAT_VERSION):
        problems.append("dataset: unsupported or missing format_version")
    try:
        shape = tuple(int(d) for d in header["feature_shape"].split("x"))
        if min(shape) < 1:
            raise ValueError(f"feature_shape extents must be >= 1, got {header['feature_shape']}")
    except (KeyError, ValueError) as err:
        problems.append(f"dataset header: {err}")
        shape = None
    try:
        class_count = int(header["class_count"])
    except (KeyError, ValueError) as err:
        problems.append(f"dataset header: {err}")
        class_count = None
    if len(text) < 2:
        problems.append("dataset: missing column header row")
    data = None
    if shape is not None:
        labels, feats = _read_rows(text[2:], int(np.prod(shape)), problems)
        if class_count is not None:
            data = Dataset(feats.reshape(len(labels), *shape), labels, class_count)
            try:
                data.validate()
            except ValueError as err:
                problems.append(f"dataset: {err}")
    _raise_all(problems)
    return data
