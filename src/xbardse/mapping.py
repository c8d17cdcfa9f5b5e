"""Crossbar mapping plans for dense and sparse weight layouts, plus the
closed-form device/step cost model.

Logical matrices are oriented rows = inputs (word lines), columns = outputs
(bit lines). Each signed logical cell occupies a differential pair of
adjacent physical columns inside one tile; a pair never straddles a tile
boundary, so a tile of size t holds t // 2 logical columns.

A plan holds its physical matrix once: the code of each physical cell, one
column per logical column. Tile (tr, tc) covers the physical cells
[tr * t, +t) x [tc * (t // 2), +t // 2). Two builders lay out any logical
matrix: ``map_linear_sparse`` gives the full layout, whose physical matrix
is the logical one, every cell a pair; ``map_linear_dense`` gives the
compacted layout, which drops zero weights and records each physical
cell's logical row.

Plans hold compact integers, each array built in its final dtype: a
``layer_plan`` plan's codes are int16 (every supported bit width fits, and
a code that does not raises ``MappingError`` rather than wrapping), and a
compacted layout's row map int32. A full layout then costs 2 bytes per
physical cell, a compacted one 6, where int64 arrays cost 8 and 16.

Schemes
-------
sparse_staggered
    Convolutions unrolled into a Toeplitz-patterned region (one shifted
    kernel copy per output position); every logical cell, zero or not,
    consumes a device pair. One read cycle per tile row-group computes all
    output positions.
dense_kernel
    Each kernel stored once as a contiguous footprint column pair; output
    positions are computed by repeated sliding reads. Linear layers fall
    back to the compacted dense layout.
dense_routed
    Dense kernel arrangement with per-column zero reclamation: zero weights
    consume no devices, and column c's k-th nonzero weight sits on physical
    row k of column c.

``layer_plan`` is the scheme table, the one place that turns a layer and a
scheme name into a plan: it picks the logical matrix, one of the two
layouts and a sliding plan's gather, building a conv layer's window indices
once. Readers of a plan ask ``MappingPlan.slides``, ``reads_per_sample``
and ``out_shape``. Next to it, ``layer_problems`` is the feasibility rule,
the one place that lists why a layer cannot be mapped under (scheme,
tile_size); whatever builds or costs a layer raises ``MappingError`` from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .qnet import LayerSpec, QuantizedNetwork, WeightTensor

SCHEMES = ("sparse_staggered", "dense_routed", "dense_kernel")

_CODE_DTYPE = np.int16    # plan codes: every supported bit width fits
_INDEX_DTYPE = np.int32   # row maps: below a plan's cell count


class MappingError(ValueError):
    """A layer cannot be mapped under the requested scheme/tile size."""


def pair_capacity(tile_size: int) -> int:
    """Logical columns (differential pairs) that fit in one tile."""
    return tile_size // 2


def _matrix_shape(spec: LayerSpec, scheme: str) -> tuple[int, int]:
    """Logical matrix shape: a staggered conv's unrolling, else fan-in x outputs."""
    if spec.kind == "linear":
        return spec.in_features, spec.out_features
    if scheme == "sparse_staggered":
        return spec.padded_inputs, spec.kernels * spec.out_positions
    return spec.footprint, spec.kernels


def layer_problems(spec: LayerSpec | None, scheme: str | None,
                   tile_size: int | None) -> list[str]:
    """The feasibility rule: every reason, from shapes alone, that ``spec``
    cannot be mapped under (scheme, tile_size); a scheme not in SCHEMES is
    then the only one. A None argument is not checked, so
    ``layer_problems(None, None, t)`` checks a tile size."""
    if scheme is not None and scheme not in SCHEMES:
        return [f"unknown scheme {scheme!r} (known: {', '.join(SCHEMES)})"]
    problems = ["tile size must be >= 2"] if tile_size is not None and tile_size < 2 else []
    if spec is not None:
        if spec.kind != "linear" and scheme == "dense_kernel" and spec.footprint > tile_size:
            problems.append(f"kernel footprint {spec.footprint} exceeds tile size {tile_size}")
        cells = math.prod(_matrix_shape(spec, scheme))
        if cells > np.iinfo(_INDEX_DTYPE).max:
            problems.append(f"logical matrix of {cells} cells exceeds the int32 index range")
    return problems


def _require_mappable(spec, scheme, tile_size) -> None:
    problems = layer_problems(spec, scheme, tile_size)
    if problems:
        raise MappingError("; ".join(problems))


# ---------------------------------------------------------------------------
# plans


@dataclass
class TilePlan:
    """One occupied physical tile: physical rows [tile_row * t, +t) x columns
    [tile_col * pair_capacity, +pair_capacity), cut at the matrix's edge."""

    tile_row: int
    tile_col: int


@dataclass
class MappingPlan:
    """A layer's physical matrix, the tiles it occupies and how it is read.
    ``codes`` has one column per logical column. ``row_map`` is None for
    full layouts, whose physical matrix is the logical one; compacted
    layouts hold there each physical cell's logical row, -1 if the cell is
    empty. ``gather`` is None unless the plan slides; then it holds the
    read-only (out_positions, footprint) indices of each output position's
    window into the flattened padded input. ``out_shape`` is the layer's
    output shape, a bare matrix's (cols,); ``spec`` is the layer's spec,
    None for a bare matrix.

    ``layer_plan`` gives int16 ``codes``; the builders keep the dtype of a
    matrix given to them. ``row_map`` is int32."""

    scheme: str
    tile_size: int
    rows: int                 # logical matrix rows M
    cols: int                 # logical matrix columns N
    tiles: list
    codes: np.ndarray
    out_shape: tuple
    row_map: np.ndarray | None = None
    spec: LayerSpec | None = None
    gather: np.ndarray | None = None

    @property
    def device_count(self) -> int:
        cells = self.codes.size if self.row_map is None else np.count_nonzero(self.row_map >= 0)
        return 2 * int(cells)

    @property
    def slides(self) -> bool:
        """Each output position is its own read of the kernel columns: the
        dense layouts of a convolution, which hold a gather."""
        return self.gather is not None

    @property
    def reads_per_sample(self) -> int:
        """One read per output position of a sliding plan, otherwise one."""
        return 1 if self.gather is None else len(self.gather)

    @property
    def row_groups(self) -> int:
        return max((tp.tile_row for tp in self.tiles), default=-1) + 1


def _plan_codes(codes) -> np.ndarray:
    """``codes`` as int16, the dtype plans hold; a code that is not an
    integer in int16's range raises instead of wrapping."""
    codes = np.asarray(codes)
    small = codes.astype(_CODE_DTYPE)
    if (small != codes).any():
        raise MappingError("weight codes must be integers within the int16 range")
    return small


def _logical_matrix(matrix, tile_size: int) -> np.ndarray:
    """A layout builder's checked 2-D logical matrix, finite if it is of a
    float dtype; ``layer_plan``'s rule bounds its cells to int32 indexes."""
    _require_mappable(None, None, tile_size)
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise MappingError("expected a 2-D logical matrix")
    if mat.dtype.kind == "f" and not np.isfinite(mat).all():
        raise MappingError("logical matrix has non-finite values")
    return mat


def map_linear_sparse(matrix, tile_size: int) -> MappingPlan:
    """Full layout of a 2-D logical matrix, given as an array: every cell,
    zero or not, consumes a differential pair, so RD counts all allocated
    devices including zeros. The physical matrix is the logical one, and
    every tile of its grid is occupied."""
    mat = _logical_matrix(matrix, tile_size)
    m, n = mat.shape
    tiles = [TilePlan(tr, tc) for tr in range(-(-m // tile_size))
             for tc in range(-(-n // pair_capacity(tile_size)))]
    return MappingPlan("sparse_staggered", tile_size, m, n, tiles, mat, (n,))


def map_linear_dense(matrix, tile_size: int) -> MappingPlan:
    """Compacted layout of a 2-D logical matrix, given as an array, by
    greedy per-column zero reclamation: column c's k-th nonzero weight goes
    to physical row k, and ``row_map`` records its logical row. Zero weights
    consume no devices; a tile is kept only if some column of its group is
    deeper than its first physical row."""
    mat = _logical_matrix(matrix, tile_size)
    m, n = mat.shape
    cols, rows = np.divmod(np.flatnonzero(mat.T != 0), m)   # by column, then row
    counts = np.bincount(cols, minlength=n)
    phys = np.arange(rows.size) - (np.cumsum(counts) - counts)[cols]   # k-th nonzero: row k
    depth = int(counts.max(initial=0))
    codes = np.zeros((depth, n), dtype=mat.dtype)
    row_map = np.full((depth, n), -1, dtype=_INDEX_DTYPE)
    codes[phys, cols] = mat[rows, cols]
    row_map[phys, cols] = rows
    group_depth = np.maximum.reduceat(counts, np.arange(0, n, pair_capacity(tile_size)))
    tiles = [TilePlan(tr, tc) for tr in range(-(-depth // tile_size))
             for tc in np.flatnonzero(group_depth > tr * tile_size).tolist()]
    return MappingPlan("dense_routed", tile_size, m, n, tiles, codes, (n,), row_map)


# ---------------------------------------------------------------------------
# convolution layouts


def _staggered_cells(spec: LayerSpec, idx: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The unrolled logical matrix, dense and int16: column k * P + p holds
    kernel k's codes at the inputs output position p reads, row p of
    ``idx`` (``read_indices``), every other cell a structural zero."""
    k, p, f = spec.kernels, spec.out_positions, spec.footprint
    kflat = _plan_codes(codes).reshape(k, f)
    values = np.zeros((spec.padded_inputs, k * p), dtype=_CODE_DTYPE)
    cols = (np.arange(k) * p)[:, None, None] + np.arange(p)[None, :, None]   # (k, p, 1)
    values[idx[None, :, :], cols] = kflat[:, None, :]
    return values


def _weight_matrix(codes: np.ndarray) -> np.ndarray:
    """(fan-in, outputs) logical matrix of a layer's weights, as int16: a
    linear layer's transposed codes, or one column per conv kernel."""
    return _plan_codes(codes).reshape(codes.shape[0], -1).T


def layer_plan(spec: LayerSpec, weights: WeightTensor, scheme: str,
               tile_size: int) -> MappingPlan:
    """Build the mapping plan of one layer under the given scheme, from
    three facts of the scheme table:

    - the logical matrix: ``_staggered_cells`` for a sparse_staggered
      convolution, otherwise the layer's (fan-in, outputs) weight matrix;
    - the layout: full (``map_linear_sparse``) for sparse_staggered and for
      a dense_kernel convolution, compacted (``map_linear_dense``) otherwise;
    - the gather: a convolution's window indices, built once and
      read-only, for the dense layouts, which slide, one read per output
      position; the staggered cells are laid out from the same indices.

    The plan records the layer's output shape.
    """
    _require_mappable(spec, scheme, tile_size)
    gather = None
    if spec.kind == "linear":
        matrix = _weight_matrix(weights.codes)
    else:
        idx = spec.read_indices()
        idx.setflags(write=False)
        if scheme == "sparse_staggered":
            matrix = _staggered_cells(spec, idx, weights.codes)
        else:
            matrix, gather = _weight_matrix(weights.codes), idx
    full = scheme == "sparse_staggered" or (spec.kind != "linear" and scheme == "dense_kernel")
    plan = (map_linear_sparse if full else map_linear_dense)(matrix, tile_size)
    return replace(plan, scheme=scheme, out_shape=spec.out_shape, spec=spec, gather=gather)


def network_plans(net: QuantizedNetwork, scheme: str, tile_size: int) -> list[MappingPlan]:
    return [layer_plan(layer.spec, layer.weights, scheme, tile_size)
            for layer in net.layers]


# ---------------------------------------------------------------------------
# closed-form cost model


def devices_sparse_eq1(spec: LayerSpec) -> Fraction:
    """Closed-form device count of the staggered arrangement, evaluated
    verbatim as printed: K^2 * X * W * (X + 2P - D(H-1) - 1) / (S + 1)."""
    span = spec.in_x + 2 * spec.padding - spec.dilation * (spec.kernel_h - 1) - 1
    return Fraction(spec.kernels ** 2 * spec.in_x * spec.kernel_w * span,
                    spec.stride + 1)


def devices_dense_eq2(spec: LayerSpec) -> int:
    """Closed-form device count of the dense kernel arrangement: K * H * W."""
    return spec.kernels * spec.kernel_h * spec.kernel_w


def steps_dense_eq3(spec: LayerSpec) -> tuple[int, bool]:
    """Closed-form step count of the dense arrangement, evaluated verbatim:
    (X + 2P - D(H-1) - 1) / (S + 1). Returns (floor, remainder_flag)."""
    span = spec.in_x + 2 * spec.padding - spec.dilation * (spec.kernel_h - 1) - 1
    frac = Fraction(span, spec.stride + 1)
    return math.floor(frac), frac.denominator != 1


# ---------------------------------------------------------------------------
# constructive and analytic cost


@dataclass
class CostReport:
    """Constructive cost of a layer or network under one scheme: what the
    DSE scores.

    rd counts allocated devices, which is also the number of programming
    writes; rwo counts read cycles per inference sample (reads per sample
    times occupied tile row-groups). The closed-form Eq. 1-3 values are not
    part of it: ``xbardse cost`` evaluates them next to these counts.
    """

    scheme: str
    rd: int
    tiles: int
    rwo: int


def cost(plan: MappingPlan) -> CostReport:
    """Constructive cost of one layer plan."""
    return CostReport(scheme=plan.scheme, rd=plan.device_count, tiles=len(plan.tiles),
                      rwo=plan.reads_per_sample * plan.row_groups)


def _sum_reports(scheme: str, reports: list[CostReport]) -> CostReport:
    return CostReport(scheme=scheme,
                      rd=sum(r.rd for r in reports),
                      tiles=sum(r.tiles for r in reports),
                      rwo=sum(r.rwo for r in reports))


def plans_cost(scheme: str, plans: list[MappingPlan]) -> tuple[CostReport, list[CostReport]]:
    """Network cost of already built layer plans: the total and each layer's."""
    reports = [cost(plan) for plan in plans]
    return _sum_reports(scheme, reports), reports


def cost_network(net: QuantizedNetwork, scheme: str,
                 tile_size: int) -> tuple[CostReport, list[CostReport]]:
    """Constructive network cost: builds every layer plan and sums."""
    return plans_cost(scheme, network_plans(net, scheme, tile_size))


def _analytic_layer_cost(spec: LayerSpec, weights: WeightTensor, scheme: str,
                         tile_size: int) -> CostReport:
    """Cost of one layer from arithmetic on shapes and zero locations only,
    without constructing a plan."""
    _require_mappable(spec, scheme, tile_size)
    cap = pair_capacity(tile_size)
    conv = spec.kind != "linear"
    reads = spec.out_positions if conv and scheme != "sparse_staggered" else 1
    if scheme == "sparse_staggered" or (conv and scheme == "dense_kernel"):
        # full layouts: every logical cell is a pair
        m, n = _matrix_shape(spec, scheme)
        return CostReport(scheme, 2 * m * n, -(-m // tile_size) * -(-n // cap),
                          reads * -(-m // tile_size))
    # compacted layouts: a column is as deep as its nonzero weights
    nnz = np.count_nonzero(_weight_matrix(weights.codes), axis=0)
    peaks = [int(nnz[g0: g0 + cap].max()) for g0 in range(0, nnz.size, cap)]
    return CostReport(scheme, 2 * int(nnz.sum()), sum(-(-peak // tile_size) for peak in peaks),
                      reads * -(-max(peaks) // tile_size))


def analytic_network_cost(net: QuantizedNetwork, scheme: str,
                          tile_size: int) -> CostReport:
    reports = [_analytic_layer_cost(layer.spec, layer.weights, scheme, tile_size)
               for layer in net.layers]
    return _sum_reports(scheme, reports)
