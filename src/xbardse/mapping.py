"""Crossbar mapping plans for dense and sparse weight layouts, plus the
closed-form device/step cost model.

Logical matrices are oriented rows = inputs (word lines), columns = outputs
(bit lines). Each signed logical cell occupies a differential pair of
adjacent physical columns inside one tile; a pair never straddles a tile
boundary, so a tile of size t holds t // 2 logical columns.

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
    consume no devices and surviving rows are packed from row 0, recorded in
    per-column permutation tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qnet
from .qnet import ConvGeometry, LayerSpec, QuantizedNetwork, WeightTensor

SCHEMES = ("sparse_staggered", "dense_routed", "dense_kernel")


class MappingError(ValueError):
    """A layer cannot be mapped under the requested scheme/tile size."""


def pair_capacity(tile_size: int) -> int:
    """Logical columns (differential pairs) that fit in one tile."""
    return tile_size // 2


# ---------------------------------------------------------------------------
# plans


@dataclass
class TilePlan:
    """Device assignments inside one physical tile. Parallel arrays hold one
    element per mapped logical cell; each cell owns the adjacent column pair
    (2 * pair_slot, 2 * pair_slot + 1)."""

    tile_row: int
    tile_col: int
    rows: np.ndarray          # device row within the tile
    pair_slots: np.ndarray    # column-pair slot within the tile
    logical_rows: np.ndarray
    logical_cols: np.ndarray
    codes: np.ndarray         # signed weight codes (0 allowed in full layouts)
    weight_ids: np.ndarray    # flat index into the layer tensor, -1 structural zero

    def __len__(self) -> int:
        return self.rows.size


@dataclass
class MappingPlan:
    scheme: str
    tile_size: int
    rows: int                 # logical matrix rows M
    cols: int                 # logical matrix columns N
    tiles: list
    row_permutations: dict | None = None  # dense_routed: col -> logical rows in physical order
    geometry: ConvGeometry | None = None
    reads_per_sample: int = 1

    @property
    def device_count(self) -> int:
        return 2 * sum(len(tp) for tp in self.tiles)

    @property
    def row_groups(self) -> int:
        if not self.tiles:
            return 0
        return max(tp.tile_row for tp in self.tiles) + 1

    def validate(self) -> None:
        cap = pair_capacity(self.tile_size)
        seen = set()
        for tp in self.tiles:
            if tp.rows.size == 0:
                continue
            if tp.rows.max() >= self.tile_size or tp.pair_slots.max() >= cap:
                raise MappingError("tile entries exceed tile bounds")
            for r, c in zip(tp.rows.tolist(), tp.pair_slots.tolist()):
                key = (tp.tile_row, tp.tile_col, r, c)
                if key in seen:
                    raise MappingError(f"device pair {key} assigned twice")
                seen.add(key)


def _full_allocation(matrix: np.ndarray, weight_ids: np.ndarray, tile_size: int,
                     scheme: str, geometry: ConvGeometry | None,
                     reads: int) -> MappingPlan:
    """Allocate a device pair for every logical cell, zeros included. Tile
    (tr, tc) holds the row-major rectangle of cells from (tr * tile_size,
    tc * pair_capacity); ``xbar.program`` relies on this layout."""
    if tile_size < 2:
        raise MappingError("tile size must be >= 2 to hold a differential pair")
    m, n = matrix.shape
    cap = pair_capacity(tile_size)
    grid_rows, grid_cols = np.indices((m, n))
    tiles = []
    for tr in range(-(-m // tile_size)):
        r0 = tr * tile_size
        rs = slice(r0, r0 + tile_size)
        for tc in range(-(-n // cap)):
            c0 = tc * cap
            cs = slice(c0, c0 + cap)
            lr = grid_rows[rs, cs].ravel()
            lc = grid_cols[rs, cs].ravel()
            tiles.append(TilePlan(
                tile_row=tr, tile_col=tc,
                rows=lr - r0, pair_slots=lc - c0,
                logical_rows=lr, logical_cols=lc,
                codes=matrix[rs, cs].ravel(),
                weight_ids=weight_ids[rs, cs].ravel()))
    return MappingPlan(scheme, tile_size, m, n, tiles, None, geometry, reads)


def _default_ids(m: int, n: int) -> np.ndarray:
    return np.arange(m * n, dtype=np.int64).reshape(m, n)


def map_linear_sparse(matrix, tile_size: int,
                      weight_ids: np.ndarray | None = None) -> MappingPlan:
    """Map a 2-D logical matrix, given as an array, with no reconfiguration:
    every cell, zero or not, consumes a differential pair. RD therefore
    counts all allocated devices including zeros."""
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise MappingError("expected a 2-D logical matrix")
    if weight_ids is None:
        weight_ids = _default_ids(*mat.shape)
    return _full_allocation(mat, np.asarray(weight_ids), tile_size, "sparse_staggered",
                            None, 1)


def map_linear_dense(matrix, tile_size: int, weight_ids: np.ndarray | None = None,
                     scheme: str = "dense_routed",
                     geometry: ConvGeometry | None = None,
                     reads: int = 1) -> MappingPlan:
    """Greedy per-column zero reclamation of a 2-D logical matrix, given as
    an array: surviving weights pack contiguously from row 0 and a
    permutation table records logical row -> physical row. Zero weights
    consume no devices; empty tiles are dropped."""
    if tile_size < 2:
        raise MappingError("tile size must be >= 2 to hold a differential pair")
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise MappingError("expected a 2-D logical matrix")
    m, n = mat.shape
    if weight_ids is None:
        weight_ids = _default_ids(m, n)
    weight_ids = np.asarray(weight_ids)
    cap = pair_capacity(tile_size)
    tile_cols = -(-n // cap)
    cols, rows = np.divmod(np.flatnonzero(mat.T != 0), m)   # by column, then row
    counts = np.bincount(cols, minlength=n)
    ends = np.cumsum(counts)
    perms = dict(zip(range(n), np.split(rows, ends[:-1])))
    phys = np.arange(rows.size) - (ends - counts)[cols]   # packed row within the column
    tile = phys // tile_size * tile_cols + cols // cap
    # stable, so inside a tile the cells stay by column, then row
    order = np.argsort(tile, kind="stable")
    rows, cols, phys, tile = rows[order], cols[order], phys[order], tile[order]
    fields = (phys % tile_size, cols % cap, rows, cols, mat[rows, cols],
              weight_ids[rows, cols])
    firsts = np.flatnonzero(np.diff(tile, prepend=-1)).tolist()
    tiles = [TilePlan(*divmod(int(tile[a]), tile_cols), *(f[a:b] for f in fields))
             for a, b in zip(firsts, firsts[1:] + [tile.size])]
    return MappingPlan(scheme, tile_size, m, n, tiles, perms, geometry, reads)


# ---------------------------------------------------------------------------
# convolution layouts


def unroll_conv_staggered(geom: ConvGeometry, kernel: np.ndarray | None = None):
    """Toeplitz-style unrolled logical matrix, as a scipy ``csr_matrix``:
    rows = padded input cells x channels, columns = output positions x
    kernels; column k*P + p holds the copy of kernel k shifted to output
    position p. A test oracle, so scipy is imported only here."""
    from scipy.sparse import coo_matrix
    idx = geom.read_indices()                       # (P, F)
    k, p, f = geom.kernels, geom.out_positions, geom.footprint
    if kernel is None:
        kflat = np.ones((k, f))
    else:
        kernel = np.asarray(kernel)
        if kernel.size != k * f:
            raise MappingError(f"kernel has {kernel.size} weights, geometry implies {k * f}")
        kflat = kernel.reshape(k, f).astype(float)
    rows = np.broadcast_to(idx[None, :, :], (k, p, f)).ravel()
    cols = np.broadcast_to((np.arange(k) * p)[:, None, None]
                           + np.arange(p)[None, :, None], (k, p, f)).ravel()
    data = np.broadcast_to(kflat[:, None, :], (k, p, f)).ravel()
    mat = coo_matrix((data, (rows, cols)), shape=(geom.padded_inputs, k * p)).tocsr()
    mat.eliminate_zeros()
    return mat


def _staggered_cells(geom: ConvGeometry, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense (values, weight_ids) arrays of the unrolled logical matrix.
    weight_ids refer to the flat kernel tensor; -1 marks structural zeros."""
    idx = geom.read_indices()
    k, p, f = geom.kernels, geom.out_positions, geom.footprint
    kflat = np.asarray(codes).reshape(k, f)
    m, n = geom.padded_inputs, k * p
    values = np.zeros((m, n), dtype=kflat.dtype)
    ids = np.full((m, n), -1, dtype=np.int64)
    rows = np.broadcast_to(idx[None, :, :], (k, p, f))
    cols = np.broadcast_to((np.arange(k) * p)[:, None, None]
                           + np.arange(p)[None, :, None], (k, p, f))
    values[rows.ravel(), cols.ravel()] = np.broadcast_to(kflat[:, None, :], (k, p, f)).ravel()
    wid = np.broadcast_to((np.arange(k) * f)[:, None, None]
                          + np.arange(f)[None, None, :], (k, p, f))
    ids[rows.ravel(), cols.ravel()] = wid.ravel()
    return values, ids


def _kernel_matrix(geom: ConvGeometry, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(footprint, kernels) logical matrix of the dense kernel arrangement."""
    k, f = geom.kernels, geom.footprint
    kflat = np.asarray(codes).reshape(k, f)
    ids = np.arange(k * f, dtype=np.int64).reshape(k, f)
    return kflat.T, ids.T


def map_conv_staggered(geom: ConvGeometry, codes: np.ndarray, tile_size: int) -> MappingPlan:
    """Staggered (sparse) kernel arrangement: unroll, then map without
    reclamation. One read per tile row-group serves all output positions."""
    values, ids = _staggered_cells(geom, codes)
    return _full_allocation(values, ids, tile_size, "sparse_staggered", geom, reads=1)


def map_conv_dense(geom: ConvGeometry, codes: np.ndarray, tile_size: int) -> MappingPlan:
    """Dense kernel arrangement: each kernel stored once as a contiguous
    footprint column pair; output positions computed by sliding reads."""
    if geom.footprint > tile_size:
        raise MappingError(
            f"kernel footprint {geom.footprint} exceeds tile size {tile_size}")
    matrix, ids = _kernel_matrix(geom, codes)
    return _full_allocation(matrix, ids, tile_size, "dense_kernel", geom,
                            reads=geom.out_positions)


def map_conv_routed(geom: ConvGeometry, codes: np.ndarray, tile_size: int) -> MappingPlan:
    """Dense kernel arrangement with per-column zero reclamation."""
    matrix, ids = _kernel_matrix(geom, codes)
    return map_linear_dense(matrix, tile_size, ids, scheme="dense_routed",
                            geometry=geom, reads=geom.out_positions)


def _linear_logical(weights: WeightTensor) -> tuple[np.ndarray, np.ndarray]:
    """Logical matrix (in x out) and weight ids for a linear layer."""
    codes = weights.codes
    ids = np.arange(codes.size, dtype=np.int64).reshape(codes.shape)
    return codes.T, ids.T


def layer_plan(spec: LayerSpec, weights: WeightTensor, scheme: str,
               tile_size: int) -> MappingPlan:
    """Build the mapping plan of one layer under the given scheme."""
    if scheme not in SCHEMES:
        raise MappingError(f"unknown scheme {scheme!r}")
    if spec.kind == "linear":
        matrix, ids = _linear_logical(weights)
        if scheme == "sparse_staggered":
            return map_linear_sparse(matrix, tile_size, ids)
        # both dense schemes reduce to the compacted layout on linear layers
        return map_linear_dense(matrix, tile_size, ids, scheme=scheme)
    geom = ConvGeometry.from_spec(spec)
    if scheme == "sparse_staggered":
        return map_conv_staggered(geom, weights.codes, tile_size)
    if scheme == "dense_kernel":
        return map_conv_dense(geom, weights.codes, tile_size)
    return map_conv_routed(geom, weights.codes, tile_size)


def network_plans(net: QuantizedNetwork, scheme: str, tile_size: int) -> list[MappingPlan]:
    return [layer_plan(layer.spec, layer.weights, scheme, tile_size)
            for layer in net.layers]


def plan_matvec(plan: MappingPlan, x: np.ndarray) -> np.ndarray:
    """Ideal logical product of the mapped layer: y[n] = sum_m x[m] * code[m, n].

    Works for any scheme; used to check functional equivalence of plans.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != plan.rows:
        raise ValueError(f"input length {x.shape[1]} != logical rows {plan.rows}")
    y = np.zeros((plan.cols, x.shape[0]))
    for tp in plan.tiles:
        np.add.at(y, tp.logical_cols, (x[:, tp.logical_rows] * tp.codes).T)
    return y.T if y.shape[1] > 1 else y[:, 0]


def plan_products(plan: MappingPlan) -> set[tuple[int, int, int]]:
    """Set of (input_index, output_index, weight_id) products the plan
    realizes per sample; the brute-force connectivity oracle target.

    For staggered/linear plans the logical matrix already pairs inputs with
    outputs. For dense conv arrangements the sliding-read schedule expands
    each kernel column over output positions; output ids follow the
    staggered convention k * out_positions + p.
    """
    products: set[tuple[int, int, int]] = set()
    dense_conv = plan.geometry is not None and plan.scheme != "sparse_staggered"
    if dense_conv:
        idx = plan.geometry.read_indices()
        pn = plan.geometry.out_positions
        for tp in plan.tiles:
            for lr, lc, wid in zip(tp.logical_rows, tp.logical_cols, tp.weight_ids):
                if wid < 0:
                    continue
                for p in range(pn):
                    products.add((int(idx[p, lr]), int(lc) * pn + p, int(wid)))
        return products
    for tp in plan.tiles:
        for lr, lc, wid in zip(tp.logical_rows, tp.logical_cols, tp.weight_ids):
            if wid >= 0:
                products.add((int(lr), int(lc), int(wid)))
    return products


# ---------------------------------------------------------------------------
# closed-form cost model


def devices_sparse_eq1(geom: ConvGeometry) -> Fraction:
    """Closed-form device count of the staggered arrangement, evaluated
    verbatim as printed: K^2 * X * W * (X + 2P - D(H-1) - 1) / (S + 1)."""
    span = geom.in_x + 2 * geom.padding - geom.dilation * (geom.kernel_h - 1) - 1
    return Fraction(geom.kernels ** 2 * geom.in_x * geom.kernel_w * span,
                    geom.stride + 1)


def devices_dense_eq2(geom: ConvGeometry) -> int:
    """Closed-form device count of the dense kernel arrangement: K * H * W."""
    return geom.kernels * geom.kernel_h * geom.kernel_w


def steps_dense_eq3(geom: ConvGeometry) -> tuple[int, bool]:
    """Closed-form step count of the dense arrangement, evaluated verbatim:
    (X + 2P - D(H-1) - 1) / (S + 1). Returns (floor, remainder_flag)."""
    span = geom.in_x + 2 * geom.padding - geom.dilation * (geom.kernel_h - 1) - 1
    frac = Fraction(span, geom.stride + 1)
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
    if tile_size < 2:
        raise MappingError("tile size must be >= 2 to hold a differential pair")
    cap = pair_capacity(tile_size)
    geom = None if spec.kind == "linear" else ConvGeometry.from_spec(spec)

    if scheme == "sparse_staggered":
        if geom is None:
            m, n = spec.in_features, spec.out_features
        else:
            m, n = geom.padded_inputs, geom.kernels * geom.out_positions
        rd = 2 * m * n
        tiles = -(-m // tile_size) * (-(-n // cap))
        rwo = -(-m // tile_size)
    elif scheme == "dense_kernel" and geom is not None:
        if geom.footprint > tile_size:
            raise MappingError(
                f"kernel footprint {geom.footprint} exceeds tile size {tile_size}")
        rd = 2 * geom.footprint * geom.kernels
        tiles = -(-geom.kernels // cap)
        rwo = geom.out_positions
    else:
        # compacted layouts: dense_routed everywhere, dense_kernel on linear
        if geom is None:
            logical = weights.codes.T
            reads = 1
        else:
            logical = weights.codes.reshape(geom.kernels, geom.footprint).T
            reads = geom.out_positions
        nnz = np.count_nonzero(logical, axis=0)
        rd = 2 * int(nnz.sum())
        tiles = 0
        for g0 in range(0, logical.shape[1], cap):
            peak = int(nnz[g0: g0 + cap].max(initial=0))
            tiles += -(-peak // tile_size)
        rwo = reads * (-(-int(nnz.max(initial=0)) // tile_size))
    return CostReport(scheme=scheme, rd=rd, tiles=tiles, rwo=rwo)


def analytic_network_cost(net: QuantizedNetwork, scheme: str,
                          tile_size: int) -> CostReport:
    reports = [_analytic_layer_cost(layer.spec, layer.weights, scheme, tile_size)
               for layer in net.layers]
    return _sum_reports(scheme, reports)


def derive_costs_cross_scheme(simulated_scheme: str, net: QuantizedNetwork,
                              tile_size: int) -> dict[str, CostReport]:
    """Cost reports for all schemes after constructing plans for only one.

    The simulated scheme's report comes from its constructed plans; the
    other two are derived analytically from shapes and zero locations.
    """
    if simulated_scheme not in SCHEMES:
        raise MappingError(f"unknown scheme {simulated_scheme!r}")
    out = {}
    for scheme in SCHEMES:
        if scheme == simulated_scheme:
            out[scheme] = cost_network(net, scheme, tile_size)[0]
        else:
            out[scheme] = analytic_network_cost(net, scheme, tile_size)
    return out
