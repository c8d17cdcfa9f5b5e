from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest

from scipy.sparse import coo_matrix

from xbardse import mapping, qnet
from xbardse.mapping import (
    SCHEMES,
    MappingError,
    analytic_network_cost,
    cost,
    cost_network,
    devices_dense_eq2,
    devices_sparse_eq1,
    layer_plan,
    map_linear_dense,
    map_linear_sparse,
    plans_cost,
    steps_dense_eq3,
)


def unroll_conv_staggered(geom: qnet.LayerSpec, kernel: np.ndarray | None = None):
    """Test oracle: the Toeplitz-style unrolled logical matrix of a conv
    layer, as a scipy ``csr_matrix``: rows = padded input cells x channels,
    columns = output positions x kernels; column k*P + p holds the copy of
    kernel k shifted to output position p."""
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


def geom_1d(kernels=1, kernel_h=3, in_x=5, stride=1, padding=0, dilation=1, channels=1):
    """A conv1d layer spec with its input fields filled in."""
    return qnet.LayerSpec("conv1d", in_channels=channels, kernels=kernels, kernel_h=kernel_h,
                          kernel_w=1, in_x=in_x, in_y=1, stride=stride, padding=padding,
                          dilation=dilation)


def conv_plan(geom, codes, scheme, tile_size):
    """``layer_plan`` of the conv layer spec ``geom`` with weight codes
    ``codes``."""
    return layer_plan(geom, qnet.WeightTensor(codes, 1.0, 8), scheme, tile_size)


def cell_ids(plan, spec, weights):
    """Weight id of each physical cell of ``plan``, the ``layer_plan`` of
    ``spec`` and ``weights``: its flat index into ``weights.codes``, -1 for a
    structural zero or an empty cell.

    The ids are the codes of a second plan, of the same spec, scheme and tile
    size, whose weights are their own flat index + 1. A compacted layout
    drops zero weights, so there the ids of the layer's zero weights are 0
    too. The two plans must lay out alike, and ``plan`` must hold at each
    cell the code of the weight its id names, 0 where the id is -1."""
    index_codes = np.arange(1, weights.codes.size + 1).reshape(weights.codes.shape)
    if plan.row_map is not None:
        index_codes[weights.codes == 0] = 0
    # no validate(): index codes overflow every bit width; layer_plan checks
    # the int16 range only, which holds layers of up to 32,767 weights
    twin = layer_plan(spec, qnet.WeightTensor(index_codes, 1.0, weights.bit_width),
                      plan.scheme, plan.tile_size)
    assert twin.tiles == plan.tiles and twin.codes.shape == plan.codes.shape
    assert np.array_equal(twin.row_map, plan.row_map)     # both None for a full layout
    ids = twin.codes.astype(np.int64) - 1
    assert np.array_equal(plan.codes, np.where(ids >= 0, weights.codes.ravel()[ids], 0))
    return ids


def _cells(plan, values):
    """(logical row, logical column, value) of every mapped cell, in physical
    row-major order, for a matrix ``values`` of the plan's physical shape."""
    mapped = np.ones(plan.codes.shape, bool) if plan.row_map is None else plan.row_map >= 0
    phys, cols = np.nonzero(mapped)
    rows = phys if plan.row_map is None else plan.row_map[phys, cols]
    return rows, cols, values[phys, cols]


def plan_matvec(plan, x):
    """Test oracle: the ideal logical product of the mapped layer,
    y[n] = sum_m x[m] * code[m, n], for any scheme."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != plan.rows:
        raise ValueError(f"input length {x.shape[1]} != logical rows {plan.rows}")
    rows, cols, codes = _cells(plan, plan.codes)
    y = np.zeros((plan.cols, x.shape[0]))
    np.add.at(y, cols, (x[:, rows] * codes).T)
    return y.T if y.shape[1] > 1 else y[:, 0]


def plan_products(plan, spec, weights):
    """Test oracle: the set of (input index, output index, weight id)
    products that ``plan``, the ``layer_plan`` of ``spec`` and ``weights``,
    realizes per sample; weight ids come from ``cell_ids``.

    A plan that does not slide already pairs inputs with outputs in its
    logical matrix. A sliding plan's read schedule expands each kernel
    column over output positions, the windows of its ``gather``; output ids
    follow the staggered convention k * out_positions + p.
    """
    rows, cols, wids = _cells(plan, cell_ids(plan, spec, weights))
    kept = wids >= 0
    rows, cols, wids = rows[kept], cols[kept], wids[kept]
    if not plan.slides:
        return set(zip(rows.tolist(), cols.tolist(), wids.tolist()))
    pn = plan.reads_per_sample
    inputs = plan.gather[:, rows]                              # (P, cells)
    outputs = cols * pn + np.arange(pn)[:, None]
    return set(zip(inputs.ravel().tolist(), outputs.ravel().tolist(),
                   np.broadcast_to(wids, inputs.shape).ravel().tolist()))


def derive_costs_cross_scheme(simulated_scheme, net, tile_size):
    """Test oracle: cost reports for all schemes after constructing plans for
    only one. The simulated scheme's report comes from its constructed
    plans; the other two are derived analytically from shapes and zero
    locations."""
    if simulated_scheme not in SCHEMES:
        raise MappingError(f"unknown scheme {simulated_scheme!r}")
    out = {}
    for scheme in SCHEMES:
        if scheme == simulated_scheme:
            out[scheme] = cost_network(net, scheme, tile_size)[0]
        else:
            out[scheme] = analytic_network_cost(net, scheme, tile_size)
    return out


TileCells = namedtuple("TileCells", "tile_row tile_col rows pair_slots logical_rows "
                                    "logical_cols codes")


def tile_cells(plan):
    """Each tile's mapped cells as parallel arrays: device row and column-pair
    slot inside the tile, logical row and column, and code.
    Row-major inside full tiles; by column, then row, inside routed tiles.
    Tile (tr, tc) holds physical rows [tr * t, +t) and columns
    [tc * (t // 2), +t // 2)."""
    t = plan.tile_size
    cap = t // 2
    out = []
    for tp in plan.tiles:
        r0, c0 = tp.tile_row * t, tp.tile_col * cap
        block = np.s_[r0:r0 + t, c0:c0 + cap]
        if plan.row_map is None:
            rows, slots = np.nonzero(np.ones(plan.codes[block].shape, bool))
            logical_rows = rows + r0
        else:
            slots, rows = np.nonzero(plan.row_map[block].T >= 0)
            logical_rows = plan.row_map[block][rows, slots]
        out.append(TileCells(tp.tile_row, tp.tile_col, rows, slots, logical_rows, slots + c0,
                             plan.codes[block][rows, slots]))
    return out


def random_quantized(rng, shape, zero_frac=0.3, bits=8):
    w = rng.normal(size=shape)
    w.ravel()[rng.random(w.size) < zero_frac] = 0.0
    if not np.abs(w).max():
        w.ravel()[0] = 1.0
    return qnet.quantize_weights(w, bits)


class TestUnroll:
    def test_conv1d_staggered_diagonals(self):
        mat = unroll_conv_staggered(geom_1d())
        assert mat.shape == (5, 3)
        assert mat.nnz == 9
        dense = mat.toarray()
        for col in range(3):
            assert np.flatnonzero(dense[:, col]).tolist() == [col, col + 1, col + 2]

    def test_pointwise_kernel_is_diagonal_like(self):
        mat = unroll_conv_staggered(geom_1d(kernel_h=1))
        assert mat.shape == (5, 5)
        assert mat.nnz == 5
        assert all(np.count_nonzero(mat.toarray()[:, c]) == 1 for c in range(5))

    def test_conv2d_counts(self):
        geom = qnet.LayerSpec("conv2d", kernels=1, kernel_h=3, kernel_w=3, in_x=4, in_y=4,
                              stride=1, padding=0, dilation=1, in_channels=1)
        mat = unroll_conv_staggered(geom)
        assert mat.shape == (16, 4)
        assert mat.nnz == 36

    def test_values_are_kernel_copies(self):
        kernel = np.array([1, 2, 3]).reshape(1, 1, 3)
        mat = unroll_conv_staggered(geom_1d(), kernel).toarray()
        for col in range(3):
            assert mat[col: col + 3, col].tolist() == [1, 2, 3]


class TestLinearSparse:
    def test_dense_4x4(self):
        plan = map_linear_sparse(np.arange(1, 17).reshape(4, 4), 4)
        rep = cost(plan)
        assert rep.rd == 32
        assert rep.tiles == 2

    def test_single_weight(self):
        plan = map_linear_sparse(np.array([[5]]), 32)
        rep = cost(plan)
        assert rep.rd == 2
        assert rep.tiles == 1

    def test_zeros_still_allocated(self):
        mat = np.arange(16).reshape(4, 4).astype(float)
        mat[mat % 2 == 0] = 0.0  # 8 zeros
        plan = map_linear_sparse(mat, 4)
        assert cost(plan).rd == 32

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mapper", [map_linear_sparse, map_linear_dense])
    def test_rejects_non_finite_cells(self, mapper, bad):
        with pytest.raises(MappingError, match="non-finite"):
            mapper(np.array([[1.0, bad], [0.0, 2.0]]), 4)

    def test_rejects_tiny_tile(self):
        with pytest.raises(MappingError):
            map_linear_sparse(np.ones((2, 2)), 1)


class TestLinearDense:
    def test_column_compaction(self):
        mat = np.array([[1.0], [0.0], [2.0], [0.0]])
        plan = map_linear_dense(mat, 4)
        assert cost(plan).rd == 4  # 2 weights x pair
        tp, = tile_cells(plan)
        assert tp.rows.tolist() == [0, 1]
        assert tp.logical_rows.tolist() == [0, 2]
        assert plan.row_map[:, 0].tolist() == [0, 2]

    def test_all_zero_matrix(self):
        plan = map_linear_dense(np.zeros((4, 4)), 4)
        rep = cost(plan)
        assert rep.rd == 0 and rep.tiles == 0 and rep.rwo == 0

    def test_no_zeros_matches_sparse_layout(self):
        mat = np.arange(1, 17).reshape(4, 4).astype(float)
        dense = map_linear_dense(mat, 4)
        sparse = map_linear_sparse(mat, 4)
        assert cost(dense).rd == cost(sparse).rd
        for td, ts in zip(tile_cells(dense), tile_cells(sparse)):
            order_d = np.lexsort((td.pair_slots, td.rows))
            order_s = np.lexsort((ts.pair_slots, ts.rows))
            assert np.array_equal(td.logical_rows[order_d], ts.logical_rows[order_s])
            assert np.array_equal(td.codes[order_d], ts.codes[order_s])
        for col in range(4):
            assert dense.row_map[:, col].tolist() == list(range(4))


    @pytest.mark.parametrize("kind", ["int", "float"])
    def test_matches_per_column_reference(self, kind):
        rng = np.random.default_rng(17 if kind == "int" else 18)
        cases = [np.zeros((5, 3)), np.zeros((1, 1)), np.zeros((0, 4)), np.zeros((3, 0))]
        for _ in range(200):
            m, n = rng.integers(1, 40, size=2)
            mat = (rng.integers(-127, 128, size=(m, n)) if kind == "int"
                   else rng.normal(size=(m, n)))
            mat[rng.random((m, n)) < rng.random()] = 0
            mat[:, rng.random(n) < 0.2] = 0                 # all-zero columns
            cases.append(mat)
        for mat in cases:
            t = int(rng.integers(2, 21))
            got = map_linear_dense(mat, t)
            want, perms = per_column_dense(mat, t)
            assert (got.rows, got.cols, got.tile_size) == (*mat.shape, t)
            assert len(got.tiles) == len(want)
            for tp in got.tiles:
                assert type(tp.tile_row) is type(tp.tile_col) is int
            for tp, ref in zip(tile_cells(got), want):
                assert (tp.tile_row, tp.tile_col) == (ref.tile_row, ref.tile_col)
                for name in ("rows", "pair_slots", "logical_rows", "logical_cols", "codes"):
                    a, b = getattr(tp, name), getattr(ref, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert got.row_map.shape[1] == len(perms)
            for col, perm in perms.items():
                a = got.row_map[:perm.size, col]
                assert a.dtype == perm.dtype
                assert np.array_equal(a, perm)
                assert (got.row_map[perm.size:, col] == -1).all()


def per_column_dense(mat, tile_size):
    """map_linear_dense's tile cells built column by column, one bucket per
    tile, and each column's logical rows in physical order."""
    n = mat.shape[1]
    cap = tile_size // 2
    perms, buckets = {}, {}
    for col in range(n):
        nz = np.flatnonzero(mat[:, col]).astype(np.int32)     # row maps are int32
        perms[col] = nz.copy()
        phys = np.arange(nz.size)
        for tr in range(-(-nz.size // tile_size)):
            sel = slice(tr * tile_size, (tr + 1) * tile_size)
            part = phys[sel]
            buckets.setdefault((tr, col // cap), []).append((
                part - tr * tile_size, np.full(part.size, col % cap), nz[sel],
                np.full(part.size, col), mat[nz[sel], col]))
    tiles = [TileCells(tr, tc, *(np.concatenate([p[k] for p in buckets[(tr, tc)]])
                                 for k in range(5)))
             for tr, tc in sorted(buckets)]
    return tiles, perms


class TestConvMappings:
    def test_staggered_counts(self):
        codes = np.ones((1, 1, 3), dtype=np.int64)
        plan = conv_plan(geom_1d(), codes, "sparse_staggered", 8)
        rep = cost(plan)
        assert (plan.rows, plan.cols) == (5, 3)
        assert rep.rd == 30
        assert rep.rwo == 1

    def test_dense_kernel_counts(self):
        geom = qnet.LayerSpec("conv2d", kernels=64, kernel_h=3, kernel_w=3, in_x=8, in_y=8,
                              stride=1, padding=0, dilation=1, in_channels=1)
        codes = np.ones((64, 1, 3, 3), dtype=np.int64)
        plan = conv_plan(geom, codes, "dense_kernel", 16)
        assert cost(plan).rd == 2 * 64 * 9
        assert devices_dense_eq2(geom) == 576

    def test_kernel_must_fit_tile(self):
        geom = qnet.LayerSpec("conv2d", kernels=1, kernel_h=3, kernel_w=3, in_x=8, in_y=8,
                              stride=1, padding=0, dilation=1, in_channels=2)
        codes = np.ones((1, 2, 3, 3), dtype=np.int64)
        with pytest.raises(MappingError, match="footprint"):
            conv_plan(geom, codes, "dense_kernel", 16)

    def test_dense_rwo_counts_output_positions(self):
        codes = np.ones((1, 1, 3), dtype=np.int64)
        plan = conv_plan(geom_1d(), codes, "dense_kernel", 8)
        assert cost(plan).rwo == 3  # three sliding reads
        floor3, rem3 = steps_dense_eq3(geom_1d())
        assert (floor3, rem3) == (1, False)

    def test_sliding_plan_holds_a_read_only_gather(self):
        """The dense layouts of a conv keep its window indices, read-only, as
        their gather; the staggered one lays its cells out from them."""
        geom = qnet.LayerSpec("conv2d", kernels=2, kernel_h=2, kernel_w=3, in_x=5, in_y=4,
                              stride=2, padding=1, dilation=1, in_channels=2)
        codes = np.arange(24).reshape(2, 2, 2, 3) - 12
        for scheme in SCHEMES:
            plan = conv_plan(geom, codes, scheme, 16)
            if scheme == "sparse_staggered":
                assert plan.gather is None
                continue
            assert np.array_equal(plan.gather, geom.read_indices())
            assert not plan.gather.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                plan.gather[0, 0] = 0

    def test_zero_output_extent_errors(self):
        with pytest.raises(ValueError):
            geom_1d(in_x=2).out_positions
        # the geometry itself rejects the extent, or a stride, dilation or
        # padding that would make it wrong, before any mapper or cost
        codes = np.ones((1, 1, 3), dtype=np.int64)
        weights = qnet.WeightTensor(codes, 1.0, 4)
        for fields, message in (({"in_x": 2}, "non-positive output extent: input 2"),
                                ({"stride": -1}, "stride must be >= 1, got -1"),
                                ({"stride": 0}, "stride must be >= 1, got 0"),
                                ({"dilation": 0}, "dilation must be >= 1, got 0"),
                                ({"dilation": -1}, "dilation must be >= 1, got -1"),
                                ({"padding": -1}, "padding must be >= 0, got -1")):
            spec = qnet.LayerSpec("conv1d", in_channels=1, kernels=1, kernel_h=3,
                                  **{"in_x": 5, "in_y": 1, **fields})
            calls = [(fn, (spec, weights, scheme, 8)) for scheme in SCHEMES
                     for fn in (layer_plan, mapping._analytic_layer_cost)]
            for fn, args in calls:
                with pytest.raises(ValueError, match=message) as err:
                    fn(*args)
                assert type(err.value) is ValueError, (fn.__name__, args[2])
        spec, = qnet.propagate_shapes([qnet.conv1d(kernels=1, kernel_h=3)], (1, 3))[0]
        plan = layer_plan(spec, weights, "sparse_staggered", 8)
        assert plan.cols == 1  # extent exactly 1 is legal

    def test_pointwise_staggered_vs_dense_duplication(self):
        # staggered stores one kernel copy per output position
        geom = geom_1d(kernel_h=1, in_x=6)
        codes = np.ones((1, 1, 1), dtype=np.int64)
        staggered = conv_plan(geom, codes, "sparse_staggered", 8)
        dense = conv_plan(geom, codes, "dense_kernel", 8)

        def kernel_cells(plan):
            ids = cell_ids(plan, geom, qnet.WeightTensor(codes, 1.0, 8))
            return int((ids >= 0).sum())

        assert kernel_cells(staggered) == kernel_cells(dense) * geom.out_positions


class TestEquationEvaluators:
    def test_eq1_worked_examples(self):
        assert devices_sparse_eq1(geom_1d()) == Fraction(5)
        assert devices_sparse_eq1(geom_1d(in_x=3)) == 0
        g = qnet.LayerSpec("conv1d", kernels=2, kernel_h=1, kernel_w=1, in_x=4, in_y=1,
                           stride=0, padding=0, dilation=1, in_channels=1)
        assert devices_sparse_eq1(g) == 48

    def test_eq2_worked_examples(self):
        g = qnet.LayerSpec("conv2d", kernels=64, kernel_h=3, kernel_w=3, in_x=8, in_y=8,
                           stride=1, padding=0, dilation=1, in_channels=1)
        assert devices_dense_eq2(g) == 576
        assert devices_dense_eq2(geom_1d(kernel_h=1)) == 1

    def test_eq3_worked_examples(self):
        assert steps_dense_eq3(geom_1d()) == (1, False)
        assert steps_dense_eq3(geom_1d(in_x=3)) == (0, False)
        assert steps_dense_eq3(geom_1d(in_x=32, padding=1)) == (15, True)

    def test_eq2_matches_constructive_per_polarity(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            c = int(rng.integers(1, 4))
            geom = geom_1d(kernels=int(rng.integers(1, 6)),
                           kernel_h=int(rng.integers(1, 4)),
                           in_x=int(rng.integers(6, 12)), channels=c)
            codes = rng.integers(-3, 4, size=(geom.kernels, c, geom.kernel_h))
            plan = conv_plan(geom, codes, "dense_kernel", 64)
            assert cost(plan).rd == 2 * devices_dense_eq2(geom) * c


class TestCost:
    def test_empty_plan_all_zero(self):
        rep = cost(map_linear_dense(np.zeros((3, 3)), 4))
        assert (rep.rd, rep.tiles, rep.rwo) == (0, 0, 0)

    def test_tile_budget_invariant(self, fixture_net):
        for scheme in SCHEMES:
            for t in (8, 32, 64):
                total, reports = cost_network(fixture_net, scheme, t)
                assert total.rd <= total.tiles * t * t or total.tiles == 0

    def test_scheme_orderings_on_cnn_geometries(self):
        # RD(routed) <= RD(dense_kernel) <= RD(staggered); RWO(staggered) <= RWO(dense)
        rng = np.random.default_rng(5)
        for _ in range(40):
            c = int(rng.integers(1, 3))
            x = int(rng.integers(6, 15))
            spec = qnet.conv1d(kernels=int(rng.integers(1, 6)),
                               kernel_h=int(rng.integers(1, 4)),
                               stride=int(rng.integers(1, 3)),
                               padding=int(rng.integers(0, 2)))
            specs, _ = qnet.propagate_shapes([spec], (c, x))
            wt = random_quantized(rng, specs[0].weight_shape())
            t = int(rng.choice([32, 64]))
            reps = {s: cost(layer_plan(specs[0], wt, s, t)) for s in SCHEMES}
            assert reps["dense_routed"].rd <= reps["dense_kernel"].rd
            assert reps["dense_kernel"].rd <= reps["sparse_staggered"].rd
            assert reps["sparse_staggered"].rwo <= reps["dense_kernel"].rwo

    def test_plans_cost_equals_constructive_and_analytic(self, fixture_net):
        net = random_conv_net(np.random.default_rng(14))
        for model in (fixture_net, net):
            for scheme in SCHEMES:
                for t in (32, 64):
                    plans = mapping.network_plans(model, scheme, t)
                    assert plans_cost(scheme, plans) == cost_network(model, scheme, t)
                    rep, _ = plans_cost(scheme, plans)
                    assert rep == analytic_network_cost(model, scheme, t)


def random_conv_net(rng):
    """conv2d(3, 3x2, s2, p1) -> conv2d(4, 2x2, d2) -> linear(5)
    on 2x9x8 inputs, with about a third of the codes zero."""
    arch = [qnet.conv2d(3, 3, 2, stride=2, padding=1), qnet.conv2d(4, 2, 2, dilation=2),
            qnet.linear(5)]
    specs, _ = qnet.propagate_shapes(arch, (2, 9, 8))
    layers = [qnet.Layer(spec, random_quantized(rng, spec.weight_shape())) for spec in specs]
    net = qnet.QuantizedNetwork("random-conv", 8, (2, 9, 8), layers)
    net.validate()
    return net


class TestFullAllocation:
    @pytest.mark.parametrize("scheme", ["sparse_staggered", "dense_kernel"])
    def test_tiles_equal_meshgrid_reference(self, scheme, fixture_net):
        net = random_conv_net(np.random.default_rng(13))
        checked = 0
        for model in (fixture_net, net):
            for layer in model.layers:
                spec, wt = layer.spec, layer.weights
                if spec.kind == "linear":
                    if scheme != "sparse_staggered":
                        continue  # dense schemes compact linear layers
                    values = wt.codes.T.astype(np.int16)     # plans hold int16 codes
                elif scheme == "sparse_staggered":
                    values = mapping._staggered_cells(spec, spec.read_indices(), wt.codes)
                else:
                    values = mapping._weight_matrix(wt.codes)
                for t in (2, 3, 8, 13, 32, 128):
                    if scheme == "dense_kernel" and spec.footprint > t:
                        continue
                    plan = layer_plan(spec, wt, scheme, t)
                    want = meshgrid_tiles(values, t)
                    assert len(plan.tiles) == len(want)
                    for tp, ref in zip(tile_cells(plan), want):
                        assert (tp.tile_row, tp.tile_col) == (ref.tile_row, ref.tile_col)
                        for name in ("rows", "pair_slots", "logical_rows", "logical_cols",
                                     "codes"):
                            got, exp = getattr(tp, name), getattr(ref, name)
                            assert got.dtype == exp.dtype and np.array_equal(got, exp), name
                    checked += 1
        assert checked >= 10


def meshgrid_tiles(matrix, tile_size):
    """Full allocation tile by tile, each tile's cells from its own meshgrid."""
    m, n = matrix.shape
    cap = tile_size // 2
    tiles = []
    for tr in range(-(-m // tile_size)):
        r0, r1 = tr * tile_size, min(m, (tr + 1) * tile_size)
        for tc in range(-(-n // cap)):
            c0, c1 = tc * cap, min(n, (tc + 1) * cap)
            rr, cc = np.meshgrid(np.arange(r0, r1), np.arange(c0, c1), indexing="ij")
            tiles.append(TileCells(
                tile_row=tr, tile_col=tc, rows=rr.ravel() - r0, pair_slots=cc.ravel() - c0,
                logical_rows=rr.ravel(), logical_cols=cc.ravel(),
                codes=matrix[r0:r1, c0:c1].ravel()))
    return tiles


class TestPlanDtypes:
    def test_compact_integers_per_cell(self, fixture_net):
        """layer_plan plans hold int16 codes and int32 row maps: 2 bytes per
        physical cell in a full layout, 6 in a compacted one, and every
        mapped code equal to the weight its id names."""
        net = random_conv_net(np.random.default_rng(15))
        layouts = set()
        for model in (fixture_net, net):
            for scheme in SCHEMES:
                for plan, layer in zip(mapping.network_plans(model, scheme, 32), model.layers):
                    assert plan.codes.dtype == np.int16
                    held = [plan.codes]
                    if plan.row_map is not None:
                        assert plan.row_map.dtype == np.int32
                        held.append(plan.row_map)
                    per_cell = sum(a.nbytes for a in held) / plan.codes.size
                    assert per_cell == (2 if plan.row_map is None else 6)
                    layouts.add(plan.row_map is None)
                    cell_ids(plan, layer.spec, layer.weights)
        assert layouts == {True, False}

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("code", [40000, -32769, 0.5], ids=["above", "below", "fractional"])
    def test_code_that_does_not_fit_raises(self, scheme, code):
        """A code int16 cannot hold raises instead of wrapping; the analytic
        cost, which reads the same matrix for compacted layouts, agrees."""
        specs, _ = qnet.propagate_shapes([qnet.conv1d(2, 3), qnet.linear(2)], (1, 6))
        layers = [qnet.Layer(spec, qnet.WeightTensor(np.ones(spec.weight_shape()), 1.0, 8))
                  for spec in specs]
        for layer in layers:
            layer.weights.codes.ravel()[1] = code
            with pytest.raises(MappingError, match="integers within the int16 range"):
                layer_plan(layer.spec, layer.weights, scheme, 32)
        net = qnet.QuantizedNetwork("wide", 8, (1, 6), layers)
        with pytest.raises(MappingError, match="integers within the int16 range"):
            cost_network(net, scheme, 32)


class TestCrossSchemeDerivation:
    @pytest.mark.parametrize("build", [
        lambda net: layer_plan(net.layers[0].spec, net.layers[0].weights, "bogus", 16),
        lambda net: cost_network(net, "bogus", 16),
        lambda net: analytic_network_cost(net, "bogus", 16),
    ], ids=["layer_plan", "cost_network", "analytic_network_cost"])
    def test_unknown_scheme_rejected(self, build, fixture_net):
        with pytest.raises(MappingError, match="unknown scheme 'bogus'"):
            build(fixture_net)

    def test_analytic_equals_constructive(self, fixture_net):
        for t in (8, 32, 64):
            for scheme in SCHEMES:
                a = analytic_network_cost(fixture_net, scheme, t)
                b, _ = cost_network(fixture_net, scheme, t)
                assert a == b

    def test_derive_returns_all_schemes(self, fixture_net):
        out = derive_costs_cross_scheme("sparse_staggered", fixture_net, 32)
        assert set(out) == set(SCHEMES)
        for scheme in SCHEMES:
            assert out[scheme] == cost_network(fixture_net, scheme, 32)[0]

    def test_linear_only_network_schemes_coincide(self, linear_net):
        out = derive_costs_cross_scheme("sparse_staggered", linear_net, 16)
        # dense_kernel falls back to the compacted linear layout
        for f in ("rd", "tiles", "rwo"):
            assert getattr(out["dense_kernel"], f) == getattr(out["dense_routed"], f)
        assert out["sparse_staggered"].rd >= out["dense_routed"].rd

    def test_all_zero_conv_layer(self):
        spec, = qnet.propagate_shapes([qnet.conv1d(kernels=2, kernel_h=3)], (1, 8))[0]
        wt = qnet.WeightTensor(np.zeros(spec.weight_shape(), dtype=np.int64), 1.0, 8)
        net = qnet.QuantizedNetwork("z", 8, (1, 8), [qnet.Layer(spec, wt)])
        routed = analytic_network_cost(net, "dense_routed", 16)
        assert routed.rd == 0
        assert analytic_network_cost(net, "sparse_staggered", 16).rd > 0
        assert analytic_network_cost(net, "dense_kernel", 16).rd > 0


class TestFunctionalEquivalence:
    def test_sparse_equals_routed_on_linear(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            mat = rng.normal(size=(6, 5))
            mat[rng.random(mat.shape) < 0.4] = 0.0
            x = rng.normal(size=6)
            sparse = map_linear_sparse(mat, 4)
            routed = map_linear_dense(mat, 4)
            assert np.allclose(plan_matvec(sparse, x), plan_matvec(routed, x))

    def test_staggered_matvec_equals_convolution(self):
        rng = np.random.default_rng(7)
        spec, = qnet.propagate_shapes(
            [qnet.conv1d(kernels=2, kernel_h=3, padding=1)], (1, 8))[0]
        wt = random_quantized(rng, spec.weight_shape(), zero_frac=0.0)
        plan = layer_plan(spec, wt, "sparse_staggered", 8)
        net = qnet.QuantizedNetwork("c", 8, (1, 8),
                                    [qnet.Layer(spec, qnet.WeightTensor(wt.codes, 1.0, 8))])
        x = rng.normal(size=(1, 1, 8))
        ref = qnet.ideal_forward(net, x).reshape(2, -1)
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1))).ravel()
        got = plan_matvec(plan, padded).reshape(2, -1)
        assert np.allclose(got, ref)


class TestConnectivity:
    def test_plan_products_match_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            spec = qnet.conv1d(kernels=int(rng.integers(1, 4)),
                               kernel_h=int(rng.integers(1, 4)),
                               stride=int(rng.integers(1, 3)),
                               padding=int(rng.integers(0, 2)),
                               dilation=int(rng.integers(1, 3)))
            try:
                specs, _ = qnet.propagate_shapes([spec], (int(rng.integers(1, 3)),
                                                          int(rng.integers(6, 10))))
            except ValueError:
                continue
            spec = specs[0]
            wt = random_quantized(rng, spec.weight_shape())
            for scheme in SCHEMES:
                t = max(8, spec.footprint)
                plan = layer_plan(spec, wt, scheme, t)
                want = brute_force_products(spec, wt.codes,
                                            nonzero_only=(scheme == "dense_routed"))
                assert plan_products(plan, spec, wt) == want


def brute_force_products(geom, codes, nonzero_only):
    """Independent enumeration of (padded input, output, weight) products."""
    prods = set()
    kflat = np.asarray(codes).reshape(geom.kernels, -1)
    for k in range(geom.kernels):
        for p in range(geom.out_positions):
            ox, oy = divmod(p, geom.out_y)
            f = 0
            for c in range(geom.in_channels):
                for kh in range(geom.kernel_h):
                    for kw in range(geom.kernel_w):
                        if nonzero_only and kflat[k, f] == 0:
                            f += 1
                            continue
                        ax = ox * geom.stride + kh * geom.dilation
                        ay = oy * geom.stride + kw * geom.dilation
                        if geom.kind == "conv1d":
                            flat = c * geom.padded_x + ax
                        else:
                            flat = (c * geom.padded_x + ax) * geom.padded_y + ay
                        prods.add((flat, k * geom.out_positions + p,
                                   k * kflat.shape[1] + f))
                        f += 1
    return prods
