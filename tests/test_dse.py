import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from xbardse import cli, dse, mapping, qnet, xbar
from xbardse.dse import (
    ConfigResult,
    SearchSpace,
    contour_grid,
    grid_search,
    min_max_normalize,
    rank,
    weighted_score,
)


def small_space(net_name):
    return SearchSpace(network=[net_name],
                       scheme=["sparse_staggered", "dense_kernel"],
                       tile_size=[32, 64, 128],
                       io_bit_width=[8],
                       batch_size=[16, 256])


class TestSearchSpace:
    def test_cardinality(self, fixture_net):
        space = small_space(fixture_net.name)
        assert space.size() == 12
        assert len(list(space.points())) == 12

    def test_lexicographic_order(self, fixture_net):
        space = small_space(fixture_net.name)
        pts = list(space.points())
        schemes = [p["scheme"] for p in pts]
        assert schemes == ["sparse_staggered"] * 6 + ["dense_kernel"] * 6
        tiles = [p["tile_size"] for p in pts[:6]]
        assert tiles == [32, 32, 64, 64, 128, 128]

    def test_empty_dimension_rejected(self):
        space = SearchSpace(tile_size=[])
        with pytest.raises(ValueError):
            space.validate()


class TestGridSearch:
    def test_every_config_once_and_deterministic(self, fixture_net, test_data):
        space = small_space(fixture_net.name)
        nets = {fixture_net.name: fixture_net}
        a = grid_search(space, test_data, nets, seed=0)
        b = grid_search(space, test_data, nets, seed=0)
        assert len(a) == 12
        assert [r.config for r in a] == list(space.points())
        for ra, rb in zip(a, b):
            assert (ra.tsa, ra.rd, ra.rwo, ra.raw_score) == (rb.tsa, rb.rd, rb.rwo, rb.raw_score)
            if ra.tsa > 0:
                assert ra.raw_score > 0

    def test_parallel_schedule_invariance(self, fixture_net, test_data):
        space = small_space(fixture_net.name)
        nets = {fixture_net.name: fixture_net}
        serial = grid_search(space, test_data, nets, seed=0, jobs=1)
        parallel = grid_search(space, test_data, nets, seed=0, jobs=4)
        for ra, rb in zip(serial, parallel):
            assert ra.config == rb.config
            assert (ra.tsa, ra.raw_score, ra.normalized_score) == \
                   (rb.tsa, rb.raw_score, rb.normalized_score)

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, "2"])
    def test_jobs_must_be_a_positive_integer(self, jobs, fixture_net, test_data):
        space = SearchSpace(network=[fixture_net.name])
        with pytest.raises(ValueError, match="jobs"):
            grid_search(space, test_data, {fixture_net.name: fixture_net}, jobs=jobs)

    def test_single_point_equals_direct_eval(self, fixture_net, test_data):
        space = SearchSpace(network=[fixture_net.name], scheme=["dense_kernel"],
                            tile_size=[64], io_bit_width=[8], batch_size=[64])
        res, = grid_search(space, test_data, {fixture_net.name: fixture_net}, seed=0)
        hw = xbar.HardwareConfig(tile_size=64,
                                 io=xbar.IOConfig(io_bit_width=8, batch_size=64))
        direct = xbar.evaluate_accuracy(fixture_net, "dense_kernel", hw, test_data, 0)
        assert res.tsa == direct

    def test_failure_carries_config(self, fixture_net, test_data):
        # dense_kernel with a tile smaller than the kernel footprint must fail
        space = SearchSpace(network=[fixture_net.name], scheme=["dense_kernel"],
                            tile_size=[2], io_bit_width=[8], batch_size=[64])
        with pytest.raises(dse.EvaluationError) as err:
            grid_search(space, test_data, {fixture_net.name: fixture_net}, seed=0)
        assert err.value.config["tile_size"] == 2

    @pytest.mark.parametrize("scheme", ["sparse_staggered", "dense_routed"])
    def test_point_costs_only_its_own_scheme(self, scheme, fixture_net, test_data):
        # t=2 is below the conv1d footprint 3, which only dense_kernel cannot map
        space = SearchSpace(network=[fixture_net.name], scheme=[scheme],
                            tile_size=[2], io_bit_width=[8], batch_size=[64])
        res, = grid_search(space, test_data, {fixture_net.name: fixture_net}, seed=0)
        rep = mapping.analytic_network_cost(fixture_net, scheme, 2)
        assert (res.rd, res.rwo, res.tiles) == (rep.rd, rep.rwo, rep.tiles)

    @pytest.mark.parametrize("scheme", mapping.SCHEMES)
    def test_point_builds_each_layer_plan_once(self, scheme, fixture_net, test_data,
                                                monkeypatch):
        calls = []
        build = mapping.layer_plan

        def counting(*args, **kwargs):
            calls.append(args[2])
            return build(*args, **kwargs)

        monkeypatch.setattr(mapping, "layer_plan", counting)
        cfg = next(SearchSpace(network=[fixture_net.name], scheme=[scheme], tile_size=[16],
                               io_bit_width=[6], batch_size=[64]).points())
        res = dse.evaluate_config(cfg, 0, {fixture_net.name: fixture_net}, test_data, 0,
                                  xbar.DeviceModel(), [])
        assert calls == [scheme] * len(fixture_net.layers)
        monkeypatch.undo()
        constructive, _ = mapping.cost_network(fixture_net, scheme, 16)
        analytic = mapping.analytic_network_cost(fixture_net, scheme, 16)
        for rep in (constructive, analytic):
            assert (res.rd, res.rwo, res.tiles) == (rep.rd, rep.rwo, rep.tiles)


def device_space(net_name, **dims):
    """Two values of every I/O dimension and of most device dimensions,
    including std 0, p_stuck_on + p_stuck_off = 1 and n_states None / 4."""
    base = dict(network=[net_name], scheme=list(mapping.SCHEMES), tile_size=[8, 32],
                io_bit_width=[None, 4], v_max=[0.3, 0.2], batch_size=[64, 200],
                n_states=[None, 4], p_stuck_on=[0.5], p_stuck_off=[0.01, 0.5],
                std_multiplier=[0.0, 1.0])
    return SearchSpace(**{**base, **dims})


def per_point_search(space, data, networks, seed):
    """grid_search's results with each point sampling and programming its own
    devices (a fresh conductance list per point), in lexicographic order."""
    results = [dse.evaluate_config(cfg, i, networks, data, seed, xbar.DeviceModel(), [])
               for i, cfg in enumerate(space.points())]
    for res, norm in zip(results, min_max_normalize([r.raw_score for r in results])):
        res.normalized_score = norm
    return results


def population_count(space):
    return int(np.prod([len(getattr(space, name)) for name in dse.POPULATION]))


class TestPopulationSharing:
    def test_results_equal_the_per_point_reference(self, fixture_net, test_data, tmp_path):
        nets = {fixture_net.name: fixture_net}
        space = device_space(fixture_net.name)
        got = grid_search(space, test_data, nets, seed=3)
        want = per_point_search(space, test_data, nets, seed=3)
        assert got == want
        assert [r.config for r in got] == list(space.points())
        assert [r.order_index for r in got] == list(range(space.size()))
        cli.write_results_csv(tmp_path / "got.csv", got)
        cli.write_results_csv(tmp_path / "want.csv", want)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_samples_each_population_once(self, fixture_net, test_data, monkeypatch):
        calls = {"sample_devices": 0, "program": 0, "_program_tiles": 0, "network_plans": 0}
        for module, name in ((xbar, "sample_devices"), (xbar, "program"),
                             (xbar, "_program_tiles"), (mapping, "network_plans")):
            def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        space = device_space(fixture_net.name, scheme=["dense_routed"])
        grid_search(space, test_data, {fixture_net.name: fixture_net}, seed=0)
        layers = len(fixture_net.layers)
        assert population_count(space) == 16 and space.size() == 128
        # each layer of each population is drawn and programmed in one
        # streamed pass; the tile dict of sample_devices is never built
        assert calls == {"sample_devices": 0, "program": 0, "_program_tiles": 16 * layers,
                         "network_plans": 128}

    def test_points_only_read_the_shared_matrices(self, fixture_net, test_data, monkeypatch):
        seen = []
        forward = xbar.simulate_forward

        def capturing(net, plans, conductances, *args, **kwargs):
            seen.append(conductances)
            return forward(net, plans, conductances, *args, **kwargs)

        monkeypatch.setattr(xbar, "simulate_forward", capturing)
        space = device_space(fixture_net.name, scheme=["sparse_staggered"], tile_size=[8],
                             n_states=[None], p_stuck_off=[0.01, 0.02], std_multiplier=[1.0])
        grid_search(space, test_data, {fixture_net.name: fixture_net}, seed=0)
        assert len(seen) == space.size() == 16
        # points visited population-major: 8 I/O settings per population
        assert all(seen[i] is seen[0] for i in range(8))
        assert all(seen[i] is seen[8] for i in range(8, 16)) and seen[8] is not seen[0]
        for g in seen[0] + seen[8]:
            assert not g.flags.writeable
            with pytest.raises(ValueError):
                g[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [{"batch_size": [64, 0]}, {"v_max": [0.3, -1.0]},
                                     {"n_states": [None, 1]}])
    def test_failure_reports_the_lexicographic_config(self, bad, fixture_net, test_data):
        nets = {fixture_net.name: fixture_net}
        space = device_space(fixture_net.name, scheme=["dense_kernel", "sparse_staggered"],
                             tile_size=[8], io_bit_width=[4], p_stuck_off=[0.01, 0.02],
                             std_multiplier=[1.0], **bad)
        with pytest.raises(dse.EvaluationError) as err:
            grid_search(space, test_data, nets, seed=0)
        first = None
        for i, cfg in enumerate(space.points()):
            try:
                dse.evaluate_config(cfg, i, nets, test_data, 0, xbar.DeviceModel(), [])
            except dse.EvaluationError as failure:
                first = failure
                break
        assert err.value.config == first.config
        assert str(err.value.cause) == str(first.cause)


def test_import_and_search_leave_scipy_unloaded(fixture_net, test_data, tmp_path):
    qnet.save_network(fixture_net, tmp_path / "net.json")
    qnet.save_dataset(test_data, tmp_path / "data.txt")
    script = textwrap.dedent(f"""
        import sys
        import xbardse
        from xbardse import dse, qnet
        net = qnet.load_network({str(tmp_path / "net.json")!r})
        data = qnet.load_dataset({str(tmp_path / "data.txt")!r})
        space = dse.SearchSpace(network=[net.name], scheme=["sparse_staggered", "dense_routed"],
                                tile_size=[16], io_bit_width=[4, None])
        assert len(dse.grid_search(space, data, {{net.name: net}})) == 4
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = Path(dse.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
                         check=True)
    assert out.stdout.strip() == "[]"


class TestWeightedScore:
    def test_table_style_arithmetic(self):
        # 516 x 64 x 64 devices, 2119 x 64 reads, 88.52 accuracy
        rd = 516 * 64 * 64
        rwo = 2119 * 64
        score = weighted_score(88.52, rd, rwo)
        assert score == pytest.approx(88.52 / (2113536 * 135616), rel=1e-12)
        assert score == pytest.approx(3.088e-10, rel=1e-3)

    def test_zero_accuracy(self):
        assert weighted_score(0.0, 10, 10) == 0.0

    def test_halving_rd_doubles_score(self):
        assert weighted_score(0.9, 50, 7) == pytest.approx(2 * weighted_score(0.9, 100, 7))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            weighted_score(0.9, 0, 5)
        with pytest.raises(ValueError):
            weighted_score(0.9, 5, 0)

    def test_exponent_weighting(self):
        assert weighted_score(0.9, 10, 10, exponents=(1.0, 0.5, 1.0)) == \
            pytest.approx(0.9 / (10 ** 0.5 * 10))


class TestNormalize:
    def test_basic(self):
        assert min_max_normalize([2.0, 4.0, 6.0]) == [0.0, 0.5, 1.0]

    def test_extremes_map_to_unit_interval_ends(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(1e-10, 1e-6, 20).tolist()
        norm = min_max_normalize(scores)
        assert norm[int(np.argmax(scores))] == 1.0
        assert norm[int(np.argmin(scores))] == 0.0

    def test_singleton_maps_to_one(self):
        assert min_max_normalize([7.0]) == [1.0]

    def test_argmax_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores = rng.uniform(0, 1, size=rng.integers(2, 30)).tolist()
            norm = min_max_normalize(scores)
            assert int(np.argmax(scores)) == int(np.argmax(norm))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_max_normalize([])


def make_result(i, config, tsa=0.9, rd=10, rwo=2, score=None):
    return ConfigResult(config=config, order_index=i, tsa=tsa, rd=rd, rwo=rwo,
                        tiles=1, raw_score=score if score is not None else tsa / (rd * rwo),
                        seed=0, normalized_score=None)


class TestContour:
    def _results(self, fixture_net, test_data):
        space = small_space(fixture_net.name)
        return grid_search(space, test_data, {fixture_net.name: fixture_net}, seed=0)

    def test_full_grid_shape(self, fixture_net, test_data):
        results = self._results(fixture_net, test_data)
        grid = contour_grid(results, "tile_size", "batch_size", "tsa")
        assert grid.matrix.shape == (2, 3)
        assert not grid.missing.any()

    def test_missing_cell_flagged(self, fixture_net, test_data):
        results = self._results(fixture_net, test_data)
        partial = [r for r in results
                   if not (r.config["tile_size"] == 64 and r.config["batch_size"] == 16)]
        grid = contour_grid(partial, "tile_size", "batch_size", "tsa")
        assert grid.missing[grid.y_values.index(16), grid.x_values.index(64)]
        assert grid.missing.sum() == 1

    def test_entries_match_results_when_sliced(self, fixture_net, test_data):
        results = self._results(fixture_net, test_data)
        subset = [r for r in results if r.config["scheme"] == "dense_kernel"]
        grid = contour_grid(subset, "tile_size", "batch_size", "tsa")
        for res in subset:
            xi = grid.x_values.index(res.config["tile_size"])
            yi = grid.y_values.index(res.config["batch_size"])
            assert grid.matrix[yi, xi] == res.tsa

    def test_same_axis_rejected(self):
        with pytest.raises(ValueError):
            contour_grid([], "tile_size", "tile_size")

    def test_four_by_three_grid_shape(self):
        results = []
        i = 0
        for t in (32, 64, 128, 256):
            for b in (16, 64, 256):
                results.append(make_result(i, {"tile_size": t, "batch_size": b},
                                           tsa=0.5 + 0.001 * i))
                i += 1
        grid = contour_grid(results, "tile_size", "batch_size", "tsa")
        assert grid.matrix.shape == (3, 4)
        assert not grid.missing.any()


class TestRank:
    def test_descending(self):
        results = [make_result(i, {"i": i}, score=s) for i, s in enumerate([0.1, 0.5, 0.3])]
        for r, n in zip(results, min_max_normalize([r.raw_score for r in results])):
            r.normalized_score = n
        ranked = rank(results)
        assert [r.raw_score for r in ranked] == [0.5, 0.3, 0.1]

    def test_tie_breaks(self):
        a = make_result(0, {"i": 0}, rd=20, rwo=2, score=0.5)
        b = make_result(1, {"i": 1}, rd=10, rwo=2, score=0.5)
        c = make_result(2, {"i": 2}, rd=10, rwo=1, score=0.5)
        for r in (a, b, c):
            r.normalized_score = 1.0
        assert [r.order_index for r in rank([a, b, c])] == [2, 1, 0]

    def test_equal_everything_lexicographic(self):
        a = make_result(0, {"i": 0}, score=0.5)
        b = make_result(1, {"i": 1}, score=0.5)
        for r in (a, b):
            r.normalized_score = 1.0
        assert [r.order_index for r in rank([b, a])] == [0, 1]

    def test_top_rank_is_raw_argmax(self, fixture_net, test_data):
        space = small_space(fixture_net.name)
        results = grid_search(space, test_data, {fixture_net.name: fixture_net}, seed=0)
        best = rank(results)[0]
        assert best.raw_score == max(r.raw_score for r in results)
        assert best.normalized_score == 1.0
