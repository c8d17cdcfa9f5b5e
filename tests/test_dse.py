import copy
import json
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
        space = SearchSpace(tile_size=[], scheme="dense_kernel")
        assert space.problems(xbar.DeviceModel()) == ["scheme: not a list",
                                                      "tile_size: empty value list"]

    def test_default_point_builds_the_default_hardware(self):
        point, = SearchSpace().points()
        io, device, bad = dse._hardware_fields(xbar.DeviceModel(), point)
        assert bad == []
        assert xbar.IOConfig(**io) == xbar.IOConfig()
        assert xbar.DeviceModel(**device) == xbar.DeviceModel()


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

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, "2", True])
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
        # dense_kernel with a tile smaller than the kernel footprint must fail;
        # grid_search refuses it up front, a direct call fails with its config
        cfg = next(SearchSpace(network=[fixture_net.name], scheme=["dense_kernel"],
                               tile_size=[2], io_bit_width=[8], batch_size=[64]).points())
        with pytest.raises(dse.EvaluationError) as err:
            dse.evaluate_config(cfg, 0, {fixture_net.name: fixture_net}, test_data, 0,
                                xbar.DeviceModel(), [])
        assert err.value.config == cfg
        assert isinstance(err.value.cause, mapping.MappingError)

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

    def test_repeated_values_share_a_population(self, fixture_net, test_data):
        """Points whose population values are equal, of one type or two, share
        one population; their devices are the ones each would draw alone."""
        nets = {fixture_net.name: fixture_net}
        space = device_space(fixture_net.name, scheme=["dense_routed"], tile_size=[8, 32, 8],
                             std_multiplier=[1, 1.0])
        assert grid_search(space, test_data, nets, seed=3) == \
            per_point_search(space, test_data, nets, seed=3)

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


def spy_on_points(monkeypatch):
    """Make evaluating or programming any design point fail the test."""
    def no_point(*args, **kwargs):
        raise AssertionError("a design point ran")
    monkeypatch.setattr(dse, "evaluate_config", no_point)
    monkeypatch.setattr(xbar, "program_network", no_point)


# bad values in every dimension the space rule reads; each list's first value is good
BAD_SPACE = {"scheme": ["dense_routed", "bogus"], "tile_size": [8, 1, 8.0],
             "io_bit_width": [6, 0], "v_max": [0.3, -1.0], "batch_size": [16, 0],
             "n_states": [None, 1], "p_stuck_on": [0.005, 0.7], "p_stuck_off": [0.005, 0.7],
             "std_multiplier": [1.0, "x"]}
BAD_LINES = [
    "scheme: unknown scheme 'bogus' (known: sparse_staggered, dense_routed, dense_kernel)",
    "tile_size: 1: tile size must be >= 2",
    "tile_size: 8.0: not an integer",
    "io_bit_width: 0: io_bit_width must be >= 1",
    "v_max: -1.0: v_max must be > 0",
    "batch_size: 0: batch_size must be >= 1",
    "n_states: 1: n_states must be >= 2 (or None for continuous)",
    "std_multiplier: 'x': std_multiplier must be a number, not x",
    "p_stuck_on/p_stuck_off: 0.7/0.7: stuck probabilities must be >= 0 and sum to <= 1",
]


class TestSpaceRule:
    def test_grid_search_lists_every_problem_before_any_point(self, fixture_net, test_data,
                                                             monkeypatch):
        """The space rule first; once it passes, the networks, checked against
        its schemes and tile sizes."""
        nets = {fixture_net.name: fixture_net}
        names = [fixture_net.name, "other", ["x"]]
        spy_on_points(monkeypatch)
        with pytest.raises(ValueError) as err:
            grid_search(SearchSpace(network=names, **BAD_SPACE), test_data, nets, jobs=0)
        assert str(err.value).splitlines() == ["jobs must be a positive integer", *BAD_LINES]
        with pytest.raises(ValueError) as err:
            grid_search(SearchSpace(network=names), test_data, nets)
        assert str(err.value).splitlines() == ["network: 'other': not in networks",
                                               "network: ['x']: not in networks"]

    @pytest.mark.parametrize("bad, line", [
        ({"batch_size": [64, 0]}, "batch_size: 0: batch_size must be >= 1"),
        ({"v_max": [0.3, -1.0]}, "v_max: -1.0: v_max must be > 0"),
        ({"n_states": [None, 1]}, "n_states: 1: n_states must be >= 2 (or None for continuous)"),
    ], ids=["batch_size", "v_max", "n_states"])
    def test_bad_value_refused_before_any_point(self, bad, line, fixture_net, test_data,
                                                monkeypatch):
        """A bad value that a late point holds is refused before the first
        point runs, where a lexicographic walk once ran the points before it."""
        nets = {fixture_net.name: fixture_net}
        space = device_space(fixture_net.name, scheme=["dense_kernel", "sparse_staggered"],
                             tile_size=[8], io_bit_width=[4], p_stuck_off=[0.01, 0.02],
                             std_multiplier=[1.0], **bad)
        spy_on_points(monkeypatch)
        with pytest.raises(ValueError) as err:
            grid_search(space, test_data, nets, seed=0)
        assert str(err.value) == line

    def test_lines_equal_the_cli_lines(self, fixture_net, test_data, tmp_path, capsys):
        qnet.save_network(fixture_net, tmp_path / "net.json")
        qnet.save_dataset(test_data, tmp_path / "data.csv")
        (tmp_path / "config.json").write_text(json.dumps(
            {"network": str(tmp_path / "net.json"), "dataset": str(tmp_path / "data.csv"),
             "out": str(tmp_path), "space": BAD_SPACE}))
        assert cli.main(["dse", "--config", str(tmp_path / "config.json")]) == 2
        heading, *lines = capsys.readouterr().err.splitlines()
        assert heading == "error: invalid configuration:"
        assert lines == [f"  space.{line}" for line in BAD_LINES]
        assert SearchSpace(**BAD_SPACE).problems(xbar.DeviceModel()) == BAD_LINES

    def test_direct_point_names_a_bad_device_value(self, fixture_net, test_data):
        nets = {fixture_net.name: fixture_net}
        for dims, line in (({"p_stuck_on": 0.7, "p_stuck_off": 0.7},
                            "stuck probabilities must be >= 0 and sum to <= 1"),
                           ({"std_multiplier": "x"}, "std_multiplier must be a number, not x")):
            cfg = {**next(SearchSpace(network=[fixture_net.name]).points()), **dims}
            with pytest.raises(dse.EvaluationError) as err:
                dse.evaluate_config(cfg, 0, nets, test_data, 0, xbar.DeviceModel(), [])
            assert err.value.config == cfg
            assert str(err.value.cause) == line


def count_points(monkeypatch) -> dict:
    """Count the design points evaluated and the populations programmed."""
    calls = {"evaluate_config": 0, "program_network": 0}
    for module, name in ((dse, "evaluate_config"), (xbar, "program_network")):
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return calls


def nan_scale_copy(net, name):
    """A copy of ``net`` named ``name`` whose layer 0 has a NaN scale."""
    bad = copy.deepcopy(net)
    bad.name = name
    bad.layers[0].weights.scale = float("nan")
    return bad


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
FOOTPRINT_LINE = ("scheme dense_kernel, tile_size 2: kernel footprint 3 exceeds tile size 2 "
                  "(layer 0, conv1d)")


class TestNetworkRule:
    @pytest.mark.parametrize("case", ["twelve_classes", "nan_scale", "dense_kernel_t2"])
    def test_refused_before_any_point(self, case, fixture_net, test_data, monkeypatch):
        """An unpairable dataset, an invalid network or an unmappable layer is
        one ValueError before any point runs; the same space on the good
        inputs runs every point, which the spies count."""
        net, data, tile_size = fixture_net, test_data, 8
        if case == "twelve_classes":
            data = qnet.Dataset(test_data.features, test_data.labels, 12)
            line = "architecture output (4,) does not match 12 classes"
        elif case == "nan_scale":
            net = nan_scale_copy(fixture_net, fixture_net.name)
            line = "layers[0]: scale must be > 0 and finite"
        else:
            tile_size, line = 2, FOOTPRINT_LINE
        calls = count_points(monkeypatch)
        space = SearchSpace(network=[net.name], scheme=list(mapping.SCHEMES),
                            tile_size=[tile_size], batch_size=[16, 64])
        with pytest.raises(ValueError) as err:
            grid_search(space, data, {net.name: net}, seed=0)
        assert str(err.value) == f"network: {net.name!r}: {line}"
        assert calls == {"evaluate_config": 0, "program_network": 0}
        space.tile_size = [8]
        grid_search(space, test_data, {fixture_net.name: fixture_net}, seed=0)
        assert calls == {"evaluate_config": 6, "program_network": 3}

    def test_lists_every_network_at_once(self, fixture_net, test_data, monkeypatch):
        bad = nan_scale_copy(fixture_net, "nan-scale")
        space = SearchSpace(network=[bad.name, fixture_net.name, "other"],
                            scheme=["dense_kernel"], tile_size=[2, 8])
        data = qnet.Dataset(test_data.features, test_data.labels, 12)
        spy_on_points(monkeypatch)
        with pytest.raises(ValueError) as err:
            grid_search(space, data, {fixture_net.name: fixture_net, bad.name: bad})
        name = repr(fixture_net.name)
        assert str(err.value).splitlines() == [
            "network: 'nan-scale': layers[0]: scale must be > 0 and finite",
            f"network: {name}: architecture output (4,) does not match 12 classes",
            f"network: {name}: {FOOTPRINT_LINE}",
            "network: 'other': not in networks"]

    def test_network_without_layers_refused_before_any_point(self, fixture_net, test_data,
                                                             monkeypatch):
        """A network built in code without layers gets the loader's line, not
        an IndexError from pairing its missing last layer with the data."""
        empty = qnet.QuantizedNetwork("empty", 8, fixture_net.input_shape, [])
        calls = count_points(monkeypatch)
        with pytest.raises(ValueError) as err:
            grid_search(SearchSpace(network=["empty"], tile_size=[8]), test_data,
                        {"empty": empty})
        assert str(err.value) == "network: 'empty': layers: must be a non-empty list, got []"
        assert calls == {"evaluate_config": 0, "program_network": 0}

    def test_a_list_input_shape_pairs_as_its_tuple(self, fixture_net, test_data):
        net = copy.deepcopy(fixture_net)
        net.input_shape = list(net.input_shape)
        space = SearchSpace(network=[net.name], tile_size=[16])
        assert grid_search(space, test_data, {net.name: net}) == \
            grid_search(space, test_data, {net.name: fixture_net})

    def test_infeasible_lines_equal_the_cli_lines(self, tmp_path, capsys):
        """On the golden conv2d network, whose two conv layers dense_kernel
        cannot map below their footprints, 8 and 6."""
        dims = {"scheme": list(mapping.SCHEMES), "tile_size": [2, 4, 8]}
        paths = {"network": str(GOLDEN_INPUTS / "conv2d_net.json"),
                 "dataset": str(GOLDEN_INPUTS / "conv2d_test.csv")}
        (tmp_path / "config.json").write_text(json.dumps(
            {**paths, "out": str(tmp_path), "space": dims}))
        assert cli.main(["dse", "--config", str(tmp_path / "config.json")]) == 2
        heading, *lines = capsys.readouterr().err.splitlines()
        assert heading == "error: infeasible design points:" and len(lines) == 4
        net = qnet.load_network(paths["network"])
        with pytest.raises(ValueError) as err:
            grid_search(SearchSpace(network=[net.name], **dims),
                        qnet.load_dataset(paths["dataset"]), {net.name: net})
        assert str(err.value).splitlines() == [
            f"network: {net.name!r}: {line.removeprefix('  ')}" for line in lines]


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
        grid = contour_grid(results, "tile_size", "batch_size")
        assert grid.matrix.shape == (2, 3)
        assert not grid.missing.any()

    def test_missing_cell_flagged(self, fixture_net, test_data):
        results = self._results(fixture_net, test_data)
        partial = [r for r in results
                   if not (r.config["tile_size"] == 64 and r.config["batch_size"] == 16)]
        grid = contour_grid(partial, "tile_size", "batch_size")
        assert grid.missing[grid.y_values.index(16), grid.x_values.index(64)]
        assert grid.missing.sum() == 1

    def test_entries_match_results_when_sliced(self, fixture_net, test_data):
        results = self._results(fixture_net, test_data)
        subset = [r for r in results if r.config["scheme"] == "dense_kernel"]
        grid = contour_grid(subset, "tile_size", "batch_size")
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
        grid = contour_grid(results, "tile_size", "batch_size")
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
