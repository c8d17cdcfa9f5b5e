import csv
import json
from pathlib import Path

import numpy as np
import pytest

from xbardse import cli, dse, mapping, qnet
from xbardse.cli import load_results_csv, main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One fixture run shared by the command tests."""
    out = tmp_path_factory.mktemp("cli")
    assert main(["fixture", "--seed", "0", "--out", str(out)]) == 0
    return out


def dse_config(workdir, out, **space):
    base = {"scheme": ["sparse_staggered", "dense_kernel"],
            "tile_size": [32, 64], "io_bit_width": [8], "batch_size": [16, 256]}
    base.update(space)
    cfg = {"format_version": 1,
           "network": str(workdir / "fixture_net.json"),
           "dataset": str(workdir / "fixture_test.csv"),
           "out": str(out), "seed": 0, "space": base}
    path = out / "config.json"
    path.write_text(json.dumps(cfg))
    return path


COST_HEADER = ["layer", "kind", "rd", "tiles", "rwo", "programming_writes",
               "eq1_staggered_devices", "eq1_remainder", "eq2_dense_devices",
               "eq3_dense_steps", "eq3_remainder"]


class TestFixtureCommand:
    def test_outputs_reload(self, workdir):
        net = qnet.load_network(workdir / "fixture_net.json")
        test = qnet.load_dataset(workdir / "fixture_test.csv")
        train = qnet.load_dataset(workdir / "fixture_train.csv")
        assert qnet.accuracy(net, test) >= 0.90
        assert len(train) == 256 and len(test) == 200

    def test_rerun_byte_identical(self, workdir, tmp_path):
        assert main(["fixture", "--seed", "0", "--out", str(tmp_path)]) == 0
        for name in ("fixture_net.json", "fixture_train.csv", "fixture_test.csv"):
            assert (workdir / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_missing_out_dir_exit_2(self, tmp_path):
        assert main(["fixture", "--out", str(tmp_path / "absent")]) == 2

    @pytest.mark.parametrize("args, lines", [
        (["--train-size", "0"], ["--train-size: must be >= 4, one sample per class, got 0"]),
        (["--test-size", "2"], ["--test-size: must be >= 4, one sample per class, got 2"]),
        (["--l1", "-1"], ["--l1: must be finite and >= 0, got -1.0"]),
        (["--l1", "nan"], ["--l1: must be finite and >= 0, got nan"]),
        (["--l1", "inf"], ["--l1: must be finite and >= 0, got inf"]),
        (["--seed", "-1"], ["--seed: must be >= 0, got -1"]),
        (["--train-size", "3", "--test-size", "-1", "--l1=-inf"],
         ["--train-size: must be >= 4, one sample per class, got 3",
          "--test-size: must be >= 4, one sample per class, got -1",
          "--l1: must be finite and >= 0, got -inf"]),
    ], ids=["train-size", "test-size", "l1-negative", "l1-nan", "l1-inf", "seed-negative",
            "all"])
    def test_bad_arguments_exit_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                  args, lines):
        def no_training(*a, **k):
            raise AssertionError("trained on bad arguments")
        monkeypatch.setattr(qnet, "train_fixture", no_training)
        assert main(["fixture", "--out", str(tmp_path), *args]) == 2
        err = capsys.readouterr().err
        assert err == "error: invalid arguments:\n" + "".join(f"  {l}\n" for l in lines)
        assert not any(tmp_path.iterdir())


class TestCostCommand:
    def test_table_and_csv(self, workdir, tmp_path, capsys):
        code = main(["cost", "--net", str(workdir / "fixture_net.json"),
                     "--scheme", "dense_kernel", "--tile-size", "32",
                     "--out", str(tmp_path)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "eq2_dense_devices" in stdout
        rows = (tmp_path / "cost.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 + 1  # header + two layers + total

    def test_unknown_scheme_exit_2(self, workdir):
        assert main(["cost", "--net", str(workdir / "fixture_net.json"),
                     "--scheme", "bogus", "--tile-size", "32"]) == 2

    def test_infeasible_point_exit_2(self, workdir, capsys):
        assert main(["cost", "--net", str(workdir / "fixture_net.json"),
                     "--scheme", "dense_kernel", "--tile-size", "2"]) == 2
        assert "kernel footprint 3 exceeds tile size 2" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme, layer_rows, total", [
        ("sparse_staggered", ["0,conv1d,1792,4,1,1792", "1,linear,448,2,2,448"],
         "total,sparse_staggered,2240,6,3,2240"),
        ("dense_routed", ["0,conv1d,24,1,14,24", "1,linear,428,2,2,428"],
         "total,dense_routed,452,3,16,452"),
        ("dense_kernel", ["0,conv1d,24,1,14,24", "1,linear,428,2,2,428"],
         "total,dense_kernel,452,3,16,452")])
    def test_fixture_cost_csv_golden(self, workdir, tmp_path, scheme, layer_rows, total):
        assert main(["cost", "--net", str(workdir / "fixture_net.json"),
                     "--scheme", scheme, "--tile-size", "32", "--out", str(tmp_path)]) == 0
        closed = ",1664.0,False,12,6,True"
        lines = [",".join(COST_HEADER), layer_rows[0] + closed, layer_rows[1] + ",,,,,",
                 total + closed]
        assert (tmp_path / "cost.csv").read_bytes() == ("\r\n".join(lines) + "\r\n").encode()

    def test_total_sums_closed_form_columns(self, tmp_path):
        # Eq. 1 is fractional on layer 0 only, and each remainder is set on
        # one of the two conv layers
        arch = [qnet.conv1d(kernels=2, kernel_h=2, stride=2),
                qnet.conv1d(kernels=3, kernel_h=2), qnet.linear(3)]
        specs, _ = qnet.propagate_shapes(arch, (1, 16))
        rng = np.random.default_rng(0)
        layers = [qnet.Layer(spec, qnet.WeightTensor(
            rng.integers(-7, 8, size=spec.weight_shape()), 1.0, 4)) for spec in specs]
        net_path = tmp_path / "net.json"
        qnet.save_network(qnet.QuantizedNetwork("two-conv", 4, (1, 16), layers), net_path)
        geoms = specs[:2]
        for scheme in mapping.SCHEMES:
            assert main(["cost", "--net", str(net_path), "--scheme", scheme,
                         "--tile-size", "8", "--out", str(tmp_path)]) == 0
            with open(tmp_path / "cost.csv", newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert header == COST_HEADER
            *per_layer, total = [dict(zip(header, r)) for r in rows]
            conv = per_layer[:2]
            assert [r["eq1_remainder"] for r in conv] == ["True", "False"]
            assert [r["eq3_remainder"] for r in conv] == ["True", "False"]
            for col in ("eq1_remainder", "eq3_remainder"):
                assert total[col] == str(any(r[col] == "True" for r in conv))
            for col in ("eq2_dense_devices", "eq3_dense_steps"):
                assert int(total[col]) == sum(int(r[col]) for r in conv)
            exact = sum(mapping.devices_sparse_eq1(g) for g in geoms)
            assert exact.denominator != 1
            assert total["eq1_staggered_devices"] == repr(float(exact))
            assert float(total["eq1_staggered_devices"]) == pytest.approx(
                sum(float(r["eq1_staggered_devices"]) for r in conv), rel=1e-15)
            for col in ("rd", "tiles", "rwo", "programming_writes"):
                assert int(total[col]) == sum(int(r[col]) for r in per_layer)

    def test_linear_only_total_has_no_closed_form_cells(self, tmp_path):
        spec, = qnet.propagate_shapes([qnet.linear(3)], (4,))[0]
        layer = qnet.Layer(spec, qnet.WeightTensor(np.ones((3, 4), dtype=np.int64), 1.0, 4))
        net_path = tmp_path / "net.json"
        qnet.save_network(qnet.QuantizedNetwork("linear", 4, (4,), [layer]), net_path)
        assert main(["cost", "--net", str(net_path), "--scheme", "dense_routed",
                     "--tile-size", "8", "--out", str(tmp_path)]) == 0
        total = (tmp_path / "cost.csv").read_text().splitlines()[-1]
        assert total == "total,dense_routed,24,1,1,24,,,,,"


class TestSimulateCommand:
    def test_runs_and_writes_json(self, workdir, tmp_path, capsys):
        cfg = dse_config(workdir, tmp_path, scheme=["dense_kernel"],
                         tile_size=[64], batch_size=[64])
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "TSA:" in out and "raw score" in out
        doc = json.loads((tmp_path / "simulate_result.json").read_text())
        assert doc["seed"] == 0 and 0.0 <= doc["tsa"] <= 1.0

    def test_same_seed_identical_json(self, workdir, tmp_path_factory):
        docs = []
        for _ in range(2):
            out = tmp_path_factory.mktemp("sim")
            cfg = dse_config(workdir, out, scheme=["dense_kernel"],
                             tile_size=[64], batch_size=[64])
            assert main(["simulate", "--config", str(cfg)]) == 0
            doc = json.loads((out / "simulate_result.json").read_text())
            del doc["config"]["out"]
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_multi_point_space_rejected(self, workdir, tmp_path):
        cfg = dse_config(workdir, tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_validation_is_exhaustive(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "network": "missing.json", "dataset": "missing.csv",
            "seed": "zero", "space": {"scheme": ["bogus"], "tile_size": [1]}}))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        for fragment in ("network", "dataset", "seed", "scheme", "tile_size"):
            assert fragment in err

    @pytest.mark.parametrize("section, value", [
        ("device", 5), ("device", [["p_stuck_on", 0.1]]), ("space", "dense_kernel"),
        ("space", [["scheme", ["dense_kernel"]]])],
        ids=["number-device", "pairs-device", "string-space", "pairs-space"])
    def test_non_object_section_exit_2_with_other_problems(self, workdir, tmp_path, capsys,
                                                           section, value):
        cfg = dse_config(workdir, tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), section: value,
                                   "seed": "zero"}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:\n")
        assert f"\n  {section}: must be an object, got {value!r}\n" in err
        assert "\n  seed: must be an integer\n" in err
        assert not (tmp_path / "simulate_result.json").exists()

    @pytest.mark.parametrize("field, text, message", [
        (0, "x", "invalid literal for int() with base 10: 'x'"),
        (4, "abc", "could not convert string to float: 'abc'"),
        (4, "nan", "non-finite feature"),
    ], ids=["label", "unparsable-feature", "non-finite-feature"])
    def test_malformed_dataset_row_exit_2_names_row(self, workdir, tmp_path, capsys,
                                                     field, text, message):
        lines = (workdir / "fixture_test.csv").read_text().splitlines()
        row = lines[2 + 5].split(",")        # data row 5, after the two header lines
        row[field] = text
        lines[2 + 5] = ",".join(row)
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        cfg = dse_config(workdir, tmp_path, scheme=["dense_kernel"],
                         tile_size=[64], batch_size=[64])
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()),
                                   "dataset": str(tmp_path / "bad.csv")}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: dataset row 5: {message}\n"
        assert not (tmp_path / "simulate_result.json").exists()


BAD_DIMENSIONS = {
    "batch_size": ({"batch_size": [16, 0]}, "space.batch_size: 0: batch_size must be >= 1"),
    "io_bit_width": ({"io_bit_width": [0]}, "space.io_bit_width: 0: io_bit_width must be >= 1"),
    "v_max": ({"v_max": [0.0]}, "space.v_max: 0.0: v_max must be > 0"),
    "n_states": ({"n_states": [1]},
                 "space.n_states: 1: n_states must be >= 2 (or None for continuous)"),
    "stuck": ({"p_stuck_on": [0.7], "p_stuck_off": [0.7]},
              "space.p_stuck_on/p_stuck_off: 0.7/0.7: "
              "stuck probabilities must be >= 0 and sum to <= 1"),
    "std_multiplier": ({"std_multiplier": [1.0, -1.0]},
                       "space.std_multiplier: -1.0: resistance std must be >= 0"),
}

# values that are not integers where one is needed, or not finite: (section,
# key, value, the error line); "space" keys take a list, so one config can
# carry several values of a key
BAD_VALUES = {
    "batch_size-float": ("space", "batch_size", 16.5,
                         "space.batch_size: 16.5: batch_size must be an integer"),
    "batch_size-true": ("space", "batch_size", True,
                        "space.batch_size: True: batch_size must be an integer"),
    "io_bit_width-float": ("space", "io_bit_width", 4.5, "space.io_bit_width: 4.5: "
                           "io_bit_width must be a whole number (or None for ideal)"),
    "io_bit_width-true": ("space", "io_bit_width", True, "space.io_bit_width: True: "
                          "io_bit_width must be a whole number (or None for ideal)"),
    "n_states-float": ("space", "n_states", 4.5, "space.n_states: 4.5: "
                       "n_states must be a whole number (or None for continuous)"),
    "p_stuck_on-nan": ("space", "p_stuck_on", float("nan"),
                       "space.p_stuck_on/p_stuck_off: nan/0.005: "
                       "stuck probabilities must be >= 0 and sum to <= 1"),
    "std_multiplier-nan": ("space", "std_multiplier", float("nan"),
                           "space.std_multiplier: nan: resistance std must be >= 0"),
    "std_multiplier-inf": ("space", "std_multiplier", float("inf"),
                           "space.std_multiplier: inf: resistance std must be finite"),
    "v_max-nan": ("space", "v_max", float("nan"), "space.v_max: nan: v_max must be > 0"),
    "v_max-inf": ("space", "v_max", float("inf"), "space.v_max: inf: v_max must be finite"),
    "p_stuck_on-true": ("space", "p_stuck_on", True,
                        "space.p_stuck_on/p_stuck_off: True/0.005: "
                        "p_stuck_on must be a number, not True"),
    "std_multiplier-true": ("space", "std_multiplier", True,
                            "space.std_multiplier: True: "
                            "std_multiplier must be a number, not True"),
    "v_max-true": ("space", "v_max", True, "space.v_max: True: v_max must be a number, not True"),
    "r_on_std-nan": ("device", "r_on_std", float("nan"),
                     "device: resistance std must be >= 0"),
    "v_max-string": ("space", "v_max", "x", "space.v_max: 'x': v_max must be a number, not x"),
    "std_multiplier-null": ("space", "std_multiplier", None,
                            "space.std_multiplier: None: "
                            "std_multiplier must be a number, not None"),
    "p_stuck_on-string": ("space", "p_stuck_on", "a",
                          "space.p_stuck_on/p_stuck_off: 'a'/0.005: "
                          "p_stuck_on must be a number, not a"),
    "r_off_mean-string": ("device", "r_off_mean", "x",
                          "device: r_off_mean must be a number, not x"),
}


class TestDseCommand:
    @pytest.mark.parametrize("names", [[name] for name in BAD_DIMENSIONS] + [list(BAD_DIMENSIONS)],
                             ids=[*BAD_DIMENSIONS, "all"])
    def test_bad_dimension_values_exit_2_at_load(self, workdir, tmp_path, capsys, names):
        space = {k: v for name in names for k, v in BAD_DIMENSIONS[name][0].items()}
        cfg = dse_config(workdir, tmp_path, **space)
        assert main(["dse", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:\n")
        assert err.count("\n  ") == len(names)       # one line per bad value, all at once
        for name in names:
            assert f"\n  {BAD_DIMENSIONS[name][1]}\n" in err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("names", [[name] for name in BAD_VALUES] + [list(BAD_VALUES)],
                             ids=[*BAD_VALUES, "all"])
    def test_non_integer_and_non_finite_values_exit_2_at_load(self, workdir, tmp_path,
                                                              capsys, names):
        cfg = dse_config(workdir, tmp_path)
        doc = json.loads(cfg.read_text())
        doc["device"] = {}
        for name in names:
            section, key, value, _ = BAD_VALUES[name]
            if section == "space":
                doc["space"].setdefault(key, []).append(value)
            else:
                doc["device"][key] = value
        cfg.write_text(json.dumps(doc))       # NaN and Infinity, as json writes them
        assert main(["dse", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:\n")
        lines = err.splitlines()[1:]
        assert sorted(lines) == sorted(f"  {BAD_VALUES[name][3]}" for name in names)
        assert not (tmp_path / "results.csv").exists()

    def test_device_block_lists_every_problem(self, workdir, tmp_path, capsys):
        """Both stds below 0 break one rule with one text: one line for them,
        next to the means' line."""
        cfg = dse_config(workdir, tmp_path)
        doc = json.loads(cfg.read_text())
        doc["device"] = {"r_on_mean": 200000, "r_on_std": -1, "r_off_std": -5}
        cfg.write_text(json.dumps(doc))
        assert main(["dse", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: invalid configuration:\n"
            "  device: need 0 < r_on_mean < r_off_mean < inf\n"
            "  device: resistance std must be >= 0\n")
        assert not (tmp_path / "results.csv").exists()

    def test_full_run(self, workdir, tmp_path):
        cfg = dse_config(workdir, tmp_path)
        assert main(["dse", "--config", str(cfg), "--svg"]) == 0
        results = load_results_csv(tmp_path / "results.csv")
        assert len(results) == 8
        ranking = load_results_csv(tmp_path / "ranking.csv")
        assert ranking[0].normalized_score == 1.0
        assert sorted(r.normalized_score for r in results) == \
               sorted(r.normalized_score for r in ranking)
        for scheme in ("sparse_staggered", "dense_kernel"):
            with open(tmp_path / f"contour_tsa_scheme={scheme}.csv", newline="") as fh:
                comment, header, *rows = csv.reader(fh)
            assert comment[0] == "# seed: 0"
            assert header[0] == "batch_size\\tile_size"
            # a "missing" cell would not parse as a float
            matrix = np.array([[float(cell) for cell in row[1:]] for row in rows])
            assert matrix.shape == (2, 2)
            assert np.isfinite(matrix).all()
            assert (tmp_path / f"contour_tsa_scheme={scheme}.svg").exists()
        resolved = json.loads((tmp_path / "config_resolved.json").read_text())
        assert resolved["seed"] == 0
        assert resolved["device"]["r_off_mean"] == 100000.0

    def test_infeasible_points_exit_2_before_any_point(self, tmp_path, capsys):
        # conv2d 3x3 has footprint 9: dense_kernel cannot map it at t=4 or t=8
        specs, _ = qnet.propagate_shapes([qnet.conv2d(3, 3, 3), qnet.linear(4)], (1, 6, 6))
        layers = [qnet.Layer(spec, qnet.WeightTensor(np.ones(spec.weight_shape(), np.int64),
                                                     0.1, 4)) for spec in specs]
        qnet.save_network(qnet.QuantizedNetwork("conv3x3", 4, (1, 6, 6), layers),
                          tmp_path / "net.json")
        qnet.save_dataset(qnet.generate_synthetic_dataset(0, 8, 4, (1, 6, 6)),
                          tmp_path / "data.csv")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "network": str(tmp_path / "net.json"), "dataset": str(tmp_path / "data.csv"),
            "out": str(tmp_path),
            "space": {"scheme": ["sparse_staggered", "dense_kernel"], "tile_size": [4, 8, 16]}}))
        assert main(["dse", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: infeasible design points:\n")
        for t in (4, 8):
            assert (f"\n  scheme dense_kernel, tile_size {t}: "
                    f"kernel footprint 9 exceeds tile size {t}") in err
        assert err.count("\n  ") == 2
        assert not (tmp_path / "results.csv").exists()

    def test_budget_refusal_names_count(self, workdir, tmp_path, capsys):
        cfg_path = dse_config(workdir, tmp_path)
        doc = json.loads(cfg_path.read_text())
        doc["max_grid"] = 4
        cfg_path.write_text(json.dumps(doc))
        assert main(["dse", "--config", str(cfg_path)]) == 2
        assert "8 configurations" in capsys.readouterr().err

    @pytest.mark.parametrize("fields, messages", [
        ({"sead": 7}, ["sead: unknown field"]),
        ({"svg": "false"}, ["svg: must be true or false"]),
        ({"seed": True}, ["seed: must be an integer"]),
        ({"jobs": True}, ["jobs: must be a positive integer"]),
        ({"max_grid": True}, ["max_grid: must be a positive integer"]),
        ({"sead": 7, "svg": 0, "seed": False, "jobs": True, "max_grid": True},
         ["sead: unknown field", "svg: must be true or false", "seed: must be an integer",
          "jobs: must be a positive integer", "max_grid: must be a positive integer"]),
        ({"format_version": True}, ["format_version: unsupported value True"]),
        ({"format_version": 1.0}, ["format_version: unsupported value 1.0"]),
    ], ids=["unknown-key", "string-svg", "bool-seed", "bool-jobs", "bool-max_grid", "all",
            "bool-format_version", "float-format_version"])
    def test_bad_top_level_fields_exit_2_at_load(self, workdir, tmp_path, capsys,
                                                 fields, messages):
        cfg = dse_config(workdir, tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **fields}))
        assert main(["dse", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:\n")
        assert err.count("\n  ") == len(messages)     # one line per problem, all at once
        for message in messages:
            assert f"\n  {message}\n" in err
        assert not (tmp_path / "results.csv").exists()

    def test_boolean_svg_resolves_as_given(self, workdir, tmp_path_factory):
        for svg in (False, True):
            out = tmp_path_factory.mktemp("svg")
            cfg = dse_config(workdir, out, scheme=["dense_kernel"], tile_size=[64],
                             batch_size=[64])
            cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "svg": svg}))
            assert main(["dse", "--config", str(cfg)]) == 0
            assert json.loads((out / "config_resolved.json").read_text())["svg"] is svg
            assert (out / "contour_tsa.svg").exists() is svg

    def test_rerun_and_jobs_bit_identical(self, workdir, tmp_path_factory):
        outs = []
        for jobs in ("1", "1", "3"):
            out = tmp_path_factory.mktemp("dse")
            cfg = dse_config(workdir, out)
            assert main(["dse", "--config", str(cfg), "--jobs", jobs]) == 0
            outs.append(out)
        for name in ("results.csv", "ranking.csv",
                     "contour_tsa_scheme=dense_kernel.csv"):
            ref = (outs[0] / name).read_bytes()
            assert ref == (outs[1] / name).read_bytes()
            assert ref == (outs[2] / name).read_bytes()


class TestReportCommand:
    def test_round_trip_matches_dse_outputs(self, workdir, tmp_path_factory):
        out = tmp_path_factory.mktemp("dse")
        cfg = dse_config(workdir, out)
        assert main(["dse", "--config", str(cfg)]) == 0
        rep = tmp_path_factory.mktemp("rep")
        assert main(["report", "--results", str(out / "results.csv"),
                     "--out", str(rep)]) == 0
        for name in ("ranking.csv", "contour_tsa_scheme=sparse_staggered.csv"):
            assert (out / name).read_bytes() == (rep / name).read_bytes()

    def test_round_trip_keeps_value_types(self, workdir, tmp_path_factory):
        """Integer-valued v_max and p_stuck_on and a float io_bit_width come
        back as written, in the cells and in the contour file names."""
        out = tmp_path_factory.mktemp("dse")
        cfg = dse_config(workdir, out, v_max=[1, 0.3], p_stuck_on=[0], io_bit_width=[4.0])
        assert main(["dse", "--config", str(cfg)]) == 0
        rep = tmp_path_factory.mktemp("rep")
        assert main(["report", "--results", str(out / "results.csv"),
                     "--out", str(rep)]) == 0
        contours = sorted(path.name for path in out.glob("contour_tsa*.csv"))
        assert "contour_tsa_scheme=dense_kernel_v_max=1.csv" in contours
        assert sorted(path.name for path in rep.glob("contour_tsa*.csv")) == contours
        for name in ["ranking.csv", *contours]:
            assert (out / name).read_bytes() == (rep / name).read_bytes(), name

    def test_missing_results_exit_2(self, tmp_path):
        assert main(["report", "--results", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["dse", "--config", "{path}"],
    ["report", "--results", "{path}", "--out", "{dir}"],
    ["cost", "--net", "{path}", "--scheme", "dense_kernel", "--tile-size", "32"],
    ["cost", "--net", "{dir}", "--scheme", "dense_kernel", "--tile-size", "32"],
], ids=["dse", "report", "cost", "cost-directory"])
def test_missing_input_exit_2_names_path(argv, tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    named = path if "{path}" in argv else str(tmp_path)
    assert main([arg.format(path=path, dir=tmp_path) for arg in argv]) == 2
    assert named in capsys.readouterr().err


def _no_extent(doc):
    """No input extent, under a linear first layer of one input."""
    doc["input_shape"] = []
    doc["layers"][0] = {"kind": "linear", "in_features": 1, "out_features": 56,
                        "scale": 1.0, "codes": [1] * 56}


def _zero_channels(doc):
    """Zero input channels, under a conv1d layer of zero channels."""
    doc["input_shape"] = [0, 16]
    doc["layers"][0].update(in_channels=0, codes=[])


@pytest.mark.parametrize("edit, err", [
    (lambda doc: doc.update(input_shape=16),
     "error: input_shape: must be a list of integers, got 16\n"),
    (_no_extent, "error: input_shape: needs one or more extents, each >= 1, got []\n"),
    (_zero_channels, "error: input_shape: needs one or more extents, each >= 1, got [0, 16]\n"),
    (lambda doc: doc.update(input_shape=[-1, 16]),
     "error: input_shape: needs one or more extents, each >= 1, got [-1, 16]\n"),
], ids=["not-a-list", "no-extent", "zero-channels", "negative-extent"])
def test_non_list_input_shape_exit_2(workdir, tmp_path, capsys, edit, err):
    doc = json.loads((workdir / "fixture_net.json").read_text())
    edit(doc)
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc))
    assert main(["cost", "--net", str(net), "--scheme", "dense_kernel", "--tile-size", "8"]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("codes", [[[1, 0], [1]], [True, 0]], ids=["ragged", "bool"])
def test_malformed_codes_exit_2(workdir, tmp_path, capsys, codes):
    doc = json.loads((workdir / "fixture_net.json").read_text())
    doc["layers"][0]["codes"] = codes + doc["layers"][0]["codes"][len(codes):]
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc))
    assert main(["cost", "--net", str(net), "--scheme", "dense_kernel", "--tile-size", "8"]) == 2
    assert capsys.readouterr().err == \
        "error: layers[0].codes: must be JSON integers in one flat list\n"


# usage problems a command sees before it loads any network or dataset:
# (argv, run config fields or None, heading, error lines); "{missing}" is an
# absent file, "{absent}" an absent directory, "{net}" the fixture network
# and "{cfg}" the run config
STAGE_ONE = {
    "cost-all": (["cost", "--net", "{missing}", "--scheme", "bogus", "--tile-size", "1",
                  "--out", "{absent}"], None, "invalid arguments",
                 ["network file not found: {missing}",
                  "unknown scheme 'bogus' (known: sparse_staggered, dense_routed, dense_kernel)",
                  "tile size must be >= 2", "output directory does not exist: {absent}"]),
    "cost-out": (["cost", "--net", "{net}", "--scheme", "dense_kernel", "--tile-size", "8",
                  "--out", "{absent}"], None, "invalid arguments",
                 ["output directory does not exist: {absent}"]),
    "report-all": (["report", "--results", "{missing}", "--out", "{absent}"], None,
                   "invalid arguments", ["results file not found: {missing}",
                                         "output directory does not exist: {absent}"]),
    "simulate-all": (["simulate", "--config", "{cfg}"],
                     {"out": "{absent}", "seed": "zero",
                      "space": {"tile_size": [8, 32], "batch_size": [16, 64]}},
                     "invalid configuration",
                     ["output directory does not exist: {absent}", "seed: must be an integer",
                      "simulate needs a single-point space; dimensions with multiple values: "
                      "tile_size, batch_size"]),
    "simulate-out": (["simulate", "--config", "{cfg}"], {"out": "{absent}"},
                     "invalid configuration", ["output directory does not exist: {absent}"]),
    "simulate-multi": (["simulate", "--config", "{cfg}"],
                       {"space": {"scheme": ["dense_kernel", "dense_routed"]}},
                       "invalid configuration",
                       ["simulate needs a single-point space; dimensions with multiple "
                        "values: scheme"]),
    "dse-all": (["dse", "--config", "{cfg}"],
                {"out": "{absent}", "max_grid": 1, "sead": 7,
                 "space": {"batch_size": [16, 64]}}, "invalid configuration",
                ["sead: unknown field", "output directory does not exist: {absent}",
                 "grid has 2 configurations, exceeding max_grid=1; raise max_grid or "
                 "shrink the space"]),
    "dse-out": (["dse", "--config", "{cfg}"], {"out": "{absent}"}, "invalid configuration",
                ["output directory does not exist: {absent}"]),
    "dse-max_grid": (["dse", "--config", "{cfg}"],
                     {"max_grid": 3, "space": {"tile_size": [8, 32], "batch_size": [16, 64]}},
                     "invalid configuration",
                     ["grid has 4 configurations, exceeding max_grid=3; raise max_grid or "
                      "shrink the space"]),
}


def single_point_config(workdir, out, fields):
    """A one-point ``dse_config`` with the top-level ``fields`` set on top."""
    cfg = dse_config(workdir, out, scheme=["dense_kernel"], tile_size=[64], batch_size=[64])
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **fields}))
    return cfg


@pytest.mark.parametrize("case", list(STAGE_ONE))
def test_stage_one_lists_every_problem_before_loading(workdir, tmp_path, capsys, monkeypatch,
                                                      case):
    argv, fields, heading, lines = STAGE_ONE[case]
    paths = {"missing": str(tmp_path / "missing.json"), "absent": str(tmp_path / "absent"),
             "net": str(workdir / "fixture_net.json"), "cfg": str(tmp_path / "config.json")}

    def fill(text):
        for key, value in paths.items():
            text = text.replace("{" + key + "}", value)
        return text

    if fields is not None:
        single_point_config(workdir, tmp_path, json.loads(fill(json.dumps(fields))))

    def no_loading(*a, **k):
        raise AssertionError("loaded an input on a usage error")
    monkeypatch.setattr(qnet, "load_network", no_loading)
    monkeypatch.setattr(qnet, "load_dataset", no_loading)
    assert main([fill(arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {heading}:\n" + "".join(f"  {fill(l)}\n" for l in lines)


@pytest.mark.parametrize("keys", [["network"], ["dataset"], ["out"], ["network", "dataset", "out"]],
                         ids=["network", "dataset", "out", "all"])
def test_non_string_paths_exit_2(workdir, tmp_path, capsys, keys):
    cfg = single_point_config(workdir, tmp_path, {key: 5 for key in keys})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: invalid configuration:\n" + "".join(
        f"  {key}: must be a path string, got 5\n" for key in keys)
    assert not (tmp_path / "simulate_result.json").exists()


@pytest.fixture(scope="module")
def results_csv(workdir, tmp_path_factory):
    """The lines of a dse run's results.csv; its dimension cells for
    io_bit_width and n_states are empty."""
    out = tmp_path_factory.mktemp("results")
    assert main(["dse", "--config", str(dse_config(workdir, out))]) == 0
    return (out / "results.csv").read_text().splitlines()


METRIC_COLUMNS = ["order_index", "tsa", "rd", "rwo", "tiles", "raw_score",
                  "normalized_score", "seed"]


@pytest.mark.parametrize("column, text, message", [
    (None, None, ": 17 cells, expected 18"),
    ("tile_size", "eight", ", column tile_size: could not convert string to float: 'eight'"),
    *[(column, "", f", column {column}: empty cell") for column in METRIC_COLUMNS],
], ids=["short-row", "unparsable", *[f"empty-{column}" for column in METRIC_COLUMNS]])
def test_malformed_results_row_exit_2_names_row_and_column(results_csv, tmp_path, capsys,
                                                          column, text, message):
    lines = list(results_csv)
    row = lines[1 + 3].split(",")            # data row 3, after the header line
    if column is None:
        row.pop()
    else:
        row[cli.RESULT_COLUMNS.index(column)] = text
    lines[1 + 3] = ",".join(row)
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["report", "--results", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {path} row 3{message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["tsa", "raw_score"])
def test_non_finite_results_cell_exit_2(results_csv, tmp_path, capsys, column, text):
    lines = list(results_csv)
    row = lines[1 + 3].split(",")
    row[cli.RESULT_COLUMNS.index(column)] = text
    lines[1 + 3] = ",".join(row)
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["report", "--results", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"error: {path} row 3, column {column}: non-finite value {text!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]


def save_net_and_data(tmp_path, arch, input_shape, samples=8):
    """Save a network of all-one codes and a synthetic dataset for it;
    return the path of a run config over both, without a space."""
    specs, _ = qnet.propagate_shapes(arch, input_shape)
    layers = [qnet.Layer(spec, qnet.WeightTensor(np.ones(spec.weight_shape(), np.int64),
                                                 0.1, 4)) for spec in specs]
    qnet.save_network(qnet.QuantizedNetwork("net", 4, input_shape, layers),
                      tmp_path / "net.json")
    qnet.save_dataset(qnet.generate_synthetic_dataset(0, samples, 2, input_shape),
                      tmp_path / "data.csv")
    return {"network": str(tmp_path / "net.json"), "dataset": str(tmp_path / "data.csv"),
            "out": str(tmp_path)}


def refuse_to_run(monkeypatch):
    def no_point(*a, **k):
        raise AssertionError("ran a design point of an infeasible space")
    monkeypatch.setattr(dse, "grid_search", no_point)


class TestEveryUnmappableLayerNamed:
    """Kernel footprints 9 and 18: dense_kernel maps neither conv layer at
    t=4 or t=8, and only the first at t=16."""

    ARCH = [qnet.conv2d(2, 3, 3), qnet.conv2d(2, 3, 3), qnet.linear(4)]

    def test_cost_names_both_conv_layers(self, tmp_path, capsys):
        save_net_and_data(tmp_path, self.ARCH, (1, 8, 8))
        assert main(["cost", "--net", str(tmp_path / "net.json"), "--scheme", "dense_kernel",
                     "--tile-size", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: infeasible design points:\n"
            "  scheme dense_kernel, tile_size 4: kernel footprint 9 exceeds tile size 4"
            " (layer 0, conv2d)\n"
            "  scheme dense_kernel, tile_size 4: kernel footprint 18 exceeds tile size 4"
            " (layer 1, conv2d)\n")

    def test_dse_names_every_layer_at_every_tile_size(self, tmp_path, capsys, monkeypatch):
        cfg = save_net_and_data(tmp_path, self.ARCH, (1, 8, 8))
        cfg["space"] = {"scheme": ["dense_kernel"], "tile_size": [4, 8, 16]}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        refuse_to_run(monkeypatch)
        assert main(["dse", "--config", str(tmp_path / "config.json")]) == 2
        assert capsys.readouterr().err == "error: infeasible design points:\n" + "".join(
            f"  scheme dense_kernel, tile_size {t}: kernel footprint {f} exceeds tile size {t}"
            f" (layer {i}, conv2d)\n" for t, i, f in
            [(4, 0, 9), (4, 1, 18), (8, 0, 9), (8, 1, 18), (16, 1, 18)])
        assert not (tmp_path / "results.csv").exists()


class TestInt32CellBound:
    """A staggered conv2d(1, 3, 3) over 1x256x256 unrolls to 65,536 x 64,516
    logical cells, more than int32 indexes: refused from shapes, before the
    matrix is built."""

    LINE = ("scheme sparse_staggered, tile_size 64: logical matrix of 4228120576 cells "
            "exceeds the int32 index range (layer 0, conv2d)")

    @pytest.fixture
    def config(self, tmp_path, monkeypatch):
        def no_cells(*a, **k):
            raise AssertionError("built the staggered matrix of an unmappable layer")
        monkeypatch.setattr(mapping, "_staggered_cells", no_cells)
        return save_net_and_data(tmp_path, [qnet.conv2d(1, 3, 3)], (1, 256, 256), samples=2)

    def test_cost_refuses_without_building(self, tmp_path, capsys, config):
        assert main(["cost", "--net", config["network"], "--scheme", "sparse_staggered",
                     "--tile-size", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: infeasible design points:\n  {self.LINE}\n"

    def test_dse_refuses_at_stage_two(self, tmp_path, capsys, monkeypatch, config):
        config["space"] = {"scheme": ["sparse_staggered", "dense_routed"], "tile_size": [64]}
        (tmp_path / "config.json").write_text(json.dumps(config))
        refuse_to_run(monkeypatch)
        assert main(["dse", "--config", str(tmp_path / "config.json")]) == 2
        assert capsys.readouterr().err == (
            "error: invalid configuration:\n"
            "  architecture output (1, 254, 254) is not a vector of logits\n"
            f"infeasible design points:\n  {self.LINE}\n")


def write_dataset(workdir, path, cells=(), header=("", "")):
    """The fixture's test set with every (row, field, text) of ``cells`` set
    and ``header[0]`` replaced by ``header[1]`` in its header line."""
    lines = (workdir / "fixture_test.csv").read_text().splitlines()
    lines[0] = lines[0].replace(*header)
    for row, field, text in cells:
        parts = lines[2 + row].split(",")       # data row ``row``, after the two header lines
        parts[field] = text
        lines[2 + row] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


def write_broken_network(workdir, path):
    """The fixture network with a negative layer-0 scale and a layer 1 of
    kind 'dense'; return its two error lines."""
    doc = json.loads((workdir / "fixture_net.json").read_text())
    doc["layers"][0]["scale"] = -1.0
    doc["layers"][1]["kind"] = "dense"
    path.write_text(json.dumps(doc))
    return ["layers[0].scale: must be a positive finite number",
            "layers[1].kind: unknown kind 'dense'"]


BAD_ROWS = [(1, 4, "abc"), (3, 0, "x")]
BAD_ROW_LINES = ["dataset row 1: could not convert string to float: 'abc'",
                 "dataset row 3: invalid literal for int() with base 10: 'x'"]


class TestStageTwoListsEverything:
    """Every problem in the network, the dataset, their pairing and the space
    is refused in one message, before any point runs. dense_kernel cannot
    map the fixture's conv1d layer (footprint 3) at t=2."""

    def refused_dse(self, tmp_path, capsys, monkeypatch, network):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "network": str(network), "dataset": str(tmp_path / "data.csv"),
            "out": str(tmp_path), "space": {"scheme": ["dense_kernel"], "tile_size": [2, 8]}}))
        refuse_to_run(monkeypatch)
        assert main(["dse", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not (tmp_path / "results.csv").exists()
        return captured.err

    def test_network_and_dataset_problems_together(self, workdir, tmp_path, capsys,
                                                   monkeypatch):
        net_lines = write_broken_network(workdir, tmp_path / "net.json")
        write_dataset(workdir, tmp_path / "data.csv", BAD_ROWS)
        err = self.refused_dse(tmp_path, capsys, monkeypatch, tmp_path / "net.json")
        assert err == "error: invalid configuration:\n" + "".join(
            f"  {line}\n" for line in net_lines + BAD_ROW_LINES)

    def test_dataset_problems_with_infeasible_points(self, workdir, tmp_path, capsys,
                                                     monkeypatch):
        write_dataset(workdir, tmp_path / "data.csv", BAD_ROWS)
        err = self.refused_dse(tmp_path, capsys, monkeypatch, workdir / "fixture_net.json")
        assert err == (
            "error: invalid configuration:\n" + "".join(f"  {line}\n" for line in BAD_ROW_LINES)
            + "infeasible design points:\n  scheme dense_kernel, tile_size 2: kernel footprint 3"
              " exceeds tile size 2 (layer 0, conv1d)\n")

    def test_cost_lists_every_layer_problem(self, workdir, tmp_path, capsys):
        net_lines = write_broken_network(workdir, tmp_path / "net.json")
        assert main(["cost", "--net", str(tmp_path / "net.json"), "--scheme", "dense_kernel",
                     "--tile-size", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid arguments:\n" + "".join(
            f"  {line}\n" for line in net_lines)

    def test_a_file_lists_at_most_20_problems(self, workdir, tmp_path, capsys, monkeypatch):
        write_dataset(workdir, tmp_path / "data.csv", [(row, 1, "nan") for row in range(25)])
        cfg = single_point_config(workdir, tmp_path, {"dataset": str(tmp_path / "data.csv")})
        refuse_to_run(monkeypatch)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: invalid configuration:\n" + "".join(
            f"  dataset row {row}: non-finite feature\n" for row in range(20)) + \
            "  ... and 5 more\n"


# datasets that the fixture network cannot score, or whose header has a bad
# extent: (header edit, cell edits, the one error line)
UNFIT_DATASETS = {
    "ten-classes": (("class_count: 4", "class_count: 10"),
                    [(row, 0, "7") for row in range(0, 200, 3)],
                    "architecture output (4,) does not match 10 classes"),
    "flat-features": (("feature_shape: 1x16", "feature_shape: 16"), [],
                      "dataset feature shape (16,) != network input (1, 16)"),
    "negative-extent": (("feature_shape: 1x16", "feature_shape: -2"), [],
                        "dataset header: feature_shape extents must be >= 1, got -2"),
    "zero-extent": (("feature_shape: 1x16", "feature_shape: 0"), [],
                    "dataset header: feature_shape extents must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", list(UNFIT_DATASETS))
def test_unfit_dataset_exit_2_before_any_point(workdir, tmp_path, capsys, monkeypatch, case):
    header, cells, line = UNFIT_DATASETS[case]
    write_dataset(workdir, tmp_path / "data.csv", cells, header)
    cfg = single_point_config(workdir, tmp_path, {"dataset": str(tmp_path / "data.csv")})
    refuse_to_run(monkeypatch)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not (tmp_path / "simulate_result.json").exists()


def header_only_dataset(workdir, tmp_path):
    """The fixture's test set cut to its two header lines."""
    lines = (workdir / "fixture_test.csv").read_text().splitlines()
    (tmp_path / "data.csv").write_text("\n".join(lines[:2]) + "\n")
    return {"dataset": str(tmp_path / "data.csv")}


def conv_output_network(workdir, tmp_path):
    """A one-layer conv1d(4, 3) network on the fixture's input, whose output
    (4, 14) is not a vector of logits."""
    return {"network": save_net_and_data(tmp_path, [qnet.conv1d(4, 3)], (1, 16))["network"]}


# inputs that load but that no design point could score: (the run config
# fields that point at them, the one error line)
UNSCORABLE_INPUTS = {
    "no-data-rows": (header_only_dataset, "dataset: needs at least one sample"),
    "conv-output": (conv_output_network,
                    "architecture output (4, 14) is not a vector of logits"),
}


@pytest.mark.parametrize("case", list(UNSCORABLE_INPUTS))
def test_unscorable_inputs_exit_2_before_any_point(workdir, tmp_path, capsys, monkeypatch,
                                                   case):
    write, line = UNSCORABLE_INPUTS[case]
    cfg = single_point_config(workdir, tmp_path, write(workdir, tmp_path))
    refuse_to_run(monkeypatch)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert not (tmp_path / "simulate_result.json").exists()


@pytest.mark.parametrize("layers, line", [
    (5, "layers: must be a non-empty list, got 5"),
    ([5], "layers[0]: must be an object, got 5"),
    (["kind"], "layers[0]: must be an object, got 'kind'"),
    ({"a": 1}, "layers: must be a non-empty list, got {'a': 1}"),
    ([], "layers: must be a non-empty list, got []"),
], ids=["number", "list-of-number", "list-of-string", "object", "empty"])
def test_malformed_layers_exit_2_at_load(workdir, tmp_path, capsys, layers, line):
    doc = json.loads((workdir / "fixture_net.json").read_text())
    net = tmp_path / "net.json"
    net.write_text(json.dumps({**doc, "layers": layers}))
    assert main(["cost", "--net", str(net), "--scheme", "dense_kernel", "--tile-size", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


def test_report_names_every_bad_row(results_csv, tmp_path, capsys):
    lines = list(results_csv)
    row = lines[1 + 3].split(",")
    row[cli.RESULT_COLUMNS.index("tsa")] = "nan"
    lines[1 + 3] = ",".join(row)
    lines[1 + 5] = ",".join(lines[1 + 5].split(",")[:-1])
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["report", "--results", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: invalid arguments:\n  {path} row 3, column tsa: non-finite value 'nan'\n"
        f"  {path} row 5: 17 cells, expected 18\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]


def test_boolean_tile_size_is_not_an_integer(workdir, tmp_path, capsys):
    cfg = dse_config(workdir, tmp_path, tile_size=[True, 8.0])
    assert main(["dse", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == ("error: invalid configuration:\n"
                                       "  space.tile_size: True: not an integer\n"
                                       "  space.tile_size: 8.0: not an integer\n")
