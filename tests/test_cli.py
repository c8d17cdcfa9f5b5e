import json
from pathlib import Path

import numpy as np
import pytest

from xbardse import cli, qnet
from xbardse.cli import load_contour_csv, load_results_csv, main


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


class TestDseCommand:
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
            grid = load_contour_csv(tmp_path / f"contour_tsa_scheme={scheme}.csv")
            assert grid.matrix.shape == (2, 2)
            assert not np.isnan(grid.matrix).any()
            assert (tmp_path / f"contour_tsa_scheme={scheme}.svg").exists()
        resolved = json.loads((tmp_path / "config_resolved.json").read_text())
        assert resolved["seed"] == 0
        assert resolved["device"]["r_off_mean"] == 100000.0

    def test_budget_refusal_names_count(self, workdir, tmp_path, capsys):
        cfg_path = dse_config(workdir, tmp_path)
        doc = json.loads(cfg_path.read_text())
        doc["max_grid"] = 4
        cfg_path.write_text(json.dumps(doc))
        assert main(["dse", "--config", str(cfg_path)]) == 2
        assert "8 configurations" in capsys.readouterr().err

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
