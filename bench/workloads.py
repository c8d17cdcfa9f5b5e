"""Workloads of the xbardse benchmark: definitions, a seeded generator, the
measured pass of each workload, and the checks on its outputs.

Every workload is generated from a seed into a directory; the program
receives only the generated files and the arrays loaded from them.

The crossbar device model is not validated against real hardware: the
repository holds no measurements from real crossbars. TSA figures are
simulated statistics, and the only accuracy reference is the ideal oracle
`qnet.ideal_forward`.

Generate a workload's input files by hand with
    PYTHONPATH=src python3 bench/workloads.py --workload conv_map --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from xbardse import cli, dse, mapping, qnet, xbar

UNVALIDATED = ("The device model is unvalidated against hardware: no measurements "
               "from real crossbars exist in the repository, so TSA is a simulated "
               "statistic checked only against the ideal oracle qnet.ideal_forward.")

NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    samples: int = 0            # conv workloads: test samples
    batch: int = 0              # conv workloads: scaling-group size
    points: tuple = ()          # conv workloads: (scheme, tile_size) per point


# The 432-point W1 grid of the ROADMAP; `network` is the fixture's name.
DSE_GRID_SPACE = {
    "scheme": list(mapping.SCHEMES),
    "tile_size": [8, 16, 32, 64],
    "batch_size": [16, 64, 256],
    "io_bit_width": [None, 4, 6],
    "p_stuck_on": [0.0, 0.01],
    "std_multiplier": [1.0, 2.0],
}
DSE_GRID_POINTS = math.prod(len(v) for v in DSE_GRID_SPACE.values())

WORKLOADS = {w.name: w for w in (
    Workload(
        "dse_grid",
        why=("432-point grid on the fixture network through `xbardse dse` with jobs=nproc: "
             "tiles are tiny and reads cheap, so time goes to per-point plan rebuilds "
             "(864 builds for 12 scheme/tile groups), per-point ADC calibration on the "
             "288 quantized points, the thread pool and CSV/report output. "
             + UNVALIDATED)),
    Workload(
        "conv_map",
        why=("Five single-point grid searches on the 3-layer conv network, 128 samples, "
             "6-bit I/O, batch 64: sparse_staggered at t=32 lays out 2,566 tiles and "
             "2.6 M devices, so device sampling, programming and plan building dominate "
             "and reads are few. The two t=32 points fail today on the cross-scheme "
             "cost bug (dense_kernel's footprint 72 > 32 is costed though not simulated) "
             "and are kept so that the failure shows. " + UNVALIDATED),
        samples=128, batch=64,
        points=(("sparse_staggered", 32), ("dense_routed", 32),
                ("sparse_staggered", 128), ("dense_routed", 128),
                ("dense_kernel", 128))),
    Workload(
        "conv_read",
        why=("The conv_map network on 1024 samples with batch 64 (16 scaling groups) "
             "at t=128 on the two dense schemes, about 5 tiles each: sampling and "
             "programming are cheap, so the analog read path and the ideal-oracle ADC "
             "calibration dominate. Work moved from reads into per-point set-up pays "
             "here and costs on conv_map. " + UNVALIDATED),
        samples=1024, batch=64,
        points=(("dense_routed", 128), ("dense_kernel", 128))),
)}

# The ROADMAP's W2 network reads 1x28x28 inputs. At that size one conv_map pass
# takes about 34 s and one conv_read pass 8.5 s on a 2-core host, too long to
# repeat within a run; 1x16x16 keeps every point, the t=32 failure and which
# layers dominate each workload.
CONV_INPUT_SHAPE = (1, 16, 16)
CONV_CLASSES = 10
NOISE_OFF_TILE = 128
NOISE_OFF_RTOL = 1e-6


class CheckFailed(RuntimeError):
    """An output of the program is wrong; no numbers may be recorded."""


# ---------------------------------------------------------------------------
# generator


def input_files(workload: str, out: Path) -> tuple[Path, Path]:
    """(network file, dataset file) the generator writes for a workload."""
    if workload == "dse_grid":
        return out / "fixture_net.json", out / "fixture_test.csv"
    return out / "network.json", out / "dataset.csv"


def conv_network(seed: int) -> qnet.QuantizedNetwork:
    """conv2d(8,3x3) -> conv2d(16,3x3,s2) -> linear(10) on 1x16x16, with
    uniform 8-bit codes each zeroed with probability 1/2."""
    rng = np.random.default_rng(seed)
    arch = [qnet.conv2d(8, 3, 3), qnet.conv2d(16, 3, 3, stride=2),
            qnet.linear(CONV_CLASSES)]
    specs, _ = qnet.propagate_shapes(arch, CONV_INPUT_SHAPE)
    layers = []
    for spec in specs:
        shape = spec.weight_shape()
        codes = rng.integers(-127, 128, size=shape)
        codes[rng.random(shape) < 0.5] = 0
        fan_in = math.prod(shape[1:])
        scale = 1.0 / (127 * math.sqrt(fan_in / 2))
        layers.append(qnet.Layer(spec, qnet.WeightTensor(codes.astype(np.int64), scale, 8)))
    net = qnet.QuantizedNetwork(f"conv-s{seed}", 8, CONV_INPUT_SHAPE, layers, seed=seed)
    net.validate()
    return net


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the workload's network, dataset and (dse_grid) run config."""
    spec = WORKLOADS[workload]
    net_path, data_path = input_files(workload, out)
    if workload == "dse_grid":
        with redirect_stdout(io.StringIO()):
            code = cli.main(["fixture", "--seed", str(seed), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"xbardse fixture exited with {code}")
        config = {"format_version": 1, "network": str(net_path),
                  "dataset": str(data_path), "seed": seed, "jobs": NPROC,
                  "space": DSE_GRID_SPACE}
        (out / "dse.json").write_text(json.dumps(config, indent=1))
        return
    net = conv_network(seed)
    rng = np.random.default_rng([seed, spec.samples])
    features = rng.standard_normal((spec.samples, *CONV_INPUT_SHAPE))
    labels = np.argmax(qnet.ideal_forward(net, features), axis=1)
    qnet.save_network(net, net_path)
    qnet.save_dataset(qnet.Dataset(features, labels, CONV_CLASSES), data_path)


# ---------------------------------------------------------------------------
# measured passes


@dataclass(frozen=True)
class Outcome:
    """One attempted design point: values (tsa, rd, rwo, tiles) or a cause."""

    point: str
    scheme: str
    tile_size: int
    values: tuple | None = None
    cause: str | None = None


@dataclass
class PassResult:
    wall: float                 # seconds spent on the attempted points
    outcomes: list
    artifact: bytes = b""       # dse_grid: results.csv

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> int:
        return sum(o.cause is None for o in self.outcomes)


class Runner:
    """Runs one generated workload's passes and checks their outputs."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.network, self.dataset = input_files(workload, workdir)

    def run_pass(self, index: int) -> PassResult:
        if self.spec.name == "dse_grid":
            return self._dse_pass(index)
        return self._conv_pass()

    def _dse_pass(self, index: int) -> PassResult:
        out = self.workdir / f"pass{index}"
        out.mkdir()
        stderr = io.StringIO()
        start = perf_counter()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = cli.main(["dse", "--config", str(self.workdir / "dse.json"),
                             "--out", str(out)])
        wall = perf_counter() - start
        try:
            if code != 0:
                lines = stderr.getvalue().strip().splitlines() or [f"exit code {code}"]
                return PassResult(wall, [Outcome(f"grid point {i}", "", 0, cause=lines[-1])
                                         for i in range(DSE_GRID_POINTS)])
            artifact = (out / "results.csv").read_bytes()
        finally:
            shutil.rmtree(out)
        outcomes = []
        for row in csv.DictReader(io.StringIO(artifact.decode())):
            point = " ".join(f"{d}={row[d]}" for d in DSE_GRID_SPACE)
            outcomes.append(Outcome(point, row["scheme"], int(row["tile_size"]),
                                    (float(row["tsa"]), int(row["rd"]),
                                     int(row["rwo"]), int(row["tiles"]))))
        return PassResult(wall, outcomes, artifact)

    def _conv_pass(self) -> PassResult:
        net = qnet.load_network(self.network)
        data = qnet.load_dataset(self.dataset)
        wall = 0.0
        outcomes = []
        for scheme, tile in self.spec.points:
            space = dse.SearchSpace(network=[net.name], scheme=[scheme],
                                    tile_size=[tile], io_bit_width=[6],
                                    batch_size=[self.spec.batch])
            point = f"{scheme} t={tile}"
            start = perf_counter()
            try:
                res = dse.grid_search(space, data, {net.name: net}, seed=self.seed)[0]
            except dse.EvaluationError as err:
                outcomes.append(Outcome(point, scheme, tile, cause=str(err.cause)))
            else:
                outcomes.append(Outcome(point, scheme, tile,
                                        (res.tsa, res.rd, res.rwo, res.tiles)))
            finally:
                wall += perf_counter() - start
        return PassResult(wall, outcomes)

    # -- checks -------------------------------------------------------------

    def check(self, passes: list[PassResult]) -> None:
        """Raise CheckFailed unless every pass's outputs are right."""
        net = qnet.load_network(self.network)
        first = passes[0]
        for i, res in enumerate(passes[1:], 1):
            if res.artifact != first.artifact:
                raise CheckFailed(f"pass {i}: results.csv differs from pass 0")
            if res.outcomes != first.outcomes:
                raise CheckFailed(f"pass {i}: design point outcomes differ from pass 0")
        if self.spec.name == "dse_grid" and first.ok and first.attempted != DSE_GRID_POINTS:
            raise CheckFailed(f"results.csv has {first.attempted} rows, "
                              f"expected {DSE_GRID_POINTS}")
        analytic = {}
        for outcome in first.outcomes:
            if outcome.cause is not None:
                continue
            key = (outcome.scheme, outcome.tile_size)
            if key not in analytic:
                rep = mapping.analytic_network_cost(net, *key)
                analytic[key] = (rep.rd, rep.rwo, rep.tiles)
            if outcome.values[1:] != analytic[key]:
                raise CheckFailed(f"{outcome.point}: RD, RWO, tiles {outcome.values[1:]} "
                                  f"!= analytic cost {analytic[key]}")
            if not 0.0 <= outcome.values[0] <= 1.0:
                raise CheckFailed(f"{outcome.point}: TSA {outcome.values[0]} outside [0, 1]")
        if self.spec.points:
            self._check_noise_off(net)

    def _check_noise_off(self, net: qnet.QuantizedNetwork) -> None:
        """Noise-off simulation (std 0, no stuck devices, 16-bit I/O) of
        every scheme equals the ideal oracle: TSA 1.0, logits within 1e-6."""
        data = qnet.load_dataset(self.dataset)
        ideal = qnet.ideal_forward(net, data.features)
        hw = xbar.HardwareConfig(
            tile_size=NOISE_OFF_TILE,
            io=xbar.IOConfig(io_bit_width=16, batch_size=self.spec.batch),
            device=xbar.DeviceModel(r_on_std=0.0, r_off_std=0.0,
                                    p_stuck_on=0.0, p_stuck_off=0.0))
        for scheme in mapping.SCHEMES:
            plans = mapping.network_plans(net, scheme, hw.tile_size)
            chash = xbar.config_hash(net, scheme, hw)
            tiles = [xbar.program(xbar.sample_devices(self.seed, plan, hw.device, chash, li),
                                  plan, net.layers[li].weights, hw.device)
                     for li, plan in enumerate(plans)]
            logits = np.concatenate([
                xbar.simulate_forward(net, plans, tiles, data.features[s: s + hw.io.batch_size],
                                      hw.io, hw.device)
                for s in range(0, len(data), hw.io.batch_size)])
            rel = np.abs(logits - ideal) / np.maximum(np.abs(ideal), 1e-12)
            tsa = float(np.mean(np.argmax(logits, axis=1) == data.labels))
            if rel.max() >= NOISE_OFF_RTOL or tsa != 1.0:
                raise CheckFailed(f"noise-off {scheme} t={hw.tile_size}: TSA {tsa}, "
                                  f"max relative logit error {rel.max():.3g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write a benchmark workload's inputs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="existing output directory")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
