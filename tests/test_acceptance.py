"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Expected values marked as frozen were computed once with an
independent exact-arithmetic evaluation and pasted in as literals.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from xbardse import dse, mapping, qnet, xbar
from xbardse.cli import load_results_csv, main
from xbardse.mapping import (
    SCHEMES,
    analytic_network_cost,
    cost_network,
    devices_dense_eq2,
    devices_sparse_eq1,
    layer_plan,
    steps_dense_eq3,
)

from test_mapping import (
    brute_force_products,
    derive_costs_cross_scheme,
    plan_products,
    random_quantized,
)


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


# frozen oracle: (K, H, W, X, S, P, D, eq1_num, eq1_den, eq2, eq3_floor, eq3_rem)
EQ_CASES = [
    (1, 3, 1, 5, 1, 0, 1, 5, 1, 3, 1, False),
    (1, 3, 1, 3, 1, 0, 1, 0, 1, 3, 0, False),
    (2, 1, 1, 4, 0, 0, 1, 48, 1, 2, 3, False),
    (64, 3, 3, 32, 1, 0, 1, 5701632, 1, 576, 14, True),
    (1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0, False),
    (512, 3, 3, 8, 1, 1, 1, 22020096, 1, 4608, 3, True),
    (1, 3, 1, 32, 1, 1, 1, 496, 1, 3, 15, True),
    (4, 3, 1, 16, 1, 0, 1, 1664, 1, 12, 6, True),
    (3, 2, 2, 6, 2, 0, 1, 144, 1, 12, 1, True),
    (2, 3, 3, 7, 2, 1, 1, 168, 1, 18, 2, False),
    (5, 1, 1, 9, 1, 0, 1, 900, 1, 5, 4, False),
    (1, 2, 1, 6, 1, 0, 2, 9, 1, 2, 1, True),
    (2, 3, 1, 10, 3, 0, 2, 50, 1, 6, 1, True),
    (7, 5, 5, 28, 1, 2, 1, 92610, 1, 175, 13, True),
    (3, 3, 3, 5, 1, 0, 1, 135, 1, 27, 1, False),
    (6, 4, 4, 12, 2, 1, 1, 5760, 1, 96, 3, True),
    (2, 2, 2, 4, 1, 1, 2, 48, 1, 8, 1, True),
    (8, 3, 3, 14, 4, 0, 1, 29568, 5, 72, 2, True),
    (1, 7, 1, 15, 2, 3, 1, 70, 1, 7, 4, True),
    (9, 1, 3, 11, 0, 0, 1, 26730, 1, 27, 10, False),
    (10, 3, 3, 20, 1, 0, 3, 39000, 1, 90, 6, True),
]


def test_c1_formula_evaluators_exact():
    assert len(EQ_CASES) >= 20
    for (k, h, w, x, s, p, d, n1, d1, e2, f3, r3) in EQ_CASES:
        geom = qnet.LayerSpec("conv1d" if w == 1 else "conv2d", kernels=k, kernel_h=h,
                              kernel_w=w, in_x=x, in_y=x, stride=s, padding=p, dilation=d,
                              in_channels=1)
        eq1 = devices_sparse_eq1(geom)
        assert eq1 == Fraction(n1, d1), (k, h, w, x, s, p, d)
        assert (eq1.denominator != 1) == (d1 != 1)
        assert devices_dense_eq2(geom) == e2
        assert steps_dense_eq3(geom) == (f3, r3)
    report(f"criterion 1 PASS: Eq(1)/(2)/(3) exact on {len(EQ_CASES)} frozen "
           "geometries, remainder flags correct")


def test_c2_connectivity_brute_force():
    rng = np.random.default_rng(42)
    start = time.time()
    checked = 0
    while checked < 100:
        one_d = bool(rng.integers(0, 2))
        if one_d:
            spec = qnet.conv1d(kernels=int(rng.integers(1, 4)),
                               kernel_h=int(rng.integers(1, 4)),
                               stride=int(rng.integers(1, 3)),
                               padding=int(rng.integers(0, 2)),
                               dilation=int(rng.integers(1, 3)))
            shape = (int(rng.integers(1, 3)), int(rng.integers(5, 10)))
        else:
            spec = qnet.conv2d(kernels=int(rng.integers(1, 3)),
                               kernel_h=int(rng.integers(1, 3)),
                               kernel_w=int(rng.integers(1, 3)),
                               stride=int(rng.integers(1, 3)),
                               padding=int(rng.integers(0, 2)))
            shape = (int(rng.integers(1, 3)), int(rng.integers(4, 7)),
                     int(rng.integers(4, 7)))
        try:
            spec = qnet.propagate_shapes([spec], shape)[0][0]
        except ValueError:
            continue
        wt = random_quantized(rng, spec.weight_shape())
        scheme = SCHEMES[checked % 3]
        tile = max(8, spec.footprint)
        plan = layer_plan(spec, wt, scheme, tile)
        want = brute_force_products(spec, wt.codes,
                                    nonzero_only=(scheme == "dense_routed"))
        assert plan_products(plan, spec, wt) == want, (scheme, spec)
        checked += 1
    # linear layers too
    for _ in range(20):
        w = rng.normal(size=(int(rng.integers(2, 6)), int(rng.integers(2, 8))))
        w[rng.random(w.shape) < 0.3] = 0.0
        wt = qnet.quantize_weights(w if np.abs(w).max() else w + 1, 8)
        spec = qnet.propagate_shapes([qnet.linear(w.shape[0])], (w.shape[1],))[0][0]
        for scheme in SCHEMES:
            plan = layer_plan(spec, wt, scheme, 8)
            want = set()
            for out_i in range(w.shape[0]):
                for in_i in range(w.shape[1]):
                    if scheme != "sparse_staggered" and wt.codes[out_i, in_i] == 0:
                        continue
                    want.add((in_i, out_i, out_i * w.shape[1] + in_i))
            assert plan_products(plan, spec, wt) == want
        checked += 1
    report(f"criterion 2 PASS: plan connectivity equals brute force on "
           f"{checked} randomized layers ({time.time() - start:.1f}s)")


def test_c3_cross_scheme_costs_exact():
    rng = np.random.default_rng(11)
    nets = 0
    for i in range(25):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            shape = (int(rng.integers(1, 3)), int(rng.integers(5, 10)))
            arch = [qnet.conv1d(kernels=int(rng.integers(1, 5)),
                                kernel_h=int(rng.integers(1, 4)),
                                stride=int(rng.integers(1, 3)),
                                padding=int(rng.integers(0, 2))),
                    qnet.linear(3)]
        elif kind == 1:
            shape = (int(rng.integers(1, 3)), int(rng.integers(4, 8)),
                     int(rng.integers(4, 8)))
            arch = [qnet.conv2d(kernels=int(rng.integers(1, 4)), kernel_h=2,
                                kernel_w=2, stride=int(rng.integers(1, 3))),
                    qnet.linear(3)]
        else:
            shape = (int(rng.integers(4, 12)),)
            arch = [qnet.linear(int(rng.integers(2, 6))), qnet.linear(3)]
        try:
            specs, _ = qnet.propagate_shapes(arch, shape)
        except ValueError:
            continue
        layers = [qnet.Layer(s, random_quantized(rng, s.weight_shape()))
                  for s in specs]
        net = qnet.QuantizedNetwork(f"rand{i}", 8, shape, layers)
        net.validate()
        for t in (8, 16, 32):
            for simulated in SCHEMES:
                try:
                    derived = derive_costs_cross_scheme(simulated, net, t)
                except mapping.MappingError:
                    continue
                for scheme in SCHEMES:
                    constructive, _ = cost_network(net, scheme, t)
                    assert derived[scheme] == constructive, (i, t, simulated, scheme)
        nets += 1
    assert nets >= 15
    report(f"criterion 3 PASS: cross-scheme cost derivation exact on {nets} "
           "randomized networks x 3 tile sizes x 3 simulated schemes")


def test_c4_noise_off_equivalence(fixture_net, test_data):
    start = time.time()
    ideal_logits = qnet.ideal_forward(fixture_net, test_data.features)
    ideal_tsa = qnet.accuracy(fixture_net, test_data)
    hw = xbar.HardwareConfig(
        tile_size=32, io=xbar.IOConfig(io_bit_width=16, batch_size=64),
        device=xbar.DeviceModel(r_on_std=0.0, r_off_std=0.0,
                                p_stuck_on=0.0, p_stuck_off=0.0, n_states=None))
    for scheme in SCHEMES:
        tsa = xbar.evaluate_accuracy(fixture_net, scheme, hw, test_data, seed=0)
        assert tsa == ideal_tsa, scheme
        plans = mapping.network_plans(fixture_net, scheme, 32)
        chash = xbar.config_hash(fixture_net, scheme, hw)
        tiles = []
        for li, plan in enumerate(plans):
            sampled = xbar.sample_devices(0, plan, hw.device, chash, li)
            tiles.append(xbar.program(sampled, plan,
                                      fixture_net.layers[li].weights, hw.device))
        logits = xbar.simulate_forward(fixture_net, plans, tiles,
                                       test_data.features, hw.io, hw.device)
        rel = np.abs(logits - ideal_logits) / np.maximum(np.abs(ideal_logits), 1e-12)
        assert rel.max() < 1e-6, scheme
    report(f"criterion 4 PASS: noise-off TSA equals ideal ({ideal_tsa:.4f}) for "
           f"all schemes, logits within 1e-6 relative ({time.time() - start:.1f}s)")


def test_c5_monte_carlo_device_statistics():
    start = time.time()
    plan = mapping.map_linear_sparse(np.ones((256, 2048)), 256)
    tiles = xbar.sample_devices(0, plan, xbar.DeviceModel(), "acceptance-mc", 0)
    r_off = np.concatenate([t.r_off.ravel() for t in tiles.values()])
    r_on = np.concatenate([t.r_on.ravel() for t in tiles.values()])
    stuck = np.concatenate([t.stuck.ravel() for t in tiles.values()])
    n = r_off.size
    assert n >= 1_000_000
    assert abs(r_off.mean() - 100_000.0) / 100_000.0 < 0.01
    assert abs(r_off.std() - 10_000.0) / 10_000.0 < 0.05
    assert abs(r_on.mean() - 10_000.0) / 10_000.0 < 0.01
    on_frac = (stuck == xbar.STUCK_ON).mean()
    off_frac = (stuck == xbar.STUCK_OFF).mean()
    assert abs(on_frac - 0.005) <= 0.001
    assert abs(off_frac - 0.005) <= 0.001
    report(f"criterion 5 PASS: {n} devices, mean(R_OFF)={r_off.mean():.0f}, "
           f"std(R_OFF)={r_off.std():.0f}, mean(R_ON)={r_on.mean():.0f}, "
           f"stuck on/off {on_frac:.4f}/{off_frac:.4f} ({time.time() - start:.1f}s)")


def test_c6_degradation_properties(fixture_net, test_data):
    start = time.time()
    seeds = range(5)

    def median_tsa(model, io_bits=8):
        hw = xbar.HardwareConfig(tile_size=32,
                                 io=xbar.IOConfig(io_bit_width=io_bits, batch_size=64),
                                 device=model)
        return float(np.median([
            xbar.evaluate_accuracy(fixture_net, "sparse_staggered", hw,
                                   test_data, seed=s) for s in seeds]))

    stuck_meds = [median_tsa(xbar.DeviceModel(p_stuck_on=r / 2, p_stuck_off=r / 2))
                  for r in (0.0, 0.02, 0.10)]
    assert all(a >= b for a, b in zip(stuck_meds, stuck_meds[1:])), stuck_meds

    # state-count sweep isolates programming resolution: variability and
    # stuck faults off, ideal I/O
    state_meds = [median_tsa(xbar.DeviceModel(r_on_std=0.0, r_off_std=0.0,
                                              p_stuck_on=0.0, p_stuck_off=0.0,
                                              n_states=ns), io_bits=None)
                  for ns in (None, 16, 4, 2)]
    assert all(a >= b for a, b in zip(state_meds, state_meds[1:])), state_meds

    chance = 1.0 / test_data.class_count
    dead = median_tsa(xbar.DeviceModel(p_stuck_on=0.0, p_stuck_off=1.0))
    assert abs(dead - chance) <= 0.10, dead
    report("criterion 6 PASS: stuck sweep medians "
           f"{[round(m, 3) for m in stuck_meds]} and state sweep "
           f"{[round(m, 3) for m in state_meds]} non-increasing; all-stuck-off "
           f"TSA {dead:.3f} within 0.10 of chance ({time.time() - start:.1f}s)")


def test_c7_scoring_and_normalization():
    # 88.52 accuracy, 516 x 64 x 64 devices, 2119 x 64 read cycles
    rd = 516 * 64 * 64
    rwo = 2119 * 64
    raw = dse.weighted_score(88.52, rd, rwo)
    exact = 88.52 / (2_113_536 * 135_616)
    assert abs(raw - exact) / exact < 1e-9
    assert raw == pytest.approx(3.088e-10, rel=1e-3)

    rng = np.random.default_rng(0)
    for _ in range(50):
        scores = rng.uniform(1e-12, 1e-6, size=int(rng.integers(2, 40))).tolist()
        norm = dse.min_max_normalize(scores)
        assert norm[int(np.argmax(scores))] == 1.0
        assert norm[int(np.argmin(scores))] == 0.0
        assert int(np.argmax(norm)) == int(np.argmax(scores))
    report(f"criterion 7 PASS: raw score {raw:.4e} matches TSA/(RD*RWO) within "
           "1e-9; min-max maps max->1.0000, min->0.0000, argmax invariant")


def test_c8_desk_scale_dse_workflow(tmp_path_factory):
    start = time.time()
    work = tmp_path_factory.mktemp("c8")
    assert main(["fixture", "--seed", "0", "--out", str(work)]) == 0

    def run(out, jobs):
        cfg = {"format_version": 1,
               "network": str(work / "fixture_net.json"),
               "dataset": str(work / "fixture_test.csv"),
               "out": str(out), "seed": 0, "jobs": jobs,
               "space": {"scheme": ["sparse_staggered", "dense_kernel"],
                         "tile_size": [32, 64, 128],
                         "batch_size": [16, 256],
                         "io_bit_width": [8]}}
        path = out / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["dse", "--config", str(path)]) == 0
        return out

    outs = [run(tmp_path_factory.mktemp(f"c8run{i}"), jobs)
            for i, jobs in enumerate((1, 1, 4))]
    results = load_results_csv(outs[0] / "results.csv")
    assert len(results) == 12
    for scheme in ("sparse_staggered", "dense_kernel"):
        text = (outs[0] / f"contour_tsa_scheme={scheme}.csv").read_text().splitlines()
        assert text[0].startswith("# seed: 0")
        header = text[1].split(",")
        assert header[1:] == ["32", "64", "128"]
        assert [row.split(",")[0] for row in text[2:]] == ["16", "256"]
    for name in ("results.csv", "ranking.csv",
                 "contour_tsa_scheme=sparse_staggered.csv",
                 "contour_tsa_scheme=dense_kernel.csv"):
        ref = (outs[0] / name).read_bytes()
        assert ref == (outs[1] / name).read_bytes(), f"{name}: rerun differs"
        assert ref == (outs[2] / name).read_bytes(), f"{name}: jobs=4 differs"
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(f"criterion 8 PASS: 12-point grid complete, contours 2x3, "
           f"bit-identical across reruns and worker counts ({elapsed:.1f}s)")
