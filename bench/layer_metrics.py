"""Per-layer metrics of one traced pass.

Times come from the spans `tracing.traced` records around the public
functions of xbardse's modules (the layers). Counts come from hooks that look
at the arguments and results of those functions; hook time is recorded as
`trace.probe` spans and excluded from every caller's self time.

Plan counts (`mapping.tiles`, `mapping.devices`, `mapping.read_cycles`) are
summed over the distinct (network, scheme, tile_size) groups of the pass, so
they do not depend on how often a plan is built.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracing import PROBE, Span, self_times
from xbardse import qnet, xbar

# (name, unit) in report order; BENCHMARK.json's per_layer lists the same.
PER_LAYER = (
    ("mapping.layer_plan.calls", "count"),
    ("mapping.network_plans.calls", "count"),
    ("mapping.network_plans.s", "s"),
    ("mapping.network_plans.self_s", "s"),
    ("mapping.plan_builds_per_group", "ratio"),
    ("mapping.cost.s", "s"),
    ("mapping.tiles", "count"),
    ("mapping.devices", "count"),
    ("mapping.read_cycles", "count"),
    ("mapping.plan.bytes", "B"),
    ("xbar.evaluate_accuracy.s", "s"),
    ("xbar.evaluate_accuracy.self_s", "s"),
    ("xbar.sample_devices.calls", "count"),
    ("xbar.sample_devices.s", "s"),
    ("xbar.sample_devices.self_s", "s"),
    ("xbar.sample.ns_per_device", "ns"),
    ("xbar.sample.stuck_on", "count"),
    ("xbar.sample.stuck_off", "count"),
    ("xbar.program.calls", "count"),
    ("xbar.program.s", "s"),
    ("xbar.program.self_s", "s"),
    ("xbar.program.ns_per_device", "ns"),
    ("xbar.tiles.bytes", "B"),
    ("xbar.simulate_forward.calls", "count"),
    ("xbar.simulate_forward.s", "s"),
    ("xbar.simulate_forward.self_s", "s"),
    ("xbar.tile_vmm.calls", "count"),
    ("xbar.read.s", "s"),
    ("xbar.read.ns_per_mac", "ns"),
    ("xbar.encode_inputs.s", "s"),
    ("xbar.readout.s", "s"),
    ("xbar.readout.clip_frac", "ratio"),
    ("xbar.logit_err_rms", "ratio"),
    ("xbar.calibrate_adc_ranges.calls", "count"),
    ("xbar.calibrate_adc_ranges.s", "s"),
    ("qnet.ideal_forward.calls", "count"),
    ("qnet.ideal_forward.s", "s"),
    ("qnet.load_network.s", "s"),
    ("qnet.load_dataset.s", "s"),
    ("dse.grid_search.s", "s"),
    ("dse.grid_search.self_s", "s"),
    ("dse.evaluate_config.calls", "count"),
    ("dse.evaluate_config.s", "s"),
    ("dse.evaluate_config.self_s", "s"),
    ("dse.evaluate_config.p50_s", "s"),
    ("dse.evaluate_config.p90_s", "s"),
    ("dse.worker_busy_frac", "ratio"),
    ("dse.failed", "count"),
    ("dse.tsa_mean", "ratio"),
    ("cli.load_run_config.s", "s"),
    ("cli.write.s", "s"),
    ("trace.spans", "count"),
    ("trace.probe.s", "s"),
    ("trace.overhead_frac", "ratio"),
)

COST_SPANS = ("mapping.cost_network", "mapping.derive_costs_cross_scheme")
WRITE_SPANS = ("cli.write_results_csv", "cli.write_contour_csv")


class LayerStats:
    """Hook state of one traced pass; `hooks()` goes to `tracing.Tracer`."""

    def __init__(self):
        self.point_layers: dict[tuple, int] = {}   # (network, scheme, tile) -> layers
        self.plan_groups: dict[tuple, tuple] = {}  # same key -> (tiles, devices, cycles, bytes)
        self.sampled_devices = 0
        self.stuck_on = 0
        self.stuck_off = 0
        self.tile_bytes: dict[int | None, int] = defaultdict(int)  # point -> bytes
        self.programmed_devices = 0
        self.macs = 0
        self.adc_clipped = 0
        self.adc_samples = 0
        self.forwards: list[tuple] = []            # (net, batch, analog logits)
        self.tsa: list[float] = []
        self.worker_capacity_s = 0.0

    def hooks(self) -> dict:
        return {"dse.evaluate_config": self._evaluate_config,
                "dse.grid_search": self._grid_search,
                "mapping.network_plans": self._network_plans,
                "xbar.sample_devices": self._sample_devices,
                "xbar.program": self._program,
                "xbar.simulate_forward": self._simulate_forward,
                "xbar.readout": self._readout}

    def _evaluate_config(self, span: Span, args: dict, result) -> None:
        cfg = args["cfg"]
        net = args["networks"][cfg["network"]]
        self.point_layers[(cfg["network"], cfg["scheme"], cfg["tile_size"])] = len(net.layers)
        if result is not None:
            self.tsa.append(result.tsa)

    def _grid_search(self, span: Span, args: dict, result) -> None:
        self.worker_capacity_s += args["jobs"] * span.duration

    def _network_plans(self, span: Span, args: dict, plans) -> None:
        key = (args["net"].name, args["scheme"], args["tile_size"])
        if plans is None or key in self.plan_groups:
            return
        plan_bytes = sum(value.nbytes for plan in plans for tp in plan.tiles
                         for value in vars(tp).values() if isinstance(value, np.ndarray))
        self.plan_groups[key] = (sum(len(plan.tiles) for plan in plans),
                                 sum(plan.device_count for plan in plans),
                                 sum(plan.reads_per_sample * plan.row_groups for plan in plans),
                                 plan_bytes)

    def _sample_devices(self, span: Span, args: dict, tiles) -> None:
        if tiles is None:
            return
        for ta in tiles.values():
            states = np.bincount(ta.stuck.ravel(), minlength=3)
            self.sampled_devices += ta.stuck.size
            self.stuck_on += int(states[xbar.STUCK_ON])
            self.stuck_off += int(states[xbar.STUCK_OFF])
            self.tile_bytes[span.point] += (ta.g.nbytes + ta.r_on.nbytes
                                            + ta.r_off.nbytes + ta.stuck.nbytes)

    def _program(self, span: Span, args: dict, result) -> None:
        if result is not None:
            self.programmed_devices += args["plan"].device_count

    def _simulate_forward(self, span: Span, args: dict, logits) -> None:
        if logits is None:
            return
        per_sample = sum(plan.reads_per_sample * plan.device_count for plan in args["plans"])
        self.macs += len(args["batch"]) * per_sample
        self.forwards.append((args["net"], args["batch"], logits))

    def _readout(self, span: Span, args: dict, result) -> None:
        cal, io = args["cal"], args["io"]
        if result is None or not io.quantizes or cal.out_lo is None or cal.out_hi is None:
            return
        y = ((np.asarray(args["i_pos"]) - np.asarray(args["i_neg"]))
             / (cal.voltage_scale * cal.weight_scale))
        self.adc_clipped += int(np.count_nonzero((y < cal.out_lo) | (y > cal.out_hi)))
        self.adc_samples += y.size

    def _logit_err_rms(self) -> float:
        """RMS of analog minus ideal logits over RMS of the ideal logits.
        Call after tracing ends, so the oracle runs unwrapped."""
        ideal_cache: dict[tuple, np.ndarray] = {}
        err = ref = 0.0
        for net, batch, logits in self.forwards:
            batch = np.asarray(batch)
            key = (id(net), batch.__array_interface__["data"][0], batch.shape, batch.strides)
            if key not in ideal_cache:
                ideal_cache[key] = qnet.ideal_forward(net, batch)
            ideal = ideal_cache[key]
            err += float(np.sum((logits - ideal) ** 2))
            ref += float(np.sum(ideal ** 2))
        return float(np.sqrt(err / ref)) if ref else 0.0

    def metrics(self, spans: list[Span], overhead_frac: float) -> dict[str, float]:
        own = self_times(spans)
        by_id = {span.id: span for span in spans}
        by_name: dict[str, list[Span]] = defaultdict(list)
        for span in spans:
            by_name[span.name].append(span)

        def calls(name):
            return len(by_name[name])

        def total(*names):
            return sum(span.duration for name in names for span in by_name[name])

        def self_s(name):
            return sum(own[span.id] for span in by_name[name])

        def outermost(span, names):
            parent = by_id.get(span.parent)
            while parent is not None:
                if parent.name in names:
                    return False
                parent = by_id.get(parent.parent)
            return True

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        groups = list(self.plan_groups.values())
        point_durations = [span.duration for span in by_name["dse.evaluate_config"]]
        p50, p90 = (np.percentile(point_durations, [50, 90]).tolist()
                    if point_durations else (0.0, 0.0))
        read_s = (total("xbar.simulate_forward") - total("xbar.encode_inputs")
                  - total("xbar.readout"))
        values = {
            "mapping.layer_plan.calls": calls("mapping.layer_plan"),
            "mapping.network_plans.calls": calls("mapping.network_plans"),
            "mapping.network_plans.s": total("mapping.network_plans"),
            "mapping.network_plans.self_s": self_s("mapping.network_plans"),
            "mapping.plan_builds_per_group": ratio(calls("mapping.layer_plan"),
                                                   sum(self.point_layers.values())),
            "mapping.cost.s": sum(span.duration for name in COST_SPANS
                                  for span in by_name[name]
                                  if outermost(span, COST_SPANS)),
            "mapping.tiles": sum(g[0] for g in groups),
            "mapping.devices": sum(g[1] for g in groups),
            "mapping.read_cycles": sum(g[2] for g in groups),
            "mapping.plan.bytes": max((g[3] for g in groups), default=0),
            "xbar.evaluate_accuracy.s": total("xbar.evaluate_accuracy"),
            "xbar.evaluate_accuracy.self_s": self_s("xbar.evaluate_accuracy"),
            "xbar.sample_devices.calls": calls("xbar.sample_devices"),
            "xbar.sample_devices.s": total("xbar.sample_devices"),
            "xbar.sample_devices.self_s": self_s("xbar.sample_devices"),
            "xbar.sample.ns_per_device": ratio(total("xbar.sample_devices"),
                                               self.sampled_devices, 1e9),
            "xbar.sample.stuck_on": self.stuck_on,
            "xbar.sample.stuck_off": self.stuck_off,
            "xbar.program.calls": calls("xbar.program"),
            "xbar.program.s": total("xbar.program"),
            "xbar.program.self_s": self_s("xbar.program"),
            "xbar.program.ns_per_device": ratio(total("xbar.program"),
                                                self.programmed_devices, 1e9),
            "xbar.tiles.bytes": max(self.tile_bytes.values(), default=0),
            "xbar.simulate_forward.calls": calls("xbar.simulate_forward"),
            "xbar.simulate_forward.s": total("xbar.simulate_forward"),
            "xbar.simulate_forward.self_s": self_s("xbar.simulate_forward"),
            "xbar.tile_vmm.calls": calls("xbar.tile_vmm"),
            "xbar.read.s": read_s,
            "xbar.read.ns_per_mac": ratio(read_s, self.macs, 1e9),
            "xbar.encode_inputs.s": total("xbar.encode_inputs"),
            "xbar.readout.s": total("xbar.readout"),
            "xbar.readout.clip_frac": ratio(self.adc_clipped, self.adc_samples),
            "xbar.logit_err_rms": self._logit_err_rms(),
            "xbar.calibrate_adc_ranges.calls": calls("xbar.calibrate_adc_ranges"),
            "xbar.calibrate_adc_ranges.s": total("xbar.calibrate_adc_ranges"),
            "qnet.ideal_forward.calls": calls("qnet.ideal_forward"),
            "qnet.ideal_forward.s": total("qnet.ideal_forward"),
            "qnet.load_network.s": total("qnet.load_network"),
            "qnet.load_dataset.s": total("qnet.load_dataset"),
            "dse.grid_search.s": total("dse.grid_search"),
            "dse.grid_search.self_s": self_s("dse.grid_search"),
            "dse.evaluate_config.calls": calls("dse.evaluate_config"),
            "dse.evaluate_config.s": total("dse.evaluate_config"),
            "dse.evaluate_config.self_s": self_s("dse.evaluate_config"),
            "dse.evaluate_config.p50_s": p50,
            "dse.evaluate_config.p90_s": p90,
            "dse.worker_busy_frac": ratio(total("dse.evaluate_config"),
                                          self.worker_capacity_s),
            "dse.failed": sum(span.error is not None
                              for span in by_name["dse.evaluate_config"]),
            "dse.tsa_mean": float(np.mean(self.tsa)) if self.tsa else 0.0,
            "cli.load_run_config.s": total("cli.load_run_config"),
            "cli.write.s": total(*WRITE_SPANS),
            "trace.spans": len(spans),
            "trace.probe.s": total(PROBE),
            "trace.overhead_frac": overhead_frac,
        }
        return {name: values[name] for name, _ in PER_LAYER}


def span_summary(spans: list[Span]) -> list[str]:
    """One line per span name: calls, total and self seconds, raised errors."""
    own = self_times(spans)
    rows: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for span in spans:
        row = rows[span.name]
        row[0] += 1
        row[1] += span.duration
        row[2] += own[span.id]
        row[3] += span.error is not None
    return [f"span {name}: calls {calls}, s {total}, self_s {self_s}, errors {errors}"
            for name, (calls, total, self_s, errors) in sorted(rows.items())]
