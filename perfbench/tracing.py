"""Span recording around the program's layer entry points.

A :class:`Tracer` replaces public entry points of the program's modules
(class methods or module functions) with thin wrappers that record one
span per call: name, start, end and parent span, all under the
tracer's run id.  Nothing under ``src/`` changes; the wrappers are
installed for the traced run only and removed afterwards.  Spans stay
in flat in-memory arrays and are written out once, when the run ends.

Self time is a span's duration minus the part its direct children
cover.  Calls are strictly nested on one thread, so the self times of
all spans under a root add up to the root's duration exactly: the
root's own self time is the part no layer explains (the residual).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Dispatch functions of ``repro.phy.kernels`` timed one by one.
KERNEL_FUNCTIONS = (
    "median",
    "mad_spread",
    "two_quantiles",
    "two_percentiles",
    "project_center",
    "project_finish",
    "project",
    "schmitt_states",
    "schmitt_full",
    "hysteresis_slice",
    "fm0_pairs",
    "envelope_rc",
    "sosfilt_complex",
    "mix_sosfilt_decimate",
    "bit_grid",
    "bit_window_sums",
    "combine_templates",
    "hist2d_counts",
    "cluster_histogram",
    "cluster_peaks",
)

FAULT_HOOKS = (
    "on_slot_start",
    "on_slot_end",
    "tag_offline",
    "transmit_allowed",
    "beacon_lost",
    "beacon_for",
    "penalties_for",
    "transform_observation",
)

#: (span name, module, class or None for a module function, attribute).
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("build", "repro.core.network", "SlottedNetwork", "__init__"),
    ("build", "repro.core.waveform_network", "WaveformNetwork", "__init__"),
    ("build", "repro.core.energy_network", "EnergyAwareNetwork", "__init__"),
    ("build", "repro.fleet.engine", "FleetEngine", "__init__"),
    ("loop", "repro.core.network", "SlottedNetwork", "step"),
    ("loop", "repro.core.energy_network", "EnergyAwareNetwork", "step"),
    ("mac.tag", "repro.core.tag_protocol", "TagMac", "on_beacon"),
    ("mac.tag", "repro.core.tag_protocol", "TagMac", "on_beacon_loss"),
    ("mac.reader.beacon", "repro.core.reader_protocol", "ReaderMac", "make_beacon"),
    (
        "mac.reader.observe",
        "repro.core.reader_protocol",
        "ReaderMac",
        "on_slot_observation",
    ),
    ("channel", "repro.channel.medium", "AcousticMedium", "observe_slot"),
    ("phy.synth", "repro.core.waveform_network", "WaveformNetwork", "_observe"),
    (
        "phy.demod.decode",
        "repro.phy.reader_dsp",
        "ReaderReceiveChain",
        "decode_baseband",
    ),
    ("phy.demod.cluster", "repro.phy.iq", None, "detect_collision_iq"),
    ("phy.demod.cluster", "repro.core.waveform_network", None, "detect_collision_iq"),
    ("fleet.step", "repro.fleet.engine", "FleetEngine", "step_all"),
    ("runner.shard", "repro.experiments.runner", None, "_run_fleet_shard"),
    ("resilience", "repro.resilience.supervisor", "NetworkSupervisor", "step"),
) + tuple(
    (f"phy.kernels.{k}", "repro.phy.kernels", None, k) for k in KERNEL_FUNCTIONS
) + tuple(
    ("faults", "repro.faults.controller", "FaultController", h) for h in FAULT_HOOKS
)

#: Link-budget evaluations: spans that also record which
#: (medium, tag, channel generation) they evaluated.
LINK_EVALS = ("uplink_packet_success", "backscatter_amplitude_v")

#: Span-name prefix -> layer; the root span `timed` holds the residual.
LAYER_PREFIXES = (
    ("build", "build"),
    ("loop", "loop"),
    ("mac.tag", "mac.tag"),
    ("mac.reader", "mac.reader"),
    ("channel", "channel"),
    ("phy.synth", "phy.synth"),
    ("phy.demod", "phy.demod"),
    ("phy.kernels", "phy.kernels"),
    ("fleet", "fleet"),
    ("runner", "runner"),
    ("faults", "faults"),
    ("resilience", "resilience"),
    ("timed", "residual"),
)

LAYERS = tuple(layer for _, layer in LAYER_PREFIXES)


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if name == prefix or name.startswith(prefix + "."):
            return layer
    raise KeyError(f"span {name!r} belongs to no layer")


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: List[int] = [-1]
        self.link_keys: set = set()
        self._patches: List[Tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        nid = self._intern(name)
        clock = time.perf_counter
        names, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def wrap_link_eval(self, fn: Callable) -> Callable:
        """Span for a link-budget method ``fn(medium, tag, ...)`` that
        also notes the (medium, tag, channel generation) it evaluated."""
        keys = self.link_keys
        inner = self.wrap("channel.link", fn)

        def traced(medium, tag, *args, **kwargs):
            keys.add((id(medium), tag, medium.channel_generation))
            return inner(medium, tag, *args, **kwargs)

        return functools.update_wrapper(traced, fn)

    def span(self, name: str) -> "_Span":
        """Context manager recording one ``name`` span around a block."""
        return _Span(self, self._intern(name))

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every entry point, plus the per-job dispatch of the
        experiment runner (one ``runner.job.<name>`` span per job)."""
        for name, module_name, cls_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
        medium_cls = importlib.import_module("repro.channel.medium").AcousticMedium
        for attr in LINK_EVALS:
            self._patch(
                medium_cls, attr, self.wrap_link_eval(medium_cls.__dict__[attr])
            )
        runner = importlib.import_module("repro.experiments.runner")
        execute = runner.__dict__["_execute_job"]
        per_job = {}

        def traced_job(name, *args, **kwargs):
            fn = per_job.get(name)
            if fn is None:
                fn = per_job[name] = self.wrap(f"runner.job.{name}", execute)
            return fn(name, *args, **kwargs)

        self._patch(runner, "_execute_job", functools.update_wrapper(traced_job, execute))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def arrays(self) -> "SpanArrays":
        if len(self._stack) != 1:
            raise RuntimeError("spans still open")
        return SpanArrays(
            list(self.names),
            np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
        )

    def save(self, path: str) -> None:
        """Write every span (and the run id) to ``path`` as ``.npz``."""
        spans = self.arrays()
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(json.dumps(spans.names)),
            name_id=spans.name_id,
            start=spans.start,
            end=spans.end,
            parent=spans.parent,
        )


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._t = tracer
        self._nid = nid

    def __enter__(self) -> None:
        t = self._t
        self._idx = len(t.start)
        t.name_id.append(self._nid)
        t.parent.append(t._stack[-1])
        t.end.append(0.0)
        t._stack.append(self._idx)
        t.start.append(time.perf_counter())

    def __exit__(self, *exc) -> None:
        t = self._t
        t.end[self._idx] = time.perf_counter()
        t._stack.pop()


class SpanArrays:
    """Column view of a finished trace, with the derived quantities."""

    def __init__(
        self,
        names: Sequence[str],
        name_id: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        parent: np.ndarray,
    ) -> None:
        self.names = list(names)
        self.name_id = name_id
        self.start = start
        self.end = end
        self.parent = parent
        self.duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent],
            weights=self.duration[has_parent],
            minlength=len(start),
        )
        #: Duration minus the part the direct children cover.
        self.self_time = self.duration - covered

    def mask(self, predicate: Callable[[str], bool]) -> np.ndarray:
        """Spans whose name satisfies ``predicate``."""
        ids = [i for i, n in enumerate(self.names) if predicate(n)]
        return np.isin(self.name_id, ids)

    def within(self, ancestor: np.ndarray) -> np.ndarray:
        """Spans with a strict ancestor in the ``ancestor`` mask."""
        padded = np.append(ancestor, False)
        inside = np.zeros(len(self.start), dtype=bool)
        idx = np.where(self.parent >= 0, self.parent, len(self.start))
        while True:
            step = padded[idx] | np.append(inside, False)[idx]
            if np.array_equal(step, inside):
                return inside
            inside = step

    def self_by_layer(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        per_name = np.bincount(
            self.name_id, weights=self.self_time, minlength=len(self.names)
        )
        for nid, name in enumerate(self.names):
            out[layer_of(name)] += float(per_name[nid])
        return out
