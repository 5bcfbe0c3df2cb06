"""The four benchmark workloads.

Each workload turns the benchmark seed into program inputs
(:meth:`inputs`), builds and warms the program (:meth:`setup`), runs
one fixed-size unit of work per :meth:`unit` call, and checks the
outputs afterwards (:meth:`checks`), outside the timed units.  All four
are closed-loop batch jobs: one caller waits for each result.

Only :meth:`setup` and later import ``repro``; the ``run.py`` process never
does.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

clock = time.perf_counter

#: Check outcome: (name, passed, detail).
Check = Tuple[str, bool, str]


def record_line(r) -> str:
    """Canonical text of one ``SlotRecord`` for digests and diffs."""
    return (
        f"{r.slot} {r.n_transmitters} {r.decoded} "
        f"{int(r.collision_detected)} {int(r.acked)} {int(r.empty_flag)}"
    )


def digest_lines(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digest_document(doc: Dict[str, Any]) -> str:
    """Digest of a JSON document without its host-timing ``perf`` part."""
    body = {k: v for k, v in doc.items() if k != "perf"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _seed_rng(workload: str, seed: int) -> random.Random:
    # String seeding hashes with SHA-512: stable across processes and
    # independent of PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}")


class Workload:
    name = ""
    #: Runs through a process pool (jobs=2 timed, jobs=1 traced).
    pool = False
    #: Inputs depend on the benchmark seed (digests are recorded per
    #: seed); False means one recorded digest serves every seed.
    seeded = True

    def inputs(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def begin(self, state: Dict[str, Any]) -> None:
        """Called right before the timed units start."""

    def unit(self, state: Dict[str, Any], jobs: int, region=None) -> Dict[str, Any]:
        """One fixed-size unit, its program calls inside ``region`` (a
        context manager; the traced run passes its root span).  Returns
        ``wall_s`` (the timed calls), ``chunks_s`` (per-chunk host
        times), ``slots``, ``tag_slots``, ``acks``, ``collisions`` and
        ``digest``."""
        raise NotImplementedError

    def checks(
        self,
        state: Dict[str, Any],
        units: List[Dict[str, Any]],
        recorded: Optional[Any],
        thorough: bool,
    ) -> List[Check]:
        """Correctness checks after the timed units.  ``recorded`` is
        this seed's entry in ``digests.json`` (None if unrecorded);
        ``thorough`` asks for the costly checks a workload may skip when
        its recorded entry already covers them."""
        raise NotImplementedError

    def recorded_entry(self, state: Dict[str, Any], unit: Dict[str, Any]) -> Any:
        """What ``record.py`` stores for one seed."""
        return unit["digest"]


def _digest_checks(units: List[Dict[str, Any]], recorded: Optional[str]) -> List[Check]:
    """Every unit repeats the first; the first matches the recorded
    digest when one exists for this seed."""
    first = units[0]["digest"]
    out: List[Check] = [
        (
            "repeat",
            all(u["digest"] == first for u in units),
            f"{len(units)} units",
        )
    ]
    if recorded is not None:
        out.append(("digest", first == recorded, f"{first[:12]} vs {recorded[:12]}"))
    return out


# -- slot_longrun ----------------------------------------------------------


class SlotLongrun(Workload):
    """Fig. 16 long run: pattern c3 (12 tags) on the Fig. 10 BiW, real
    channel, beacon loss derived from the channel."""

    name = "slot_longrun"
    SLOTS = 60_000
    CHUNK = 500
    WARMUP_SLOTS = 2_000
    ORACLE_SLOTS = 5_000

    def inputs(self, seed: int) -> Dict[str, Any]:
        return {"net_seed": _seed_rng(self.name, seed).randrange(2**31)}

    def setup(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        from repro.channel.medium import AcousticMedium
        from repro.core.network import NetworkConfig, SlottedNetwork
        from repro.experiments.configs import pattern

        periods = pattern("c3").tag_periods()
        medium = AcousticMedium()
        SlottedNetwork(
            periods, medium=medium, config=NetworkConfig(seed=inputs["net_seed"] + 1)
        ).run(self.WARMUP_SLOTS)
        return {"periods": periods, "medium": medium, "seed": inputs["net_seed"]}

    def unit(self, state, jobs, region=None):
        from repro.core.network import NetworkConfig, SlottedNetwork

        chunks = []
        with region or nullcontext():
            start = clock()
            net = SlottedNetwork(
                state["periods"],
                medium=state["medium"],
                config=NetworkConfig(seed=state["seed"]),
            )
            for _ in range(self.SLOTS // self.CHUNK):
                c = clock()
                net.run(self.CHUNK)
                chunks.append(clock() - c)
            wall = clock() - start
        lines = [record_line(r) for r in net.records]
        state.setdefault("prefix", lines[: self.ORACLE_SLOTS])
        return {
            "wall_s": wall,
            "chunks_s": chunks,
            "slots": self.SLOTS,
            "tag_slots": self.SLOTS * len(state["periods"]),
            "acks": sum(r.acked for r in net.records),
            "collisions": sum(r.collision_detected for r in net.records),
            "digest": digest_lines(lines),
        }

    def checks(self, state, units, recorded, thorough):
        from repro.core.network import NetworkConfig
        from repro.fleet import FleetEngine, FleetSpec

        # Independent path: the vectorised fleet engine must reproduce
        # the sequential slot log byte for byte.
        engine = FleetEngine(
            state["periods"],
            [FleetSpec(name="oracle", seed=state["seed"])],
            config=NetworkConfig(),
        )
        engine.run(self.ORACLE_SLOTS)
        fleet_lines = [record_line(r) for r in engine.records("oracle")]
        same = fleet_lines == state["prefix"]
        return _digest_checks(units, recorded) + [
            ("fleet_oracle", same, f"{self.ORACLE_SLOTS}-slot prefix")
        ]


# -- waveform_dsp ------------------------------------------------------------


class WaveformDsp(Workload):
    """``WaveformNetwork`` on its default template fast path."""

    name = "waveform_dsp"
    PERIODS = {"tag5": 4, "tag8": 4, "tag9": 8}
    SLOTS = 400
    CHUNK = 20
    ORACLE_SLOTS = 100

    def inputs(self, seed: int) -> Dict[str, Any]:
        return {"net_seed": _seed_rng(self.name, seed).randrange(2**31)}

    def setup(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        from repro.channel.medium import AcousticMedium
        from repro.core.network import NetworkConfig
        from repro.core.waveform_network import WaveformNetwork

        medium = AcousticMedium()
        # One unit's worth of the same inputs: the template cache grows a
        # baseband whenever a capture is longer than any seen before, so
        # a shorter warm-up leaves misses in the timed units.
        WaveformNetwork(
            self.PERIODS, medium=medium, config=NetworkConfig(seed=inputs["net_seed"])
        ).run(self.SLOTS)
        return {"medium": medium, "seed": inputs["net_seed"]}

    def begin(self, state):
        from repro import perf

        perf.reset()

    def _network(self, state):
        from repro.core.network import NetworkConfig
        from repro.core.waveform_network import WaveformNetwork

        return WaveformNetwork(
            self.PERIODS, medium=state["medium"], config=NetworkConfig(seed=state["seed"])
        )

    @staticmethod
    def _lines(net, n: Optional[int] = None) -> List[str]:
        logs = [
            f"{g.slot} {g.transmitters} {g.decoded_tids} {g.n_clusters}"
            for g in net.slot_logs
        ]
        return [record_line(r) for r in net.records[:n]] + logs[:n]

    def unit(self, state, jobs, region=None):
        chunks = []
        with region or nullcontext():
            start = clock()
            net = self._network(state)
            for _ in range(self.SLOTS // self.CHUNK):
                c = clock()
                net.run(self.CHUNK)
                chunks.append(clock() - c)
            wall = clock() - start
        state.setdefault("prefix", self._lines(net, self.ORACLE_SLOTS))
        return {
            "wall_s": wall,
            "chunks_s": chunks,
            "slots": self.SLOTS,
            "tag_slots": self.SLOTS * len(self.PERIODS),
            "acks": sum(r.acked for r in net.records),
            "collisions": sum(r.collision_detected for r in net.records),
            "digest": digest_lines(self._lines(net)),
        }

    def checks(self, state, units, recorded, thorough):
        from repro import perf
        from repro.phy import cache as phy_cache

        # Counters since begin(): every template lookup after warm-up.
        template = phy_cache.hit_ratios(perf.report()["counters"])["template"]
        # Independent path: the reference passband synthesis must give
        # the same decode outcomes as the template fast path.
        with phy_cache.fast_path(False):
            net = self._network(state)
            net.run(self.ORACLE_SLOTS)
        same = self._lines(net, self.ORACLE_SLOTS) == state["prefix"]
        return _digest_checks(units, recorded) + [
            ("reference_oracle", same, f"{self.ORACLE_SLOTS}-slot prefix"),
            (
                "template_hit_ratio",
                template["misses"] == 0 and template["hits"] > 0,
                f"{template['hits']} hits, {template['misses']} misses",
            ),
        ]


# -- fleet_sweep -------------------------------------------------------------


class FleetSweep(Workload):
    """``repro fleet`` defaults: 256 networks of the fault-scenario
    topology, 2000 slots, shards of 64."""

    name = "fleet_sweep"
    pool = True
    NETWORKS = 256
    SLOTS = 2000
    SHARD = 64
    SAMPLED = 3

    def inputs(self, seed: int) -> Dict[str, Any]:
        rng = _seed_rng(self.name, seed)
        base = rng.randrange(1, 2**20)
        return {
            "seeds": list(range(base, base + self.NETWORKS)),
            "sampled": sorted(rng.sample(range(self.NETWORKS), self.SAMPLED)),
        }

    def setup(self, inputs):
        from repro.experiments.runner import FleetRunner
        from repro.faults.scenarios import SCENARIO_PERIODS

        runner = FleetRunner(
            SCENARIO_PERIODS, seeds=inputs["seeds"], n_slots=self.SLOTS, shard_size=self.SHARD
        )
        return {"runner": runner, "inputs": inputs}

    def unit(self, state, jobs, region=None):
        with region or nullcontext():
            start = clock()
            doc = state["runner"].run(jobs=jobs)
            wall = clock() - start
        state.setdefault("networks", doc["networks"])
        agg = doc["aggregate"]
        network_slots = self.NETWORKS * self.SLOTS
        return {
            "wall_s": wall,
            "chunks_s": [wall],
            "slots": network_slots,
            "tag_slots": agg["tag_slots"],
            "acks": agg["acks"],
            "collisions": agg["collisions"],
            "digest": digest_document(doc),
        }

    def checks(self, state, units, recorded, thorough):
        from repro.core.network import NetworkConfig, SlottedNetwork

        runner = state["runner"]
        mismatched = []
        for i in state["inputs"]["sampled"]:
            net = SlottedNetwork(runner.tag_periods, config=NetworkConfig(seed=runner.seeds[i]))
            records = net.run(self.SLOTS)
            want = {
                "seed": runner.seeds[i],
                "slots": len(records),
                "decodes": sum(r.decoded is not None for r in records),
                "acks": sum(r.acked for r in records),
                "collisions": sum(r.collision_detected for r in records),
                "idle_slots": sum(r.n_transmitters == 0 for r in records),
                "settled_fraction": net.settled_fraction(),
            }
            got = {k: state["networks"][i][k] for k in want}
            if got != want:
                mismatched.append(i)
        return _digest_checks(units, recorded) + [
            (
                "sequential_oracle",
                not mismatched,
                f"networks {state['inputs']['sampled']}, mismatched {mismatched}",
            )
        ]


# -- figures -----------------------------------------------------------------


class StepCounter:
    """Counts outermost slot-tier steps and their outcomes.

    Used only in the untimed oracle pass: it wraps ``step`` on the slot
    networks so slot and tag-slot totals can be read for a run whose
    networks are built deep inside the experiment jobs.
    """

    STEPS = (
        ("repro.core.network", "SlottedNetwork"),
        ("repro.core.energy_network", "EnergyAwareNetwork"),
    )

    def __init__(self) -> None:
        self.slots = self.tag_slots = self.acks = self.collisions = 0
        self._depth = 0
        self._patches: List[Tuple[Any, Any]] = []

    def __enter__(self) -> "StepCounter":
        import importlib

        for module, cls_name in self.STEPS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__["step"]
            self._patches.append((cls, original))
            cls.step = self._wrap(original)
        return self

    def __exit__(self, *exc) -> None:
        for cls, original in self._patches:
            cls.step = original
        self._patches.clear()

    def totals(self) -> Dict[str, int]:
        return {
            "slots": self.slots,
            "tag_slots": self.tag_slots,
            "acks": self.acks,
            "collisions": self.collisions,
        }

    def _wrap(self, fn):
        def counted(net):
            self._depth += 1
            try:
                record = fn(net)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.slots += 1
                self.tag_slots += len(net.tags)
                self.acks += record.acked
                self.collisions += record.collision_detected
            return record

        return counted


class Figures(Workload):
    """``collect_results(quick=False, jobs=2, perf=True)``: the ten
    paper figure/table jobs."""

    name = "figures"
    pool = True
    seeded = False
    #: The paper document's master seed.  Figure cost depends strongly
    #: on it (fig15's convergence trials ran 2.3-6.1 s over eight master
    #: seeds on the reference host), so the workload pins the seed that
    #: ``repro results`` uses and the benchmark seed selects nothing.
    MASTER_SEED = 0

    def inputs(self, seed: int) -> Dict[str, Any]:
        return {"master_seed": self.MASTER_SEED}

    def setup(self, inputs):
        from repro.experiments.runner import collect_results  # noqa: F401
        from repro.phy import kernels

        kernels.backend()
        return {"seed": inputs["master_seed"]}

    def run_document(self, state, jobs: int) -> Dict[str, Any]:
        from repro.experiments.runner import collect_results

        return collect_results(seed=state["seed"], quick=False, jobs=jobs, perf=True)

    def unit(self, state, jobs, region=None):
        with region or nullcontext():
            start = clock()
            doc = self.run_document(state, jobs)
            wall = clock() - start
        return {
            "wall_s": wall,
            "chunks_s": [wall],
            "job_s": doc["perf"]["experiment_wall_s"],
            "digest": digest_document(doc),
        }

    def count_slots(self, state) -> Tuple[Dict[str, int], str]:
        """Serial re-run under a step counter: slot-tier totals plus the
        document digest of the independent (in-process) path."""
        with StepCounter() as counter:
            doc = self.run_document(state, jobs=1)
        return counter.totals(), digest_document(doc)

    def recorded_entry(self, state, unit):
        steps, _ = self.count_slots(state)
        return {"digest": unit["digest"], "steps": steps}

    def checks(self, state, units, recorded, thorough):
        entry = recorded or {}
        out = _digest_checks(units, entry.get("digest"))
        steps = entry.get("steps")
        # The step totals are a function of the same inputs as the
        # document, so a recorded entry supplies them; the serial re-run
        # (~1.5x a pool unit) runs in traced runs and at unrecorded inputs.
        if thorough or steps is None:
            counted, serial_digest = self.count_slots(state)
            out.append(
                ("serial_oracle", serial_digest == units[0]["digest"], "jobs=1 vs jobs=2")
            )
            if steps is not None:
                out.append(("step_counts", counted == steps, f"{counted} vs recorded"))
            steps = counted
        for u in units:
            u.update(steps)
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (SlotLongrun(), WaveformDsp(), FleetSweep(), Figures())
}
