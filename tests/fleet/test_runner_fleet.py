"""FleetRunner: sharded sweeps must be byte-identical however executed."""

import json
import os
import time

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.runner import (
    FleetRunner,
    ResultsError,
    _run_fleet_shard,
    _write_checkpoint,
)

PERIODS = {"tag1": 4, "tag2": 8, "tag3": 8}
SEEDS = list(range(13))
SLOTS = 150

#: The test process; pool workers are forked from it.
PARENT_PID = os.getpid()
#: A seed in the second of the four shard_size=4 shards of SEEDS.
MARKED_SEED = 5


# Shard stand-ins for the crash drills.  They are module-level so the
# pool can pickle them by reference; each delegates to the real shard.


def _slow_shard(periods, names, seeds, *rest):
    if MARKED_SEED in seeds:
        time.sleep(6)
    return _run_fleet_shard(periods, names, seeds, *rest)


def _killed_shard(periods, names, seeds, *rest):
    if MARKED_SEED in seeds and os.getpid() != PARENT_PID:
        os._exit(1)  # hard worker death -> BrokenProcessPool
    return _run_fleet_shard(periods, names, seeds, *rest)


def _failing_shard(periods, names, seeds, *rest):
    if MARKED_SEED in seeds:
        raise RuntimeError("permanent")
    return _run_fleet_shard(periods, names, seeds, *rest)


def doc_bytes(document):
    return json.dumps(document, sort_keys=True)


@pytest.fixture(scope="module")
def reference_doc():
    return FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4).run()


class TestShardingInvariance:
    def test_shard_size_does_not_change_bytes(self, reference_doc):
        for shard_size in (1, 5, 64):
            doc = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=shard_size).run()
            assert doc_bytes(doc) == doc_bytes(reference_doc)

    def test_pool_matches_serial(self, reference_doc):
        doc = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=3).run(jobs=3)
        assert doc_bytes(doc) == doc_bytes(reference_doc)

    def test_rows_match_direct_engine_summaries(self, reference_doc):
        from repro.fleet import FleetEngine, specs_for_seeds

        engine = FleetEngine(PERIODS, specs_for_seeds(SEEDS))
        for _ in range(SLOTS):
            engine.step_all()
        for row, summary in zip(
            reference_doc["networks"], engine.summaries()
        ):
            for key in ("decodes", "acks", "collisions", "idle_slots"):
                assert row[key] == summary[key]
            assert row["settled_fraction"] == summary["settled_fraction"]

    def test_telemetry_signature_stable_across_grouping(self):
        serial = FleetRunner(PERIODS, SEEDS[:8], 100, shard_size=3).run(
            telemetry=True
        )
        pooled = FleetRunner(PERIODS, SEEDS[:8], 100, shard_size=5).run(
            jobs=2, telemetry=True
        )
        assert (
            serial["telemetry"]["signature"] == pooled["telemetry"]["signature"]
        )


class TestCheckpointing:
    def test_resume_completes_partial_run(self, tmp_path, reference_doc):
        ckpt = str(tmp_path / "fleet.ckpt")
        runner = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4)
        _, _, names, seeds = runner.shards()[0]
        landed = _run_fleet_shard(
            sorted(PERIODS.items()), names, seeds, SLOTS, None, False, False
        )
        _write_checkpoint(
            ckpt, runner._checkpoint_identity(), {"fragments": {"0": landed["fragments"]}}
        )
        resumed = runner.run(checkpoint=ckpt, resume=True)
        assert doc_bytes(resumed) == doc_bytes(reference_doc)
        assert not os.path.exists(ckpt)  # deleted on completion

    def test_checkpoint_written_during_run(self, tmp_path):
        ckpt = str(tmp_path / "fleet.ckpt")
        runner = FleetRunner(PERIODS, SEEDS[:6], 50, shard_size=2)
        runner.run(checkpoint=ckpt)
        assert not os.path.exists(ckpt)

    def test_mismatched_checkpoint_refused(self, tmp_path):
        ckpt = str(tmp_path / "fleet.ckpt")
        other = FleetRunner(PERIODS, SEEDS, SLOTS + 1, shard_size=4)
        _write_checkpoint(ckpt, other._checkpoint_identity(), {})
        with pytest.raises(ResultsError, match="refusing to mix"):
            FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4).run(
                checkpoint=ckpt, resume=True
            )

    def test_resume_without_checkpoint_path_rejected(self):
        with pytest.raises(ResultsError, match="resume"):
            FleetRunner(PERIODS, SEEDS, SLOTS).run(resume=True)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("torn", "cannot read"),
            ({"n_slots": SLOTS + 1}, "n_slots=151.*refusing to mix"),
            ({"tag_periods": [["tag1", 4]]}, "tag_periods"),
            ({"fragments": {"shard0": []}}, "unknown key 'shard0'"),
            ({"telemetry": {"9": {}}}, "unknown key '9'"),
            ({"fragments": {"1": [[1.0] * 7] * 3}}, "malformed fragment '1'"),
            ({"fragments": {"1": "rows"}}, "malformed fragment '1'"),
            ({"fragments": {"1": [[1.0] * 6] * 4}}, "malformed fragment '1'"),
        ],
        ids=[
            "torn-json",
            "wrong-identity",
            "wrong-tag-periods",
            "unknown-key",
            "unknown-telemetry-key",
            "wrong-row-count",
            "wrong-fragment-type",
            "wrong-row-width",
        ],
    )
    def test_malformed_checkpoint_raises_results_error(self, tmp_path, edit, message):
        ckpt = tmp_path / "fleet.ckpt"
        runner = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4)
        if edit == "torn":
            ckpt.write_text('{"version": 1, "kind": "fleet-')
        else:
            payload = json.loads(json.dumps(runner._checkpoint_identity()))
            payload.update(edit)
            ckpt.write_text(json.dumps(payload))
        with pytest.raises(ResultsError, match=message):
            runner.run(checkpoint=str(ckpt), resume=True)

    def test_interrupt_inside_atomic_write_keeps_previous_checkpoint(
        self, tmp_path, monkeypatch, reference_doc
    ):
        ckpt = str(tmp_path / "fleet.ckpt")
        runner = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4)
        real_replace = os.replace
        calls = {"n": 0}

        def interrupted_replace(src, dst):
            calls["n"] += 1
            if calls["n"] == 3:  # Ctrl-C while the third shard lands
                raise KeyboardInterrupt
            real_replace(src, dst)

        monkeypatch.setattr(runner_mod.os, "replace", interrupted_replace)
        with pytest.raises(KeyboardInterrupt):
            runner.run(checkpoint=ckpt)
        monkeypatch.setattr(runner_mod.os, "replace", real_replace)

        with open(ckpt) as fh:
            previous = json.load(fh)
        assert sorted(previous["fragments"]) == ["0", "1"]
        resumed = runner.run(checkpoint=ckpt, resume=True)
        assert doc_bytes(resumed) == doc_bytes(reference_doc)
        assert not os.path.exists(ckpt)


class TestCrashDrills:
    """The executor's failure paths, driven through the fleet runner."""

    def test_pool_timeout_returns_without_waiting_for_the_hung_shard(
        self, monkeypatch
    ):
        monkeypatch.setattr(runner_mod, "_run_fleet_shard", _slow_shard)
        start = time.monotonic()
        with pytest.raises(ResultsError, match="timed out after 0.5s"):
            FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4).run(
                jobs=2, timeout=0.5, max_retries=0
            )
        assert time.monotonic() - start < 4.0

    def test_hard_killed_worker_finishes_serially_without_retry(
        self, monkeypatch, reference_doc
    ):
        monkeypatch.setattr(runner_mod, "_run_fleet_shard", _killed_shard)
        doc = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4).run(
            jobs=2, max_retries=0
        )
        assert doc_bytes(doc) == doc_bytes(reference_doc)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_budget_exhaustion_raises(self, monkeypatch, jobs):
        monkeypatch.setattr(runner_mod, "_run_fleet_shard", _failing_shard)
        with pytest.raises(
            ResultsError, match="fleet shard '1' failed after 2 attempts.*permanent"
        ):
            FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4).run(
                jobs=jobs, max_retries=1
            )


class TestValidation:
    def test_rejects_empty_sweep(self):
        with pytest.raises(ResultsError):
            FleetRunner(PERIODS, [], SLOTS)

    def test_rejects_bad_shard_size(self):
        with pytest.raises(ResultsError):
            FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=0)

    def test_document_shape(self, reference_doc):
        assert reference_doc["schema"] == "fleet-sweep/1"
        assert reference_doc["n_networks"] == len(SEEDS)
        assert len(reference_doc["networks"]) == len(SEEDS)
        assert [n["seed"] for n in reference_doc["networks"]] == SEEDS
        agg = reference_doc["aggregate"]
        assert agg["tag_slots"] == len(SEEDS) * SLOTS * len(PERIODS)
        assert agg["decodes"] == sum(
            n["decodes"] for n in reference_doc["networks"]
        )
