"""Machine-readable results and fleet sweeps: one job executor.

The CLI prints human tables; CI pipelines and the EXPERIMENTS.md
curation want structured numbers instead:

    python -m repro results --out results.json
    python -m repro results --out results.json --jobs 4
    python -m repro results --out results.json --serial --full
    python -m repro results --out results.json --resume --timeout 120
    python -m repro fleet --fleet-size 256 --jobs 2 --out fleet.json

Both documents come out of one private executor, :func:`_run_tasks`.
:func:`collect_results` hands it one task per paper experiment and
:class:`FleetRunner` one task per shard of a seed sweep.  The tasks
are independent, so the executor can fan them out over a
``ProcessPoolExecutor``.  Each task derives its randomness inside
itself, exactly as the serial path does, so the merged document is
identical byte-for-byte whichever way it was produced (the determinism
tests in ``tests/experiments/test_runner.py`` and
``tests/fleet/test_runner_fleet.py`` hold the paths equal).

Crash tolerance: every landed fragment is persisted to an atomic
checkpoint file the moment it lands, so a killed run resumes with
``--resume`` and re-executes only the missing tasks — and, because
every fragment is a pure function of the run's identity, the resumed
document is byte-identical to an uninterrupted one.  A crashed worker
pool (:class:`~concurrent.futures.process.BrokenProcessPool`) degrades
to serial re-execution of the unfinished tasks instead of losing the
finished ones, and each task gets a bounded number of retries and an
optional wall-clock timeout.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.channel.medium import AcousticMedium

#: Counts used by ``quick`` runs (CI) vs publication-grade runs.
QUICK_TRIALS, FULL_TRIALS = 5, 10
QUICK_LONGRUN_SLOTS, FULL_LONGRUN_SLOTS = 4000, 10_000
QUICK_ALOHA_S, FULL_ALOHA_S = 4000.0, 10_000.0


class ResultsError(RuntimeError):
    """A job failed past its retry budget, or a checkpoint was refused."""


class _JobTimeout(Exception):
    """Internal: a serially-executed job outran its timeout."""


# -- per-experiment jobs ----------------------------------------------------
#
# Each job is a module-level function (picklable for the process pool)
# taking (medium, seed, quick) and returning its fragment of the output
# document.  Seed derivations are part of the job so serial and parallel
# execution consume identical randomness.


def _job_table2(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.table2_power import run_table2

    t2 = run_table2()
    return {
        "table2_power_uw": {
            mode: t2.table[mode]["total_power_uw"] for mode in ("RX", "TX", "IDLE")
        },
        "table2_sustainable": t2.sustainable,
    }


def _job_fig11(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig11_energy import run_fig11

    f11 = run_fig11(medium)
    return {
        "fig11": {
            "all_activate": f11.all_activate_at_8_stages(),
            "charge_time_range_s": list(f11.charging_time_range_s()),
            "net_power_range_uw": [p * 1e6 for p in f11.net_power_range_w()],
            "amplified_16x_v": {r.tag: r.amplified_16x_v for r in f11.rows},
        }
    }


def _job_fig12(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig12_uplink import run_fig12

    f12 = run_fig12(medium)
    return {
        "fig12_snr_db": {
            tag: {str(p.bit_rate_bps): p.snr_db for p in f12.points if p.tag == tag}
            for tag in ("tag8", "tag4", "tag11")
        }
    }


def _job_fig13(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig13_downlink import run_fig13

    f13 = run_fig13(medium, seed=seed)
    return {
        "fig13_loss_per_1k": {
            tag: {
                str(p.bit_rate_bps): p.expected_loss_per_1k
                for p in f13.loss_points
                if p.tag == tag
            }
            for tag in ("tag8",)
        },
        "fig13_max_sync_offset_ms": max(s.max_abs_ms for s in f13.sync_offsets),
    }


def _job_fig14(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig14_pingpong import run_fig14

    f14 = run_fig14(seed=seed)
    return {
        "fig14": {
            "stage2_p99_ms": f14.percentile_stage2_s(99) * 1e3,
            "software_delay_ms": f14.mean_software_delay_s() * 1e3,
        }
    }


def _job_fig15(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.configs import FIXED_TAGS_SWEEP
    from repro.experiments.table3_convergence import run_fig15

    trials = QUICK_TRIALS if quick else FULL_TRIALS
    f15 = run_fig15(FIXED_TAGS_SWEEP, n_trials=trials, seed=seed, medium=medium)
    return {"fig15_median_slots": {name: r.median for name, r in f15.items()}}


def _job_fig16(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig16_longrun import run_fig16

    slots = QUICK_LONGRUN_SLOTS if quick else FULL_LONGRUN_SLOTS
    f16 = run_fig16(n_slots=slots, seed=seed + 2, medium=medium)
    return {
        "fig16": {
            "mean_non_empty": f16.mean_non_empty,
            "mean_collision": f16.mean_collision,
            "bound": f16.utilization_bound,
        }
    }


def _job_fig17(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig17_strain import run_fig17

    f17 = run_fig17()
    return {"fig17_correlations": {c.tag: c.correlation() for c in f17.curves}}


def _job_fig19(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig19_aloha import run_fig19

    duration = QUICK_ALOHA_S if quick else FULL_ALOHA_S
    f19 = run_fig19(duration_s=duration, seed=seed + 3, medium=medium)
    return {
        "fig19": {
            "overall_success": f19.overall_success_rate,
            "tag8_total_tx": f19.per_tag["tag8"].total_tx,
        }
    }


def _job_figS(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.figS_degradation import run_figS, summarize_figS

    # The degradation ladder runs at its own pinned seed: the
    # policy-vs-baseline verdicts it documents are a property of the
    # resilience layer, not of this document's master seed.
    return {"figS": summarize_figS(run_figS())}


#: Canonical experiment order; the output document is merged in this
#: order regardless of parallel completion order.
EXPERIMENT_JOBS: List[Tuple[str, Callable[..., Dict[str, Any]]]] = [
    ("table2", _job_table2),
    ("fig11", _job_fig11),
    ("fig12", _job_fig12),
    ("fig13", _job_fig13),
    ("fig14", _job_fig14),
    ("fig15", _job_fig15),
    ("fig16", _job_fig16),
    ("fig17", _job_fig17),
    ("fig19", _job_fig19),
    ("figS", _job_figS),
]

_JOBS_BY_NAME = dict(EXPERIMENT_JOBS)


def _with_telemetry(
    with_telemetry: bool, call: Callable[[], Any]
) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """``(call(), snapshot)``, the call optionally under a fresh registry.

    Every task gets its *own* registry (via ``telemetry.collecting``), on
    the serial path exactly as in a pool worker — a reused worker
    process never leaks one task's tallies into the next, and the merged
    document is byte-identical whichever way the tasks were executed.
    """
    if not with_telemetry:
        return call(), None
    from repro import telemetry

    with telemetry.collecting() as registry:
        result = call()
    return result, registry.snapshot().to_jsonable()


def _execute_job(
    name: str,
    medium: AcousticMedium,
    seed: int,
    quick: bool,
    with_telemetry: bool,
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Run one experiment, optionally under a fresh telemetry registry."""
    return _with_telemetry(
        with_telemetry, lambda: _JOBS_BY_NAME[name](medium, seed, quick)
    )


def _profiled_execute(
    name: str,
    medium: AcousticMedium,
    seed: int,
    quick: bool,
    with_telemetry: bool,
    profile_dir: Optional[str],
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Run one job, optionally under cProfile.

    With ``profile_dir`` set, the job executes inside its own
    :class:`cProfile.Profile` and the raw stats land in
    ``<profile_dir>/<name>.pstats`` (one file per experiment; pool
    workers write theirs independently).  Inspect with
    ``python -m pstats`` or ``snakeviz``.
    """
    if not profile_dir:
        return _execute_job(name, medium, seed, quick, with_telemetry)
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return _execute_job(name, medium, seed, quick, with_telemetry)
    finally:
        profiler.disable()
        os.makedirs(profile_dir, exist_ok=True)
        profiler.dump_stats(os.path.join(profile_dir, f"{name}.pstats"))


def _run_job(
    name: str,
    medium: AcousticMedium,
    seed: int,
    quick: bool,
    with_telemetry: bool = False,
    with_perf: bool = False,
    profile_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Task entry point: run one experiment; return its fragment, wall
    time and (optionally) its telemetry snapshot and perf report."""
    from repro import perf as perf_mod

    outer = None
    if with_perf:
        # The shipped report covers this job alone.  Whatever the
        # process measured before (earlier jobs of a reused pool worker,
        # or the caller's own set-up when run serially) is parked and
        # folded back afterwards, so merging the reports counts nothing
        # twice.
        outer = perf_mod.report()
        perf_mod.reset()
    try:
        start = time.perf_counter()
        fragment, tel = _profiled_execute(
            name, medium, seed, quick, with_telemetry, profile_dir
        )
        elapsed = time.perf_counter() - start
        perf_report = perf_mod.report() if with_perf else None
    finally:
        if outer is not None:
            perf_mod.reset()
            perf_mod.registry.merge_report(outer)
    return {
        "fragments": fragment,
        "timings": elapsed,
        "telemetry": tel,
        "perf": perf_report,
    }


def default_jobs() -> int:
    """Worker count when ``--jobs`` is requested without a number."""
    return max(1, os.cpu_count() or 1)


# -- checkpointing ----------------------------------------------------------
#
# A checkpoint is the run's identity keys plus, per persisted section,
# a map from task key to what that task landed.  Both runners share the
# one writer/loader pair below; only the identity and the fragment
# check differ.

_CHECKPOINT_VERSION = 1

#: Per-task sections a checkpoint carries (``perf`` reports are not
#: persisted: they describe one process, not the result).
_PERSISTED = ("fragments", "timings", "telemetry")


def _results_identity(seed: int, quick: bool) -> Dict[str, Any]:
    """What a :func:`collect_results` checkpoint must match to resume."""
    return {"version": _CHECKPOINT_VERSION, "seed": seed, "quick": quick}


def _atomic_json_dump(path: str, payload: Dict[str, Any]) -> None:
    """Write ``payload`` atomically (tmp file + fsync + rename): a kill
    at any instant leaves either the previous file or the new one,
    never a torn one."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _write_checkpoint(
    path: str, identity: Dict[str, Any], landed: Dict[str, Dict[str, Any]]
) -> None:
    """Persist the identity and every non-empty section atomically."""
    payload = dict(identity)
    payload.update(
        {section: landed[section] for section in _PERSISTED if landed.get(section)}
    )
    _atomic_json_dump(path, payload)


def _load_checkpoint(
    path: str,
    identity: Dict[str, Any],
    keys: List[str],
    accept: Callable[[str, Any], bool],
) -> Dict[str, Dict[str, Any]]:
    """Load a checkpoint's sections, refusing anything that is not a
    checkpoint of this very run: unreadable JSON, any identity key that
    differs, a key no task has, or a fragment ``accept`` rejects."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ResultsError(f"cannot read checkpoint {path}: {exc}")
    if not isinstance(payload, dict):
        raise ResultsError(f"checkpoint {path} is not a JSON object")
    for key, want in identity.items():
        want = json.loads(json.dumps(want))  # tuples come back as lists
        if payload.get(key) != want:
            raise ResultsError(
                f"checkpoint {path} was taken with {key}={payload.get(key)!r};"
                f" this run uses {want!r} — refusing to mix"
            )
    sections: Dict[str, Dict[str, Any]] = {}
    for section in _PERSISTED:
        entries = payload.get(section, {})
        if not isinstance(entries, dict):
            raise ResultsError(f"checkpoint {path}: {section!r} is not an object")
        for key in entries:
            if key not in keys:
                raise ResultsError(
                    f"checkpoint {path}: {section!r} has unknown key {key!r}"
                )
        sections[section] = entries
    for key, fragment in sections["fragments"].items():
        if not accept(key, fragment):
            raise ResultsError(f"checkpoint {path}: malformed fragment {key!r}")
    return sections


@contextmanager
def _serial_timeout(seconds: Optional[float]) -> Iterator[None]:
    """Bound one serially-executed task with SIGALRM where possible.

    Only the main thread of a POSIX process can field SIGALRM; anywhere
    else the guard degrades to a no-op (pool mode bounds tasks through
    the future instead).
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _fire(signum, frame):
        raise _JobTimeout()

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- the job executor -------------------------------------------------------

_Task = Tuple[str, Callable[..., Dict[str, Any]], Tuple[Any, ...]]


def _run_tasks(
    tasks: List[_Task],
    identity: Dict[str, Any],
    accept: Callable[[str, Any], bool],
    label: str,
    jobs: int,
    timeout: Optional[float],
    max_retries: int,
    checkpoint: Optional[str],
    resume: bool,
    telemetry: bool,
) -> Tuple[Dict[str, Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Run ``(key, fn, args)`` tasks; the one executor of both runners.

    ``fn(*args)`` runs in a pool worker or in this process and returns
    a dict of per-task values by section (``fragments`` always;
    ``timings``, ``telemetry`` and ``perf`` optionally).  Returns every
    section as a ``{key: value}`` map, plus — with ``telemetry`` — the
    per-task snapshots merged in canonical task order and signed.

    * ``jobs`` > 1 fans the pending tasks over ``min(jobs, pending)``
      processes; tasks whose arguments cannot be pickled run serially.
    * ``timeout`` bounds each task: on the future in the pool, with
      SIGALRM serially.  A timed-out task counts as one failed attempt,
      and ``max_retries`` bounds the extra attempts per task before
      :class:`ResultsError` is raised.
    * A :class:`BrokenProcessPool` (a worker died hard) degrades to
      serial re-execution of only the unfinished tasks, with no retry
      charged; landed results are never lost.
    * ``checkpoint`` receives every landed result atomically;
      ``resume=True`` preloads it (see :func:`_load_checkpoint`) and
      runs only the missing tasks.  The file is deleted on success;
      ``KeyboardInterrupt`` propagates with it on disk.
    """
    keys = [key for key, _, _ in tasks]
    calls = {key: (fn, args) for key, fn, args in tasks}
    landed: Dict[str, Dict[str, Any]] = {
        section: {} for section in _PERSISTED + ("perf",)
    }
    if resume:
        if checkpoint is None:
            raise ResultsError("resume requested without a checkpoint path")
        if os.path.exists(checkpoint):
            landed.update(_load_checkpoint(checkpoint, identity, keys, accept))
            if telemetry:
                # A fragment without its telemetry snapshot (checkpoint
                # from a telemetry-off run) must be re-executed — the
                # merged section covers every task or none.
                landed["fragments"] = {
                    k: v for k, v in landed["fragments"].items()
                    if k in landed["telemetry"]
                }

    pending = [key for key in keys if key not in landed["fragments"]]
    if jobs > 1 and pending:
        try:
            pickle.dumps([calls[key] for key in pending])
        except Exception:
            jobs = 1  # e.g. a custom medium that can't cross a process boundary
    attempts = dict.fromkeys(keys, 0)

    def land(key: str, result: Dict[str, Any]) -> None:
        for section, value in result.items():
            if value is not None:
                landed[section][key] = value
        if checkpoint is not None:
            _write_checkpoint(checkpoint, identity, landed)

    while pending:
        failed: List[Tuple[str, str]] = []
        if jobs > 1:
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
            try:
                futures = {
                    key: pool.submit(calls[key][0], *calls[key][1])
                    for key in pending
                }
                for key, future in futures.items():
                    try:
                        result = future.result(timeout=timeout)
                    except FuturesTimeout:
                        failed.append((key, f"timed out after {timeout:g}s"))
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:
                        failed.append((key, repr(exc)))
                    else:
                        land(key, result)
            except BrokenProcessPool:
                # A worker died hard (segfault, OOM-kill): the pool is
                # unusable, but every landed result is safe.  Finish the
                # rest serially; no retry is charged.
                jobs = 1
                pending = [k for k in pending if k not in landed["fragments"]]
                continue
            finally:
                # Never wait on a hung or dead worker.
                pool.shutdown(wait=False, cancel_futures=True)
        else:
            for key in pending:
                fn, args = calls[key]
                try:
                    with _serial_timeout(timeout):
                        result = fn(*args)
                except _JobTimeout:
                    failed.append((key, f"timed out after {timeout:g}s"))
                except Exception as exc:
                    failed.append((key, repr(exc)))
                else:
                    land(key, result)

        pending = []
        for key, reason in failed:
            attempts[key] += 1
            if attempts[key] > max_retries:
                raise ResultsError(
                    f"{label} {key!r} failed after {attempts[key]} attempt"
                    f"{'s' if attempts[key] != 1 else ''}: {reason}"
                )
            pending.append(key)

    section = None
    if telemetry:
        from repro.telemetry import MetricsSnapshot, merge_snapshots

        # Canonical task order, NOT completion order: snapshot merging
        # is associative and commutative for counters/gauges, but
        # histogram float sums are only guaranteed bit-stable along one
        # order.
        merged = merge_snapshots(
            MetricsSnapshot.from_jsonable(landed["telemetry"][key]) for key in keys
        )
        section = {"signature": merged.signature(), "snapshot": merged.to_jsonable()}
    if checkpoint is not None:
        try:
            os.remove(checkpoint)
        except OSError:
            pass
    return landed, section


# -- collection -------------------------------------------------------------


def collect_results(
    medium: Optional[AcousticMedium] = None,
    seed: int = 0,
    quick: bool = True,
    jobs: int = 1,
    perf: bool = False,
    timeout: Optional[float] = None,
    max_retries: int = 0,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    telemetry: bool = False,
    profile_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run every analytic/fast experiment; returns a JSON-able dict.

    ``quick`` keeps the stochastic sweeps small (5 trials, 4000-slot
    long run); pass False for publication-grade counts.  ``jobs`` > 1
    fans the independent experiments out over a process pool; the
    result document is identical to the serial one for the same seeds
    (each experiment derives its seed inside its own job).  ``perf``
    appends a ``"perf"`` section with per-experiment wall times and the
    merged stage/counter report — omitted by default so the document
    stays byte-stable across executions.

    ``timeout``, ``max_retries``, ``checkpoint`` and ``resume`` are the
    executor's robustness knobs (see :func:`_run_tasks`).  Fragments
    are pure functions of ``(seed, quick)``, so a killed-and-resumed
    run emits a document byte-identical to an uninterrupted one; the
    checkpoint records ``(seed, quick)`` and refuses a mismatched
    resume.

    ``telemetry=True`` runs every job under its own fresh
    :class:`~repro.telemetry.MetricsRegistry` and appends a
    ``"telemetry"`` section: the snapshots merged in canonical
    ``EXPERIMENT_JOBS`` order plus its SHA-256 signature, byte-identical
    between ``--serial`` and ``--jobs N`` runs of the same seed.

    ``profile_dir`` runs each job under :mod:`cProfile` and dumps raw
    pstats to ``<profile_dir>/<experiment>.pstats`` (CLI:
    ``repro results --profile``), so future hot spots are found from
    data rather than guesswork.
    """
    medium = medium if medium is not None else AcousticMedium()
    names = [name for name, _ in EXPERIMENT_JOBS]
    landed, telemetry_section = _run_tasks(
        [
            (name, _run_job, (name, medium, seed, quick, telemetry, perf, profile_dir))
            for name in names
        ],
        identity=_results_identity(seed, quick),
        accept=lambda name, fragment: isinstance(fragment, dict),
        label="experiment",
        jobs=jobs,
        timeout=timeout,
        max_retries=max_retries,
        checkpoint=checkpoint,
        resume=resume,
        telemetry=telemetry,
    )

    out: Dict[str, Any] = {"quick": quick, "seed": seed}
    for name in names:
        out.update(landed["fragments"][name])
    if telemetry_section is not None:
        out["telemetry"] = telemetry_section

    if perf:
        from repro import perf as perf_mod
        from repro.phy import cache as phy_cache
        from repro.phy import kernels

        # This process's own registry holds only set-up work; fold in
        # what each job measured, in canonical job order.
        process_report = perf_mod.merge_reports(
            [perf_mod.report()]
            + [landed["perf"][n] for n in names if n in landed["perf"]]
        )
        timings = landed["timings"]
        out["perf"] = {
            "jobs": jobs,
            "experiment_wall_s": {k: timings[k] for k in sorted(timings)},
            "process": process_report,
            "cache_sizes": phy_cache.cache_sizes(),
            # Cache efficacy at a glance: hit/miss tallies and ratios
            # per synthesis cache (carrier/mixer/template/leak).
            "cache_hit_ratios": phy_cache.hit_ratios(
                process_report.get("counters", {})
            ),
            # Which kernel backend served the run (numba/cext/numpy),
            # plus availability diagnostics for the others.
            "kernels": kernels.kernel_info(),
        }
    return out


# -- fleet sweeps -----------------------------------------------------------
#
# The batch engine (repro.fleet) steps one shard of networks per
# vectorised call; FleetRunner shards a whole seed sweep across engines
# through the same executor and reassembles a document that is
# byte-identical for every (shard_size, jobs) combination and across
# resume, because each network's randomness is a pure function of its
# own seed.

#: Column order of a fleet summary row.
FLEET_ROW_COLUMNS = (
    "seed",
    "slots",
    "decodes",
    "acks",
    "collisions",
    "idle_slots",
    "settled_fraction",
)


def _run_fleet_shard(
    tag_periods: List[Tuple[str, int]],
    names: List[str],
    seeds: List[int],
    n_slots: int,
    config: Optional[Any],
    energy: bool,
    with_telemetry: bool,
) -> Dict[str, Any]:
    """Task entry point: run one shard of the sweep on a batch engine;
    return its summary rows (and telemetry snapshot)."""
    from repro.fleet import FleetEngine, FleetSpec

    specs = [FleetSpec(name=n, seed=int(s)) for n, s in zip(names, seeds)]

    def execute() -> List[List[float]]:
        engine = FleetEngine(dict(tag_periods), specs, config=config, energy=energy)
        for _ in range(n_slots):
            engine.step_all()
        return [
            [float(spec.seed)]
            + [float(summary[column]) for column in FLEET_ROW_COLUMNS[1:]]
            for spec, summary in zip(specs, engine.summaries())
        ]

    rows, tel = _with_telemetry(with_telemetry, execute)
    return {"fragments": rows, "telemetry": tel}


def _rows_ok(rows: Any, count: int) -> bool:
    """Is ``rows`` a shard fragment of ``count`` numeric summary rows?"""
    return (
        isinstance(rows, list)
        and len(rows) == count
        and all(
            isinstance(row, list)
            and len(row) == len(FLEET_ROW_COLUMNS)
            and all(isinstance(v, (int, float)) for v in row)
            for row in rows
        )
    )


class FleetRunner:
    """Shard a seed sweep onto batch engines and merge the results.

    The sweep is ``len(seeds)`` independent networks of the same
    ``tag_periods`` topology, each simulated for ``n_slots`` slots.
    Networks are named ``net<global index>`` and their randomness
    derives only from their own seed, so the output document is
    byte-identical however the sweep is sharded or scheduled — the
    property ``tests/fleet/test_runner_fleet.py`` pins.

    Shards run through the experiment runner's executor
    (:func:`_run_tasks`): one checkpoint fragment per landed shard
    (``resume=`` continues a killed run), per-shard telemetry
    registries merged in canonical shard order, per-shard timeouts,
    bounded retries and serial degradation when the pool breaks.
    """

    def __init__(
        self,
        tag_periods: Dict[str, int],
        seeds: List[int],
        n_slots: int,
        config: Optional[Any] = None,
        energy: bool = False,
        shard_size: int = 64,
    ) -> None:
        if not tag_periods:
            raise ResultsError("fleet sweep needs at least one tag")
        if not seeds:
            raise ResultsError("fleet sweep needs at least one seed")
        if n_slots <= 0:
            raise ResultsError("fleet sweep needs a positive slot count")
        if shard_size <= 0:
            raise ResultsError("shard size must be positive")
        self.tag_periods = dict(tag_periods)
        self.seeds = [int(s) for s in seeds]
        self.n_slots = int(n_slots)
        self.config = config
        self.energy = bool(energy)
        self.shard_size = int(shard_size)
        width = max(4, len(str(len(self.seeds) - 1)))
        self.names = [f"net{i:0{width}d}" for i in range(len(self.seeds))]

    # -- sharding ------------------------------------------------------------

    @property
    def n_networks(self) -> int:
        return len(self.seeds)

    def shards(self) -> List[Tuple[int, int, List[str], List[int]]]:
        """``(shard_index, row_offset, names, seeds)`` per shard."""
        out = []
        for index, offset in enumerate(range(0, self.n_networks, self.shard_size)):
            stop = min(offset + self.shard_size, self.n_networks)
            out.append(
                (index, offset, self.names[offset:stop], self.seeds[offset:stop])
            )
        return out

    def _checkpoint_identity(self) -> Dict[str, Any]:
        return {
            "version": _CHECKPOINT_VERSION,
            "kind": "fleet-sweep",
            "seeds": self.seeds,
            "n_slots": self.n_slots,
            "tag_periods": sorted(self.tag_periods.items()),
            "energy": self.energy,
            "shard_size": self.shard_size,
        }

    # -- execution -----------------------------------------------------------

    def run(
        self,
        jobs: int = 1,
        telemetry: bool = False,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        timeout: Optional[float] = None,
        max_retries: int = 0,
    ) -> Dict[str, Any]:
        """Run the sweep; returns the JSON-able fleet document.

        ``jobs`` > 1 fans shards over a process pool; every execution
        path (and any shard size) emits the same bytes.
        """
        import numpy as np

        periods = sorted(self.tag_periods.items())
        shards = self.shards()
        sizes = {str(index): len(names) for index, _, names, _ in shards}
        tasks = [
            (
                str(index),
                _run_fleet_shard,
                (periods, names, seeds, self.n_slots, self.config, self.energy,
                 telemetry),
            )
            for index, _, names, seeds in shards
        ]
        landed, telemetry_section = _run_tasks(
            tasks,
            identity=self._checkpoint_identity(),
            accept=lambda key, rows: _rows_ok(rows, sizes[key]),
            label="fleet shard",
            jobs=jobs,
            timeout=timeout,
            max_retries=max_retries,
            checkpoint=checkpoint,
            resume=resume,
            telemetry=telemetry,
        )
        matrix = np.array(
            [row for key, _, _ in tasks for row in landed["fragments"][key]],
            dtype=np.float64,
        )
        document = self._build_document(matrix)
        if telemetry_section is not None:
            document["telemetry"] = telemetry_section
        return document

    def _build_document(self, matrix: Any) -> Dict[str, Any]:
        """Assemble the result document from the row matrix.

        Every execution path lands rows in the same float64 matrix
        first, so the document bytes cannot depend on how the rows got
        there (pool, serial, or checkpoint resume).
        """
        import numpy as np

        if np.isnan(matrix).any():
            raise ResultsError("fleet sweep finished with missing rows")
        networks = []
        for i, name in enumerate(self.names):
            row = matrix[i]
            networks.append(
                {
                    "network": name,
                    "seed": int(row[0]),
                    "slots": int(row[1]),
                    "decodes": int(row[2]),
                    "acks": int(row[3]),
                    "collisions": int(row[4]),
                    "idle_slots": int(row[5]),
                    "settled_fraction": float(row[6]),
                }
            )
        n_tags = len(self.tag_periods)
        return {
            "schema": "fleet-sweep/1",
            "n_networks": self.n_networks,
            "n_slots": self.n_slots,
            "n_tags": n_tags,
            "energy": self.energy,
            "tag_periods": {k: self.tag_periods[k] for k in sorted(self.tag_periods)},
            "networks": networks,
            "aggregate": {
                "decodes": int(matrix[:, 2].sum()),
                "acks": int(matrix[:, 3].sum()),
                "collisions": int(matrix[:, 4].sum()),
                "idle_slots": int(matrix[:, 5].sum()),
                "mean_settled_fraction": float(matrix[:, 6].mean()),
                "tag_slots": self.n_networks * self.n_slots * n_tags,
            },
        }
