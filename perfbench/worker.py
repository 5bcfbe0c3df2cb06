"""One benchmark process: set up a workload, optionally time it, check it.

Started by ``run.py`` from the checkout root with ``src`` on
``PYTHONPATH``; prints one JSON object on its last stdout line.

Roles:

* ``probe`` — import, resolve the kernel backend, build and warm the
  workload, report the set-up time, exit.
* ``main`` — as ``probe``, then the timed units, then the correctness
  checks; with ``--trace 1`` the traced run and its per-layer metrics.

``--launch`` is ``run.py``'s ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from statistics import median

clock = time.perf_counter


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("probe", "main"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launch", type=float, required=True)
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_units(wl, state, jobs: int, seconds: float, units: list) -> int:
    """Run units until ``seconds`` have passed (at least one); returns
    the number that raised."""
    start = clock()
    while True:
        try:
            unit = wl.unit(state, jobs)
        except Exception as exc:  # a failed job or shard is a counted failure
            print(f"unit failed: {exc!r}", file=sys.stderr)
            return 1
        unit["jobs"] = jobs
        units.append(unit)
        if clock() - start >= seconds:
            return 0


def chunk_summary(units: list) -> dict:
    """Chunk-time percentiles over chunk positions.

    Every unit of a run repeats the same inputs, so chunk ``i`` does the
    same work in each; the median over units of each position's time
    removes host interference that hit one unit, and the percentiles
    are taken over the positions (one sample each).
    """
    from stats import percentile, tail_percentile

    per_position = [1e3 * median(times) for times in zip(*(u["chunks_s"] for u in units))]
    return {
        "p50": median(per_position),
        "p90": percentile(per_position, 90.0),
        "positions": len(per_position),
        "units": len(units),
        "rule_percentile": tail_percentile(len(per_position)),
    }


def main(argv=None) -> int:
    args = _args(argv)
    import repro  # noqa: F401

    import_s = time.monotonic() - args.launch
    from repro import perf
    from repro.phy import kernels

    start = clock()
    backend = kernels.backend()
    resolve_s = clock() - start
    # The first process of a fresh checkout compiles the C kernels into
    # their build cache; run.py discards that set-up sample.
    kernel_built = perf.report()["counters"].get("cache.kernel_build.miss", 0) > 0

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    state = wl.setup(wl.inputs(args.seed))
    out = {
        "setup_s": time.monotonic() - args.launch,
        "import_s": import_s,
        "resolve_s": resolve_s,
        "kernel_backend": backend,
        "kernel_built": kernel_built,
    }
    if args.role == "probe":
        print(json.dumps(out))
        return 0

    out["repro_env"] = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    units: list = []
    wl.begin(state)
    if args.trace:
        failed_units, traced = traced_phase(wl, state, args, units)
    else:
        failed_units = run_units(wl, state, 2 if wl.pool else 1, args.seconds, units)
        out["peak_rss_mb"] = peak_rss_mb()
    # Untraced: every unit.  Traced: the jobs=1 untraced units only.
    timed = [u for u in units if not u.get("traced") and not u.get("pool")]
    if not timed:
        out.update(attempted=failed_units, failed=failed_units, checks=[])
        print(json.dumps(out))
        return 0

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "digests.json")) as fh:
        recorded = json.load(fh)
    key = str(args.seed) if wl.seeded else "*"
    checks = [
        (
            "kernel_backend",
            backend == recorded["kernel_backend"],
            f"{backend} (recorded {recorded['kernel_backend']})",
        )
    ]
    checks += wl.checks(
        state, units, recorded["digests"][wl.name].get(key), thorough=bool(args.trace)
    )
    out["checks"] = checks
    out["attempted"] = len(units) + failed_units + len(checks)
    out["failed"] = failed_units + sum(1 for _, ok, _ in checks if not ok)

    out["unit_wall_s"] = [u["wall_s"] for u in timed]
    out["slots_per_unit"] = units[0]["slots"]
    out["tag_slots_per_unit"] = units[0]["tag_slots"]
    out["sim_ack_ratio"] = units[0]["acks"] / units[0]["slots"]
    out["sim_collision_ratio"] = units[0]["collisions"] / units[0]["slots"]
    out["chunk_ms"] = chunk_summary(timed)
    if args.trace and "unit" in traced:
        out["per_layer"] = layer_metrics(wl, units, traced, out, failed_units)
        os.makedirs(".bench_build", exist_ok=True)
        traced["tracer"].save(os.path.join(".bench_build", f"trace-{wl.name}.npz"))
    print(json.dumps(out))
    return 0


def traced_phase(wl, state, args, units: list):
    """One untraced pool unit for the runner metrics (pool workloads),
    then pairs of an untraced and a traced ``jobs=1`` unit until
    ``--seconds`` have passed.  Alternating the two keeps slow phases of
    a shared host out of the overhead ratio; the per-layer metrics come
    from the first traced unit, whose spans are kept."""
    from tracing import Tracer

    if wl.pool:
        try:
            pool_unit = wl.unit(state, 2)
        except Exception as exc:
            print(f"unit failed: {exc!r}", file=sys.stderr)
            return 1, {}
        pool_unit["pool"] = True
        units.append(pool_unit)
    traced: dict = {}
    start = clock()
    while True:
        if run_units(wl, state, 1, 0.0, units):
            return 1, traced
        tracer = Tracer(run_id=f"{wl.name}/{args.seed}/{os.getpid()}")
        tracer.install()
        try:
            unit = wl.unit(state, 1, region=tracer.span("timed"))
        except Exception as exc:
            print(f"traced unit failed: {exc!r}", file=sys.stderr)
            return 1, traced
        finally:
            tracer.uninstall()
        unit["traced"] = True
        units.append(unit)
        if not traced:
            traced.update(tracer=tracer, unit=unit)
        if clock() - start >= args.seconds:
            return 0, traced


def layer_metrics(wl, units, traced, out, failed_units) -> dict:
    """Per-layer metrics of the traced unit (see README.md for which
    end-to-end metric each should move)."""
    import numpy as np

    from tracing import KERNEL_FUNCTIONS, LAYERS

    spans = traced["tracer"].arrays()
    tracer = traced["tracer"]
    unit = traced["unit"]
    dur, self_t = spans.duration, spans.self_time

    def named(prefix):
        return spans.mask(lambda n: n == prefix or n.startswith(prefix + "."))

    def outermost(mask):
        return mask & ~spans.within(mask)

    def busy(mask):
        top = outermost(mask)
        return float(dur[top].sum()), int(top.sum())

    def per_slot(seconds):
        return 1e6 * seconds / slots if slots else 0.0

    loop = named("loop")
    slots = int(outermost(loop).sum())
    root = named("timed")
    wall = float(dur[root].sum())
    m = {}
    traced_walls = [u["wall_s"] for u in units if u.get("traced")]
    m["trace.wall_s"] = wall
    m["trace.overhead"] = median(traced_walls) / median(out["unit_wall_s"])
    m["trace.spans"] = len(spans.start)
    by_layer = spans.self_by_layer()
    m["trace.residual_share"] = by_layer["residual"] / wall
    # Untraced chunk tail: too unsteady on a shared host for a bound.
    m["chunk_ms_p90"] = out["chunk_ms"]["p90"]
    for layer in LAYERS:
        m[f"self_s.{layer}"] = by_layer[layer]
    m["import.busy_s"] = out["import_s"]
    m["build.busy_s"], m["build.calls"] = busy(named("build"))
    tag_s, m["mac.tag.calls"] = busy(named("mac.tag"))
    m["mac.tag.busy_s"] = tag_s
    m["mac.tag.us_per_slot"] = per_slot(tag_s)
    for part in ("beacon", "observe"):
        s, n = busy(named(f"mac.reader.{part}"))
        m[f"mac.reader.{part}.busy_s"], m[f"mac.reader.{part}.calls"] = s, n
    channel = named("channel")
    m["channel.busy_s"], _ = busy(channel)
    observe = spans.mask(lambda n: n == "channel")
    m["channel.calls"] = int(observe.sum())
    evals = int(spans.mask(lambda n: n == "channel.link").sum())
    m["channel.link_evals"] = evals
    m["channel.link_evals_per_generation"] = (
        evals / len(tracer.link_keys) if tracer.link_keys else 0.0
    )
    m["loop.self_us_per_slot"] = per_slot(float(self_t[loop].sum()))
    synth = named("phy.synth")
    demod = named("phy.demod")
    synth_s, _ = busy(synth)
    demod_in_synth = float(dur[outermost(demod) & spans.within(synth)].sum())
    m["phy.synth.us_per_slot"] = per_slot(synth_s - demod_in_synth)
    counters = _perf_counters()
    hits = counters.get("cache.template.hit", 0)
    misses = counters.get("cache.template.miss", 0)
    m["phy.cache.template_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for part in ("decode", "cluster"):
        s, _ = busy(named(f"phy.demod.{part}"))
        m[f"phy.demod.{part}.us_per_slot"] = per_slot(s)
    kernels_mask = named("phy.kernels")
    demod_s, _ = busy(demod)
    kernel_in_demod = float(dur[outermost(kernels_mask) & spans.within(demod)].sum())
    m["phy.kernels.share_of_demod"] = kernel_in_demod / demod_s if demod_s else 0.0
    m["phy.kernels.resolve_s"] = out["resolve_s"]
    for k in KERNEL_FUNCTIONS:
        mask = spans.mask(lambda n, k=k: n == f"phy.kernels.{k}")
        m[f"phy.kernels.{k}.calls"] = int(mask.sum())
        m[f"phy.kernels.{k}.busy_s"] = float(dur[mask].sum())
    fleet = named("fleet")
    fleet_s, fleet_calls = busy(fleet)
    network_steps = unit["slots"] if wl.name == "fleet_sweep" else 0
    m["fleet.step.us_per_network"] = 1e6 * fleet_s / network_steps if network_steps else 0.0
    m["fleet.arbitrate.observe_calls_per_step"] = (
        int((observe & spans.within(fleet)).sum()) / fleet_calls if fleet_calls else 0.0
    )
    m.update(_runner_metrics(wl, units, spans, failed_units))
    m["faults.busy_s"], _ = busy(named("faults"))
    m["resilience.busy_s"], _ = busy(named("resilience"))
    m["sim_ack_ratio"] = out["sim_ack_ratio"]
    m["sim_collision_ratio"] = out["sim_collision_ratio"]
    if not np.isclose(sum(by_layer.values()), wall):
        raise RuntimeError("layer self times do not add up to the traced unit")
    return m


#: The figure jobs of ``collect_results``, one ``runner.job_s`` metric each.
JOBS = ("table2", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig19", "figS")


def _runner_metrics(wl, units, spans, failed_units) -> dict:
    m = {f"runner.job_s.{job}": 0.0 for job in JOBS}
    tasks = []
    pool = [u for u in units if u.get("pool")]
    if wl.name == "figures" and pool:
        job_s = pool[0]["job_s"]
        for job in JOBS:
            m[f"runner.job_s.{job}"] = job_s[job]
        tasks = list(job_s.values())
    elif wl.name == "fleet_sweep":
        tasks = [float(d) for d in spans.duration[spans.mask(lambda n: n == "runner.shard")]]
    m["runner.critical_path_s"] = max(tasks) if tasks else 0.0
    m["runner.utilization"] = (
        sum(tasks) / (2 * pool[0]["wall_s"]) if tasks and pool else 0.0
    )
    m["runner.shard_s_p50"] = median(tasks) if tasks else 0.0
    m["runner.shard_s_max"] = max(tasks) if tasks else 0.0
    # collect_results and FleetRunner.run run with max_retries=0: a
    # failing job or shard raises and is counted as a failed unit.
    m["runner.retries"] = 0
    m["runner.failures"] = failed_units
    return m


def _perf_counters() -> dict:
    from repro import perf

    return perf.report()["counters"]


if __name__ == "__main__":
    sys.exit(main())
