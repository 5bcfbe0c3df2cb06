"""Benchmark entry point: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload slot_longrun --seed 0 --seconds 12 --trace 0

Run from the repository root.  This process never imports the program; it
starts worker processes (``worker.py``) with ``src`` on ``PYTHONPATH``,
one after the other:

1. ``SETUP_SAMPLES - 1`` set-up probes, each importing, resolving the
   kernel backend, building and warming the workload in a fresh
   interpreter.  A probe that had to compile the C kernels (the first
   one in a fresh checkout) does not count and is replaced, so a
   one-off compile never lands in a set-up sample;
2. the main worker: set-up, then timed units for ``--seconds`` (or,
   with ``--trace 1``, the traced run), then the correctness checks.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
per-layer metrics (``--trace 1``); the line before it holds the run's
details (checks, kernel backend, ``REPRO_*`` variables, sample counts).
A traced run writes its spans to ``.bench_build/trace-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("slot_longrun", "waveform_dsp", "fleet_sweep", "figures")

#: Set-up samples per run (probes plus the main worker); the median is
#: reported.
SETUP_SAMPLES = 4

#: A probe that compiles the C kernels may take minutes on a slow host.
PROBE_TIMEOUT_S = 600
MAIN_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def _worker(role: str, args: argparse.Namespace, env: dict, timeout: float) -> dict:
    """Run one worker process to completion; returns its result line."""
    launch = time.monotonic()
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--launch", repr(launch),
    ]
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The worker may own a process pool: stop the whole group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{role} worker exceeded {timeout} s")
    if stderr:
        sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{role} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end(main: dict, setup_samples: list) -> dict:
    wall = statistics.median(main["unit_wall_s"])
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "slots_per_s": main["slots_per_unit"] / wall,
        "tag_slots_per_s": main["tag_slots_per_unit"] / wall,
        "chunk_ms_p50": main["chunk_ms"]["p50"],
        "peak_rss_mb": main["peak_rss_mb"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("run.py: no program under ./src/repro; run from the repository root",
              file=sys.stderr)
        return 2
    spec = _spec(root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    try:
        probes = []
        for _ in range(SETUP_SAMPLES):
            probe = _worker("probe", args, env, PROBE_TIMEOUT_S)
            if not probe["kernel_built"]:
                probes.append(probe)
            if len(probes) == SETUP_SAMPLES - 1:
                break
        else:
            raise WorkerError("every probe compiled the C kernels: no usable build cache")
        main_out = _worker("main", args, env, MAIN_TIMEOUT_S)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    setup_runs = probes + ([] if main_out["kernel_built"] else [main_out])
    samples = [r["setup_s"] for r in setup_runs]
    if not main_out.get("unit_wall_s") or (args.trace and "per_layer" not in main_out):
        print("run.py: the workload completed no unit", file=sys.stderr)
        return 1
    if args.trace:
        values = dict(main_out["per_layer"])
        values["import.busy_s"] = statistics.median(
            [p["import_s"] for p in probes] + [main_out["import_s"]]
        )
        wanted = spec["per_layer"]
    else:
        values = end_to_end(main_out, samples)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        print(f"run.py: metrics {sorted(set(names) ^ set(values))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel_backend": main_out["kernel_backend"],
        "repro_env": main_out["repro_env"],
        "checks": main_out["checks"],
        "error_rate": main_out["failed"] / main_out["attempted"],
        "setup_s_samples": samples,
        "unit_wall_s": main_out["unit_wall_s"],
        "chunk_ms": main_out["chunk_ms"],
        "sim_ack_ratio": main_out["sim_ack_ratio"],
        "sim_collision_ratio": main_out["sim_collision_ratio"],
    }
    print(json.dumps(details))
    result = {
        "correct": main_out["failed"] == 0,
        "attempted": main_out["attempted"],
        "failed": main_out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
