"""One round of a workload in a fresh interpreter, so the library's
module-level caches start cold, as they do for a command-line user.

    python3 perfbench/worker.py --workload W --seed S --mode M --check C

Modes: ``setup`` stops once the inputs are built; ``plain`` times the
calls with nothing in between; ``spans`` records a span per call;
``memory`` records spans and runs tracemalloc around the first call of
each library function.  tracemalloc slows the exact-arithmetic loops up
to 50-fold, so it covers one call per function, not the whole round.  With ``--check full``
every output is checked against the references; with ``--check digest``
run.py compares output digests with those of a fully checked round.

The calls run in segments of about SEGMENT_S seconds with a calibration
(calibrate.py) before and after each; ``wall_ref_s`` sums each segment's
time scaled by the calibrations around it, so a stretch in which the
shared machine runs slow does not read as a slow library.  Each CLI run
is scaled the same way, by the process calibrations around it.

Prints one JSON object.  ``ready`` is the time.monotonic() at which set
up ended, so run.py can measure set-up from the moment it spawned
this process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc

CLI_MIN_RUNS = 2  # CLI processes per round, timed one by one ...
CLI_MIN_S = 0.6   # ... and more, until they took this long together
SEGMENT_S = 0.2  # calls run between two calibrations


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:200]}"


def _max_bits(results: dict) -> int:
    bits = 0
    for value in results.values():
        for v in getattr(value, "values", ()):
            for part in (getattr(v, "numerator", v), getattr(v, "denominator", 1)):
                bits = max(bits, abs(part).bit_length())
    return bits


def cli_env(root: str) -> dict:
    """The environment of a CLI process.  It drops PYTHONINTMAXSTRDIGITS so
    the interpreter's int/str digit limit applies exactly as it does for a
    user."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli(args: list[str], root: str, env: dict) -> tuple[float, subprocess.CompletedProcess]:
    """One fresh `python -m partition_forge` process, timed from spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "partition_forge", *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    return time.perf_counter() - start, proc


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "spans", "memory"), required=True)
    parser.add_argument("--check", choices=("full", "digest"), default="digest")
    args = parser.parse_args()

    import partition_forge  # noqa: F401  (import time is part of set-up)
    import workloads
    from calibrate import PROCESS_REF_S, calibrate, calibrate_process, scale
    from spans import Tracer

    workload = workloads.build(args.workload, workloads.draw_inputs(args.workload, args.seed))
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    results: dict = {}
    tracer = None if args.mode == "plain" else Tracer()
    call = tracer.call if tracer else (lambda layer, name, fn, arg: fn(arg))
    first_calls: dict = {}
    for op in workload.ops:
        first_calls.setdefault(op.name.split("(")[0], op.name)
    memory_ops = set(first_calls.values()) if args.mode == "memory" else set()
    wall = wall_ref = 0.0
    before = calibrate()
    pending = iter(workload.ops)
    op = next(pending, None)
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        while op is not None:
            segment_start = time.perf_counter()
            while op is not None and time.perf_counter() - segment_start < SEGMENT_S:
                memory = op.name in memory_ops
                if memory:
                    tracemalloc.start()
                try:
                    results[op.name] = call(op.layer, op.name, op.run, results)
                except Exception as exc:  # counted as a failed op
                    results[op.name] = exc
                if memory:
                    tracemalloc.stop()
                op = next(pending, None)
            segment = time.perf_counter() - segment_start
            after = calibrate()
            wall += segment
            wall_ref += scale(segment, before, after)
            before = after
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = cli_env(root)
    cli_runs, cli_ref = [], []
    before = calibrate_process(env)
    while len(cli_runs) < CLI_MIN_RUNS or sum(elapsed for elapsed, _ in cli_runs) < CLI_MIN_S:
        cli_runs.append(run_cli(workload.cli.args, root, env))
        after = calibrate_process(env)
        cli_ref.append(scale(cli_runs[-1][0], before, after, PROCESS_REF_S))
        before = after
    proc = cli_runs[0][1]

    ops = []
    for op in workload.ops:
        result = results[op.name]
        record = {"name": op.name, "layer": op.layer, "calls": op.calls, "error": None, "digest": None}
        if isinstance(result, Exception):
            record["error"] = _error(result)
        else:
            record["digest"] = _digest(result)
            if args.check == "full":
                try:
                    op.check(result, results)
                except Exception as exc:
                    record["error"] = _error(exc)
        ops.append(record)

    cli = {"name": "cli " + workload.cli.args[0], "layer": "cli", "calls": len(cli_runs),
           "error": None, "digest": _digest((proc.returncode, proc.stdout))}
    if proc.returncode != 0:
        cli["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    elif any(p.returncode != 0 or p.stdout != proc.stdout for _, p in cli_runs):
        cli["error"] = "CLI output differs between runs of one round"
    elif args.check == "full":
        try:
            workload.cli.check(proc.stdout, results)
        except Exception as exc:
            cli["error"] = _error(exc)
    ops.append(cli)

    probes = {}
    for name, probe in workload.probes:
        try:
            probe()
            probes[name] = "ok"
        except Exception as exc:
            probes[name] = _error(exc)

    values = [r for r in results.values() if hasattr(r, "values")]
    texts = [r for name, r in results.items() if name.startswith(("to_json", "to_bfile")) and isinstance(r, str)]
    out = {
        "ready": ready,
        "wall_s": wall,
        "wall_ref_s": wall_ref,
        "rss_mb": rss_mb,
        "cli_s": [elapsed for elapsed, _ in cli_runs],
        "cli_ref_s": cli_ref,
        "ops": ops,
        "probes": probes,
        "exponent": workload.exponent,
        "counts": {
            "terms": sum(len(r.values) for r in values),
            "max_bits": _max_bits(results),
            "serialize_bytes": sum(len(t.encode()) for t in texts),
        },
    }
    if tracer is not None:
        out["spans"] = [span.as_dict(start) for span in tracer.spans]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
