"""partition-forge benchmark runner.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root.  Workloads: egf-bigint, ogf-sieve,
weighted-rational, estimate-float (see workloads.py for why each one).

One client, closed loop: this runner starts rounds one after another until
``--seconds`` have passed (at least MIN_ROUNDS).  Each round is a fresh
worker interpreter (worker.py) that makes the workload's fixed set of
library calls, then runs the CLI a few times.  The first round checks
every output against independent references; later rounds must
reproduce its output digests.  Set-up (interpreter start, import, input generation) is
sampled in SETUP_EXTRA set-up-only workers spawned after each of the
first MIN_ROUNDS rounds.

Every time metric is in reference seconds: the time measured, scaled by
calibrations (calibrate.py) taken right before and after it, so that the
shared machine's changes of speed cancel out.  The raw samples are
printed too.

``--trace 0`` prints the end-to-end metrics, each the median over the
run's samples.
``--trace 1`` runs traced rounds (spans; one also with tracemalloc)
between plain ones, prints the per-layer metrics and writes every span
to perfbench/out/.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from statistics import median
import subprocess
import sys
import time

import workloads
from calibrate import PROCESS_REF_S, calibrate_process, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

MIN_ROUNDS = 4
SETUP_EXTRA = 4  # set-up-only workers after each of the first MIN_ROUNDS rounds
WORKER_TIMEOUT_S = 150
RUN_LIMIT_S = 150  # start no round that would likely end after this

END_TO_END_UNITS = {
    "wall_s": "s", "calls_per_s": "1/s", "cli_s": "s", "peak_rss_mb": "MiB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "divisors.s": "s", "divisors.calls": "count", "divisors.entries": "count",
    "divisors.tracemalloc_peak_mb": "MiB",
    "series.egf_self_s": "s", "series.egf_size_exponent": "ratio", "series.ogf_self_s": "s",
    "series.weighted_self_s": "s", "series.serialize_s": "s", "series.serialize_bytes": "bytes",
    "series.terms": "count", "series.max_bits": "bits", "series.tracemalloc_peak_mb": "MiB",
    "series.digit_limit_errors": "count",
    "asympt.calls": "count", "asympt.self_s": "s", "asympt.us_per_call": "us",
    "trace.overhead": "ratio",
}
SERIES_SELF = {
    "series.egf_self_s": ("egf_coeffs(",),
    "series.ogf_self_s": ("ogf_coeffs_euler(",),
    "series.weighted_self_s": ("egf_coeffs_weighted(",),
    "series.serialize_s": ("to_json(", "to_bfile("),
}


class RoundFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(workload: str, seed: int, mode: str, check: str) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--check", check]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundFailed(f"{mode} round exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    out["mode"] = mode
    return out


def setup_samples(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """Set-up seconds, raw and reference, of ``count`` set-up-only workers,
    each between two process calibrations."""
    env = worker_env()
    before = calibrate_process(env)
    samples = []
    for _ in range(count):
        raw = spawn(workload, seed, "setup", "digest")["setup_s"]
        after = calibrate_process(env)
        samples.append((raw, scale(raw, before, after, PROCESS_REF_S)))
        before = after
    return samples


def schedule(trace: bool, index: int) -> str:
    """Trace 0: plain rounds only.  Trace 1: plain, spans, memory, then
    spans and plain alternately, so traced and untraced walls interleave."""
    if not trace:
        return "plain"
    return ("plain", "spans", "memory")[index] if index < 3 else ("spans", "plain")[index % 2]


def count_failures(rounds: list[dict]) -> tuple[int, int, list[str]]:
    """Ops attempted and failed over all rounds.  An op fails when it
    raised, failed its check, or produced other output than the checked
    first round."""
    reference = {op["name"]: op for op in rounds[0]["ops"]}
    attempted = failed = 0
    messages = []
    for index, rnd in enumerate(rounds):
        for op in rnd["ops"]:
            attempted += op["calls"]
            ref = reference[op["name"]]
            problem = op["error"] or ref["error"] or (
                op["digest"] != ref["digest"] and "output differs from the checked round")
            if problem:
                failed += op["calls"]
                messages.append(f"round {index} {op['name']}: {problem}")
    return attempted, failed, messages


def library_calls(rnd: dict) -> int:
    return sum(op["calls"] for op in rnd["ops"] if op["layer"] != "cli")


def end_to_end(rounds: list[dict], setups: list[tuple[float, float]]) -> dict:
    return {
        "wall_s": median([r["wall_ref_s"] for r in rounds]),
        "calls_per_s": median([library_calls(r) / r["wall_ref_s"] for r in rounds]),
        "cli_s": median([t for r in rounds for t in r["cli_ref_s"]]),
        "peak_rss_mb": median([r["rss_mb"] for r in rounds]),
        "setup_s": median([ref for _, ref in setups]),
    }


def layer_split(spans: list[dict], exponent, speed: float) -> dict:
    """Per-layer busy time and counts of one traced round; times are
    multiplied by ``speed``, the round's reference seconds per second."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def self_time(s):
        return (s["end"] - s["start"] - child_time.get(s["id"], 0.0)) * speed

    divisors = [s for s in spans if s["layer"] == "divisors"]
    series = [s for s in spans if s["layer"] == "series"]
    asympt = [s for s in spans if s["layer"] == "asympt"]
    out = {
        "divisors.s": sum(s["end"] - s["start"] for s in divisors) * speed,
        "divisors.calls": len(divisors),
        "divisors.entries": sum(s["entries"] for s in divisors),
        "asympt.calls": sum(s["entries"] for s in asympt),
        "asympt.self_s": sum(self_time(s) for s in asympt),
        "series.egf_size_exponent": 0.0,
    }
    for metric, prefixes in SERIES_SELF.items():
        out[metric] = sum(self_time(s) for s in series if s["name"].startswith(prefixes))
    if exponent:
        full, half = (next(self_time(s) for s in series if s["name"] == name) for name in exponent)
        out["series.egf_size_exponent"] = math.log(full / half, 2)
    return out


def per_layer(rounds: list[dict]) -> dict:
    plain = [r for r in rounds if r["mode"] == "plain"]
    traced = [r for r in rounds if r["mode"] == "spans"]
    memory = next(r for r in rounds if r["mode"] == "memory")
    splits = [layer_split(r["spans"], r["exponent"], r["wall_ref_s"] / r["wall_s"]) for r in traced]
    metrics = {name: median([s[name] for s in splits]) if isinstance(value, float) else value
               for name, value in splits[0].items()}
    calls = metrics["asympt.calls"]
    metrics["asympt.us_per_call"] = metrics["asympt.self_s"] / calls * 1e6 if calls else 0.0
    for layer in ("divisors", "series"):
        peaks = [s["peak_bytes"] for s in memory["spans"] if s["layer"] == layer]
        metrics[f"{layer}.tracemalloc_peak_mb"] = max(peaks, default=0) / 2**20
    first = rounds[0]
    metrics["series.terms"] = first["counts"]["terms"]
    metrics["series.max_bits"] = first["counts"]["max_bits"]
    metrics["series.serialize_bytes"] = first["counts"]["serialize_bytes"]
    metrics["series.digit_limit_errors"] = sum(v != "ok" for v in first["probes"].values())
    metrics["trace.overhead"] = (
        median([r["wall_ref_s"] for r in traced]) / median([r["wall_ref_s"] for r in plain]) - 1.0
    )
    return metrics


def write_spans(workload: str, seed: int, rounds: list[dict]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    payload = [{"round": i, "mode": r["mode"], "spans": r["spans"]}
               for i, r in enumerate(rounds) if "spans" in r]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return os.path.relpath(path, ROOT)


def _abbreviate(value):
    if isinstance(value, str) and len(value) > 40:
        return f"{value[:12]}... ({len(value)} chars)"
    if isinstance(value, list) and len(value) > 12:
        return f"[{value[0]}, {value[1]}, ..., {value[-1]}] ({len(value)} items)"
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "partition_forge", "__init__.py")):
        print(f"error: no partition_forge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    inputs = workloads.draw_inputs(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("inputs " + json.dumps({k: _abbreviate(v) for k, v in inputs.items()}))

    started = time.monotonic()
    rounds: list[dict] = []
    setups: list[tuple[float, float]] = []
    try:
        while len(rounds) < MIN_ROUNDS or time.monotonic() - started < args.seconds:
            last = time.monotonic() - round_started if rounds else 0.0
            if len(rounds) >= MIN_ROUNDS and time.monotonic() - started + 3 * last > RUN_LIMIT_S:
                break
            mode = schedule(bool(args.trace), len(rounds))
            round_started = time.monotonic()
            rounds.append(spawn(args.workload, args.seed, mode, "full" if not rounds else "digest"))
            if len(rounds) <= MIN_ROUNDS:
                setups += setup_samples(args.workload, args.seed, SETUP_EXTRA)
    except (RoundFailed, subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, messages = count_failures(rounds)
    modes = [r["mode"] for r in rounds]
    print(f"rounds {len(rounds)} ({', '.join(f'{m} {modes.count(m)}' for m in dict.fromkeys(modes))}); "
          f"set-up samples {len(setups)}; {time.monotonic() - started:.1f} s")
    for message in messages[:20]:
        print("FAILED " + message)
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.6g} "
          "(operations that raised or failed their check / operations attempted)")
    for name, outcome in rounds[0]["probes"].items():
        state = "ok" if outcome == "ok" else f"fails (known int/str digit-limit defect): {outcome}"
        print(f"probe {name}: {state}")

    if args.trace:
        metrics = per_layer(rounds)
        units = PER_LAYER_UNITS
        print("spans written to " + write_spans(args.workload, args.seed, rounds))
    else:
        metrics = end_to_end(rounds, setups)
        units = END_TO_END_UNITS
        samples = {
            "round wall": ([r["wall_s"] for r in rounds], [r["wall_ref_s"] for r in rounds]),
            "cli": ([t for r in rounds for t in r["cli_s"]], [t for r in rounds for t in r["cli_ref_s"]]),
            "set-up": ([raw for raw, _ in setups], [ref for _, ref in setups]),
        }
        for name, (raw, ref) in samples.items():
            print(f"  {name} samples, raw s: " + " ".join(f"{v:.4g}" for v in raw))
            print(f"  {name} samples, reference s: " + " ".join(f"{v:.4g}" for v in ref))
    for name, value in metrics.items():
        print(f"  {name:30s} {value:>16.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
