#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads, every output checked.

    python3 perfbench/run.py --workload fig1_device|serve_open \\
        --seed N --seconds S --trace 0|1

Builds the measuring program (kbench) from the checkout's sources into
.bench_build/perfbench, runs one workload, and prints two JSON lines on
stdout: a full record (provenance, sample counts, which percentile each
latency metric reports, the traced run's own end-to-end numbers), then the
result line {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics. Build
output and diagnostics go to stderr. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
KBENCH = BUILD / "kbench"

WORKLOADS = ("fig1_device", "serve_open")

# name -> unit; BENCHMARK.json lists the same names (test_stats.py checks).
# p90 and p99 are in every record but not here: on a 4-vCPU VM with CPU
# steal, their run-to-run spread on serve_open exceeds any allowed bound
# (README.md).
END_TO_END = {
    "select_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "data.dgp_ms": "ms",
    "serve.registry_datasets": "count",
    "sort.global_sort_ms": "ms",
    "core.admission_ms": "ms",
    "core.admitted_elems": "count",
    "core.device_melem_s": "Melem/s",
    "core.host_tiled_ms": "ms",
    "core.host_seq_ms": "ms",
    "core.contig_rate": "ratio",
    "spmd.launches": "count",
    "spmd.coop_launches": "count",
    "spmd.lane_dispatches": "count",
    "spmd.global_peak_bytes": "bytes",
    "spmd.device_over_host": "ratio",
    "parallel.efficiency": "ratio",
    "serve.parse_us": "us",
    "serve.job_build_us": "us",
    "serve.submit_us": "us",
    "serve.format_us": "us",
    "serve.hit_rate": "ratio",
    "serve.coalesced": "count",
    "serve.co_scheduled": "count",
    "serve.deferrals": "count",
    "serve.solo_overrides": "count",
    "serve.jobs_per_wave": "count",
    "serve.evictions": "count",
    "serve.hit_p50_ms": "ms",
    "serve.miss_p50_ms": "ms",
    "serve.service_p50_ms": "ms",
    "serve.wait_p50_ms": "ms",
    "serve.wait_p99_ms": "ms",
    "serve.gen_lag_p99_ms": "ms",
}
PER_LAYER.update({"trace_delta." + k: u for k, u in END_TO_END.items()})

KBENCH_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "core" / "job.hpp").is_file():
        raise RuntimeError(f"kreg sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", "-DKREG_NATIVE=ON"],
            check=True, stdout=sys.stderr, timeout=600)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=1500)


def source_digest():
    """sha256 over the library and benchmark sources: names the exact code
    measured even in a checkout without git metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py")]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_steal_ticks():
    """Host CPU time stolen from this VM so far (USER_HZ ticks), or None."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def provenance(raw, seed):
    return {
        "commit": commit(),
        "source_digest": source_digest(),
        "compiler": raw["compiler"],
        "build_flags": raw["build_flags"],
        "build_type": raw["build_type"],
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "pool_threads": raw["pool_threads"],
        "seed": seed,
        "held_out_seed": raw["held_out_seed"],
    }


def latency_samples(raw):
    """Per-sample latency (ms) in run order: closed-loop samples as timed,
    open-loop samples from due time to formatted response."""
    if raw["kind"] == "closed":
        return raw["latency_ms"]
    latency, _ = stats.open_loop_latency(raw["due_ms"], raw["sent_ms"],
                                         raw["done_ms"])
    return latency


def statuses(raw):
    """Every checked outcome of a run: the timed samples, then (serve_open)
    the saturation phase's."""
    return raw["status"] + raw.get("saturation_status", [])


def end_to_end(raw, mask=None, setup_mask=None):
    """The end-to-end metrics of one run, or of the samples whose `traced`
    flag equals `mask` (and set-up and saturation repetitions whose flag
    equals `setup_mask`; the cold first set-up is in neither).
    Returns (metrics, percentile reports)."""
    latency = latency_samples(raw)
    status = raw["status"]
    if mask is not None:
        latency = stats.select(latency, raw["traced"], mask)
        status = stats.select(status, raw["traced"], mask)
    ok_latency = [v for v, s in zip(latency, status) if s == stats.OK]
    reports = {q: stats.percentile(ok_latency or latency, q) for q in (50, 90, 99)}
    ok = len(ok_latency)
    if raw["kind"] == "closed":
        # One caller: completed selects per second of select time.
        busy_s = sum(latency) / 1000.0
        throughput = ok / busy_s if mask is not None else ok / raw["elapsed_s"]
    else:
        # The open loop's rate is the offered rate; throughput comes from
        # the saturation phase over the same population.
        rates = [ok / s for ok, s in zip(raw["saturation_ok"],
                                         raw["saturation_s"])]
        if setup_mask is not None:
            rates = stats.select(rates, raw["saturation_traced"], setup_mask)
        throughput = stats.median(rates)
    setup = raw["setup_s"]
    if setup_mask is not None:
        setup = stats.select(setup, raw["setup_traced"], setup_mask)
    metrics = {
        "select_p50_ms": reports[50]["value"],
        "throughput_per_s": throughput,
        "setup_s": stats.median(setup),
        "peak_rss_mib": raw["peak_rss_kib"] / 1024.0,
    }
    return metrics, reports


def per_layer(raw, e2e):
    """Per-layer metrics of a traced run. Layers a workload bypasses read 0
    (the record lists them under "bypassed")."""
    layers = dict(raw["layers"])
    if raw["kind"] == "closed":
        p50_ms = e2e["select_p50_ms"]
        layers["core.device_melem_s"] = (
            layers["core.admitted_elems"] / (p50_ms / 1000.0) / 1e6)
        layers["spmd.device_over_host"] = p50_ms / layers["core.host_tiled_ms"]
        layers["parallel.efficiency"] = layers["core.host_seq_ms"] / (
            layers["core.host_tiled_ms"] * raw["pool_threads"])
    else:
        traced = raw["traced"]
        for name in ("parse_us", "job_build_us", "submit_us", "format_us"):
            layers["serve." + name] = stats.median(
                stats.select(raw[name], traced))
        latency, lag = stats.open_loop_latency(raw["due_ms"], raw["sent_ms"],
                                               raw["done_ms"])
        ok = [s == stats.OK for s in raw["status"]]
        hits = [v for v, h, g in zip(latency, raw["hit"], ok) if g and h]
        misses = [v for v, h, g in zip(latency, raw["hit"], ok) if g and not h]
        service = [s for s, h, g in zip(raw["service_ms"], raw["hit"], ok)
                   if g and not h]
        wait = [v - (s if not h else 0.0) for v, s, h, g in
                zip(latency, raw["service_ms"], raw["hit"], ok) if g]
        layers["serve.hit_p50_ms"] = stats.median(hits)
        layers["serve.miss_p50_ms"] = stats.median(misses)
        layers["serve.service_p50_ms"] = stats.median(service)
        layers["serve.wait_p50_ms"] = stats.percentile(wait, 50)["value"]
        layers["serve.wait_p99_ms"] = stats.percentile(wait, 99)["value"]
        layers["serve.gen_lag_p99_ms"] = stats.percentile(lag, 99)["value"]
    traced_e2e, _ = end_to_end(raw, mask=1, setup_mask=1)
    untraced_e2e, _ = end_to_end(raw, mask=0, setup_mask=0)
    for name in END_TO_END:
        layers["trace_delta." + name] = traced_e2e[name] - untraced_e2e[name]
    # What the probe phase, run after the timed loop and the checks, adds
    # to the process's peak RSS.
    layers["trace_delta.peak_rss_mib"] = (
        raw["peak_rss_kib_end"] - raw["peak_rss_kib_checked"]) / 1024.0
    bypassed = sorted(name for name in PER_LAYER if name not in layers)
    metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
    return metrics, bypassed, traced_e2e, untraced_e2e


def run(args):
    build()
    command = [str(KBENCH), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    log("running " + " ".join(command[1:]))
    steal_before = cpu_steal_ticks()
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=KBENCH_TIMEOUT_S)
    steal_after = cpu_steal_ticks()
    if proc.returncode < 0:
        raise RuntimeError(f"kbench died of signal {-proc.returncode}")
    if proc.returncode != 0:
        raise RuntimeError(f"kbench exited with code {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed = stats.failures(statuses(raw))
    correct = failed == 0 and not raw["check_failures"]
    e2e, reports = end_to_end(raw)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "loop": "open" if raw["kind"] == "open" else "closed",
        "provenance": provenance(raw, args.seed),
        # Steal is the noise floor of a shared VM: read spreads against it.
        "cpu_steal_s": (None if steal_before is None or steal_after is None
                        else (steal_after - steal_before)
                        / os.sysconf("SC_CLK_TCK")),
        "samples": len(raw["status"]),
        "percentiles": {f"select_p{q}_ms": r for q, r in reports.items()},
        "failed_frac": stats.failed_frac(statuses(raw)),
        "program_to_first_s": raw["program_to_first_s"],
        "check_failures": raw["check_failures"],
        "end_to_end": e2e,
    }
    if raw["kind"] == "open":
        record["offered_rate_per_s"] = raw["offered_rate_per_s"]
        record["saturation_s"] = raw["saturation_s"]
        record["distinct_lines"] = raw["distinct_lines"]
    if args.trace:
        metrics, bypassed, traced_e2e, untraced_e2e = per_layer(raw, e2e)
        record["traced_end_to_end"] = traced_e2e
        record["untraced_end_to_end"] = untraced_e2e
        record["bypassed"] = bypassed
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    for message in raw["check_failures"]:
        log("check failed: " + message)
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        run(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(f"error: {error}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
