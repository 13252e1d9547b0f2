"""swingsim benchmark: end-to-end metrics of one workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every pass runs in a fresh interpreter started
by this script (see passrun.py). With --trace 0 the script first starts a few
set-up-only interpreters, then max(1, S // pass_s) untraced passes over the
workload's ops, pass_s being the workload's nominal pass wall (workloads.py):
a count fixed by the arguments, so that runs of one seed attempt the same
ops on a fast host and a slow one. With --trace 1
it runs one untraced and one traced pass (plus a serial pass for
campaign-jobs2) and reports per-layer metrics.

Times are reported at a reference host speed: a pass times a fixed kernel
between ops and scales op and wall times by how much faster or slower than
its reference time the kernel ran (see HostSpeed in passrun.py); the raw
host times are printed beside them.

Output: a line per metric with its unit and base, then, as the last line,
{"correct", "attempted", "failed", "metrics"} as JSON. Exit 1 when an
output check fails (the JSON still says so), 2 when the benchmark cannot run.
Artifacts land in .perfbench_out/, the spans of the latest traced run of a
workload in .perfbench_out/spans-<workload>.npz.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("realtime_factor", "ratio"),
    ("peak_rss_mb", "MB"),
]
SETUP_ONLY_PASSES = 5        # plus each measured pass's own set-up
TIME_LIMIT_S = 170.0         # whole run, every pass included
OUT = os.path.join(ROOT, ".perfbench_out")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def machine(load) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "loadavg_at_start": [round(x, 2) for x in load]}


def source_digest() -> str:
    """Digest of the swingsim sources, keying results cached across runs."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for fname in sorted(files):
            if fname.endswith(".py"):
                path = os.path.join(folder, fname)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


class Runner:
    """Starts passes in fresh interpreters within one time limit."""

    def __init__(self, workload: str, seed: int, out: str):
        self.workload, self.seed, self.out = workload, seed, out
        self.deadline = monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, **BLAS_ENV)

    def run(self, mode: str, tag: str, jobs=None) -> dict:
        folder = os.path.join(self.out, tag)
        cmd = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--out", folder]
        if jobs is not None:
            cmd += ["--jobs", str(jobs)]
        t_spawn = monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"pass {tag} did not finish within the {TIME_LIMIT_S:.0f} s limit")
        if proc.returncode != 0:
            raise BenchError(f"pass {tag} exited {proc.returncode}:\n{err[-3000:]}")
        with open(os.path.join(folder, "pass.json")) as fh:
            record = json.load(fh)
        record["setup_raw_s"] = record["t_ready"] - t_spawn
        record["setup_s"] = record["setup_raw_s"] * record["setup_speed"]
        return record


def end_to_end(setups: list, passes: list) -> tuple:
    """Times at the reference host speed (see HostSpeed in passrun.py); the
    notes give the raw host times beside them."""
    op_ms = [ns / 1e6 for p in passes for ns in p["op_ref_ns"]]
    raw_ms = [ns / 1e6 for p in passes for ns in p["op_ns"]]
    wall = sum(p["wall_ref_s"] for p in passes)
    raw_wall = sum(p["wall_s"] for p in passes)
    ops = sum(p["attempted"] for p in passes)
    n = len(op_ms)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
        "ops_per_s": ops / wall,
        "op_ms_p50": percentile(op_ms, 50),
        "op_ms_p90": percentile(op_ms, 90),
        "realtime_factor": sum(p["sim_s"] for p in passes) / wall,
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    raw_setup = statistics.median(s["setup_raw_s"] for s in setups)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups in fresh interpreters; raw {raw_setup:.4f}",
        "wall_s": f"median of {len(passes)} passes of {passes[0]['attempted']} ops; "
                  f"raw {statistics.median(p['wall_s'] for p in passes):.3f}",
        "ops_per_s": f"{ops} ops in {wall:.3f} s; raw {ops / raw_wall:.4f}",
        "op_ms_p50": f"n={n}; raw {percentile(raw_ms, 50):.3f}",
        "op_ms_p90": f"n={n}, {n - math.floor(0.90 * (n - 1)) - 1} samples beyond it; "
                     f"raw {percentile(raw_ms, 90):.3f}",
        "realtime_factor": f"simulated swing seconds per host second; "
                           f"raw {sum(p['sim_s'] for p in passes) / raw_wall:.4f}",
        "peak_rss_mb": "max over passes of the pass's peak RSS plus its largest child's",
    }
    return values, notes


def check_digests(workload: str, seed: int, passes: dict, errors: list) -> tuple:
    """Repeat passes must agree; a pool campaign must match the serial one.
    Returns the digests and what the pool campaign was compared with."""
    digests = passes["plain"][0]["digests"]
    for p in passes["plain"][1:] + passes.get("traced", []):
        if p["digests"] != digests:
            errors.append(f"{workload}: pass outputs differ ({p['digests']} vs {digests})")
    if not workload.startswith("campaign"):
        return digests, "no pool"
    cache = os.path.join(OUT, "serial-digests", f"{source_digest()}-seed{seed}.json")
    pool = WORKLOADS[workload]["jobs"] > 1
    serial = passes["serial"][0] if "serial" in passes else None if pool else passes["plain"][0]
    if serial is not None:
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        with open(cache, "w") as fh:
            json.dump(serial["digests"], fh)
    if not pool:
        return digests, "no pool"
    if not os.path.exists(cache):
        return digests, "serial re-run of 6 trials only; no serial campaign of this seed cached"
    with open(cache) as fh:
        reference = json.load(fh)
    if reference != digests:
        errors.append(f"{workload}: summary.json/trials.csv differ from the serial "
                      f"campaign of seed {seed}")
    return digests, "summary.json and trials.csv compared with the serial campaign"


def reference_note(workload: str, seed: int, digests: dict) -> str:
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    ref = reference.get(workload)
    if seed != DEFAULT_SEED or ref is None:
        return f"held-out seed {seed} (reference digests are for seed {DEFAULT_SEED})"
    same = ref == digests
    return (f"seed {seed} outputs {'match' if same else 'DIFFER from'} the committed "
            f"reference digests (perfbench/reference.json)")


def check_benchmark_json() -> None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as fh:
        spec = json.load(fh)
    declared = ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                [(m["name"], m["unit"]) for m in spec["per_layer"]],
                sorted(w["name"] for w in spec["workloads"]))
    if declared != (END_TO_END, PER_LAYER, sorted(WORKLOADS)):
        raise BenchError("BENCHMARK.json metrics or workloads disagree with perfbench/")


def measured_passes(workload: str, seconds: float) -> int:
    return max(1, int(seconds // WORKLOADS[workload]["pass_s"]))


def measure(args) -> tuple:
    out = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    runner = Runner(args.workload, args.seed, out)
    jobs = WORKLOADS[args.workload]["jobs"]
    passes, setups = {"plain": []}, []
    if args.trace:
        passes["plain"].append(runner.run("plain", "plain"))
        passes["traced"] = [runner.run("traced", "traced")]
        if jobs > 1:
            passes["serial"] = [runner.run("plain", "serial", jobs=1)]
    else:
        setups = [runner.run("setup", f"setup{k}") for k in range(SETUP_ONLY_PASSES)]
        for k in range(measured_passes(args.workload, args.seconds)):
            p = runner.run("plain", f"plain{k}")
            passes["plain"].append(p)
            setups.append(p)
    return passes, setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="swingsim benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "swingsim", "__init__.py")):
        print(f"perfbench: no swingsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    load = os.getloadavg()
    try:
        check_benchmark_json()
        passes, setups = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    plain = passes["plain"]
    errors = [e for group in passes.values() for p in group for e in p["errors"]]
    digests, serial_check = check_digests(args.workload, args.seed, passes, errors)
    if args.trace:
        layer = passes["traced"][0]["layer"]
        values, notes = dict(layer["values"]), dict(layer["notes"])
        # walls at the reference host speed, except for parallel efficiency:
        # scaling a pool pass also takes out the workers' contention
        traced_wall, plain_wall = passes["traced"][0]["wall_ref_s"], plain[0]["wall_ref_s"]
        values["tracing.overhead_ratio"] = traced_wall / plain_wall
        notes["tracing.overhead_ratio"] = f"{traced_wall:.3f} s traced / {plain_wall:.3f} s"
        if "serial" in passes:
            serial_wall, plain_wall = passes["serial"][0]["wall_s"], plain[0]["wall_s"]
            jobs = WORKLOADS[args.workload]["jobs"]
            values["sim_harness.run_campaign.parallel_efficiency"] = \
                serial_wall / (jobs * plain_wall)
            notes["sim_harness.run_campaign.parallel_efficiency"] = \
                f"{serial_wall:.3f} s serial / ({jobs} x {plain_wall:.3f} s)"
        else:
            values["sim_harness.run_campaign.parallel_efficiency"] = 0.0
            notes["sim_harness.run_campaign.parallel_efficiency"] = "no pool on this workload"
        declared = PER_LAYER
        attempted, failed = plain[0]["attempted"], plain[0]["failed"]
    else:
        values, notes = end_to_end(setups, plain)
        declared = END_TO_END
        attempted = sum(p["attempted"] for p in plain)
        failed = sum(p["failed"] for p in plain)

    info = {"workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
            "trace": args.trace, "passes": {k: len(v) for k, v in passes.items()},
            "host_speed": [round(p["speed"], 4) for group in passes.values() for p in group],
            "machine": dict(machine(load), **plain[0]["versions"]),
            "digests": digests, "reference": reference_note(args.workload, args.seed, digests),
            "serial_check": serial_check,
            "checks": errors or ["all passed"], "notes": plain[0]["notes"]}
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    print(f"# fail_ratio: {failed / attempted:.6f} ({failed} failed / {attempted} attempted)")
    for name, unit in declared:
        print(f"{name:<48} {values[name]:>14.6f} {unit:<10} {notes.get(name, '')}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in declared}}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}",
                           "result.json"), "w") as fh:
        json.dump(dict(info, result=result, notes_per_metric=notes), fh, indent=2)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
