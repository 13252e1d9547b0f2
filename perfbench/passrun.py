"""One pass of a benchmark workload in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --mode MODE --out DIR

MODE is `setup` (import swingsim and build the inputs, then stop), `plain`
(run every op with tracing off) or `traced` (run every op with spans on).
The pass writes DIR/pass.json; perfbench/run.py starts the passes and turns
them into metrics. A fresh interpreter per pass keeps imports and the
planner's lru_cache from carrying over from an earlier pass.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import resource
import shutil
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

from tracer import NAME_ID, Tracer, layer_metrics  # noqa: E402  (sibling modules)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

CAMPAIGN_TRIALS = 210
# perceive-grid scene mix
EMPTY_SHARE = 1.0 / 6.0
NOISY_SHARE = 1.0 / 3.0
NOISE_SIGMA = 0.003            # m along the ray
GRID_HEIGHTS = (0.02, 0.20)    # m
GRID_DISTANCES = (0.15, 0.90)  # m ahead of the capture toe
CHECKED_DISTANCE = 0.70        # criterion 5 covers boxes up to here
Z_TOL, X_TOL = 0.005, 0.020    # criterion 5 tolerances, m
# run-steplog scenario mix (campaign proportions; half with tracking lag)
LAG_SHARE = 0.5
LAG_TAU = (0.005, 0.030)       # s


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_swingsim():
    sys.path.insert(0, SRC)
    import swingsim
    from swingsim import cli  # noqa: F401  (imports every module)

    if not os.path.abspath(swingsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"swingsim imported from {swingsim.__file__}, not {SRC}")
    modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
               if name.startswith("swingsim.")}
    return swingsim, modules


# -- inputs -----------------------------------------------------------------


def shuffled_flags(rng: random.Random, n: int, share: float) -> list:
    """Exactly round(share * n) True values in seeded order, so that the mix,
    and with it the work of a pass, does not vary with the seed."""
    k = round(share * n)
    flags = [True] * k + [False] * (n - k)
    rng.shuffle(flags)
    return flags


def grid_scenes(m, seed: int, n: int) -> list:
    """Seeded perception scenes: empty ground or one box, some with noise."""
    sh, per, hm = m["sim_harness"], m["perception"], m["human_model"]
    rng = random.Random(seed)
    toe = {}
    scenes = []
    mix = zip(shuffled_flags(rng, n, EMPTY_SHARE), shuffled_flags(rng, n, NOISY_SHARE))
    for empty, noisy in mix:
        h = rng.uniform(*GRID_HEIGHTS)
        d = rng.uniform(*GRID_DISTANCES)
        seeds = (rng.getrandbits(32), rng.getrandbits(32))
        intent = hm.GaitIntent.LEVEL if empty else hm.GaitIntent.STEP_OVER
        base = sh.TrialConfig(intent=intent, camera=per.CameraModel(
            depth_noise_sigma=NOISE_SIGMA if noisy else 0.0))
        if intent not in toe:
            toe[intent] = sh.capture_state(base)[1].toe
        boxes = () if empty else (per.Box(front_x=toe[intent][0] + d, height=h,
                                          depth=0.15, width=0.40),)
        cfg = replace(base, scene=per.ObstacleScene(boxes=boxes))
        scenes.append((cfg, seeds, {"empty": empty, "noisy": noisy, "h": h, "d": d}))
    return scenes


def steplog_scenarios(m, seed: int, n: int, folder: str) -> list:
    """Seeded scenario files in the campaign's intent and obstacle mix."""
    sh, hm = m["sim_harness"], m["human_model"]
    cc = sh.CampaignConfig()
    total = cc.n_step_over + cc.n_step_on + cc.n_level
    toe_x = {i.value: sh.capture_state(sh.TrialConfig(intent=i))[1].toe[0]
             for i in hm.GaitIntent}
    rng = random.Random(seed)
    n_over = round(n * cc.n_step_over / total)
    n_on = round(n * cc.n_step_on / total)
    intents = ["step_over"] * n_over + ["step_on"] * n_on + ["level"] * (n - n_over - n_on)
    rng.shuffle(intents)
    os.makedirs(folder, exist_ok=True)
    paths = []
    for k, (intent, lagged) in enumerate(zip(intents, shuffled_flags(rng, n, LAG_SHARE))):
        tau = rng.uniform(*LAG_TAU)
        h = rng.choice(cc.heights)
        d_over = rng.uniform(*cc.distance_range)
        d_on = rng.uniform(*cc.step_on_distance_range)
        trial_seed = rng.getrandbits(32)
        box = {"step_over": (h, d_over), "step_on": (cc.step_on_height, d_on),
               "level": None}[intent]
        boxes = [] if box is None else [{
            "front_x_m": toe_x[intent] + box[1], "height_m": box[0],
            "depth_m": cc.box_depth, "width_m": cc.box_width}]
        scenario = {"human": {"intent": intent}, "scene": {"boxes": boxes},
                    "trial": {"seed": trial_seed, "tau_s": tau if lagged else 0.0}}
        path = os.path.join(folder, f"{k:03d}.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        paths.append(path)
    return paths


def build_inputs(workload: str, seed: int, m, out: str):
    if workload.startswith("campaign"):
        return m["sim_harness"].CampaignConfig.reproduction_profile(seed=seed)
    n = WORKLOADS[workload]["ops"]
    if workload == "perceive-grid":
        return grid_scenes(m, seed, n)
    return steplog_scenarios(m, seed, n, os.path.join(out, "scenarios"))


# -- op timing at a reference host speed ------------------------------------


class HostSpeed:
    """A fixed reference kernel, timed before every op and after the last.

    On a shared host the same op runs tens of percent slower from one second
    to the next. This kernel mixes what the workloads do, k-means-style numpy
    and scalar math in a Python loop, and slows with them: over blocks of 15
    ops the op/kernel ratio varied 2-5% where the raw op time varied 11-15%.
    An op of raw time t between kernel times k0 and k1 is reported as
    t * REF_NS / ((k0 + k1) / 2), its time at the host speed where the kernel
    takes REF_NS (the kernel's median on the baseline machine).
    """

    REF_NS = 5_500_000

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np = np
        self.points = rng.random((500, 2))
        self.centers = rng.random((50, 2))

    def time_kernel(self) -> int:
        np, pts = self.np, self.points
        t0 = time.perf_counter_ns()
        centers = self.centers.copy()
        for _ in range(2):
            d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
            near = np.argmin(d2, axis=1)
            for j in range(len(centers)):
                sel = near == j
                if sel.any():
                    centers[j] = pts[sel].mean(axis=0)
        x = 0.0
        for i in range(4000):
            x += math.sin(i * 1e-3) * math.cos(i * 2e-3)
        return time.perf_counter_ns() - t0


class OpClock:
    """Raw op times of one process, each preceded by a kernel time."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.kernels, self.ops = [], []

    def run(self, fn, *args):
        self.kernels.append(self.speed.time_kernel())
        t0 = time.perf_counter_ns()
        out = fn(*args)
        self.ops.append(time.perf_counter_ns() - t0)
        return out

    def close(self) -> None:
        self.kernels.append(self.speed.time_kernel())


def time_run_swing(sh, clock: OpClock, folder: str) -> None:
    """Time each trial of a campaign by wrapping sim_harness.run_swing.

    Pool workers are forked and inherit the wrapper. Each times the kernel
    and its trials itself, beside the other worker as the trials run, and
    appends both to a per-worker file, read back by `worker_clocks`.
    """
    inner, pid = sh.run_swing, os.getpid()

    def timed(cfg):
        if os.getpid() == pid:
            return clock.run(inner, cfg)
        worker = OpClock(clock.speed)
        out = worker.run(inner, cfg)
        with open(os.path.join(folder, f"ops-{os.getpid()}.txt"), "a") as fh:
            fh.write(f"{worker.kernels[0]} {worker.ops[0]}\n")
        return out

    sh.run_swing = timed


def worker_clocks(folder: str) -> list:
    clocks = []
    for fname in sorted(os.listdir(folder)):
        if fname.startswith("ops-"):
            clock = OpClock(None)
            with open(os.path.join(folder, fname)) as fh:
                for line in fh:
                    kernel, op = line.split()
                    clock.kernels.append(int(kernel))
                    clock.ops.append(int(op))
            clocks.append(clock)
    return clocks


def timing(clocks: list, wall: float, jobs: int) -> dict:
    """Raw and reference-speed op times and wall time of a pass.

    Each op is scaled by the kernel times on either side of it in its own
    process (a pool worker's last op only has the one before). `wall`
    includes the kernels run before each op; they are taken out, shared
    between the pool's workers, before scaling.
    """
    op_ns, op_ref_ns, kernel_in_wall, weighted = [], [], 0, 0.0
    for c in clocks:
        k = c.kernels
        kernel_in_wall += sum(k[:len(c.ops)])
        for i, op in enumerate(c.ops):
            around = (k[i] + k[i + 1]) / 2 if i + 1 < len(k) else k[i]
            op_ns.append(op)
            op_ref_ns.append(op * HostSpeed.REF_NS / around)
            weighted += op * around
    speed = HostSpeed.REF_NS * sum(op_ns) / weighted     # > 1: host faster than reference
    wall -= kernel_in_wall / 1e9 / jobs
    return {"op_ns": op_ns, "op_ref_ns": op_ref_ns, "wall_s": wall,
            "wall_ref_s": wall * speed, "speed": speed}


# -- passes -----------------------------------------------------------------


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_campaign_pass(m, cc, jobs: int, out: str, seed: int, traced: bool,
                      speed: HostSpeed) -> dict:
    sh = m["sim_harness"]
    clock = OpClock(speed)
    time_run_swing(sh, clock, out)
    t0 = monotonic()
    res = sh.run_campaign(cc, jobs=jobs)
    wall = monotonic() - t0
    clock.close()
    timed = timing([clock] if jobs == 1 else worker_clocks(out), wall, jobs)

    summary_path = os.path.join(out, "summary.json")
    with open(summary_path, "w") as fh:
        fh.write(sh.summary_json(res.summary) + "\n")
    trials_path = os.path.join(out, "trials.csv")
    sh.write_trial_index_csv(trials_path, res.specs, res.results)

    errors = []
    ok = sum(1 for r in res.results if r.outcome in sh.SUCCESSES)
    if len(res.results) != CAMPAIGN_TRIALS:
        errors.append(f"campaign ran {len(res.results)} trials, expected {CAMPAIGN_TRIALS}")
    if seed == DEFAULT_SEED and ok != len(res.results):
        errors.append(f"campaign seed {seed}: {ok}/{len(res.results)} successful, "
                      f"the paper's result is {CAMPAIGN_TRIALS}/{CAMPAIGN_TRIALS}")
    if len(timed["op_ns"]) != len(res.results):
        errors.append(f"timed {len(timed['op_ns'])} trials of {len(res.results)}")
    if jobs > 1 and not traced:
        errors += spot_check(sh, cc, res)
    return {
        **timed, "attempted": len(res.results),
        "failed": len(res.results) - ok, "errors": errors,
        "sim_s": sum(r.swing_duration for r in res.results),
        "digests": {"summary.json": sha256_files([summary_path]),
                    "trials.csv": sha256_files([trials_path])},
        "notes": {"successes": f"{ok}/{len(res.results)}"},
    }


def spot_check(sh, cc, res) -> list:
    """Re-run the first and last trial of each intent serially and require
    results equal to the pool's."""
    by_intent = {}
    for spec in res.specs:
        by_intent.setdefault(spec.intent, []).append(spec)
    errors = []
    for specs in by_intent.values():
        for spec in {specs[0].index: specs[0], specs[-1].index: specs[-1]}.values():
            _, serial = sh.run_swing(sh.trial_config_for(cc, spec))
            if serial != res.results[spec.index]:
                errors.append(f"trial {spec.index}: pool result differs from serial")
    return errors


def run_grid_pass(m, scenes, speed: HostSpeed) -> dict:
    sh, hm = m["sim_harness"], m["human_model"]
    clock = OpClock(speed)
    t0 = monotonic()
    outs = [clock.run(sh.perceive, cfg, s_capture, s_kmeans)
            for cfg, (s_capture, s_kmeans), _ in scenes]
    wall = monotonic() - t0
    clock.close()

    errors, failed, checked = [], 0, 0
    digest = hashlib.sha256()
    for k, ((cfg, _, meta), (target, kps, _, toe)) in enumerate(zip(scenes, outs)):
        digest.update(repr((target.z_m, target.x_c, toe,
                            kps.keypoints if kps else None)).encode())
        delta = cfg.planner.delta
        if not (abs(target.z_m) < 1.0 and abs(target.x_c) < 2.0):
            errors.append(f"scene {k}: target out of range {target}")
        elif target.z_m < toe[1] + delta - 1e-12:
            errors.append(f"scene {k}: z_m {target.z_m} below toe + delta")
        if meta["noisy"]:
            continue
        if meta["empty"]:
            checked += 1
            failed += not (target.x_c == 0.20 and target.z_m == toe[1] + delta)
        elif meta["d"] <= CHECKED_DISTANCE:
            checked += 1
            failed += not (abs(target.z_m - (meta["h"] + delta)) <= Z_TOL
                           and abs(target.x_c - meta["d"]) <= X_TOL)
    return {
        **timing([clock], wall, 1), "attempted": len(scenes), "failed": failed,
        "errors": errors,
        "sim_s": sum(hm.preset(cfg.intent).swing_duration for cfg, _, _ in scenes),
        "digests": {"targets": digest.hexdigest()},
        "notes": {"accuracy": f"{checked - failed}/{checked} noise-free scenes "
                              f"within criterion 5 tolerances"},
    }


def run_steplog_pass(m, paths, out: str, speed: HostSpeed) -> dict:
    cli = m["cli"]
    sh = m["sim_harness"]
    runs = os.path.join(out, "runs")
    clock = OpClock(speed)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = monotonic()
        codes = [clock.run(cli.main, ["--out", os.path.join(runs, f"{k:03d}"), "run", path])
                 for k, path in enumerate(paths)]
        wall = monotonic() - t0
    clock.close()

    errors, failed, sim_s = [], 0, 0.0
    digest = hashlib.sha256()
    successes = {o.value for o in sh.SUCCESSES}
    for k, code in enumerate(codes):
        run = os.path.join(runs, f"{k:03d}")
        if code != 0:
            errors.append(f"scenario {k}: cli exit {code}")
            continue
        with open(os.path.join(run, "result.json")) as fh:
            result = json.load(fh)
        with open(os.path.join(run, "steplog.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        ticks = round(result["swing_duration_s"] / 0.001)
        if rows != ticks:
            errors.append(f"scenario {k}: {rows} steplog rows for {ticks} ticks")
        failed += result["outcome"] not in successes
        sim_s += result["swing_duration_s"]
        digest.update(sha256_files([os.path.join(run, "steplog.csv"),
                                    os.path.join(run, "result.json")]).encode())
    shutil.rmtree(runs, ignore_errors=True)
    return {
        **timing([clock], wall, 1), "attempted": len(paths), "failed": failed,
        "errors": errors, "sim_s": sim_s, "digests": {"steplog+result": digest.hexdigest()},
        "notes": {},
    }


def versions() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    ap.add_argument("--jobs", type=int, default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    package, modules = import_swingsim()
    inputs = build_inputs(args.workload, args.seed, modules, args.out)
    record = {"t_ready": monotonic()}
    speed = HostSpeed()
    kernels = sorted(speed.time_kernel() for _ in range(3))
    record["setup_speed"] = HostSpeed.REF_NS / kernels[1]
    if args.mode != "setup":
        traced = args.mode == "traced"
        if traced:
            tracer = Tracer(args.out)
            tracer.install(package, modules)
        jobs = args.jobs or WORKLOADS[args.workload]["jobs"]
        if args.workload.startswith("campaign"):
            record.update(run_campaign_pass(modules, inputs, jobs, args.out, args.seed, traced,
                                            speed))
        elif args.workload == "perceive-grid":
            record.update(run_grid_pass(modules, inputs, speed))
        else:
            record.update(run_steplog_pass(modules, inputs, args.out, speed))
        if traced:
            record["layer"] = trace_report(tracer, args.workload, args.out, record["errors"])
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        record["rss_mb"] = (self_kb + child_kb) / 1024.0
        record["versions"] = versions()
    with open(os.path.join(args.out, "pass.json"), "w") as fh:
        json.dump(record, fh)
    return 0


def trace_report(tracer, workload: str, out: str, errors: list) -> dict:
    import numpy as np

    spans = tracer.collect()
    counts = np.bincount(spans.name, minlength=len(NAME_ID))
    for name in WORKLOADS[workload]["exercised"]:
        if counts[NAME_ID[name]] == 0:
            errors.append(f"traced layer {name} recorded no calls on {workload}")
    for name in WORKLOADS[workload]["idle"]:
        if counts[NAME_ID[name]]:
            errors.append(f"traced layer {name} recorded calls on {workload}, which bypasses it")
    values, notes = layer_metrics(spans)
    # one span file per workload, replaced by each traced run
    spans.save(os.path.join(os.path.dirname(os.path.dirname(out)), f"spans-{workload}.npz"))
    return {"values": values, "notes": notes}


if __name__ == "__main__":
    sys.exit(main())
