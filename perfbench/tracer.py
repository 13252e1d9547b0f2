"""Span tracer for the benchmark's traced passes.

The tracer replaces module attributes of swingsim with timing wrappers. A
name is bound at import time (`from .leg_kinematics import forward_points`
copies the reference), so every site where a traced function is bound is
patched, and `install` fails when a listed site is missing or when some
swingsim module holds an unwrapped reference to a traced function.

A span has a name (`<module>.<function>`), a start, an end, the index of its
parent span and a trial id. Spans live in typed arrays in memory. In a pool
worker (forked, so it inherits the wrappers) each finished trial is appended
to a per-worker file, because the pool terminates its workers without
running exit hooks; the pass merges those files with its own spans and
writes the result once at the end.
"""
from __future__ import annotations

import os
import pickle
import time
from array import array
from functools import update_wrapper

# span name -> every (module, attribute) site that binds it; "" is the
# swingsim package itself, "sim_harness.StepLog" a class attribute.
SITES = {
    "cli.main": [("cli", "main")],
    "config.load_scenario": [("config", "load_scenario"), ("cli", "load_scenario")],
    "config.parse_scenario": [("config", "parse_scenario")],
    "sim_harness.run_campaign": [("sim_harness", "run_campaign"), ("cli", "run_campaign"),
                                 ("", "run_campaign")],
    "sim_harness.run_swing": [("sim_harness", "run_swing"), ("cli", "run_swing"),
                              ("", "run_swing")],
    "sim_harness.perceive": [("sim_harness", "perceive"), ("cli", "perceive")],
    "sim_harness.capture_state": [("sim_harness", "capture_state"), ("cli", "capture_state")],
    "sim_harness.contact_check": [("sim_harness", "contact_check")],
    "sim_harness.StepLog.write_csv": [("sim_harness.StepLog", "write_csv")],
    "perception.camera_pose_from_thigh": [("perception", "camera_pose_from_thigh"),
                                          ("sim_harness", "camera_pose_from_thigh")],
    "perception.capture": [("perception", "capture"), ("sim_harness", "capture")],
    "perception.crop_and_project": [("perception", "crop_and_project"),
                                    ("sim_harness", "crop_and_project")],
    "perception.elevation_keypoints": [("perception", "elevation_keypoints"),
                                       ("sim_harness", "elevation_keypoints")],
    "perception.kmeans_prune": [("perception", "kmeans_prune")],
    "perception.extract_estimate": [("perception", "extract_estimate"),
                                    ("sim_harness", "extract_estimate")],
    "perception.control_modify": [("perception", "control_modify"),
                                  ("sim_harness", "control_modify")],
    "swing_planner.planner_step": [("swing_planner", "planner_step"),
                                   ("sim_harness", "planner_step")],
    "swing_planner.phase1_velocity": [("swing_planner", "phase1_velocity")],
    "swing_planner.phase2_velocity": [("swing_planner", "phase2_velocity")],
    "swing_planner.phase3_velocity": [("swing_planner", "phase3_velocity")],
    "swing_planner.mz_boundary_knee": [("swing_planner", "mz_boundary_knee")],
    "swing_planner.mx_exit_distance": [("swing_planner", "mx_exit_distance")],
    "swing_planner.mz_peak": [("swing_planner", "mz_peak")],
    "human_model.hip_pose": [("human_model", "hip_pose"), ("", "hip_pose")],
    "leg_kinematics.forward_points": [("leg_kinematics", "forward_points"),
                                      ("sim_harness", "forward_points"),
                                      ("swing_planner", "forward_points"),
                                      ("", "forward_points")],
}
NAMES = list(SITES)
NAME_ID = {name: i for i, name in enumerate(NAMES)}

# A span of one of these, opened while no other is open, starts a new trial
# (one op of the workload).
ROOTS = ("cli.main", "sim_harness.run_swing", "sim_harness.perceive")

PHASES = ("ONE", "TWO", "THREE_TANGENT", "THREE_CONVERGE", "THREE_MIRROR")
INTENTS = ("level", "step_over", "step_on")
MODULES = ("perception", "swing_planner", "human_model", "leg_kinematics", "sim_harness",
           "config", "cli")


class TraceSetupError(RuntimeError):
    """A traced name or import site is missing, or one was left unwrapped."""


def _resolve(package, modules, owner: str):
    if owner == "":
        return package
    mod, _, cls = owner.partition(".")
    try:
        obj = modules[mod]
        return getattr(obj, cls) if cls else obj
    except (KeyError, AttributeError) as exc:
        raise TraceSetupError(f"swingsim.{owner}: not found") from exc


class Tracer:
    """Records spans for every name in SITES once `install` has run."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.in_worker = False
        self.name = array("i")
        self.parent = array("i")
        self.trial_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.phase = array("b")        # one per planner_step span, in order
        self.kmeans_in = array("i")    # profile points per elevation_keypoints span
        self.kmeans_out = array("i")   # keypoints per elevation_keypoints span
        # (trial id, root span index, intent code, cache hits, cache misses)
        self.trials = []
        self.trial = -1
        self.open_roots = 0
        self._trial_row = None
        self._cache_info = None

    # -- installation -----------------------------------------------------

    def install(self, package, modules: dict) -> None:
        """Wrap every site in SITES. `modules` maps a short module name
        ("sim_harness", ...) to the imported swingsim module."""
        self._cache_info = modules["swing_planner"]._peak_cached.cache_info
        originals = {}
        for name, sites in SITES.items():
            owner0, attr0 = sites[0]
            fn = getattr(_resolve(package, modules, owner0), attr0, None)
            if not callable(fn):
                raise TraceSetupError(f"swingsim.{owner0}.{attr0}: traced name is missing")
            wrapped = self._wrap(fn, name)
            originals[id(fn)] = name
            for owner, attr in sites:
                obj = _resolve(package, modules, owner)
                if not hasattr(obj, attr):
                    raise TraceSetupError(f"swingsim.{owner}.{attr}: import site is missing")
                setattr(obj, attr, wrapped)
        for modname, mod in [("", package)] + sorted(modules.items()):
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    raise TraceSetupError(
                        f"swingsim.{modname}.{attr}: unwrapped import site of "
                        f"{originals[id(value)]}")

    def _wrap(self, fn, name: str):
        nid = NAME_ID[name]
        names, parents, trials = self.name, self.parent, self.trial_of
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tr = self

        if name in ROOTS:
            def traced(*args, **kwargs):
                if tr.open_roots == 0:
                    tr._begin_trial()
                tr.open_roots += 1
                if args and hasattr(args[0], "intent"):
                    tr._trial_row[2] = INTENTS.index(args[0].intent.value)
                try:
                    return span(*args, **kwargs)
                finally:
                    tr.open_roots -= 1
                    if tr.open_roots == 0:
                        tr._end_trial()
        elif name == "swing_planner.planner_step":
            phase_code = {p: i for i, p in enumerate(PHASES)}

            def traced(*args, **kwargs):
                out = span(*args, **kwargs)
                tr.phase.append(phase_code[out.phase_after.phase.value])
                return out
        elif name == "perception.elevation_keypoints":
            def traced(*args, **kwargs):
                tr.kmeans_in.append(len(args[0]))
                out = span(*args, **kwargs)
                tr.kmeans_out.append(len(out.keypoints))
                return out
        else:
            traced = None

        def span(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            trials.append(tr.trial)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return update_wrapper(traced or span, fn)

    # -- trials and worker hand-off ---------------------------------------

    def _begin_trial(self) -> None:
        if os.getpid() != self.pid and not self.in_worker:
            # first trial in a forked pool worker: drop what the parent had
            self.in_worker = True
            self._clear()
        self.trial += 1
        info = self._cache_info()
        # the root span about to open gets the next index
        self._trial_row = [self.trial, len(self.start), -1, -info.hits, -info.misses]

    def _end_trial(self) -> None:
        info = self._cache_info()
        row = self._trial_row
        row[3] += info.hits
        row[4] += info.misses
        self.trials.append(tuple(row))
        if self.in_worker:
            path = os.path.join(self.worker_dir, f"spans-{os.getpid()}.pkl")
            with open(path, "ab") as fh:
                pickle.dump(self._chunk(), fh)
            self._clear()

    def _clear(self) -> None:
        for buf in (self.name, self.parent, self.trial_of, self.start, self.end,
                    self.phase, self.kmeans_in, self.kmeans_out):
            del buf[:]
        self.stack.clear()
        self.trials.clear()

    def _chunk(self) -> dict:
        return {"pid": os.getpid(), "name": self.name.tobytes(),
                "parent": self.parent.tobytes(), "trial": self.trial_of.tobytes(),
                "start": self.start.tobytes(), "end": self.end.tobytes(),
                "phase": self.phase.tobytes(), "kmeans_in": self.kmeans_in.tobytes(),
                "kmeans_out": self.kmeans_out.tobytes(), "trials": list(self.trials)}

    def collect(self) -> "Spans":
        """Spans of this process plus those the pool workers handed off."""
        chunks = [self._chunk()]
        for fname in sorted(os.listdir(self.worker_dir)):
            if fname.startswith("spans-") and fname.endswith(".pkl"):
                # written by this benchmark's own workers during this pass
                with open(os.path.join(self.worker_dir, fname), "rb") as fh:
                    while True:
                        try:
                            chunks.append(pickle.load(fh))
                        except EOFError:
                            break
        return Spans(chunks)


class Spans:
    """Merged span arrays, with parent and root indices rebased and trial ids
    made unique per process."""

    def __init__(self, chunks):
        import numpy as np

        cols = {k: [] for k in ("name", "parent", "trial", "start", "end",
                                "phase", "kmeans_in", "kmeans_out")}
        trials = []
        offset = 0
        pids = {}
        for ch in chunks:
            base = pids.setdefault(ch["pid"], len(pids)) * 1_000_000
            name = np.frombuffer(ch["name"], dtype=np.int32)
            parent = np.frombuffer(ch["parent"], dtype=np.int32).astype(np.int64)
            cols["name"].append(name)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["trial"].append(np.frombuffer(ch["trial"], dtype=np.int32) + base)
            cols["start"].append(np.frombuffer(ch["start"], dtype=np.int64))
            cols["end"].append(np.frombuffer(ch["end"], dtype=np.int64))
            cols["phase"].append(np.frombuffer(ch["phase"], dtype=np.int8))
            cols["kmeans_in"].append(np.frombuffer(ch["kmeans_in"], dtype=np.int32))
            cols["kmeans_out"].append(np.frombuffer(ch["kmeans_out"], dtype=np.int32))
            trials += [(tid + base, root + offset, intent, hits, misses)
                       for tid, root, intent, hits, misses in ch["trials"]]
            offset += len(name)
        for key, parts in cols.items():
            setattr(self, key, np.concatenate(parts))
        self.trials = np.array(trials, dtype=np.int64).reshape(-1, 5)

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, names=np.array(NAMES), name=self.name, parent=self.parent,
                 trial=self.trial, start=self.start, end=self.end, phase=self.phase,
                 trials=self.trials)


# Per-layer metrics of a traced pass, in print order. The last two are
# computed by run.py from pass wall times rather than from spans.
PER_LAYER = [
    ("perception.capture.ms_p50", "ms"),
    ("perception.crop_and_project.ms_p50", "ms"),
    ("perception.elevation_keypoints.ms_p50", "ms"),
    ("perception.profile_points", "count"),
    ("perception.keypoints", "count"),
    ("sim_harness.perceive.ms_p50", "ms"),
    ("sim_harness.perceive.share", "ratio"),
    ("swing_planner.planner_step.us_p50", "us"),
    ("swing_planner.planner_step.us_p99", "us"),
    ("swing_planner.planner_step.self_us_p50", "us"),
] + [
    (f"swing_planner.planner_step.{phase}.{stat}", "us")
    for phase in PHASES for stat in ("us_p50", "us_p99")
] + [
    ("swing_planner.mz_boundary_knee.calls_per_tick", "calls/tick"),
    ("swing_planner.mx_exit_distance.calls_per_tick", "calls/tick"),
    ("swing_planner.mz_peak.hit_ratio", "ratio"),
    ("swing_planner.mz_peak.lookups", "count"),
    ("human_model.hip_pose.calls_per_tick", "calls/tick"),
    ("human_model.hip_pose.us_p50", "us"),
    ("leg_kinematics.forward_points.calls_per_tick", "calls/tick"),
    ("leg_kinematics.forward_points.us_p50", "us"),
    ("sim_harness.tick.us_p50", "us"),
    ("sim_harness.tick.us_p99", "us"),
    ("sim_harness.contact_check.us_p50", "us"),
    ("sim_harness.run_swing.ticks", "count"),
    ("sim_harness.StepLog.write_csv.ms_p50", "ms"),
    ("config.load_scenario.ms_p50", "ms"),
] + [
    (f"{module}.self_share", "ratio") for module in MODULES
] + [
    (f"intent.{intent}.{stat}", unit)
    for intent in INTENTS
    for stat, unit in (("perception_ms", "ms"), ("trial_ms", "ms"),
                       ("ticks", "count"), ("tick_us", "us"))
] + [
    ("tracing.spans", "count"),
    ("sim_harness.run_campaign.parallel_efficiency", "ratio"),
    ("tracing.overhead_ratio", "ratio"),
]


def layer_metrics(sp: Spans) -> tuple:
    """Per-layer values (all but the last two of PER_LAYER) and a note per
    value giving its base. A layer with no spans reads 0."""
    import numpy as np

    dur = (sp.end - sp.start).astype(np.float64)
    has_parent = sp.parent >= 0
    child = np.bincount(sp.parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_ns = dur - child
    count = np.bincount(sp.name, minlength=len(NAMES))
    values, notes = {}, {}

    def mask(name):
        return sp.name == NAME_ID[name]

    def pct(key, sel, q, scale, base=None):
        vals = (base if base is not None else dur)[sel]
        values[key] = float(np.percentile(vals, q)) / scale if vals.size else 0.0
        notes[key] = f"n={vals.size}"

    def ratio(key, num, den, note):
        values[key] = float(num) / float(den) if den else 0.0
        notes[key] = note

    steps = mask("swing_planner.planner_step")
    ticks = int(count[NAME_ID["swing_planner.planner_step"]])
    op_ns = dur[sp.trials[:, 1]] if len(sp.trials) else np.zeros(0)

    for name in ("perception.capture", "perception.crop_and_project",
                 "perception.elevation_keypoints", "sim_harness.perceive"):
        pct(f"{name}.ms_p50", mask(name), 50, 1e6)
    n_km = len(sp.kmeans_in)
    ratio("perception.profile_points", sp.kmeans_in.sum(), n_km, f"mean over {n_km} calls")
    ratio("perception.keypoints", sp.kmeans_out.sum(), n_km, f"mean over {n_km} calls")
    ratio("sim_harness.perceive.share", dur[mask("sim_harness.perceive")].sum(), op_ns.sum(),
          f"perceive time / time of {len(op_ns)} ops")

    pct("swing_planner.planner_step.us_p50", steps, 50, 1e3)
    pct("swing_planner.planner_step.us_p99", steps, 99, 1e3)
    pct("swing_planner.planner_step.self_us_p50", steps, 50, 1e3, base=self_ns)
    step_dur = dur[steps]
    for code, phase in enumerate(PHASES):
        sel = sp.phase == code
        for stat, q in (("us_p50", 50), ("us_p99", 99)):
            key = f"swing_planner.planner_step.{phase}.{stat}"
            values[key] = float(np.percentile(step_dur[sel], q)) / 1e3 if sel.any() else 0.0
            notes[key] = f"n={int(sel.sum())}"

    tick_note = f"per {ticks} planner ticks"
    for name in ("swing_planner.mz_boundary_knee", "swing_planner.mx_exit_distance",
                 "human_model.hip_pose", "leg_kinematics.forward_points"):
        ratio(f"{name}.calls_per_tick", count[NAME_ID[name]], ticks,
              f"{int(count[NAME_ID[name]])} calls {tick_note}")
    hits, misses = (int(sp.trials[:, 3].sum()), int(sp.trials[:, 4].sum())) \
        if len(sp.trials) else (0, 0)
    ratio("swing_planner.mz_peak.hit_ratio", hits, hits + misses,
          f"{hits} hits / {hits + misses} _peak_cached lookups")
    values["swing_planner.mz_peak.lookups"] = float(hits + misses)
    notes["swing_planner.mz_peak.lookups"] = f"{misses} misses"
    pct("human_model.hip_pose.us_p50", mask("human_model.hip_pose"), 50, 1e3)
    pct("leg_kinematics.forward_points.us_p50", mask("leg_kinematics.forward_points"), 50, 1e3)

    # gap between consecutive planner_step entries of one trial
    step_start, step_trial = sp.start[steps], sp.trial[steps]
    gaps = np.diff(step_start)[step_trial[1:] == step_trial[:-1]].astype(np.float64)
    for stat, q in (("us_p50", 50), ("us_p99", 99)):
        values[f"sim_harness.tick.{stat}"] = float(np.percentile(gaps, q)) / 1e3 \
            if gaps.size else 0.0
        notes[f"sim_harness.tick.{stat}"] = f"n={gaps.size}"
    pct("sim_harness.contact_check.us_p50", mask("sim_harness.contact_check"), 50, 1e3)
    n_swings = int(count[NAME_ID["sim_harness.run_swing"]])
    ratio("sim_harness.run_swing.ticks", ticks, n_swings, f"mean over {n_swings} swings")
    pct("sim_harness.StepLog.write_csv.ms_p50", mask("sim_harness.StepLog.write_csv"), 50, 1e6)
    pct("config.load_scenario.ms_p50", mask("config.load_scenario"), 50, 1e6)

    # run_campaign's own time is aggregation and, with a pool, waiting for
    # workers whose spans are in other processes: it is not part of an op
    in_ops = ~mask("sim_harness.run_campaign")
    module_of = np.array([MODULES.index(n.split(".")[0]) for n in NAMES])
    by_module = np.bincount(module_of[sp.name[in_ops]], weights=self_ns[in_ops],
                            minlength=len(MODULES))
    total_self = by_module.sum()
    for i, module in enumerate(MODULES):
        ratio(f"{module}.self_share", by_module[i], total_self,
              f"{by_module[i] / 1e9:.3f} s self of {total_self / 1e9:.3f} s in ops")

    def per_trial(name):
        sel = mask(name)
        return dict(zip(sp.trial[sel].tolist(), dur[sel].tolist()))

    swing_ns, perceive_ns = per_trial("sim_harness.run_swing"), per_trial("sim_harness.perceive")
    tids, tcount = np.unique(step_trial, return_counts=True)
    ticks_of = dict(zip(tids.tolist(), tcount.tolist()))
    for code, intent in enumerate(INTENTS):
        ids = [int(t) for t in sp.trials[sp.trials[:, 2] == code, 0]] if len(sp.trials) else []
        perc = [perceive_ns[t] for t in ids if t in perceive_ns]
        swung = [t for t in ids if t in swing_ns]
        n_ticks = sum(ticks_of.get(t, 0) for t in swung)
        ratio(f"intent.{intent}.perception_ms", sum(perc) / 1e6, len(perc),
              f"mean over {len(perc)} captures")
        ratio(f"intent.{intent}.trial_ms", sum(swing_ns[t] for t in swung) / 1e6, len(swung),
              f"mean over {len(swung)} swings")
        ratio(f"intent.{intent}.ticks", n_ticks, len(swung), f"mean over {len(swung)} swings")
        loop_ns = sum(swing_ns[t] - perceive_ns.get(t, 0.0) for t in swung)
        ratio(f"intent.{intent}.tick_us", loop_ns / 1e3, n_ticks,
              f"(swing - perception) / {n_ticks} ticks")

    values["tracing.spans"] = float(len(dur))
    notes["tracing.spans"] = f"{len(op_ns)} ops"
    return values, notes
