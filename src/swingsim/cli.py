"""Command-line front end.

Subcommands:
    run           one swing from a scenario file -> StepLog CSV + result JSON
    campaign      randomized trial campaign -> summary JSON + trial index CSV
    perceive      perception pipeline only -> profile CSV, keypoints/target JSON
    sweep         vary one planner parameter over a mini-campaign -> table CSV
    show-presets  print the three gait-intent presets

All outputs land in a single per-run directory (--out, or $SWINGSIM_OUT, or
./swingsim_out). Re-running with the same config and seed reproduces the
outputs byte-identically; wall-clock metadata is isolated in run_info.json.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import replace

from . import config
from .leg_kinematics import DEG
from .config import ConfigError, dump_scenario, load_json, load_scenario, parse_campaign
from .human_model import GaitIntent
from .sim_harness import (
    CampaignConfig,
    SUCCESSES,
    StepLog,
    TrialConfig,
    capture_state,
    perceive,
    run_campaign,
    run_swing,
    trial_seeds,
    write_trial_index_csv,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2

# more workers than cores only adds processes
JOBS = config.Field("jobs", "jobs", int, 1, os.cpu_count() or 1)
TRIALS = next(f for f in config.CAMPAIGN if f.key == "n_step_over")._replace(key="trials", lo=1)


def _out_dir(args) -> str:
    out = args.out or os.environ.get("SWINGSIM_OUT") or "swingsim_out"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # e.g. a regular file at the path, or on the way to it
        raise ConfigError(f"--out: cannot make directory {out!r}: {exc.strerror}") from None
    return out


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run_info(out: str, argv) -> None:
    # wall-clock timestamp lives only here so every other artifact is
    # byte-reproducible
    _write_json(os.path.join(out, "run_info.json"),
                {"argv": list(argv), "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S")})


def _scenario(args) -> TrialConfig:
    """The scenario file's trial, with --seed applied."""
    cfg = load_scenario(args.scenario)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def cmd_run(args, argv) -> int:
    cfg = _scenario(args)
    out = _out_dir(args)

    if args.dump_config:
        _write_json(os.path.join(out, "scenario.json"), dump_scenario(cfg))

    log, result = run_swing(cfg, StepLog())
    log.write_csv(os.path.join(out, "steplog.csv"))
    _write_json(os.path.join(out, "result.json"), result.to_dict())
    _write_run_info(out, argv)

    ok = result.outcome in SUCCESSES
    print(f"{result.outcome.value}: swing {result.swing_duration:.3f} s, "
          f"peak knee {result.peak_knee_flexion / DEG:.1f} deg "
          f"-> {os.path.join(out, 'steplog.csv')}")
    if args.strict and not ok:
        return EXIT_FAILURE
    return EXIT_OK


def cmd_campaign(args, argv) -> int:
    cc = parse_campaign(load_json(args.config) if args.config is not None else {})
    if args.seed is not None:
        cc = replace(cc, seed=args.seed)
    out = _out_dir(args)

    res = run_campaign(cc, jobs=args.jobs)
    _write_json(os.path.join(out, "summary.json"), res.summary)
    write_trial_index_csv(os.path.join(out, "trials.csv"), res.specs, res.results)
    _write_run_info(out, argv)

    overall = res.summary["overall"]
    print(f"campaign: {overall['n_success']}/{overall['n']} successful "
          f"({overall['success_rate'] * 100:.1f}%) -> {os.path.join(out, 'summary.json')}")
    if (cc.expect_all_success or args.strict) and overall["n_success"] != overall["n"]:
        return EXIT_FAILURE
    return EXIT_OK


def cmd_perceive(args, argv) -> int:
    cfg = _scenario(args)
    out = _out_dir(args)

    s_capture, s_kmeans, _ = trial_seeds(cfg.seed)
    target, keypoints, profile, toe = perceive(cfg, s_capture, s_kmeans)

    with open(os.path.join(out, "profile.csv"), "w") as fh:
        fh.write("x_m,z_m\n")
        for x, z in profile:
            fh.write(f"{x:.6f},{z:.6f}\n")
    _write_json(os.path.join(out, "keypoints.json"), {
        "capture_toe": {"x_m": round(toe[0], 6), "z_m": round(toe[1], 6)},
        "keypoints": [{"x_m": round(x, 6), "z_m": round(z, 6)}
                      for x, z in (keypoints.keypoints if keypoints else ())],
    })
    _write_json(os.path.join(out, "target.json"), {
        "z_m_m": round(target.z_m, 6),
        "x_c_m": round(target.x_c, 6),
        "x_c_world_m": round(toe[0] + target.x_c, 6),
    })
    _write_run_info(out, argv)
    print(f"z_m = {target.z_m:.4f} m, x_c = {target.x_c:.4f} m "
          f"-> {os.path.join(out, 'target.json')}")
    return EXIT_OK


SWEEPABLE = {"theta0_deg", "kmax", "alpha1", "alpha2"}


def cmd_sweep(args, argv) -> int:
    if args.param not in SWEEPABLE:
        raise ConfigError(f"sweep.param: must be one of {', '.join(sorted(SWEEPABLE))}")
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError:
        raise ConfigError("sweep.values: must be a comma-separated number list") from None
    if not values:
        raise ConfigError("sweep.values: is empty")
    config.check("sweep.trials", TRIALS, args.trials)
    planners = [config.parse_scenario({"planner": {args.param: v}}).planner for v in values]
    out = _out_dir(args)

    rows = []
    for value, planner in zip(values, planners):
        cc = CampaignConfig(seed=CampaignConfig.seed if args.seed is None else args.seed,
                            n_step_over=args.trials, n_step_on=0, n_level=0,
                            base=TrialConfig(planner=planner))
        res = run_campaign(cc, jobs=args.jobs)
        overall = res.summary["overall"]
        durs = [r.swing_duration for r in res.results]
        peaks = [r.peak_knee_flexion / DEG for r in res.results]
        rows.append((value, overall["success_rate"], sum(durs) / len(durs),
                     sum(peaks) / len(peaks)))

    path = os.path.join(out, "sweep.csv")
    with open(path, "w") as fh:
        fh.write(f"{args.param},success_rate,mean_duration_s,mean_peak_flexion_deg\n")
        for value, rate, dur, peak in rows:
            fh.write(f"{value:.6f},{rate:.6f},{dur:.6f},{peak:.6f}\n")
    _write_run_info(out, argv)
    print(f"swept {args.param} over {len(values)} values -> {path}")
    return EXIT_OK


def cmd_show_presets(args, argv) -> int:
    out = {i.value: dump_scenario(TrialConfig(intent=i))["human"] for i in GaitIntent}
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


@functools.cache  # built once per process; main may run many times in one
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="swingsim",
                                 description="Obstacle-aware prosthesis swing simulator")
    ap.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    ap.add_argument("--out", default=None, help="output directory (default $SWINGSIM_OUT or ./swingsim_out)")
    ap.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    ap.add_argument("--strict", action="store_true", help="exit 1 on trial failure (run, campaign)")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="simulate one swing from a scenario file")
    runp.add_argument("scenario")
    runp.add_argument("--dump-config", action="store_true",
                      help="write the resolved scenario next to the outputs")
    runp.set_defaults(func=cmd_run)

    campp = sub.add_parser("campaign", help="run a randomized trial campaign")
    campp.add_argument("config", nargs="?", default=None,
                       help="campaign JSON (defaults to the full reproduction profile)")
    campp.set_defaults(func=cmd_campaign)

    percp = sub.add_parser("perceive", help="run the perception pipeline only")
    percp.add_argument("scenario")
    percp.set_defaults(func=cmd_perceive)

    sweepp = sub.add_parser("sweep", help="vary one planner parameter")
    sweepp.add_argument("--param", required=True, help=",".join(sorted(SWEEPABLE)))
    sweepp.add_argument("--values", required=True, help="comma-separated values")
    sweepp.add_argument("--trials", type=int, default=30, help="step-overs per value")
    sweepp.set_defaults(func=cmd_sweep)

    showp = sub.add_parser("show-presets", help="print the gait-intent presets")
    showp.set_defaults(func=cmd_show_presets)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            config.check("--seed", config.SEED, args.seed)
        config.check("--jobs", JOBS, args.jobs)
        return args.func(args, argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
