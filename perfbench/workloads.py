"""Workload table shared by run.py and passrun.py (imports no swingsim code).

Each workload is a fixed set of ops generated from the seed; one pass runs
all of them once in a fresh interpreter.
"""

DEFAULT_SEED = 2024   # the paper's reproduction campaign seed

_PERCEPTION = (
    "sim_harness.capture_state", "sim_harness.perceive",
    "perception.camera_pose_from_thigh", "perception.capture",
    "perception.crop_and_project", "perception.elevation_keypoints",
    "perception.kmeans_prune", "perception.extract_estimate",
    "perception.control_modify",
)
_SWING = _PERCEPTION + (
    "sim_harness.run_swing", "sim_harness.contact_check",
    "swing_planner.planner_step", "swing_planner.phase1_velocity",
    "swing_planner.phase2_velocity", "swing_planner.phase3_velocity",
    "swing_planner.mz_boundary_knee", "swing_planner.mx_exit_distance",
    "swing_planner.mz_peak", "human_model.hip_pose", "leg_kinematics.forward_points",
)

# ops: ops per pass of the workloads not fixed by the campaign's 210 trials.
# op_ms_p90 needs >= 100 so that ten samples lie beyond it; 120 keeps a pass
# under 20 s on two cores, so that many repeated runs stay affordable.
# pass_s: nominal wall of one pass at the reference host speed. A run makes
# max(1, seconds // pass_s) passes, a count fixed by its arguments, so that
# runs of one seed attempt, and fail, the same ops however fast the host is.
# exercised: spans a traced pass must record at least once.
# idle: spans a traced pass must not record (the workload bypasses them).
WORKLOADS = {
    "campaign": {
        "jobs": 1, "pass_s": 33.0,
        "exercised": _SWING + ("sim_harness.run_campaign",), "idle": (),
    },
    "campaign-jobs2": {
        "jobs": 2, "pass_s": 17.0,
        "exercised": _SWING + ("sim_harness.run_campaign",), "idle": (),
    },
    "perceive-grid": {
        "jobs": 1, "ops": 120, "pass_s": 17.0,
        "exercised": _PERCEPTION,
        "idle": ("sim_harness.run_swing", "swing_planner.planner_step",
                 "human_model.hip_pose"),
    },
    "run-steplog": {
        "jobs": 1, "ops": 120, "pass_s": 20.0,
        "exercised": _SWING + ("cli.main", "config.load_scenario", "config.parse_scenario",
                               "sim_harness.StepLog.write_csv"),
        "idle": ("sim_harness.run_campaign",),
    },
}
