"""Planted defects the test suite must kill, as a table that reruns.

    python3 tests/mutants.py            # every row
    python3 tests/mutants.py NAME ...   # the named rows

Run from the repository root. Each row plants one defect: an exact text
replacement in one file, under src/swingsim/ or a test oracle under tests/,
made in a copy of src/, tests/, perfbench/ and pyproject.toml in a temporary
directory. Only the row's own
tests then run there, unplanted and then planted. A row prints "killed"
when they pass unplanted and one fails planted, "survived" when all pass
planted, and "stale" when its old text no longer occurs exactly once in its
file or its tests do not pass unplanted. Rows run concurrently, one per
core, each in its own copy; verdicts print in table order. The exit status
is 1 if any row survived or is stale.

pytest does not collect this file (its name lacks the test_ prefix).
test_mutants_table.py checks, cheaply, that every row still applies, so a
refactor of the code a row plants its defect in must carry the row along.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    file: str      # relative to the repository root
    old: str       # exact text, occurring once in the file
    new: str
    tests: tuple   # pytest node ids, relative to the repository root
    source: str    # the CHANGES.md entry the defect was first planted in


MUTANTS = (
    Mutant(
        "hip-poses-skips-the-rate-only-sample", "src/swingsim/leg_kinematics.py",
        "        ok[:len(a)] &= np.isfinite(a) & (rule.lo <= a) & (a <= rule.hi)\n",
        "        ok[:n] &= (np.isfinite(a) & (rule.lo <= a) & (a <= rule.hi))[:n]\n",
        ("tests/test_leg_kinematics.py::test_hip_poses_rule_agrees_with_post_init_on_boundary_values",
         "tests/test_human_model.py::test_hip_track_checks_every_pose_when_built_and_caches_no_failure"),
        "A hip track's poses are checked in one array pass"),
    Mutant(
        "hip-poses-accepts-z-h-0", "src/swingsim/leg_kinematics.py",
        "& (rule.lo <= a) &",
        "& (min(rule.lo, 0.0) <= a) &",
        ("tests/test_leg_kinematics.py::test_hip_poses_rule_agrees_with_post_init_on_boundary_values",
         "tests/test_human_model.py::test_hip_track_checks_every_pose_when_built_and_caches_no_failure"),
        "A hip track's poses are checked in one array pass"),
    Mutant(
        "hip-poses-skips-the-theta-h-rule", "src/swingsim/leg_kinematics.py",
        "    for (_, rule), a in zip(_rules(HipPose), arrays):\n",
        "    for (name, rule), a in zip(_rules(HipPose), arrays):\n"
        "        if name == \"theta_h\":\n"
        "            continue\n",
        ("tests/test_leg_kinematics.py::test_hip_poses_rule_agrees_with_post_init_on_boundary_values",),
        "HipPose's rule is declared once"),
    Mutant(
        "contact-check-face-scan-multiplies-the-signs", "src/swingsim/sim_harness.py",
        "                if (x0 < face_x and x1 < face_x or x0 > face_x and x1 > face_x\n"
        "                        or abs(x1 - x0) < 1e-12):\n",
        "                if (x0 - face_x) * (x1 - face_x) > 0.0 or abs(x1 - x0) < 1e-12:\n",
        ("tests/test_sim_harness.py::"
         "test_contact_check_reads_no_face_touch_for_a_leg_an_underflow_short_of_a_face_at_x_0",),
        "A hip track's poses are checked in one array pass (the FOUND it mends)"),
    Mutant(
        "contact-check-reads-the-ground-at-0", "src/swingsim/sim_harness.py",
        "    g, spans = scene.ground_height, scene.spans\n",
        "    g, spans = 0.0, scene.spans\n",
        ("tests/test_sim_harness.py::test_contact_check_equals_the_full_scan_at_faces_and_ground",
         "tests/test_metamorphic.py::test_ground_shift_keeps_every_outcome"),
        "A campaign builds no step log, and contact_check tests box faces inline"),
    Mutant(
        "peak-closed-form-drops-the-trough", "src/swingsim/swing_planner.py",
        "math.remainder(crest, TWO_PI),\n"
        "              math.remainder(crest + math.pi, TWO_PI)]\n",
        "math.remainder(crest, TWO_PI)]\n",
        ("tests/test_swing_planner.py::test_peak_closed_form_equals_scan_on_default_domain",
         "tests/test_swing_planner.py::test_peak_closed_form_equals_scan_over_table_ranges"),
        "Closed-form M_z peak in place of the planner's grid + golden-section search"),
    Mutant(
        "mz-peak-0.3-deg-high", "src/swingsim/swing_planner.py",
        "    return knee_limit if out is None else out[1]\n",
        "    return knee_limit if out is None else out[1] + 0.3 * DEG\n",
        ("tests/test_swing_planner.py::test_mz_peak_matches_exhaustive_scan",),
        "Each hip trajectory is sampled in one vectorized pass"),
    Mutant(
        "choice-rows-takes-a-tied-draw-left", "src/swingsim/perception.py",
        "np.greater(cdf, u[:, None], out=below)",
        "np.greater_equal(cdf, u[:, None], out=below)",
        ("tests/test_kmeans_equivalence.py::test_choice_rows_looks_up_a_tied_draw_to_the_right",
         "tests/test_kmeans_equivalence.py::test_choice_index_is_generator_choice"),
        "k-means++ seeding of every restart in lockstep, Lloyd on point columns tiled once"),
    Mutant(
        "landing-outside-the-mirror-sub-mode", "src/swingsim/sim_harness.py",
        "    landing = (state.phase is THREE_MIRROR and i > 1\n",
        "    landing = (i > 1\n",
        ("tests/test_sim_harness.py::test_a_descending_touch_before_the_mirror_sub_mode_is_no_landing",),
        "How a swing ends is decided in one place"),
    Mutant(
        "landing-outside-the-mirror-sub-mode-against-the-reference-swing", "src/swingsim/sim_harness.py",
        "    landing = (state.phase is THREE_MIRROR and i > 1\n",
        "    landing = (i > 1\n",
        ("tests/test_acceptance.py::test_reference_swing_on_drawn_scenarios",),
        "What a swing already fixes leaves the 1 kHz tick (ROADMAP item 12's reference swing)"),
    Mutant(
        "flexion-peak-drops-the-overshoot", "src/swingsim/human_model.py",
        "    return a0 + max(v0, 0.0) ** 2 / (2.0 * params.extension_decay)\n",
        "    return a0\n",
        ("tests/test_human_model.py::"
         "test_params_reject_a_hip_still_rising_at_the_onset_that_overshoots_the_limit",
         "tests/test_human_model.py::test_flexion_peak_is_the_sampled_peak_of_the_profile"),
        "The swing horizon has one owner"),
    Mutant(
        "hip-track-horizon-drops-the-half-tick", "src/swingsim/human_model.py",
        "    end = TIMEOUT_FACTOR * params.swing_duration + dt / 2\n",
        "    end = TIMEOUT_FACTOR * params.swing_duration\n",
        ("tests/test_human_model.py::"
         "test_the_horizon_keeps_the_tick_at_the_timeout_however_the_tick_sums_round",
         "tests/test_human_model.py::test_hip_track_equals_direct_hip_pose_construction"),
        "The swing horizon has one owner"),
    Mutant(
        "x-h-takes-numpy-sin", "src/swingsim/human_model.py",
        "_each(math.sin, math.pi * u / w)",
        "np.sin(math.pi * u / w)",
        ("tests/test_acceptance.py::test_src_takes_no_numpy_transcendental_off_its_allowlist",),
        "Each hip trajectory is sampled in one vectorized pass (the FOUND on numpy's sin)"),
    Mutant(
        "resolved-human-recomputed-per-read", "src/swingsim/sim_harness.py",
        "    @cached_property\n    def resolved_human(",
        "    @property\n    def resolved_human(",
        ("tests/test_sim_harness.py::test_a_trial_resolves_its_hip_once",
         "tests/test_acceptance.py::test_campaign_resolves_each_trials_hip_once"),
        "Each trial's hip is resolved once"),
    Mutant(
        "step-log-packs-c-t-as-the-slope", "src/swingsim/sim_harness.py",
        "target.x_c, cmd.slope,\n                        cmd.c_t, cmd.gamma_1)",
        "target.x_c, cmd.c_t,\n                        cmd.slope, cmd.gamma_1)",
        ("tests/test_sim_harness.py::test_step_log_rows_hold_what_each_tick_saw_and_commanded",),
        "The step log is packed into the bytes its CSV writer formats"),
    Mutant(
        "step-log-skips-the-first-ticks-row", "src/swingsim/sim_harness.py",
        "        if log is not None:\n            _, _, toe, heel = pts\n",
        "        if log is not None and i > 1:\n            _, _, toe, heel = pts\n",
        ("tests/test_human_model.py::test_a_timed_out_swing_reads_the_last_pose_of_its_track",),
        "The step log sizes itself"),
    Mutant(
        "step-log-rows-take-the-next-ticks-phase", "src/swingsim/sim_harness.py",
        "_PHASE_TEXT.__getitem__, v[:, 1]",
        "_PHASE_TEXT.__getitem__, v[1:, 1]",
        ("tests/test_sim_harness.py::test_step_log_rows_give_back_every_value_bit_for_bit",
         "tests/test_sim_harness.py::test_step_log_rows_hold_what_each_tick_saw_and_commanded"),
        "The step log is packed into the bytes its CSV writer formats"),
    Mutant(
        "mz-peak-rounds-z-h-to-2-decimals", "src/swingsim/swing_planner.py",
        "_peak_cached(geom, round(z_h, 3),",
        "_peak_cached(geom, round(z_h, 2),",
        ("tests/test_swing_planner.py::"
         "test_mz_peak_reads_the_hip_height_to_the_millimetre_and_the_target_to_10_microns",),
        "The step log is packed into the bytes its CSV writer formats"),
    Mutant(
        "phase-state-peak-key-without-its-geometry", "src/swingsim/swing_planner.py",
        "key = (geom, z_m, knee_limit, round(z_h, 3))",
        "key = (z_m, knee_limit, round(z_h, 3))",
        ("tests/test_swing_planner.py::"
         "test_phase1_peak_memo_never_serves_another_target_geometry_or_knee_limit",),
        "The step log is packed into the bytes its CSV writer formats"),
    Mutant(
        "step-log-phase-index-off-by-one", "src/swingsim/sim_harness.py",
        "_PHASE_WORDS[v[:, 1].astype(np.intp)]",
        "_PHASE_WORDS[v[:, 1].astype(np.intp) - 1]",
        ("tests/test_acceptance.py::test_criterion_7_campaign_determinism",
         "tests/test_sim_harness.py::test_write_csv_writes_row_format_text"),
        "One packed record per step-log tick"),
    Mutant(
        "cli-drops-the-tracer-only-capture-state-import", "src/swingsim/cli.py",
        "TrialConfig, capture_state, perceive,",
        "TrialConfig, perceive,",
        ("tests/test_perfbench_names.py::test_the_names_perfbench_binds_resolve",),
        "One packed record per step-log tick"),
    Mutant(
        "phase-one-bucket-without-its-margin", "src/swingsim/swing_planner.py",
        "abs(z_h - key[3]) < 0.0005 - 1e-12",
        "abs(z_h - key[3]) < 0.0005",
        ("tests/test_swing_planner.py::"
         "test_phase1_peak_memo_keeps_a_hip_height_in_its_bucket_only_inside_the_margin",),
        "What a swing already fixes leaves the 1 kHz tick"),
    Mutant(
        "phase-one-bucket-widened-to-0.6-mm", "src/swingsim/swing_planner.py",
        "abs(z_h - key[3]) < 0.0005 - 1e-12",
        "abs(z_h - key[3]) < 0.0006",
        ("tests/test_swing_planner.py::"
         "test_phase1_peak_memo_keeps_a_hip_height_in_its_bucket_only_inside_the_margin",),
        "What a swing already fixes leaves the 1 kHz tick"),
    Mutant(
        "phase-one-bucket-without-its-geometry", "src/swingsim/swing_planner.py",
        "key[0] is geom and key[1] == z_m",
        "key[1] == z_m",
        ("tests/test_swing_planner.py::"
         "test_phase1_peak_memo_never_serves_another_target_geometry_or_knee_limit",),
        "What a swing already fixes leaves the 1 kHz tick"),
    Mutant(
        "scene-x-extent-from-the-first-box-only", "src/swingsim/perception.py",
        "(spans[0][0], spans[-1][1]) if spans",
        "(spans[0][0], spans[0][1]) if spans",
        ("tests/test_sim_harness.py::test_contact_check_equals_the_full_scan_on_drawn_legs",),
        "What a swing already fixes leaves the 1 kHz tick"),
    Mutant(
        "hip-track-cache-key-without-the-seed", "src/swingsim/human_model.py",
        "hip_track = lru_cache(maxsize=HIP_TRACK_CACHE_SIZE)(build_hip_track)\n",
        "def hip_track(params, seed, dt, _memo={}):\n"
        "    if (params, dt) not in _memo:\n"
        "        _memo[params, dt] = build_hip_track(params, seed, dt)\n"
        "    return _memo[params, dt]\n\n\n"
        "hip_track.cache_clear = hip_track.__defaults__[0].clear\n",
        ("tests/test_acceptance.py::test_reference_swing_on_a_lagged_swing_and_noisy_hips",
         "tests/test_human_model.py::test_hip_tracks_of_different_noise_seeds_differ"),
        "What a swing already fixes leaves the 1 kHz tick (ROADMAP item 12's reference swing)"),
    Mutant(
        "own-hip-tracks-through-the-shared-cache", "src/swingsim/sim_harness.py",
        "return human_model.build_hip_track(human, trial_seeds(self.seed)[2] if noisy else None, dt)",
        "return human_model.hip_track(human, trial_seeds(self.seed)[2] if noisy else None, dt)",
        ("tests/test_acceptance.py::test_campaign_caches_only_the_preset_tracks_its_trials_share",
         "tests/test_sim_harness.py::"
         "test_noisy_trials_built_before_they_run_sample_each_track_once"),
        "A trial owns the hip track no other trial can share"),
    Mutant(
        "shared-hip-tracks-bypass-the-cache", "src/swingsim/sim_harness.py",
        "            return human_model.hip_track(human, None, dt)\n",
        "            return human_model.build_hip_track(human, None, dt)\n",
        ("tests/test_human_model.py::test_a_timed_out_swing_reads_the_last_pose_of_its_track",
         "tests/test_sim_harness.py::test_run_swing_samples_hip_once_per_tick",
         "tests/test_sim_harness.py::test_run_swing_rows_equal_with_warm_and_cleared_hip_track"),
        "A trial owns the hip track no other trial can share"),
    Mutant(
        "run-swing-rebuilds-the-trials-own-track", "src/swingsim/sim_harness.py",
        "    track = cfg.hip_track   # to the timeout horizon\n",
        "    track = TrialConfig.hip_track.func(cfg)\n",
        ("tests/test_human_model.py::"
         "test_trials_of_a_few_degrees_of_hip_noise_still_build_and_run_on_the_checked_track",),
        "A trial owns the hip track no other trial can share"),
    Mutant(
        "toe-off-check-on-the-noise-free-hip", "src/swingsim/sim_harness.py",
        "        contact = contact_check(self.toe_off, self.scene)[0]\n",
        "        hip = human_model.hip_track(self.resolved_human, None, self.planner.dt)[0]\n"
        "        contact = contact_check(forward_points(self.geometry, hip, TOE_OFF_THETA_K),\n"
        "                                self.scene)[0]\n",
        ("tests/test_config.py::test_the_toe_off_check_reads_the_foot_the_swing_starts_from",
         "tests/test_config.py::test_a_noisy_toe_off_foot_in_a_box_face_is_rejected"),
        "The toe-off foot has one owner"),
    Mutant(
        "trial-construction-skips-the-toe-off-check", "src/swingsim/sim_harness.py",
        "            raise ToeOffContact(f\"the toe-off foot already touches the scene ({contact})\", "
        "contact)\n",
        "            pass\n",
        ("tests/test_config.py::test_a_trial_copied_to_another_seed_is_checked_at_that_seed",
         "tests/test_config.py::test_run_seed_checks_the_toe_off_foot_of_the_seed_it_runs",
         "tests/test_sim_harness.py::"
         "test_a_library_campaign_whose_swings_start_in_contact_raises_before_any_trial_runs"),
        "The trial owns the toe-off rule"),
    Mutant(
        "campaign-construction-skips-its-range-check", "src/swingsim/sim_harness.py",
        "                trial_config_for(self, TrialSpec(0, self.base.intent, height, low, "
        "self.base.seed))\n",
        "                pass\n",
        ("tests/test_sim_harness.py::"
         "test_a_library_campaign_whose_swings_start_in_contact_raises_before_any_trial_runs",),
        "The trial owns the toe-off rule (re-planted: CampaignConfig owns every campaign rule; "
        "Every campaign range is checked on the base trial)"),
    Mutant(
        "trial-accepts-a-hip-that-reaches-the-ground", "src/swingsim/sim_harness.py",
        "        if not low > 0.0:\n",
        "        if False:\n",
        ("tests/test_sim_harness.py::test_a_hip_whose_lowest_point_reaches_the_ground_is_refused",),
        "Every campaign range is checked on the base trial"),
    Mutant(
        "campaign-accepts-no-trials", "src/swingsim/sim_harness.py",
        "        if self.n_step_over + self.n_step_on + self.n_level == 0:\n",
        "        if False:\n",
        ("tests/test_sim_harness.py::test_a_campaign_of_no_trials_is_refused",
         "tests/test_cli.py::test_bad_input_exits_2_with_key_path"),
        "CampaignConfig owns every campaign rule"),
    Mutant(
        "campaign-checks-no-noisy-trial", "src/swingsim/sim_harness.py",
        "build_trial_specs(self) if self.base.resolved_human.noise_sigma > 0.0 else ()",
        "()",
        ("tests/test_sim_harness.py::"
         "test_a_campaign_on_a_noisy_hip_refuses_the_trial_whose_own_start_is_in_contact",),
        "CampaignConfig owns every campaign rule"),
    Mutant(
        "scene-pickles-its-cached-spans", "src/swingsim/perception.py",
        "    __getstate__ = fields_state\n",
        "",
        ("tests/test_sim_harness.py::"
         "test_a_scene_a_swing_has_read_pickles_to_the_bytes_of_a_fresh_one",),
        "The toe-off foot has one owner"),
    Mutant(
        "campaign-opens-its-outputs-after-the-run", "src/swingsim/cli.py",
        "    summary, trials, _ = _writable(out, \"summary.json\", \"trials.csv\", \"run_info.json\")\n"
        "\n"
        "    res = run_campaign(cc, jobs=args.jobs)\n",
        "    res = run_campaign(cc, jobs=args.jobs)\n"
        "    summary, trials, _ = _writable(out, \"summary.json\", \"trials.csv\", \"run_info.json\")\n",
        ("tests/test_cli.py::test_an_output_file_out_cannot_write_exits_2",),
        "The toe-off foot has one owner"),
    Mutant(
        "cli-json-drops-the-final-newline", "src/swingsim/cli.py",
        "        fh.write(summary_json(obj) + \"\\n\")\n",
        "        fh.write(summary_json(obj))\n",
        ("tests/test_acceptance.py::test_criterion_7_seed_7_digests",
         "tests/test_acceptance.py::test_criterion_7_run_and_perceive_digests"),
        "Write every JSON file through one formatter"),
    Mutant(
        "peak-cache-key-without-the-geometry", "src/swingsim/swing_planner.py",
        "_peak_cached = lru_cache(maxsize=8192)(_peak_closed_form)\n",
        "_peaks = {}\n\n\n"
        "def _peak_cached(geom, z_h, z_m, knee_limit):\n"
        "    if (z_h, z_m, knee_limit) not in _peaks:\n"
        "        _peaks[z_h, z_m, knee_limit] = _peak_closed_form(geom, z_h, z_m, knee_limit)\n"
        "    return _peaks[z_h, z_m, knee_limit]\n",
        ("tests/test_acceptance.py::test_reference_swing_on_two_legs_over_one_box",),
        "What a swing already fixes leaves the 1 kHz tick (ROADMAP item 12's reference swing)"),
    Mutant(
        "format-rows-plain-rint-without-the-near-tie-step", "src/swingsim/sim_harness.py",
        "    N[near] = [float((\"%.6f\" % f).replace(\".\", \"\")) for f in a[near]]\n",
        "",
        ("tests/test_sim_harness.py::test_write_csv_writes_row_format_text",),
        "Step logs written through a vectorized %.6f formatter"),
    Mutant(
        "format-rows-sign-from-the-rounded-value", "src/swingsim/sim_harness.py",
        "nan, neg = np.isnan(v), np.signbit(v)",
        "nan, neg = np.isnan(v), np.rint(v * 1e6) < 0",
        ("tests/test_sim_harness.py::test_write_csv_writes_row_format_text",),
        "Step logs written through a vectorized %.6f formatter"),
    Mutant(
        "format-rows-drops-the-nan-words", "src/swingsim/sim_harness.py",
        "    I[nan], F[nan], N[nan] = 2000, 1000, N[nan] + 1000\n",
        "",
        ("tests/test_sim_harness.py::test_write_csv_writes_row_format_text",),
        "Step logs written through a vectorized %.6f formatter"),
    Mutant(
        "format-rows-drops-the-1000-fallback", "src/swingsim/sim_harness.py",
        "    if not (N < 1e9).all():\n"
        "        return \"\".join([ROW_FORMAT % row for row in _log_rows(v)]).encode()\n",
        "",
        ("tests/test_sim_harness.py::test_write_csv_writes_row_format_text",),
        "Step logs written through a vectorized %.6f formatter"),
    Mutant(
        "ray-fan-cache-key-without-rays-vertical", "src/swingsim/perception.py",
        "@lru_cache(maxsize=RAY_FAN_CACHE)\n"
        "def _ray_fan(axis_pitch: float, fov: float, rays_vertical: int, rays_lateral: int)",
        "def _ray_fan(axis_pitch, fov, rays_vertical, rays_lateral, _memo={}):\n"
        "    key = (axis_pitch, fov, rays_lateral)\n"
        "    if key not in _memo:\n"
        "        _memo[key] = _built_fan(axis_pitch, fov, rays_vertical, rays_lateral)\n"
        "    return _memo[key]\n\n\n"
        "_ray_fan.cache_clear = _ray_fan.__defaults__[0].clear\n\n\n"
        "def _built_fan(axis_pitch: float, fov: float, rays_vertical: int, rays_lateral: int)",
        ("tests/test_perception.py::test_cameras_differing_in_fov_or_rays_vertical_never_share_a_fan"
         "[change1]",),
        "Perception's fixed per-capture cost cut"),
    Mutant(
        "ray-fan-cache-key-without-the-fov", "src/swingsim/perception.py",
        "@lru_cache(maxsize=RAY_FAN_CACHE)\n"
        "def _ray_fan(axis_pitch: float, fov: float, rays_vertical: int, rays_lateral: int)",
        "def _ray_fan(axis_pitch, fov, rays_vertical, rays_lateral, _memo={}):\n"
        "    key = (axis_pitch, rays_vertical, rays_lateral)\n"
        "    if key not in _memo:\n"
        "        _memo[key] = _built_fan(axis_pitch, fov, rays_vertical, rays_lateral)\n"
        "    return _memo[key]\n\n\n"
        "_ray_fan.cache_clear = _ray_fan.__defaults__[0].clear\n\n\n"
        "def _built_fan(axis_pitch: float, fov: float, rays_vertical: int, rays_lateral: int)",
        ("tests/test_perception.py::test_cameras_differing_in_fov_or_rays_vertical_never_share_a_fan"
         "[change0]",),
        "Perception's fixed per-capture cost cut"),
    Mutant(
        "lloyd-ignores-its-fixpoint-and-sse-stops", "src/swingsim/perception.py",
        "        fixpoint = (new_assign == assign).all()\n",
        "        fixpoint, sse = False, math.inf\n",
        ("tests/test_kmeans_equivalence.py::"
         "test_kmeans_cost_stays_bounded_over_the_camera_and_trial_tables",),
        "Perception's fixed per-capture cost cut"),
    Mutant(
        "seeding-recomputes-the-distances-to-every-chosen-center", "src/swingsim/perception.py",
        "        np.minimum(d2, _sqdist(px, pz, c[:, :1], c[:, 1:], out=near, dz=cdf), out=d2)\n",
        "        for c in centers[:, :i + 1].transpose(1, 0, 2):\n"
        "            np.minimum(d2, _sqdist(px, pz, c[:, :1], c[:, 1:], out=near, dz=cdf), out=d2)\n",
        ("tests/test_kmeans_equivalence.py::"
         "test_kmeans_cost_stays_bounded_over_the_camera_and_trial_tables",),
        "Perception's fixed per-capture cost cut"),
    Mutant(
        "tick-bound-raised-to-1.75-ms", "src/swingsim/swing_planner.py",
        "declare(POSITIVE, \"dt_s\", 0.0005, 0.0015,",
        "declare(POSITIVE, \"dt_s\", 0.0005, 0.00175,",
        ("tests/test_metamorphic.py::"
         "test_the_largest_accepted_tick_keeps_the_outcomes_that_flip_above_it",),
        "One scene query per tick"),
    Mutant(
        "contact-check-returns-at-a-face-touch", "src/swingsim/sim_harness.py",
        "            if contact is not None:\n                break\n        if contact is None",
        "            if contact is not None:\n                return contact, clear\n"
        "        if contact is None",
        ("tests/test_sim_harness.py::test_contact_tick_counts_the_clearance_of_every_box",),
        "One scene query per tick"),
    Mutant(
        "contact-check-stops-at-the-box-after-a-touch", "src/swingsim/sim_harness.py",
        "        if contact is not None:\n            continue\n",
        "        if contact is not None:\n            break\n",
        ("tests/test_sim_harness.py::test_contact_tick_counts_the_clearance_of_every_box",),
        "The step log sizes itself (a third box in the every-box clearance test)"),
    Mutant(
        "theta-h-extension-decay-reads-the-stop-fraction", "src/swingsim/human_model.py",
        "    a, rate = params.extension_decay,",
        "    a, rate = params.extension_decay * (1 + 1e-9 * (1 - params.progression_stop_fraction)),",
        ("tests/test_human_model.py::"
         "test_hip_track_equals_the_per_tick_reference_on_every_campaign_trajectory",),
        "The step log is packed into the bytes its CSV writer formats (the hip oracle)"),
    Mutant(
        "crop-ignores-the-corridor-width", "src/swingsim/perception.py",
        "keep = np.abs(cloud[:, 1]) <= corridor_width / 2.0",
        "keep = np.abs(cloud[:, 1]) <= math.inf",
        ("tests/test_metamorphic.py::test_boxes_wider_than_the_corridor_give_the_same_result",),
        "Level profiles skip k-means (the corridor-width property)"),
    Mutant(
        "campaign-ignores-the-seed-flag", "src/swingsim/config.py",
        "    if seed is not None:\n        fields[SEED.attr] = seed\n",
        "",
        ("tests/test_cli.py::test_seed_flag_sets_the_campaign_seed",
         "tests/test_cli.py::test_a_seeded_campaign_command_builds_one_campaign_config"),
        "Deleted what only tests and unreachable branches kept in the trial path "
        "(re-planted: CampaignConfig owns every campaign rule)"),
    Mutant(
        "campaign-ignores-the-strict-flag", "src/swingsim/cli.py",
        "if (cc.expect_all_success or args.strict) and",
        "if cc.expect_all_success and",
        ("tests/test_cli.py::test_strict_flag_fails_a_campaign_that_expects_failures",),
        "The toe is written once (--strict honored by campaign)"),
    Mutant(
        "campaign-ignores-expect-all-success", "src/swingsim/cli.py",
        "if (cc.expect_all_success or args.strict) and",
        "if args.strict and",
        ("tests/test_cli.py::test_campaign_with_a_failing_trial_exits_1",),
        "Deleted what only tests and unreachable branches kept in the trial path"),
    Mutant(
        "box-top-touch-without-its-surface", "src/swingsim/sim_harness.py",
        "contact = Contact(Surface.OBSTACLE_TOP, hit[1], hit[0])",
        "contact = Contact(None, hit[1], hit[0])",
        ("tests/test_sim_harness.py::test_contact_penetrating_box_top_is_trip_outside_mirror",),
        "Deleted what only tests and unreachable branches kept in the trial path"),
    Mutant(
        "step-over-succeeds-short-of-its-box", "src/swingsim/sim_harness.py",
        "\n            and x > cfg.scene.x_extent[1]):",
        "):",
        ("tests/test_sim_harness.py::test_step_over_landing_on_the_ground_short_of_its_box_is_a_scuff",
         "tests/test_sim_harness.py::test_classify_rules_on_every_touch_by_intent_and_landing"),
        "Deleted what only tests and unreachable branches kept in the trial path"),
    Mutant(
        "phase-one-unreachable-edge-sign-flipped", "src/swingsim/swing_planner.py",
        "dh = -hip.theta_h if dh is None else dh",
        "dh = hip.theta_h if dh is None else dh",
        ("tests/test_swing_planner.py::"
         "test_phase1_unreachable_mx_edge_uses_the_thigh_to_vertical_distance",),
        "Deleted what only tests and unreachable branches kept in the trial path"),
    Mutant(
        "mx-exit-without-the-past-crest-wrap", "src/swingsim/swing_planner.py",
        "    if phase > HALF_PI:\n        phase -= TWO_PI",
        "    if False:\n        phase -= TWO_PI",
        ("tests/test_swing_planner.py::test_mx_exit_past_the_crest_is_unreachable",),
        "Deleted what only tests and unreachable branches kept in the trial path"),
    Mutant(
        "mz-boundary-clear-endpoint-sign-flipped", "src/swingsim/swing_planner.py",
        "if z0 - R * cos(dip - lowest) >= z_m:",
        "if z0 + R * cos(dip - lowest) >= z_m:",
        ("tests/test_swing_planner.py::test_solver_endpoint_tests_agree_with_the_chain_oracle",),
        "The toe is written once"),
    Mutant(
        "mz-boundary-unreachable-endpoint-sign-flipped", "src/swingsim/swing_planner.py",
        "if z0 - R * cos(dip - knee_limit) < z_m:",
        "if z0 + R * cos(dip - knee_limit) < z_m:",
        ("tests/test_swing_planner.py::test_solver_endpoint_tests_agree_with_the_chain_oracle",),
        "The toe is written once"),
    Mutant(
        "mz-boundary-clear-endpoint-off-by-a-millimetre", "src/swingsim/swing_planner.py",
        "if z0 - R * cos(dip - lowest) >= z_m:",
        "if z0 - R * cos(dip - lowest) >= z_m + 0.001:",
        ("tests/test_swing_planner.py::test_solver_endpoint_tests_agree_with_the_chain_oracle",),
        "The toe is written once"),
    Mutant(
        "mz-boundary-unreachable-endpoint-off-by-a-millimetre", "src/swingsim/swing_planner.py",
        "if z0 - R * cos(dip - knee_limit) < z_m:",
        "if z0 - R * cos(dip - knee_limit) < z_m - 0.001:",
        ("tests/test_swing_planner.py::test_solver_endpoint_tests_agree_with_the_chain_oracle",),
        "The toe is written once"),
    Mutant(
        "mx-exit-arm-sign-flipped", "src/swingsim/swing_planner.py",
        "if x_h + R * sin(phase) >= x_c:",
        "if x_h - R * sin(phase) >= x_c:",
        ("tests/test_swing_planner.py::test_solver_endpoint_tests_agree_with_the_chain_oracle",),
        "The toe is written once"),
    Mutant(
        "mx-exit-x-h-sign-flipped", "src/swingsim/swing_planner.py",
        "if x_h + R * sin(phase) >= x_c:",
        "if -x_h + R * sin(phase) >= x_c:",
        ("tests/test_swing_planner.py::test_solver_endpoint_tests_agree_with_the_chain_oracle",),
        "The toe is written once"),
    Mutant(
        "step-on-succeeds-without-a-landing", "src/swingsim/sim_harness.py",
        "if landing and surface is Surface.OBSTACLE_TOP and intent is GaitIntent.STEP_ON:",
        "if surface is Surface.OBSTACLE_TOP and intent is GaitIntent.STEP_ON:",
        ("tests/test_sim_harness.py::test_classify_rules_on_every_touch_by_intent_and_landing",),
        "The toe is written once"),
    Mutant(
        "lloyd-without-its-partial-refresh", "src/swingsim/perception.py",
        "        elif moved.size:\n            d2[:, moved] =",
        "        elif False:\n            d2[:, moved] =",
        ("tests/test_kmeans_equivalence.py::"
         "test_lloyd_fills_one_row_per_distinct_point_and_only_moved_columns",),
        "Lloyd computes each distance once"),
    Mutant(
        "lloyd-always-refreshes-every-column", "src/swingsim/perception.py",
        "        if moved.size > FULL_REFRESH_SHARE * k:\n",
        "        if moved.size:\n",
        ("tests/test_kmeans_equivalence.py::"
         "test_lloyd_fills_one_row_per_distinct_point_and_only_moved_columns",),
        "Lloyd computes each distance once"),
    Mutant(
        "lloyd-without-its-grouping", "src/swingsim/perception.py",
        "    if distinct.size == xz.size:\n",
        "    if True:\n",
        ("tests/test_kmeans_equivalence.py::"
         "test_lloyd_fills_one_row_per_distinct_point_and_only_moved_columns",),
        "Lloyd computes each distance once"),
    Mutant(
        "lloyd-sums-the-sse-over-distinct-rows", "src/swingsim/perception.py",
        "        if inv is not None:\n"
        "            nearest_c, nearest = nearest_c[inv], nearest[inv]\n"
        "        last_sse, sse = sse, float(np.add.reduce(nearest))\n",
        "        last_sse, sse = sse, float(np.add.reduce(nearest))\n"
        "        if inv is not None:\n"
        "            nearest_c, nearest = nearest_c[inv], nearest[inv]\n",
        ("tests/test_kmeans_equivalence.py::"
         "test_perceive_keypoints_equal_reference_on_campaign_scenes",),
        "Lloyd computes each distance once"),
    Mutant(
        "hip-rate-over-a-fixed-millisecond", "src/swingsim/human_model.py",
        "np.diff(theta_h) / dt)",
        "np.diff(theta_h) / 0.001)",
        ("tests/test_metamorphic.py::test_halving_the_tick_keeps_every_outcome",),
        "Level profiles skip k-means (the tick-halving property)"),
    Mutant(
        "level-profile-without-its-margin", "src/swingsim/sim_harness.py",
        "LEVEL_PROFILE_MARGIN = 1e-9  # m\n",
        "LEVEL_PROFILE_MARGIN = 0.0  # m\n",
        ("tests/test_sim_harness.py::"
         "test_clustering_a_profile_below_the_toe_gives_the_level_target",),
        "Level profiles skip k-means"),
    Mutant(
        "kmeans-oracle-enumerates-at-most-kmax-minus-1-parts", "tests/oracle_utils.py",
        "for j in range(min(len(parts) + 1, kmax)):",
        "for j in range(min(len(parts) + 1, kmax - 1)):",
        ("tests/test_acceptance.py::test_criterion_6c_kmeans_exhaustive_optimum",
         "tests/test_perception.py::test_kmeans_matches_exhaustive_partition_optimum"),
        "Each trial's hip is resolved once (the k-means oracle's memo)"),
    Mutant(
        "kmeans-oracle-memo-key-ignores-point-0", "tests/oracle_utils.py",
        "                if mask not in part_sse:\n"
        "                    sel = pts[[m for m in range(n) if mask >> m & 1]]\n"
        "                    part_sse[mask] = float(((sel - sel.mean(axis=0)) ** 2).sum())\n"
        "                sse += part_sse[mask]\n",
        "                if mask >> 1 not in part_sse:\n"
        "                    sel = pts[[m for m in range(n) if mask >> m & 1]]\n"
        "                    part_sse[mask >> 1] = float(((sel - sel.mean(axis=0)) ** 2).sum())\n"
        "                sse += part_sse[mask >> 1]\n",
        ("tests/test_acceptance.py::test_criterion_6c_kmeans_exhaustive_optimum",
         "tests/test_perception.py::test_kmeans_matches_exhaustive_partition_optimum"),
        "Each trial's hip is resolved once (the k-means oracle's memo)"),
    Mutant(
        "scene-x-extent-empty-at-inf-inf", "src/swingsim/perception.py",
        "else (math.inf, -math.inf)",
        "else (math.inf, math.inf)",
        ("tests/test_sim_harness.py::"
         "test_a_step_over_ground_landing_succeeds_only_strictly_past_the_last_box",),
        "One owner per derived swing quantity"),
    Mutant(
        "step-over-lands-clear-on-the-last-back-face", "src/swingsim/sim_harness.py",
        "and x > cfg.scene.x_extent[1]):",
        "and x >= cfg.scene.x_extent[1]):",
        ("tests/test_sim_harness.py::"
         "test_a_step_over_ground_landing_succeeds_only_strictly_past_the_last_box",),
        "One owner per derived swing quantity"),
    Mutant(
        "convergence-span-without-theta-0", "src/swingsim/swing_planner.py",
        "span = state.conv_span = joint.theta_k - hip.theta_h + params.theta_0\n",
        "span = state.conv_span = joint.theta_k - hip.theta_h\n",
        ("tests/test_swing_planner.py::"
         "test_phase3_saturation_memorizes_the_convergence_span_converge_divides_by",),
        "One owner per derived swing quantity"),
    Mutant(
        "check-rules-drops-the-finite-test", "src/swingsim/leg_kinematics.py",
        "else math.isfinite(v)\n",
        "else True\n",
        ("tests/test_config.py::test_library_runs_to_a_finite_outcome_or_raises_value_error",),
        "Each field's physical rule is declared once"),
    Mutant(
        "kmeans-k-without-its-int-rule", "src/swingsim/sim_harness.py",
        "declare(at_least(1), \"kmeans_k\",",
        "declare(Rule(1, math.inf, \"be >= 1\"), \"kmeans_k\",",
        ("tests/test_config.py::test_library_runs_to_a_finite_outcome_or_raises_value_error",),
        "Each field's physical rule is declared once"),
    Mutant(
        "blend-takes-alpha-1-for-both-gammas", "src/swingsim/swing_planner.py",
        "g1, g2 = exp(-params.alpha_1 * n), exp(-params.alpha_2 * n)",
        "g1 = g2 = exp(-params.alpha_1 * n)",
        ("tests/test_swing_planner.py::test_blend_takes_each_alpha_for_its_own_gamma",),
        "The hip rate has one definition"),
)


def source_path(row: Mutant, root: str = ROOT) -> str:
    return os.path.join(root, row.file)


def run(row: Mutant) -> str:
    """killed, survived or stale, from the row's tests on a planted copy.
    The tests first run on the copy unplanted: a copy they fail is stale,
    so a failure after planting is the defect's."""
    with open(source_path(row)) as f:
        text = f.read()
    if text.count(row.old) != 1:
        return "stale"
    # no bytecode cache: a planted file can keep the unplanted one's size and mtime
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        codes = []
        for planted in (text, text.replace(row.old, row.new)):
            with open(source_path(row, tmp), "w") as f:
                f.write(planted)
            codes.append(subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *row.tests],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode)
    return {(0, 0): "survived", (0, 1): "killed"}.get(tuple(codes), "stale")


def main(names) -> int:
    rows = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in rows}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    verdicts = []
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for row, verdict in zip(rows, pool.map(run, rows)):
            verdicts.append(verdict)
            print(f"{verdict:9} {row.name}", flush=True)
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
