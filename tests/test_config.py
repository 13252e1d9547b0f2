"""Property tests over the scenario tables: any scenario either parses and
simulates to a classified outcome with a finite duration and peak flexion,
or raises ConfigError naming the offending key; and no scenario that parses
ends within two ticks; and a campaign trial written out as a scenario
replays to the campaign's result. Their library mirror: a dataclass built
with any one number either raises ValueError or runs to a finite result."""
import json
import math
import os
import pickle
import warnings
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from swingsim import cli, config, human_model, sim_harness
from swingsim.config import (BOX, BOXES, CAMPAIGN, DEGREES, FLOATS, PAIR, SECTIONS, TAU,
                             ConfigError, dump_scenario, parse_scenario)
from swingsim.human_model import MAX_HORIZON_TICKS, GaitIntent, HipTrajectoryParams, preset
from swingsim.leg_kinematics import DEG, LegGeometry, forward_points
from swingsim.perception import Box, CameraModel, ObstacleScene
from swingsim.swing_planner import PlannerParams
from swingsim.sim_harness import (
    CampaignConfig,
    Outcome,
    StepLog,
    TOE_OFF_THETA_K,
    TrialConfig,
    TrialSpec,
    build_trial_specs,
    capture_state,
    contact_check,
    run_swing,
    trial_config_for,
)


def valid(f):
    if f.kind is bool:
        return st.booleans()
    if f.kind is GaitIntent:
        return st.sampled_from([i.value for i in GaitIntent])
    if f.kind is int:
        return st.integers(f.lo, f.hi)
    if f.kind is BOXES:
        return st.lists(section(BOX), max_size=2)
    return st.floats(f.lo, f.hi)


def invalid(f):
    wrong_type = st.sampled_from(["x", None, [], {}])
    if f.kind is bool:
        return wrong_type | st.sampled_from([0, 1, "false"])
    if f.kind is GaitIntent:
        return wrong_type | st.sampled_from(["LEVEL", "stairs", 1])
    if f.kind is BOXES:
        return st.sampled_from(["x", None, {}, 3])
    if f.kind is int:
        return wrong_type | st.integers(max_value=f.lo - 1) | st.integers(min_value=f.hi + 1) \
            | st.sampled_from([float(f.lo), f.lo + 0.5, True])
    return wrong_type | st.floats(max_value=f.lo, exclude_max=True) \
        | st.floats(min_value=f.hi, exclude_min=True) | st.sampled_from([math.nan, True])


def section(table):
    required = {f.key: valid(f) for f in table if f.required}
    optional = {f.key: valid(f) for f in table if not f.required}
    return st.fixed_dictionaries(required, optional=optional)


SCENARIOS = st.fixed_dictionaries({}, optional={name: section(table)
                                                for name, table in SECTIONS.items()})


@st.composite
def scenarios(draw):
    """A scenario drawn from the tables and, in about a quarter of the draws,
    the path of one key whose value was replaced by an invalid one."""
    data = draw(SCENARIOS)
    if draw(st.integers(0, 3)) < 3:
        return data, None
    name = draw(st.sampled_from(sorted(SECTIONS)))
    f = draw(st.sampled_from(SECTIONS[name]))
    data.setdefault(name, {})[f.key] = draw(invalid(f))
    return data, f"{name}.{f.key}:"


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(scenarios())
def test_scenario_runs_to_a_finite_outcome_or_raises_config_error(case):
    data, bad_path = case
    try:
        cfg = parse_scenario(data)
    except ConfigError as exc:
        assert bad_path is None or str(exc).startswith(bad_path)
        return
    assert bad_path is None
    log, result = run_swing(cfg, StepLog())
    assert all(math.isfinite(row.theta_k_rad) for row in log.rows)
    assert isinstance(result.outcome, Outcome)
    assert math.isfinite(result.swing_duration)
    assert math.isfinite(result.peak_knee_flexion)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(SCENARIOS)
def test_accepted_scenario_does_not_end_within_two_ticks(data):
    # a toe-off foot already in the ground or a box used to end the swing
    # in a SCUFF or TRIP at t = 1 ms; parse_scenario now rejects it
    try:
        cfg = parse_scenario(data)
    except ConfigError:
        return
    _, result = run_swing(cfg)
    assert result.swing_duration > 2.5 * cfg.planner.dt, result.outcome


class FirstTick(Exception):
    """Raised by a planner stand-in to end a swing at its first tick."""


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(SCENARIOS, st.sampled_from([0.0, 0.5, 1.0]))
def test_the_toe_off_check_reads_the_foot_the_swing_starts_from(data, sigma):
    # the file route's check tested the noise-free foot and run_swing started
    # from the noisy hip; the trial's construction now checks TrialConfig.toe_off,
    # the foot run_swing starts from, bit for bit
    data.setdefault("human", {})["noise_sigma_deg"] = sigma
    try:
        parse_scenario(data)
    except ConfigError:
        return
    checked, started = [], []

    def first_tick(geom, hip, joint, pts, target, state, params):
        started.append(pts)
        raise FirstTick

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_harness, "contact_check", lambda pts, scene: (checked.append(pts), None))
        cfg = parse_scenario(data)
        mp.setattr(sim_harness, "planner_step", first_tick)
        with pytest.raises(FirstTick):
            run_swing(cfg)
    assert list(map(repr, checked)) == list(map(repr, started)) and len(started) == 1
    if sigma == 0.0:  # a noise-free foot is the noise-free track's, as before
        hip = human_model.hip_track(cfg.resolved_human, None, cfg.planner.dt)[0]
        assert repr(started[0]) == repr(forward_points(cfg.geometry, hip, TOE_OFF_THETA_K))


def test_a_noisy_toe_off_foot_in_a_box_face_is_rejected(tmp_path, capsys):
    # at 1 deg of hip noise, seed 10 starts the toe 2.6 cm ahead of the
    # noise-free toe (x = -0.1597 m), through a face at x = -0.145 m that the
    # noise-free foot clears: the file route checked that foot and let it run
    over = {"human": {"intent": "step_over", "noise_sigma_deg": 1.0}, "trial": {"seed": 10},
            "scene": {"boxes": [{"front_x_m": -0.145, "height_m": 0.08}]}}
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(over))
    assert cli.main(["--out", str(tmp_path / "o"), "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "config error: scenario: the toe-off foot already touches the scene (a box face at "
        "x = -0.1450 m")
    # the noise and the seed move the foot too, so the refusal names both
    assert err.endswith("; geometry, human.hip_height_base_m, human.theta_h_start_deg, "
                        "human.noise_sigma_deg, trial.seed and scene must leave it clear\n")
    over["human"]["noise_sigma_deg"] = 0.0
    cfg = parse_scenario(over)
    assert contact_check(cfg.toe_off, cfg.scene)[0] is None


# the file above at seed 0, whose noisy toe-off foot clears the face
NOISY_OVER = {"human": {"intent": "step_over", "noise_sigma_deg": 1.0}, "trial": {"seed": 0},
              "scene": {"boxes": [{"front_x_m": -0.145, "height_m": 0.08}]}}


def test_run_seed_checks_the_toe_off_foot_of_the_seed_it_runs(tmp_path, capsys):
    # the seed-0 file was checked at seed 0 and then swung seed 10, which
    # TRIPped on the box face at t = 1 ms and exited 0
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(NOISY_OVER))
    assert cli.main(["--out", str(tmp_path / "o"), "--seed", "10", "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "config error: scenario: the toe-off foot already touches the scene (a box face at "
        "x = -0.1450 m")
    assert "human.noise_sigma_deg" in err and "trial.seed" in err


def test_a_trial_copied_to_another_seed_is_checked_at_that_seed():
    # the toe-off check lived in the file route: a copy at seed 10 built, and
    # its swing TRIPped on the box face at t = 1 ms
    cfg = parse_scenario(NOISY_OVER)
    with pytest.raises(ValueError, match=r"^the toe-off foot already touches the scene "
                                         r"\(a box face at x = -0.1450 m, z = 0.0101 m\)$"):
        replace(cfg, seed=10)


def test_a_box_scenario_builds_one_trial(monkeypatch):
    # the parse built a throwaway TrialConfig(intent=...) and then the trial
    built = []
    real = TrialConfig.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(TrialConfig, "__post_init__", counting)
    cfg = parse_scenario({"human": {"intent": "step_over"}, "trial": {"seed": 3, "tau_s": 0.02},
                          "scene": {"boxes": [{"front_x_m": 0.3, "height_m": 0.08}]}})
    assert built == [cfg]
    assert cfg.geometry is TrialConfig.geometry and cfg.planner is TrialConfig.planner
    assert cfg.human is preset(GaitIntent.STEP_OVER)


@pytest.mark.parametrize("seed", [2024, 7])
def test_campaign_trials_replay_through_their_scenario_json(seed):
    # every 14th trial, so each intent and each step-over height shows up:
    # trial_config_for -> dump_scenario -> JSON text -> parse_scenario gives
    # the campaign's TrialResult, though human, None in the campaign's
    # config, comes back as the resolved preset it was written out as
    cc = CampaignConfig(seed=seed)
    specs = build_trial_specs(cc)[::14]
    assert {s.intent for s in specs} == set(GaitIntent)
    assert {s.height for s in specs if s.intent is GaitIntent.STEP_OVER} == set(cc.heights)
    for spec in specs:
        cfg = trial_config_for(cc, spec)
        replayed = parse_scenario(json.loads(json.dumps(dump_scenario(cfg))))
        assert replayed.human is not None and cfg.human is None
        assert run_swing(replayed)[1] == run_swing(cfg)[1], spec


def test_a_library_angle_no_degrees_value_gives_back_comes_back_within_one_ulp():
    # dump_scenario writes the shortest decimal of degrees whose * DEG is the
    # angle, so a config read from a file round-trips exactly. A theta_0 built
    # in the library may have no double of degrees that gives it back (276 of
    # 3,000 uniform draws in its file range): _degrees then writes rad / DEG,
    # which parses back within one ulp, here one ulp above
    theta = 0.3736102827653968
    d = theta / DEG
    assert all(round(d, n) * DEG != theta for n in range(16))
    cfg = TrialConfig(intent=GaitIntent.STEP_OVER)
    dumped = dump_scenario(replace(cfg, planner=replace(cfg.planner, theta_0=theta)))
    assert dumped["planner"]["theta0_deg"] == d
    back = parse_scenario(json.loads(json.dumps(dumped))).planner.theta_0
    assert abs(back - theta) <= math.ulp(theta)


# ---------------------------------------------------------------------------
# the library: each dataclass refuses what no leg, camera or target could be

OVER = TrialConfig(intent=GaitIntent.STEP_OVER)
LIBRARY_BASE = replace(OVER, scene=ObstacleScene(boxes=(
    Box(front_x=capture_state(OVER)[1].toe[0] + 0.4, height=0.08),)))
NUMBERS = (float, int, DEGREES, FLOATS, PAIR)
# (owner, file row) of every number a file may set: a scenario section, the
# scene's box, or the campaign (its tau_s is the trial's)
LIBRARY_ROWS = [(owner, f) for owner, table in (*SECTIONS.items(), ("box", BOX),
                                                 ("campaign", CAMPAIGN))
                for f in table if f.kind in NUMBERS and not (owner == "campaign" and f is TAU)]


def _drawn_values(f) -> list:
    """NaN, +-inf, 0, -1, a huge value and each file bound +-1 ulp, in
    dataclass units; for an int, each bound +-1 as well."""
    scale = DEG if f.kind is DEGREES else 1.0
    values = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300]
    for b in (f.lo, f.hi):
        values += [math.nextafter(b * scale, -math.inf), math.nextafter(b * scale, math.inf)]
        if f.kind is int:
            values += [b - 1, b + 1]
    return values


LIBRARY_CASES = [(owner, f, v, end) for owner, f in LIBRARY_ROWS for v in _drawn_values(f)
                 for end in ((0, 1) if f.kind is PAIR else (None,))]


def _library_build(owner, f, v, end):
    """The object the draw sets one number of: a campaign, or the trial."""
    if f.kind is FLOATS:
        v = (v,)
    elif f.kind is PAIR:
        v = (v, 0.7) if end == 0 else (0.15, v)
    if owner == "campaign":
        return replace(CampaignConfig(), **{f.attr: v})
    if owner == "trial":
        return replace(LIBRARY_BASE, **{f.attr: v})
    if owner == "box":
        box = replace(LIBRARY_BASE.scene.boxes[0], **{f.attr: v})
        return replace(LIBRARY_BASE, scene=replace(LIBRARY_BASE.scene, boxes=(box,)))
    part = preset(OVER.intent) if owner == "human" else getattr(LIBRARY_BASE, owner)
    return replace(LIBRARY_BASE, **{owner: replace(part, **{f.attr: v})})


def _campaign_trials(cc) -> list:
    """A trial of each intent the campaign runs, its boxes at both ends of
    their ranges; and, where it is small enough to draw quickly, its specs."""
    if cc.n_step_over + cc.n_step_on + cc.n_level <= 1000:
        assert len(build_trial_specs(cc)) == cc.n_step_over + cc.n_step_on + cc.n_level
    specs = [(GaitIntent.STEP_OVER, cc.heights[0], d) for d in cc.distance_range] * bool(
        cc.n_step_over)
    specs += [(GaitIntent.STEP_ON, cc.step_on_height, d)
              for d in cc.step_on_distance_range] * bool(cc.n_step_on)
    specs += [(GaitIntent.LEVEL, None, None)] * bool(cc.n_level)
    return [trial_config_for(cc, TrialSpec(0, *spec, cc.seed)) for spec in specs]


# a trial's pickle -> its swing's result: draws repeat, and most campaign draws
# build the default campaign's trials, so each distinct trial runs once. A
# pickle tells 0 from 0.0 and -0.0, where == does not
_LIBRARY_SWINGS = {}


def _library_swing(cfg):
    key = pickle.dumps(cfg)
    if key not in _LIBRARY_SWINGS:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _LIBRARY_SWINGS[key] = run_swing(cfg)[1]
    return _LIBRARY_SWINGS[key]


@settings(max_examples=2 * len(LIBRARY_CASES), derandomize=True, database=None,
          deadline=None)
@given(st.sampled_from(LIBRARY_CASES))
def test_library_runs_to_a_finite_outcome_or_raises_value_error(case):
    # the library's mirror of the scenario property above: a number a file
    # could not say (NaN, inf, 1e300 s of swing) used to build, then run to an
    # outcome, raise inside the swing, or ask numpy for gigabytes
    owner, f, v, end = case
    try:
        built = _library_build(owner, f, v, end)
    except ValueError:
        return
    trials = _campaign_trials(built) if owner == "campaign" else [built]
    for cfg in trials:
        result = _library_swing(cfg)
        assert isinstance(result.outcome, Outcome), case
        assert result.swing_duration / cfg.planner.dt <= MAX_HORIZON_TICKS + 1, case
        for x in (result.swing_duration, result.peak_knee_flexion, result.target.z_m,
                  result.target.x_c, result.min_clearance, result.landing_x):
            assert x is None or math.isfinite(x), case


LONG_LEG = LegGeometry(thigh_m=0.46, shank_m=0.45, toe_m=0.17)


def test_the_library_builds_the_tick_and_legs_past_the_file_ranges_that_studies_need():
    # a 1.75 ms tick, where seed-2024 step-overs first trip, and a 0.46/0.45 m
    # leg with a 0.17 m toe lie outside the file ranges but inside the rules;
    # the longer leg stands on a hip base that lifts its toe-off toe clear
    human = replace(preset(GaitIntent.STEP_OVER), hip_height_base=0.95)
    cfg = replace(LIBRARY_BASE, planner=replace(LIBRARY_BASE.planner, dt=0.00175),
                  geometry=LONG_LEG, human=human)
    assert (cfg.planner.dt, cfg.geometry.toe_m) == (0.00175, 0.17)
    assert cfg.toe_off.toe[1] > 0.0


def test_the_library_refuses_a_leg_whose_toe_off_toe_starts_in_the_ground():
    # on the default hip base the longer leg's toe starts at z = -0.0365 m:
    # it built, and its swing SCUFFed at t = 1 ms
    with pytest.raises(ValueError, match=r"^the toe-off foot already touches the scene "
                                         r"\(GROUND at x = -0.1552 m, z = -0.0365 m\)$"):
        replace(LIBRARY_BASE, geometry=LONG_LEG)


def test_library_refuses_a_horizon_past_its_cap_before_allocating():
    # swing_duration=1e6 asked numpy for ~15 GiB of hip track
    long = replace(preset(GaitIntent.LEVEL), swing_duration=1e6)
    with pytest.raises(ValueError, match="timeout horizon"):
        TrialConfig(human=long)
    with pytest.raises(ValueError, match="timeout horizon"):
        human_model.hip_track(long, None, 0.001)


def _declared_rule(cls, f):
    return next(d.metadata["rule"] for d in fields(cls) if d.name == f.attr)


def _range_inside_rule(cls, f) -> bool:
    """Whether both ends of row f's file range, in dataclass units, keep cls's rule."""
    rule = _declared_rule(cls, f)
    return all(rule.holds(b * DEG if f.kind is DEGREES else b) for b in (f.lo, f.hi))


ROW_OWNERS = ((LegGeometry, config.GEOMETRY), (CameraModel, config.CAMERA),
              (PlannerParams, config.PLANNER), (HipTrajectoryParams, config.HUMAN),
              (ObstacleScene, config.SCENE), (Box, BOX), (TrialConfig, config.TRIAL),
              (CampaignConfig, [f for f in CAMPAIGN if f is not TAU]))


def test_every_file_range_lies_inside_its_fields_rule():
    # a file says less than the library accepts: each row's range is the
    # narrower one, so the file route's own messages come first
    numbers = [(cls, f) for cls, table in ROW_OWNERS for f in table if f.kind in NUMBERS]
    assert len(numbers) == len(LIBRARY_ROWS)
    for cls, f in numbers:
        assert _range_inside_rule(cls, f), f
    widened = config.GEOMETRY[0]._replace(lo=0.0)
    assert widened.attr == "thigh_m" and not _range_inside_rule(LegGeometry, widened)
    # each declared rule has one row
    for cls, table in ROW_OWNERS:
        assert sorted(f.attr for f in table if f.kind in NUMBERS) \
            == sorted(d.name for d in fields(cls) if d.metadata.get("rule")), cls


# one value of each JSON type, and the types each kind of key takes
JSON_TYPES = {"null": None, "bool": True, "string": "x", "int": 1, "float": 0.5, "list": [],
              "object": {}, "nested list": [[0.5]]}
TAKES = {float: {"int", "float"}, DEGREES: {"int", "float"}, int: {"int"}, bool: {"bool"},
         GaitIntent: {"string"}, BOXES: {"list"}, FLOATS: {"list"}, PAIR: {"list"}}


def test_every_key_refuses_each_json_type_its_kind_does_not_take():
    # BAD_INPUTS holds hand-picked cases; this is every key path a file has
    box = {"front_x_m": 0.5, "height_m": 0.1}  # a box's required keys
    probes = [(f"{name}.{f.key}", f.kind, parse_scenario, lambda v, n=name, k=f.key: {n: {k: v}})
              for name, table in SECTIONS.items() for f in table]
    probes += [(f"scene.boxes[0].{f.key}", f.kind, parse_scenario,
                lambda v, k=f.key: {"scene": {"boxes": [{**box, k: v}]}}) for f in BOX]
    probes += [(f"campaign.{f.key}", f.kind, config.parse_campaign, lambda v, k=f.key: {k: v})
               for f in CAMPAIGN]
    assert {kind for _, kind, _, _ in probes} == set(TAKES)
    for path, kind, parse, data in probes:
        for json_type, v in JSON_TYPES.items():
            if json_type in TAKES[kind]:
                continue
            with pytest.raises(ConfigError) as exc:
                parse(data(v))
            assert str(exc.value).startswith((f"{path}:", f"{path}[")), (json_type, str(exc.value))


def test_cli_jobs_and_trials_validate_as_before():
    assert cli.JOBS == config.Field("jobs", "jobs", int, 1, os.cpu_count() or 1)
    assert cli.TRIALS == config.Field("trials", "n_step_over", int, 1, 100_000)
    for row, path, lo, hi in ((cli.JOBS, "--jobs", 1, os.cpu_count() or 1),
                              (cli.TRIALS, "sweep.trials", 1, 100_000)):
        assert config.check(path, row, lo) == lo and config.check(path, row, hi) == hi
        for bad in (lo - 1, hi + 1, float(lo), True):
            with pytest.raises(ConfigError, match=f"^{path}: "):
                config.check(path, row, bad)
