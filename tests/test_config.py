"""Property tests over the scenario tables: any scenario either parses and
simulates to a classified outcome with a finite duration and peak flexion,
or raises ConfigError naming the offending key; and no scenario that parses
ends within two ticks; and a campaign trial written out as a scenario
replays to the campaign's result."""
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from swingsim.config import BOX, BOXES, SECTIONS, ConfigError, dump_scenario, parse_scenario
from swingsim.human_model import GaitIntent
from swingsim.sim_harness import (
    CampaignConfig,
    Outcome,
    StepLog,
    build_trial_specs,
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
