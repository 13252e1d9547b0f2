import json
import os

import pytest

from swingsim import cli
from swingsim.cli import main
from swingsim.config import dump_scenario, load_scenario, parse_scenario
from swingsim.sim_harness import CampaignConfig, TrialConfig, build_trial_specs, capture_state
from swingsim.human_model import GaitIntent


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


@pytest.fixture
def level_scenario(tmp_path):
    return write_json(tmp_path / "level.json", {
        "human": {"intent": "level"},
        "scene": {"ground_height_m": 0.0, "boxes": []},
        "trial": {"seed": 7},
    })


@pytest.fixture
def box_scenario(tmp_path):
    _, pts = capture_state(TrialConfig(intent=GaitIntent.STEP_OVER))
    return write_json(tmp_path / "over.json", {
        "human": {"intent": "step_over"},
        "scene": {"boxes": [{"front_x_m": pts.toe[0] + 0.4, "height_m": 0.16,
                             "depth_m": 0.15, "width_m": 0.4}]},
        "trial": {"seed": 9},
    })


def test_run_level_scenario(level_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["--out", str(out), "run", level_scenario])
    assert rc == 0
    assert "SUCCESS_LEVEL" in capsys.readouterr().out
    rows = open(out / "steplog.csv").read().splitlines()
    assert rows[0].startswith("t_s,phase,theta_h_rad")
    # ~0.61 s at 1 kHz
    assert 560 <= len(rows) - 1 <= 660
    result = json.loads(open(out / "result.json").read())
    assert result["outcome"] == "SUCCESS_LEVEL"


def test_run_rejects_malformed_key(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"geometry": {"thigh": 0.44}})
    rc = main(["--out", str(tmp_path / "o"), "run", bad])
    assert rc == 2
    assert "geometry.thigh" in capsys.readouterr().err


def test_run_rejects_unknown_section(tmp_path, capsys):
    bad = write_json(tmp_path / "bad2.json", {"legs": {}})
    rc = main(["--out", str(tmp_path / "o"), "run", bad])
    assert rc == 2


def test_run_rejects_bad_value_with_path(tmp_path, capsys):
    bad = write_json(tmp_path / "bad3.json",
                     {"scene": {"boxes": [{"front_x_m": 0.3, "height_m": -0.1}]}})
    rc = main(["--out", str(tmp_path / "o"), "run", bad])
    assert rc == 2
    assert "scene.boxes[0]" in capsys.readouterr().err


def test_seed_override_changes_stream_not_schema(level_scenario, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out1), "--seed", "123", "run", level_scenario]) == 0
    assert main(["--out", str(out2), "--seed", "124", "run", level_scenario]) == 0
    # noiseless level trials agree in outcome regardless of stream
    r1 = json.loads(open(out1 / "result.json").read())
    r2 = json.loads(open(out2 / "result.json").read())
    assert r1["outcome"] == r2["outcome"] == "SUCCESS_LEVEL"


def test_dump_config_round_trip(box_scenario, tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", box_scenario, "--dump-config"]) == 0
    dumped = json.loads(open(out / "scenario.json").read())
    cfg1 = parse_scenario(dumped)
    cfg2 = load_scenario(box_scenario)
    assert cfg1 == cfg2
    assert dump_scenario(cfg1) == dumped


def test_outputs_reproducible_byte_identical(box_scenario, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out1), "run", box_scenario]) == 0
    assert main(["--out", str(out2), "run", box_scenario]) == 0
    assert open(out1 / "steplog.csv", "rb").read() == open(out2 / "steplog.csv", "rb").read()
    assert open(out1 / "result.json", "rb").read() == open(out2 / "result.json", "rb").read()


def test_perceive_emits_profile_keypoints_target(box_scenario, tmp_path):
    out = tmp_path / "p"
    assert main(["--out", str(out), "perceive", box_scenario]) == 0
    profile = open(out / "profile.csv").read().splitlines()
    assert profile[0] == "x_m,z_m"
    assert len(profile) > 100
    target = json.loads(open(out / "target.json").read())
    assert target["z_m_m"] == pytest.approx(0.17, abs=0.005)
    kps = json.loads(open(out / "keypoints.json").read())
    assert len(kps["keypoints"]) > 10
    # x_c within 2 cm of the true toe-to-front distance
    toe = kps["capture_toe"]["x_m"]
    assert target["x_c_m"] == pytest.approx(0.4, abs=0.02)


def test_perceive_and_run_report_the_same_target(tmp_path):
    # both commands derive the capture and k-means seeds from --seed; depth
    # noise makes the target depend on the capture seed
    _, pts = capture_state(TrialConfig(intent=GaitIntent.STEP_OVER))
    scenario = write_json(tmp_path / "noisy.json", {
        "camera": {"noise_sigma_m": 0.003},
        "human": {"intent": "step_over"},
        "scene": {"boxes": [{"front_x_m": pts.toe[0] + 0.4, "height_m": 0.08}]},
    })
    p, r = tmp_path / "p", tmp_path / "r"
    assert main(["--seed", "11", "--out", str(p), "perceive", scenario]) == 0
    assert main(["--seed", "11", "--out", str(r), "run", scenario]) == 0
    target = json.loads(open(p / "target.json").read())
    result = json.loads(open(r / "result.json").read())
    assert target["z_m_m"] == result["target_z_m_m"]
    assert target["x_c_world_m"] == result["target_x_c_world_m"]


def test_show_presets(capsys):
    assert main(["show-presets"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["level"]["theta_h_start_deg"] == -15.0
    assert '"theta_h_start_deg": -15.0\n' in out
    assert data["level"]["swing_duration_s"] == 0.61
    assert data["step_on"]["swing_duration_s"] == 0.64
    assert data["step_over"]["swing_duration_s"] == 0.81


def test_show_presets_prints_every_human_scenario_key(capsys):
    assert main(["show-presets"]) == 0
    data = json.loads(capsys.readouterr().out)
    for intent in GaitIntent:
        written = dump_scenario(TrialConfig(intent=intent))["human"]
        assert data[intent.value] == written


def test_campaign_mini_profile(tmp_path, capsys):
    cfgp = write_json(tmp_path / "camp.json", {
        "seed": 5, "n_step_over": 4, "n_step_on": 2, "n_level": 1,
    })
    out = tmp_path / "c"
    rc = main(["--out", str(out), "campaign", cfgp])
    assert rc == 0
    summary = json.loads(open(out / "summary.json").read())
    assert summary["overall"]["n"] == 7
    assert summary["overall"]["success_rate"] == 1.0
    trials = open(out / "trials.csv").read().splitlines()
    assert len(trials) == 8


def test_seed_flag_sets_the_campaign_seed(tmp_path):
    cfgp = write_json(tmp_path / "camp.json", {
        "seed": 9, "n_step_over": 1, "n_step_on": 0, "n_level": 1,
    })
    out = tmp_path / "c"
    assert main(["--out", str(out), "--seed", "5", "campaign", cfgp]) == 0
    summary = json.loads(open(out / "summary.json").read())
    assert summary["campaign"]["seed"] == 5
    specs = build_trial_specs(CampaignConfig(seed=5, n_step_over=1, n_step_on=0, n_level=1))
    seeds = [row.split(",")[4] for row in open(out / "trials.csv").read().splitlines()[1:]]
    assert seeds == [str(s.seed) for s in specs]


def test_campaign_with_a_failing_trial_exits_1(tmp_path, capsys):
    # a step-over box beyond the ~1 m look-ahead trips, as in criterion 2
    cfgp = write_json(tmp_path / "camp.json", {
        "n_step_over": 1, "n_step_on": 0, "n_level": 1,
        "heights_m": [0.16], "distance_range_m": [1.05, 1.05],
    })
    out = tmp_path / "c"
    assert main(["--out", str(out), "campaign", cfgp]) == 1
    assert "campaign: 1/2 successful" in capsys.readouterr().out
    trials = open(out / "trials.csv").read().splitlines()
    assert [row.split(",")[5] for row in trials[1:]] == ["TRIP", "SUCCESS_LEVEL"]


def test_strict_flag_fails_a_campaign_that_expects_failures(tmp_path, capsys):
    cfgp = write_json(tmp_path / "camp.json", {
        "n_step_over": 1, "n_step_on": 0, "n_level": 0, "expect_all_success": False,
        "heights_m": [0.16], "distance_range_m": [1.05, 1.05],
    })
    assert main(["--out", str(tmp_path / "c1"), "campaign", cfgp]) == 0
    assert main(["--out", str(tmp_path / "c2"), "--strict", "campaign", cfgp]) == 1
    assert "campaign: 0/1 successful" in capsys.readouterr().out


def test_campaign_rejects_unknown_key(tmp_path, capsys):
    bad = write_json(tmp_path / "camp.json", {"n_trials": 3})
    assert main(["--out", str(tmp_path / "c"), "campaign", bad]) == 2


def test_sweep_emits_table(tmp_path):
    out = tmp_path / "s"
    rc = main(["--out", str(out), "--seed", "11", "sweep", "--param", "theta0_deg",
               "--values", "4,6", "--trials", "2"])
    assert rc == 0
    rows = open(out / "sweep.csv").read().splitlines()
    assert rows[0] == "theta0_deg,success_rate,mean_duration_s,mean_peak_flexion_deg"
    assert len(rows) == 3


def test_sweep_rejects_unknown_param(tmp_path):
    assert main(["--out", str(tmp_path / "s"), "sweep", "--param", "nope",
                 "--values", "1"]) == 2


def test_env_var_out_dir(level_scenario, tmp_path, monkeypatch):
    monkeypatch.setenv("SWINGSIM_OUT", str(tmp_path / "envout"))
    assert main(["run", level_scenario]) == 0
    assert (tmp_path / "envout" / "result.json").exists()


def test_strict_flag_propagates_failure(tmp_path):
    # obstacle far beyond look-ahead with step-over intent: a trip
    _, pts = capture_state(TrialConfig(intent=GaitIntent.STEP_OVER))
    scn = write_json(tmp_path / "trip.json", {
        "human": {"intent": "step_over"},
        "scene": {"boxes": [{"front_x_m": pts.toe[0] + 1.05, "height_m": 0.16,
                             "depth_m": 0.15, "width_m": 0.4}]},
        "trial": {"seed": 3},
    })
    assert main(["--out", str(tmp_path / "o1"), "run", scn]) == 0
    assert main(["--out", str(tmp_path / "o2"), "--strict", "run", scn]) == 1


def test_run_rejects_toe_off_foot_in_the_ground(tmp_path, capsys):
    # with the default hip base a 0.46 m thigh puts the toe-off toe 1 cm
    # below the ground; the swing used to end in a SCUFF at t = 1 ms
    scn = write_json(tmp_path / "long.json", {"geometry": {"thigh_m": 0.46}})
    assert main(["--out", str(tmp_path / "o"), "run", scn]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: scenario: the toe-off foot")
    for name in ("geometry", "human.hip_height_base_m", "scene"):
        assert name in err


class RawText(str):
    """File text written as is, not as JSON."""


# Each input gave a traceback (exit 1) or ran without complaint before the
# scenario and campaign tables validated every field.
BAD_INPUTS = [
    (["campaign", "FILE"], {"heights_m": "abc"}, "campaign.heights_m"),
    (["campaign", "FILE"], {"n_step_over": -3}, "campaign.n_step_over"),
    (["campaign", "FILE"], {"distance_range_m": [0.7, 0.15]}, "campaign.distance_range_m"),
    (["campaign", "FILE"], {"expect_all_success": "false"}, "campaign.expect_all_success"),
    (["campaign", "FILE"], {"n_level": 1.7}, "campaign.n_level"),
    (["campaign", "FILE"], {"tau_s": "x"}, "campaign.tau_s"),
    (["campaign", "FILE"], {"profile": "reproduction"}, "campaign.profile"),
    # a box under the toe-off foot: every such trial ended in a TRIP at t = 1 ms
    (["campaign", "FILE"], {"n_step_over": 4, "n_step_on": 0, "n_level": 0,
                            "distance_range_m": [0.0, 0.0], "heights_m": [0.16]},
     "campaign.distance_range_m[0]"),
    (["campaign", "FILE"], {"step_on_distance_range_m": [0.063, 0.7]},
     "campaign.step_on_distance_range_m[0]"),
    # ran no trial and passed expect_all_success with "0/0 successful (0.0%)"
    (["campaign", "FILE"], {"n_step_over": 0, "n_step_on": 0, "n_level": 0},
     "campaign: n_step_over, n_step_on and n_level are all 0"),
    (["run", "FILE"], {"trial": {"kmeans_k": 0}}, "trial.kmeans_k"),
    (["run", "FILE"], {"trial": {"kmeans_restarts": -4}}, "trial.kmeans_restarts"),
    (["run", "FILE"], {"trial": {"tau_s": -0.05}}, "trial.tau_s"),
    (["run", "FILE"], {"scene": {"boxes": [{"front_x_m": float("nan"), "height_m": 0.1}]}},
     "scene.boxes[0].front_x_m"),
    (["run", "FILE"], {"geometry": {"thigh_m": 1e9}}, "geometry.thigh_m"),
    (["run", "FILE"], {"human": {"noise_sigma_deg": -1}}, "human.noise_sigma_deg"),
    (["run", "FILE"], {"camera": {"max_range_m": float("inf")}}, "camera.max_range_m"),
    (["run", "FILE"], {"human": {"intent": "step_over", "theta_h_end_deg": 80,
                                 "noise_sigma_deg": 10}}, "human.theta_h_end_deg"),
    (["sweep", "--param", "kmax", "--values", "-1"], None, "planner.kmax"),
    (["sweep", "--param", "kmax", "--values", "4", "--trials", "0"], None, "sweep.trials"),
    (["--seed", "-1", "run", "FILE"], {}, "--seed"),
    # rejections no other case reaches
    (["run", "FILE"], RawText('{"scene": {'), "invalid JSON at line 1"),
    (["run", "FILE"], [{"scene": {}}], "scenario: top level must be an object"),
    (["run", "FILE"], {"scene": []}, "scene: expected an object, got list"),
    (["run", "FILE"], {"scene": {"boxes": [{"front_x_m": 0.5}]}},
     "scene.boxes[0].height_m: missing required key"),
    (["run", "FILE"], {"human": {"intent": "jump"}}, "human.intent: 'jump' is not one of"),
    (["sweep", "--param", "kmax", "--values", "a"], None,
     "sweep.values: must be a comma-separated number list"),
    (["sweep", "--param", "kmax", "--values", ","], None, "sweep.values: is empty"),
]


@pytest.mark.parametrize("argv,data,path", BAD_INPUTS, ids=[c[2] for c in BAD_INPUTS])
def test_bad_input_exits_2_with_key_path(argv, data, path, tmp_path, capsys):
    infile = tmp_path / "in.json"
    infile.write_text(data if isinstance(data, RawText) else json.dumps(data))
    argv = [str(infile) if a == "FILE" else a for a in argv]
    assert main(["--out", str(tmp_path / "o"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert path in err


def refuse_campaign(*args, **kwargs):
    raise AssertionError("a campaign ran")


@pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1],
                         ids=["zero", "negative", "cpu_count+1"])
def test_jobs_outside_one_to_cpu_count_exits_2_before_any_campaign(jobs, tmp_path, capsys,
                                                                    monkeypatch):
    # 0 and -1 used to run serial, and cpu_count + 1 asked mp.Pool for that
    # many processes
    monkeypatch.setattr(cli, "run_campaign", refuse_campaign)
    assert main(["--out", str(tmp_path / "o"), "--jobs", str(jobs), "campaign"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "--jobs" in err
