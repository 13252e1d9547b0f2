"""Desk-scale kinematic simulator of an environment-aware, human-cooperative
prosthesis swing controller.

Modules:
    leg_kinematics  -- sagittal two-link leg model, forward kinematics
    perception      -- synthetic depth capture and elevation-map extraction
    swing_planner   -- three-phase joint-space knee velocity planner
    human_model     -- parametric hip trajectories per gait intent
    sim_harness     -- 1 kHz closed-loop swing trials and campaigns
    config          -- scenario and campaign files, validated against their dataclasses
    cli             -- command-line front end
"""

__version__ = "0.1.0"

from .leg_kinematics import LegGeometry, HipPose, JointState, FootPoints, forward_points
from .perception import (Box, ObstacleScene, CameraModel, ElevationKeypoints, ObstacleEstimate,
                         ControlTarget)
from .swing_planner import PlannerParams, PhaseState, Phase, PlannerCommand
from .human_model import GaitIntent, HipTrajectoryParams, preset, hip_pose
from .sim_harness import TrialConfig, TrialResult, Outcome, run_swing, run_campaign

__all__ = [
    "LegGeometry", "HipPose", "JointState", "FootPoints", "forward_points",
    "Box", "ObstacleScene", "CameraModel", "ElevationKeypoints",
    "ObstacleEstimate", "ControlTarget",
    "PlannerParams", "PhaseState", "Phase", "PlannerCommand",
    "GaitIntent", "HipTrajectoryParams", "preset", "hip_pose",
    "TrialConfig", "TrialResult", "Outcome", "run_swing", "run_campaign",
]
