"""Kinematic-rectified speculative decoding simulator for 7-DoF action tokens."""

from .codec import (
    ActionSlice,
    NormKey,
    TokenSlice,
    action_to_token,
    decode_slice,
    encode_slice,
    token_distance,
    token_to_action,
)
from .config import CostModel, RunConfig, SuiteConfig, default_config
from .harness import SuiteReport, emit_results, modeled_latency, run_suite, sweep
from .kinematics import DofCache, KfBank, KfParams, KinVar, accumulate_kvar, kin_variability
from .simenv import DraftNoiseModel, EnvState, SimEnv, TaskSpec, make_task
from .specdec import (
    AcceptanceOutcome,
    SliceResult,
    decode_slice_sd,
    relaxed_accept,
    run_episode,
)
from .threshold import CalibrationTable, ThresholdState, adjust, calibrate, lookup
from .trace import EpisodeTrace, SliceRecord

__version__ = "0.1.0"

__all__ = [
    "ActionSlice",
    "NormKey",
    "TokenSlice",
    "action_to_token",
    "decode_slice",
    "encode_slice",
    "token_distance",
    "token_to_action",
    "CostModel",
    "RunConfig",
    "SuiteConfig",
    "default_config",
    "SuiteReport",
    "emit_results",
    "modeled_latency",
    "run_suite",
    "sweep",
    "DofCache",
    "KfBank",
    "KfParams",
    "KinVar",
    "accumulate_kvar",
    "kin_variability",
    "DraftNoiseModel",
    "EnvState",
    "SimEnv",
    "TaskSpec",
    "make_task",
    "AcceptanceOutcome",
    "SliceResult",
    "decode_slice_sd",
    "relaxed_accept",
    "run_episode",
    "CalibrationTable",
    "ThresholdState",
    "adjust",
    "calibrate",
    "lookup",
    "EpisodeTrace",
    "SliceRecord",
    "__version__",
]
