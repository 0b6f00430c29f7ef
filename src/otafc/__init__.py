"""OTA emulation of a fully connected layer over multi-hop AF relays."""

from .allocation import (Heuristic, allocate, heuristic_weights,
                         pilot_dictionary_size, tau_min_total, tau_minimums)
from .channel import (Cascade, ChannelSet, HopStatistics, NoiseModel,
                      PathlossParams, default_noise_model, draw_channels,
                      hop_statistics, linear_gain, noise_power_watts,
                      pathloss_db, relay_input_powers)
from .estimation import PilotPlan, estimate_all, inject_error
from .harness import (ConfigError, ExperimentConfig, ResultRow, Scenario,
                      SweepPoint, TrialResult, config_from_dict, derive_trial_seed,
                      emit_csv, load_config, run_experiment, run_trial)
from .inference import (ImportedPipeline, SyntheticTask, TaskSamples,
                        digital_forward, draw_samples, imported_forward,
                        load_pipeline, make_synthetic_task, ota_accuracy,
                        ota_forward, save_pipeline)
from .solver import (OtaParams, PowerBudget, SolveResult, SolverConfig,
                     SolverDivergenceError, TargetLayer, TrueEvaluation,
                     evaluate_true, objective, solve, update_a, update_f1,
                     update_f2)
from .topology import Placement, Topology, generate_placement

__version__ = "0.1.0"
