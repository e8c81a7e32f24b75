"""Seismic risk, load shedding, and repair dispatch for radial grids."""

from .errors import ConfigError, GridQuakeError, InternalError, LimitError
from .model import (Bus, Component, Depot, FragilityCurve, Generator, Line,
                    LoadProfile, Network, RadialityReport, load_network,
                    load_network_file, network_to_document, validate_radiality)
from .seismic import (PgaField, SeismicEvent, component_failure_probabilities,
                      compute_pga_field, failure_probability,
                      ground_motion_pga, normal_cdf, sample_damage)
from .simplex import INFEASIBLE, OPTIMAL, LpResult, solve_lp
from .powerflow import (FlowSolution, OperationalState, PeakShed,
                        RestorationTimeline, TripleProductLinearization,
                        energization_state, ens_timeline,
                        linearize_triple_product, shed_at)
from .scenarios import (ComponentImpact, DamageScenario, LossDistribution,
                        ScenarioSet, forward_reduce, generate_scenarios,
                        load_scenario_set, reduction_distance,
                        return_period_loss, scenario_set_from_document,
                        scenario_set_to_document, select_representatives,
                        system_loss, wasserstein1)
from .dispatch import (DispatchInstance, DispatchPlan, ExactResult,
                       FailedComponent, ObjectiveBreakdown, cluster_to_depots,
                       exact_dispatch, instance_from_scenario, plan_objective,
                       schedule_plan, travel_hours)
from .ga import GaConfig, GaResult, ga_dispatch
from .policy import (InstanceFamily, PolicyConfig, PolicyModel, PpoConfig,
                     TrainTrace, encode_instance, policy_dispatch, ppo_train)
from .pipeline import (PipelineConfig, config_from_document,
                       load_pipeline_config, run_pipeline)
from .fixtures import builtin_feeder, default_event, random_radial_network

__version__ = "0.1.0"

__all__ = [
    "Bus", "Component", "ComponentImpact", "ConfigError", "DamageScenario",
    "Depot", "DispatchInstance", "DispatchPlan", "ExactResult",
    "FailedComponent", "FlowSolution", "FragilityCurve", "GaConfig",
    "GaResult", "Generator", "GridQuakeError",
    "INFEASIBLE", "InstanceFamily", "InternalError", "Line", "LimitError",
    "LoadProfile", "LossDistribution", "LpResult", "Network",
    "OPTIMAL", "ObjectiveBreakdown", "OperationalState", "PeakShed",
    "PgaField", "PipelineConfig", "PolicyConfig", "PolicyModel", "PpoConfig",
    "RadialityReport", "RestorationTimeline", "ScenarioSet", "SeismicEvent",
    "TrainTrace", "TripleProductLinearization",
    "builtin_feeder", "cluster_to_depots", "component_failure_probabilities",
    "compute_pga_field", "config_from_document",
    "default_event", "encode_instance", "energization_state", "ens_timeline",
    "exact_dispatch", "failure_probability", "forward_reduce", "ga_dispatch",
    "generate_scenarios", "ground_motion_pga", "instance_from_scenario",
    "linearize_triple_product", "load_network", "load_network_file",
    "load_pipeline_config", "load_scenario_set", "network_to_document",
    "normal_cdf", "plan_objective", "policy_dispatch", "ppo_train",
    "random_radial_network", "reduction_distance", "return_period_loss",
    "run_pipeline", "sample_damage", "scenario_set_from_document",
    "scenario_set_to_document", "schedule_plan", "select_representatives",
    "shed_at", "solve_lp",
    "system_loss", "travel_hours", "validate_radiality", "wasserstein1",
    "__version__",
]
