"""Sampling-rate design and Kalman tracking for network flow volumes."""

from .model import (DesignProblem, FlowDesignError, FlowModel,
                    ValidationError, check_design_output, validate_problem)
from .filtering import predict_update, predicted_info, steady_state_info
from .lp import LinearProgram, LpSolution, check_feasible, solve_lp
from .design import (SCHEMES, CanonicalSocp, DesignResult, InfeasibleError,
                     SocpCone, export_canonical_socp, serialize_socp,
                     solve_classical_E, solve_myopic, solve_naive,
                     solve_scheme, solve_steady_state_E)
from .network import (Flow, MeasurementModel, RoutingError, TopologySpec,
                      build_measurement_model, design_problem, flow_model,
                      load_topology, remap_mu, route_flows, save_topology,
                      synth_topology)
from .simulate import (Trace, fuse_gls, gen_random_walk_trace, load_trace,
                       sample_packets, save_trace)
from .harness import (ConfigError, ExperimentConfig, MetricsSeries,
                      parse_config, run_idealized, run_simulation,
                      write_metrics)

__version__ = "0.1.0"

__all__ = [
    "CanonicalSocp", "ConfigError", "DesignProblem", "DesignResult",
    "ExperimentConfig", "Flow", "FlowDesignError", "FlowModel",
    "InfeasibleError", "LinearProgram", "LpSolution", "MeasurementModel",
    "MetricsSeries", "RoutingError", "SCHEMES", "SocpCone", "TopologySpec",
    "Trace", "ValidationError", "build_measurement_model",
    "check_design_output", "check_feasible", "design_problem",
    "export_canonical_socp", "flow_model", "fuse_gls", "gen_random_walk_trace",
    "load_topology", "load_trace", "parse_config", "predict_update",
    "predicted_info", "remap_mu", "route_flows", "run_idealized",
    "run_simulation", "sample_packets", "save_topology", "save_trace",
    "serialize_socp", "solve_classical_E", "solve_lp", "solve_myopic",
    "solve_naive", "solve_scheme", "solve_steady_state_E", "steady_state_info",
    "synth_topology", "validate_problem", "write_metrics",
]
