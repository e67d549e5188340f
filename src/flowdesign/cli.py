"""Command-line entry points.

Subcommands:
  design     solve one scheme of design.SCHEMES for a topology, write
             xi.csv / theta.txt (and socp.txt for steady_state)
  simulate   closed-loop sampling simulation -> metrics.csv, rates.csv
  idealized  analytic variance propagation  -> metrics.csv, rates.csv
  synth      generate a synthetic topology bundle
  validate   load a topology bundle and check its design problem

Exit codes: 0 success, 2 configuration/usage errors (message names the
field), 1 anything else that fails.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .design import (SCHEMES, export_canonical_socp, serialize_socp,
                     solve_scheme)
from .harness import (ConfigError, ExperimentConfig, load_instance,
                      parse_config, run_idealized, run_simulation,
                      write_metrics)
from .model import FlowDesignError, floats_text, write_lines
from .network import (CONSTRAINT_MODES, TOPOLOGY_KINDS, ParameterError,
                      save_topology, synth_topology)
# unused here, but perfbench/tracing.py patches these bindings (TRACED)
from .design import (solve_classical_E, solve_myopic,  # noqa: F401
                     solve_naive, solve_steady_state_E)
from .model import validate_problem  # noqa: F401
from .network import build_measurement_model, load_topology  # noqa: F401

# synth_topology keyword -> synth flag dest
_SYNTH_DESTS = {"n_nodes": "nodes", "n_links": "links", "n_flows": "flows"}
# synth flags absent unless given, so synth_topology's defaults apply
_SYNTH_OPTIONAL = ("flow_fraction", "mu_scale", "sigma_rel", "budget", "seed")


def _seed(tok: str) -> int:
    value = int(tok)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _cmd_design(args) -> int:
    cfg = ExperimentConfig(topology_dir=args.topology, cap=args.cap,
                           tol_theta=args.tol_theta,
                           constraint_mode=args.constraint_mode)
    mm, fm, p, warnings = load_instance(cfg)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    res = solve_scheme(args.scheme, p, fm, tol_theta=cfg.tol_theta)
    os.makedirs(args.out, exist_ok=True)
    theta, *xi = floats_text([res.theta, *res.xi])
    write_lines(os.path.join(args.out, "xi.csv"),
                ["# flowdesign xi.csv v1", "op_id,xi"]
                + [f"{k},{v}" for k, v in enumerate(xi, 1)])
    write_lines(os.path.join(args.out, "theta.txt"), [theta])
    if args.scheme == "steady_state":  # the text ends each line in "\n"
        with open(os.path.join(args.out, "socp.txt"), "w", newline="",
                  encoding="utf-8") as fh:
            fh.write(serialize_socp(export_canonical_socp(p, fm)))
    print(f"{res.scheme}: theta = {theta} over {mm.n_o} observation "
          f"points -> {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    overrides = {name: getattr(args, name)  # flags left unset are None
                 for name in ("seed", "trace_seed", "flows_dump")
                 if getattr(args, name) is not None}
    cfg = replace(parse_config(args.config), **overrides)
    run = run_simulation if args.command == "simulate" else run_idealized
    ms = run(cfg)
    for warning in ms.meta["warnings"]:  # the instance's, as design prints them
        print(f"warning: {warning}", file=sys.stderr)
    write_metrics(ms, args.out, flows_dump=cfg.flows_dump)
    print(f"{args.command}[{ms.scheme}]: median max MSE "
          f"{floats_text(ms.median)[0]} over "
          f"t={ms.window[0]}..{ms.window[1]} -> {args.out}")
    return 0


def _cmd_synth(args) -> int:
    given = {name: getattr(args, name) for name in _SYNTH_OPTIONAL
             if hasattr(args, name)}
    try:
        spec = synth_topology(
            args.kind, n_nodes=args.nodes, rows=args.rows, cols=args.cols,
            n_links=args.links, n_flows=args.flows, **given)
    except ParameterError as exc:  # named by its keyword; report the flag's dest
        raise ConfigError(_SYNTH_DESTS.get(exc.param, exc.param), exc.detail) from None
    save_topology(spec, args.out)
    print(f"synth[{args.kind}]: {spec.n_v} nodes, {spec.n_o} observation "
          f"points, {spec.n_r} flows -> {args.out}")
    return 0


def _cmd_validate(args) -> int:
    mm, _fm, _p, warnings = load_instance(
        ExperimentConfig(topology_dir=args.topology))
    for warning in warnings:
        print(f"warning: {warning}")
    print(f"ok: {mm.n_v} routers, {mm.n_o} observation points, "
          f"{mm.n_r} flows, {mm.n_g} measurements")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowdesign",
        description="Sampling-rate design and Kalman tracking for network flows")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="solve rates for a topology bundle")
    d.add_argument("--topology", required=True, help="topology bundle directory")
    d.add_argument("--scheme", choices=SCHEMES, default="steady_state",
                   type=lambda name: name.replace("-", "_"))
    d.add_argument("--out", required=True, help="output directory")
    d.add_argument("--cap", type=float, default=ExperimentConfig.cap)
    d.add_argument("--tol-theta", type=float, default=ExperimentConfig.tol_theta)
    d.add_argument("--constraint-mode", choices=CONSTRAINT_MODES,
                   default=ExperimentConfig.constraint_mode)
    d.set_defaults(func=_cmd_design)

    for name in ("simulate", "idealized"):
        s = sub.add_parser(name, help=f"run {name} experiment from a config")
        s.add_argument("--config", required=True, help="experiment config file")
        s.add_argument("--out", default=".", help="output directory")
        s.add_argument("--seed", type=int, default=None,
                       help="override the config's replication seed")
        s.add_argument("--trace-seed", type=int, default=None, dest="trace_seed",
                       help="override the config's trace seed")
        s.add_argument("--flows-dump", action="store_true", default=None,
                       help="also write per-flow MSE to flows.csv")
        s.set_defaults(func=_cmd_experiment)

    g = sub.add_parser("synth", help="generate a synthetic topology bundle")
    g.add_argument("--kind", required=True,
                   choices=TOPOLOGY_KINDS)
    g.add_argument("--out", required=True)
    g.add_argument("--nodes", type=int, default=None)
    g.add_argument("--rows", type=int, default=None)
    g.add_argument("--cols", type=int, default=None)
    g.add_argument("--links", type=int, default=None)
    g.add_argument("--flows", type=int, default=None)
    for flag in _SYNTH_OPTIONAL:
        g.add_argument("--" + flag.replace("_", "-"), dest=flag,
                       type=_seed if flag == "seed" else float,
                       default=argparse.SUPPRESS)
    g.set_defaults(func=_cmd_synth)

    v = sub.add_parser("validate", help="check a topology bundle")
    v.add_argument("--topology", required=True)
    v.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FlowDesignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
