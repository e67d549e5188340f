"""Command-line entry points.

Subcommands:
  design     solve sampling rates for a topology, write xi.csv / theta.txt
             (and socp.txt for the steady-state scheme)
  simulate   closed-loop sampling simulation -> metrics.csv, rates.csv
  idealized  analytic variance propagation  -> metrics.csv, rates.csv
  synth      generate a synthetic topology bundle
  validate   structural checks on a topology bundle

Exit codes: 0 success, 2 configuration/usage errors (message names the
field), 1 anything else that fails.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .design import (export_canonical_socp, serialize_socp, solve_classical_E,
                     solve_myopic, solve_naive, solve_steady_state_E)
from .harness import (ConfigError, ExperimentConfig, load_instance,
                      parse_config, run_idealized, run_simulation,
                      write_metrics)
from .model import FlowDesignError, ValidationError, validate_problem
from .network import (CONSTRAINT_MODES, TOPOLOGY_KINDS,
                      build_measurement_model, design_problem, flow_model,
                      load_topology, save_topology, synth_topology)

_DESIGN_SCHEMES = ("naive", "myopic", "classical", "steady-state")


def _g(v) -> str:
    return format(float(v), ".17g")


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
    if args.scheme == "naive":
        res = solve_naive(p)
    elif args.scheme == "classical":
        res = solve_classical_E(p)
    elif args.scheme == "myopic":
        res = solve_myopic(p, fm, np.zeros(fm.n_r))
    else:
        res = solve_steady_state_E(p, fm, tol_theta=cfg.tol_theta)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "xi.csv"), "w", newline="") as fh:
        fh.write("# flowdesign xi.csv v1\n")
        fh.write("op_id,xi\n")
        for k, v in enumerate(res.xi):
            fh.write(f"{k + 1},{_g(v)}\n")
    with open(os.path.join(args.out, "theta.txt"), "w") as fh:
        fh.write(_g(res.theta) + "\n")
    if args.scheme == "steady-state":
        with open(os.path.join(args.out, "socp.txt"), "w") as fh:
            fh.write(serialize_socp(export_canonical_socp(p, fm)))
    print(f"{res.scheme}: theta = {_g(res.theta)} over {mm.n_o} observation "
          f"points -> {args.out}")
    return 0


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.trace_seed is not None:
        cfg = replace(cfg, trace_seed=args.trace_seed)
    if args.flows_dump:
        cfg = replace(cfg, flows_dump=True)
    return cfg


def _cmd_experiment(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    run = run_simulation if args.command == "simulate" else run_idealized
    ms = run(cfg)
    write_metrics(ms, args.out, flows_dump=cfg.flows_dump)
    print(f"{args.command}[{ms.scheme}]: median max MSE {_g(ms.median)} over "
          f"t={ms.window[0]}..{ms.window[1]} -> {args.out}")
    return 0


def _cmd_synth(args) -> int:
    try:
        spec = synth_topology(
            args.kind, n_nodes=args.nodes, rows=args.rows, cols=args.cols,
            n_links=args.links, n_flows=args.flows,
            flow_fraction=args.flow_fraction, mu_scale=args.mu_scale,
            sigma_rel=args.sigma_rel, budget=args.budget, seed=args.seed)
    except ValidationError as exc:  # a bad generator parameter
        raise ConfigError("kind", str(exc)) from None
    save_topology(spec, args.out)
    print(f"synth[{args.kind}]: {spec.n_v} nodes, {spec.n_o} observation "
          f"points, {spec.n_r} flows -> {args.out}")
    return 0


def _cmd_validate(args) -> int:
    spec = load_topology(args.topology)
    mm = build_measurement_model(spec)
    fm = flow_model(mm)
    p = design_problem(mm)
    warnings = validate_problem(p, fm)
    # structural spot-check: L'D^-1 L is diagonal by construction (each
    # measurement sees one flow); its diagonal must equal J xi
    rng = np.random.default_rng(0)
    for _ in range(5):
        xi = rng.uniform(0.0, 1.0, mm.n_o)
        diag = np.bincount(mm.l_of, weights=xi[mm.k_of] / mm.mu[mm.l_of],
                           minlength=mm.n_r)
        if np.any(np.abs(diag - mm.J @ xi) > 1e-12):
            print("error: diag(L'D^-1 L) != J xi", file=sys.stderr)
            return 1
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
    d.add_argument("--scheme", choices=_DESIGN_SCHEMES, default="steady-state")
    d.add_argument("--out", required=True, help="output directory")
    d.add_argument("--cap", type=float, default=ExperimentConfig.cap)
    d.add_argument("--tol-theta", type=float, dest="tol_theta",
                   default=ExperimentConfig.tol_theta)
    d.add_argument("--constraint-mode", dest="constraint_mode",
                   choices=CONSTRAINT_MODES,
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
        s.add_argument("--flows-dump", action="store_true", dest="flows_dump",
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
    g.add_argument("--flow-fraction", type=float, default=0.25,
                   dest="flow_fraction")
    g.add_argument("--mu-scale", type=float, default=1000.0, dest="mu_scale")
    g.add_argument("--sigma-rel", type=float, default=0.05, dest="sigma_rel")
    g.add_argument("--budget", type=float, default=0.01)
    g.add_argument("--seed", type=_seed, default=0)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FlowDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
