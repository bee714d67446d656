"""Command-line interface.

Exit codes: 0 on success, 1 when the run completed but some solve did not
converge (or a Monte Carlo run dropped too many samples), 2 on input errors,
including inputs whose arrays cannot be allocated.
Diagnostics go to standard error at the level set by the NEVA_LOG
environment variable (error, warn, info, debug); results go to --output or
standard output.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from . import analysis, files
from .solver import SolveConfig, solve

log = logging.getLogger("neva")

# CLI subcommand -> scenario file kind
COMMANDS = {kind.replace("_", "-"): kind for kind in files.SCENARIO_KINDS}

LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    level_name = os.environ.get("NEVA_LOG", "warn").lower()
    level = LOG_LEVELS.get(level_name, logging.WARNING)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("neva: %(levelname)s: %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(level)


def _seed(text: str) -> int:
    """``--seed``: a whole number >= 0, as the scenario's ``seed`` must be."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative whole number, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neva",
        description="Self-consistent network valuation of interbank claims.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, kind in COMMANDS.items():
        cmd = sub.add_parser(command, help=f"run a {kind.replace('_', ' ')} scenario")
        cmd.add_argument("--scenario", required=True, help="scenario JSON file")
        cmd.add_argument("--network", required=(command != "curve"),
                         help="network JSON file")
        cmd.add_argument("--output", default=None,
                         help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument("--epsilon", type=float, default=None,
                         help="override solver tolerance")
        cmd.add_argument("--max-iter", type=int, default=None,
                         help="override solver iteration cap")
        cmd.add_argument("--seed", type=_seed, default=None,
                         help="override the Monte Carlo seed (default 0)")
    return parser


def _solver_config(scenario: files.Scenario, args) -> SolveConfig:
    config = scenario.solver
    if args.epsilon is not None:
        config = replace(config, epsilon=args.epsilon)
    if args.max_iter is not None:
        config = replace(config, max_iterations=args.max_iter)
    return config


def run_command(argv=None) -> int:
    """Parse arguments, run the requested scenario, write the results."""
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        scenario = files.load_scenario(args.scenario)
        expected = COMMANDS[args.command]
        if scenario.kind != expected:
            raise files.FileFormatError(
                f"{args.scenario}: scenario kind {scenario.kind!r} does not "
                f"match subcommand {args.command!r}")
        net = files.load_network(args.network) if args.network else None
        config = _solver_config(scenario, args)
        params = scenario.params
        status = 0
        if scenario.kind == "solve":
            result = solve(net, scenario.valuation, config, params["start"])
            status = 0 if result.converged else 1
        elif scenario.kind == "stress":
            result = analysis.stress_test(net, scenario.valuation,
                                          params["alpha_grid"], config)
            status = 0 if all(p.report.converged for p in result) else 1
        elif scenario.kind == "limit_maturity":
            result = analysis.maturity_limit_experiment(
                net, params["sigma"], params["tau_sequence"], params["beta"],
                config)
            status = 1 if result.partial else 0
        elif scenario.kind == "limit_beta":
            result = analysis.debtrank_limit_experiment(
                net, params["beta_sequence"], config)
            status = 1 if result.partial else 0
        elif scenario.kind == "curve":
            result = files.evaluate_curves(params["families"],
                                           params["equity_grid"])
        else:  # mc_global
            seed = args.seed if args.seed is not None else params["seed"]
            result = analysis.monte_carlo_global_valuation(
                net, params["sigma"], params["tau"], params["beta"],
                params["samples"], seed, config)
            status = 0 if result.valid else 1
        text = files.serialize_results(result, args.format, net)
        files.write_output(text, args.output)
        return status
    except (ValueError, OSError, MemoryError) as exc:
        # input errors (FileFormatError, NetworkError, SpecError), too large ones
        log.error("%s", exc)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
