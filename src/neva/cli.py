"""Command-line interface.

Exit codes: 0 on success, 1 when the run completed but some solve did not
converge (or a Monte Carlo run dropped too many samples), 2 on input errors,
including inputs whose arrays cannot be allocated.
Diagnostics go to standard error at the level set by the NEVA_LOG
environment variable (error, warn, info, debug; any other value exits 2);
results go to --output or standard output.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import logging
import os
import sys

from . import files

log = logging.getLogger("neva")

# CLI subcommand -> scenario file kind
COMMANDS = {kind.replace("_", "-"): kind for kind in files.SCENARIO_KINDS}

LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("neva: %(levelname)s: %(message)s"))
    log.handlers[:] = [handler]  # installed first: a bad level is logged too
    level_name = os.environ.get("NEVA_LOG", "warn")
    if level_name.lower() not in LOG_LEVELS:
        raise ValueError(f"NEVA_LOG: expected one of {', '.join(LOG_LEVELS)}, "
                         f"got {level_name!r}")
    log.setLevel(LOG_LEVELS[level_name.lower()])


@functools.cache  # once per process
def _pin_heap() -> None:
    """Keep the solves' (rows, banks) temporaries on a heap that stays mapped:
    by default glibc maps each afresh or trims it away, so its pages fault in
    again every sweep.  The mmap threshold is glibc's own 64-bit ceiling for
    its dynamic threshold, 32 MiB; the trim threshold is twice that, its rule."""
    mallopt = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _seed(text: str) -> int:
    """``--seed``: a whole number >= 0, as the scenario's ``seed`` must be."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative whole number, got {text!r}")
    return int(text)


# Flags that override a scenario value, dest -> (flag, type, help): a command has
# the solver flags if its kind solves, a field's flag if its kind reads the field.
SOLVER_FLAGS = {"epsilon": ("--epsilon", float, "override solver tolerance"),
                "max_iterations": ("--max-iter", int, "override solver iteration cap")}
FIELD_FLAGS = {"seed": ("--seed", _seed, "override the Monte Carlo seed (default 0)")}


@functools.cache  # built once per process: parse_args does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neva",
        description="Self-consistent network valuation of interbank claims.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, name in COMMANDS.items():
        kind = files.SCENARIO_KINDS[name]
        cmd = sub.add_parser(command, help=f"run a {name.replace('_', ' ')} scenario")
        cmd.add_argument("--scenario", required=True, help="scenario JSON file")
        cmd.add_argument("--network", required=kind.solves, help="network JSON file")
        cmd.add_argument("--output", default=None,
                         help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        flags = {**(SOLVER_FLAGS if kind.solves else {}),
                 **{dest: FIELD_FLAGS[dest] for dest in kind.fields if dest in FIELD_FLAGS}}
        for dest, (flag, parse, text) in flags.items():
            cmd.add_argument(flag, dest=dest, type=parse, help=text,
                             metavar=flag[2:].upper().replace("-", "_"))
    return parser


def _given(args, flags) -> dict:
    return {dest: value for dest in flags
            if (value := getattr(args, dest, None)) is not None}


def run_command(argv=None) -> int:
    """Parse arguments, run the requested scenario, write the results."""
    _pin_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        _configure_logging()
        scenario = files.load_scenario(args.scenario)
        if scenario.kind != COMMANDS[args.command]:
            raise files.FileFormatError(
                f"{args.scenario}: scenario kind {scenario.kind!r} does not "
                f"match subcommand {args.command!r}")
        net = files.load_network(args.network) if args.network else None
        kind = files.SCENARIO_KINDS[scenario.kind]
        config = scenario.solver and files.SolveConfig(
            **{**vars(scenario.solver), **_given(args, SOLVER_FLAGS)})
        try:
            result = kind.run(net, scenario.valuation, config,
                              **{**scenario.params, **_given(args, FIELD_FLAGS)})
        except files.SpecError as exc:  # a bank's factor constants: the files checked the rest
            raise files.FileFormatError(f"{args.network}: {exc}") from exc
        files.write_output(files.render_results(result, args.format, net), args.output)
        return 0 if kind.complete(result) else 1
    except (ValueError, OSError, MemoryError) as exc:
        # input errors (FileFormatError, NetworkError, SpecError), too large ones
        log.error("%s", exc)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
