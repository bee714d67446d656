"""Fresh-process probes started by ``run.py``; each prints one JSON line.

``setup NETWORK SCENARIO``
    time ``import neva``, ``files.load_network``, ``files.load_scenario``
    and ``ValuationSpec.bind`` (when the scenario has a valuation block).
``run COMMANDS_JSON``
    run the workload's CLI commands once through ``neva.cli.run_command``
    and report the exit codes and this process's peak resident memory.
"""
import json
import resource
import sys
from time import perf_counter


def setup(network: str, scenario: str) -> dict:
    start = perf_counter()
    import neva
    net = neva.files.load_network(network)
    parsed = neva.files.load_scenario(scenario)
    if parsed.valuation is not None:
        parsed.valuation.bind(net)
    return {"setup_s": perf_counter() - start}


def run(commands: str) -> dict:
    from neva.cli import run_command
    statuses = [run_command(argv) for argv in json.loads(commands)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"statuses": statuses, "peak_rss_mb": peak_kb / 1024.0}


if __name__ == "__main__":
    probe = {"setup": setup, "run": run}[sys.argv[1]]
    print(json.dumps(probe(*sys.argv[2:])))
