"""Command line interface.

Subcommands: run <config>, verify <trace>, catalog.  Exit codes:
0 pass, 2 config/parse error, 3 budget exceeded, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import adversaries, diagonal, enumops, harness
from .errors import BudgetError, ConfigError, GencompError, InvariantViolationError

EXIT_PASS = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4


def _cmd_run(args) -> int:
    config = harness.load_config_file(args.config)
    report, _ = harness.run_experiment(
        config, out_dir=args.out_dir, stages=args.stages, seed=args.seed
    )
    for v in report["verdicts"]:
        print("%-28s %s" % (v["invariant"], "PASS" if v["pass"] else "FAIL"))
    if not harness.report_passes(report):
        return EXIT_VIOLATION
    return EXIT_PASS


def _cmd_verify(args) -> int:
    problems = harness.verify_trace_file(args.trace)
    if problems:
        for p in problems:
            print("VIOLATION: %s" % p)
        return EXIT_VIOLATION
    print("trace verified: replay matches and all audits pass")
    return EXIT_PASS


def _cmd_catalog(args) -> int:
    doc = {
        "scenarios": list(harness.SCENARIOS),
        "adversaries": sorted(adversaries.CATALOG),
        "selectors": ["leftmost", "rightmost", "scripted"],
        "machines": sorted(enumops.battery()),
        "trace_format": diagonal.TRACE_FORMAT,
        "report_format": harness.REPORT_FORMAT,
        "scenario_trace_format": harness.SCENARIO_TRACE_FORMAT,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_PASS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gencomp",
        description="Deterministic experiments over density-1 computability constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario from a JSON config")
    run_p.add_argument("config")
    run_p.add_argument("--stages", type=int, default=None, help="override the stage count")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.add_argument("--out-dir", default=None, help="override the output directory")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="replay and audit a trace file")
    verify_p.add_argument("trace")
    verify_p.set_defaults(func=_cmd_verify)

    catalog_p = sub.add_parser("catalog", help="list built-in components")
    catalog_p.set_defaults(func=_cmd_catalog)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print("budget error: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolationError as exc:
        print("invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_VIOLATION
    except GencompError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
