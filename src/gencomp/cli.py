"""Command line interface.

    gencomp run <config.json> [--stages N] [--seed S] [--out-dir DIR]
    gencomp verify <trace.json>
    gencomp catalog

A config file holds one JSON object.  The options of `run` set the config
fields of the same names (`--out-dir` sets `out_dir`), and a flag wins
over the file.  `verify` replays a trace from the config it echoes and
writes nothing.  An option's value is the next argument or follows `=`
(`--out-dir=DIR`), and options may come before or after the positional
argument.  Exit codes: 0 pass (and `-h`/`--help`), 1 any other package
error, 2 config, parse or usage error, 3 budget exceeded, 4 invariant
violation.  The parser is written out here because importing `argparse`
(with `gettext` and `locale`) would cost every command more than the
rest of its argument handling.
"""

from __future__ import annotations

import json
import sys

from . import adversaries, diagonal, enumops, harness
from .errors import BudgetError, ConfigError, GencompError, InvariantViolationError

EXIT_PASS = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4


def _cmd_run(config, **fields) -> int:
    report, _ = harness.run_experiment({**harness.load_config_file(config), **fields})
    for v in report["verdicts"]:
        print("%-28s %s" % (v["invariant"], "PASS" if v["pass"] else "FAIL"))
    if not harness.report_passes(report):
        return EXIT_VIOLATION
    return EXIT_PASS


def _cmd_verify(trace) -> int:
    problems = harness.verify_trace_file(trace)
    if problems:
        for p in problems:
            print("VIOLATION: %s" % p)
        return EXIT_VIOLATION
    print("trace verified: replay matches and all audits pass")
    return EXIT_PASS


def _cmd_catalog() -> int:
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


USAGE = """usage: gencomp run <config.json> [--stages N] [--seed S] [--out-dir DIR]
       gencomp verify <trace.json>
       gencomp catalog"""

HELP = USAGE + """

Deterministic experiments over density-1 computability constructions.

  run      run a scenario from a JSON config object; --stages, --seed and
           --out-dir set its fields stages, seed and out_dir
  verify   replay and audit a trace file; writes nothing
  catalog  list built-in components

An option's value follows it or '=': --out-dir DIR, --out-dir=DIR."""

# name -> (handler, positional arguments, option value types)
COMMANDS = {
    "run": (_cmd_run, ("config",), {"--stages": int, "--seed": int, "--out-dir": str}),
    "verify": (_cmd_verify, ("trace",), {}),
    "catalog": (_cmd_catalog, (), {}),
}


class _UsageError(Exception):
    pass


def _parse(argv):
    """The command of an argument list, its positional arguments and its
    options as keyword arguments of the command's handler."""
    if not argv:
        raise _UsageError("the following arguments are required: command")
    command, rest = argv[0], iter(argv[1:])
    if command not in COMMANDS:
        raise _UsageError("invalid command %r (choose from %s)"
                          % (command, ", ".join(map(repr, COMMANDS))))
    _, names, types = COMMANDS[command]
    positionals, options = [], {}
    for arg in rest:
        if arg.startswith("-") and arg != "-":
            name, has_value, value = arg.partition("=")
            if name not in types:
                raise _UsageError("unrecognized arguments: %s" % arg)
            if not has_value:
                value = next(rest, None)
                # a negative number is a value, any other dash word an option
                if value is None or value.startswith("-") and not value[1:].isdigit():
                    raise _UsageError("argument %s: expected one argument" % name)
            try:
                options[name[2:].replace("-", "_")] = types[name](value)
            except ValueError:
                raise _UsageError("argument %s: invalid %s value: %r"
                                  % (name, types[name].__name__, value)) from None
        else:
            positionals.append(arg)
    if len(positionals) < len(names):
        raise _UsageError("the following arguments are required: %s"
                          % ", ".join(names[len(positionals):]))
    if len(positionals) > len(names):
        raise _UsageError("unrecognized arguments: %s"
                          % " ".join(positionals[len(names):]))
    return command, positionals, options


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(HELP)
        return EXIT_PASS
    try:
        command, positionals, options = _parse(argv)
    except _UsageError as exc:
        print("%s\ngencomp: error: %s" % (USAGE, exc), file=sys.stderr)
        return EXIT_PARSE
    try:
        return COMMANDS[command][0](*positionals, **options)
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
