"""Child-process entry point: one benchmark operation per interpreter.

    python3 perfbench/child.py setup CONFIG...   import gencomp.cli, then load
                                                 and validate each config
    python3 perfbench/child.py CLI-ARGS...       gencomp.cli.main(CLI-ARGS)

The package is imported from the checkout's `src/`, so the benchmark always
measures the source tree it sits in.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv) -> int:
    if argv and argv[0] == "setup":
        from gencomp import cli  # noqa: F401  (import time is part of set-up)
        from gencomp.harness import load_config_file, validate_config

        for path in argv[1:]:
            validate_config(load_config_file(path))
        return 0
    from gencomp.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
