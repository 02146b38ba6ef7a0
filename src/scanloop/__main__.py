"""Program entry point: ``python -m scanloop`` and the ``scanloop`` script both
run ``run``."""

import gc
import sys

from . import cli


def run() -> int:
    """``cli.main`` on the process's arguments, as a program."""
    # The heap built by the imports lives as long as the run: moved out of
    # the collector's reach, full collections during the run skip it.
    gc.freeze()
    return cli.main()


if __name__ == "__main__":
    sys.exit(run())
