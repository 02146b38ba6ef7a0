"""Module entry point: ``python -m scanloop``."""

import gc
import sys

from .cli import main

if __name__ == "__main__":
    # The heap built by the imports lives as long as the run: moved out of
    # the collector's reach, full collections during the run skip it.
    gc.freeze()
    sys.exit(main())
