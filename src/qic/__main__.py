"""``python -m qic`` and the installed ``qic`` script: one process entry."""

import gc
import sys


def run() -> int:
    """Run the CLI in a fresh process: ``qic.cli.main()``'s exit code.

    The import (numpy and qic) runs with the collector off and is then
    frozen, so neither the run's collections nor interpreter shutdown
    walk the import-time heap.
    """
    gc.disable()
    try:
        from . import cli
        gc.freeze()
    finally:
        gc.enable()
    return cli.main()


if __name__ == "__main__":
    sys.exit(run())
