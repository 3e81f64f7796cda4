"""`python -m socbec`: the `socbec` command, runnable from a source tree
(`PYTHONPATH=src python -m socbec run <config>`) without an install."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
