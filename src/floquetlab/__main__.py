"""``python -m floquetlab <command>``: the floquetlab command, runnable
from a checkout without installing."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
