"""Entry point for ``python -m crumby``; see crumby.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
