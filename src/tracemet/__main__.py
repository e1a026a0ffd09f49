"""``python -m tracemet``: the command line of ``tracemet.cli``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
