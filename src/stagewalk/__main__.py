"""`python -m stagewalk <cmd>`: the same commands as the `stagewalk` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
