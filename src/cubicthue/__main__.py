"""python -m cubicthue: the command line of cubicthue.cli."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
