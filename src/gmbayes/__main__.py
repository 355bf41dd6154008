"""``python -m gmbayes``: the same command line as the ``gmbayes`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
