"""``python -m curvilin``: the same entry point as the ``curvilin`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
