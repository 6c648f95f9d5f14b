"""python -m blochquad: the command line, without an installed console script."""

from .cli import run

run()
