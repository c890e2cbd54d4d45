"""`python -m tplab` runs the tplab command line."""

from .cli import main

main()
