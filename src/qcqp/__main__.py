"""`python -m qcqp ...` runs the command line, as the `qcqp` console script does."""
import sys

from .cli import main

sys.exit(main())
