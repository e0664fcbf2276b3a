"""``python -m mvsr``: the same command line as the ``mvsr`` script."""
import sys

from .cli import main

sys.exit(main())
