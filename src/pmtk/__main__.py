"""``python -m pmtk``: the same command line as the ``pmtk`` console script."""

import sys

from .cli import main

sys.exit(main())
