"""``python -m upfmec``: the same command line as the ``upfmec`` script."""

import sys

from .cli import main

sys.exit(main())
