"""``python -m tmiusim``: the same command line as the ``tmiusim`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
