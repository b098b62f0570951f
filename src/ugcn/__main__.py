"""`python -m ugcn`: the `ugcn` command line."""

import sys

from .cli import main

sys.exit(main())
