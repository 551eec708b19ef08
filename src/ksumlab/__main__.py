"""``python -m ksumlab``: the same command as the ``ksumlab`` script."""

import sys

from .cli import main

sys.exit(main())
