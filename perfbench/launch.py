"""Child process of an untimed-layer run: one milnortc CLI command.

Usage: python3 launch.py MARK_FILE CLI_ARG...

Does what the ``milnortc`` console script does (import ``milnortc.cli``
and call ``main``), after writing the CLOCK_MONOTONIC time in ns at which
``main`` is entered to MARK_FILE, so the parent can split interpreter start
and import from the command's own work.
"""

import sys
import time

from milnortc.cli import main

with open(sys.argv[1], "w", encoding="ascii") as fh:
    fh.write(str(time.monotonic_ns()))
sys.exit(main(sys.argv[2:]))
