"""Reference task that measures the host's speed during a run.

Usage: python3 calibrate.py MARK_FILE

Imports numpy as the CLI does, writes the CLOCK_MONOTONIC time in ns to
MARK_FILE, then runs fixed work shaped like milnortc's two kinds of hot
loop: set algebra over small tuples in the interpreter, and uint8 matrix
products of slice size in numpy.  It uses nothing from the repository, so
no change to the program can change its cost; only the host can.
"""

import sys
import time

import numpy as np

with open(sys.argv[1], "w", encoding="ascii") as fh:
    fh.write(str(time.monotonic_ns()))

acc = set()
for i in range(12000):
    for j in range(20):
        acc ^= {(i % 97, j, i * j % 13)}

a = (np.random.default_rng(0).random((280, 280)) < 0.05).astype(np.uint8)
for _ in range(6):
    b = (a @ a) & 1
