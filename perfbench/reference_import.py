"""Set-up reference: a fresh process that imports what fqx builds on, not fqx.

    python3 perfbench/reference_import.py

Prints the seconds from its first statement to the end of its imports.
``run.py`` starts one next to each set-up process and divides the
workload's set-up time by the median of these, so that ``setup_s``
follows fqx and not the speed of the host (see ``README.md``).  The
imports define the unit of ``setup_s``, so they stay as they are.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402,F401
import concurrent.futures  # noqa: E402,F401
import fractions  # noqa: E402,F401
import json  # noqa: E402,F401
import statistics  # noqa: E402,F401

import numpy  # noqa: E402,F401

print(time.perf_counter() - STARTED)
