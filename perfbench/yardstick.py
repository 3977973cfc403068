"""A fixed piece of cold-process work that measures how fast the host runs now.

Usage: python3 perfbench/yardstick.py

It imports a fixed set of standard-library modules that a fresh interpreter
has not loaded yet and prints the seconds that took.  Like the workloads, this
unmarshals code, executes module bodies and builds classes and dicts in a
process whose memory is cold, so other tenants of the host slow it down by
about as much as they slow the workloads (see perfbench/README.md).  It does
not touch translation_lab, so no change to the program moves it.
"""

import time

start = time.perf_counter()
# fmt: off
import argparse, dataclasses, decimal, email.parser, fractions, http.client, json  # noqa: E401,E402,F401
import statistics, unittest, xml.dom.minidom  # noqa: E401,E402,F401
# fmt: on

print(time.perf_counter() - start)
