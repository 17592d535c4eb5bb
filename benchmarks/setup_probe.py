"""Set-up time of one fresh interpreter, as a CLI user pays it.

Usage: python3 setup_probe.py SRC_DIR OUT_DIR < scenario.ini

Times from before ``import fdabeam.cli`` to the end of one scenario written to
OUT_DIR and prints the seconds on stdout.
"""

import sys
import time

text = sys.stdin.read()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from fdabeam import cli  # noqa: E402

cli.execute_scenario(cli.load_scenario(text), sys.argv[2])
print(repr(time.perf_counter() - t0))
