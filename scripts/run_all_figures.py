#!/usr/bin/env python3
"""Run every bundled preset and collect the artifacts under one directory.

Usage:
    python scripts/run_all_figures.py [--out DIR]
"""

import argparse
import sys
import time
from pathlib import Path

from fdabeam import cli, presets


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/figures", help="root output directory")
    args = parser.parse_args()

    root = Path(args.out)
    failures = 0
    for name, (desc, text) in presets.PRESETS.items():
        start = time.perf_counter()
        try:
            sc = cli.load_scenario(text)
            cli.execute_scenario(sc, root / name)
        except Exception as exc:  # keep going; report at the end
            print(f"{name:8s} FAILED: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(f"{name:8s} {time.perf_counter() - start:6.2f}s  {desc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
