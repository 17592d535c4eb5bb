#!/usr/bin/env python3
"""Check that every preset still writes the artifacts recorded in preset_digests.json.

Runs scripts/run_all_figures.py into a temporary directory and compares the
SHA-256 of each preset's manifest.json with the digest recorded next to this
script.  A manifest lists the hash of every artifact, so one matching digest
means every file of that preset is byte-identical.  The CLI hashes each
artifact from the bytes it writes, so the script also hashes every listed file
from disk and reports MISMATCH, naming the file, where the two disagree.
Prints one line per preset and exits 1 on any mismatch, missing or unrecorded
preset.

It is not part of the test suite: the last digits of the grids depend on the
numpy/OpenBLAS build, so the recorded digests hold only on a like build.  A
change that alters preset bytes on purpose records the new digests here and
lists the changed artifacts.

Usage:
    python scripts/check_preset_digests.py
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "preset_digests.json"


def _mismatched_artifacts(out: Path) -> list[str]:
    "Artifacts whose manifest digest is not the SHA-256 of the file read back, or that are gone."
    listed = json.loads((out / "manifest.json").read_text())["artifacts"]
    return [name for name, digest in sorted(listed.items())
            if not (out / name).is_file()
            or hashlib.sha256((out / name).read_bytes()).hexdigest() != digest]


def main() -> int:
    expected = json.loads(DIGESTS.read_text())
    with tempfile.TemporaryDirectory(prefix="fdabeam-digests-") as tmp:
        run = subprocess.run([sys.executable, str(HERE / "run_all_figures.py"), "--out", tmp],
                             stdout=subprocess.DEVNULL)
        if run.returncode != 0:
            print("run_all_figures.py failed", file=sys.stderr)
            return 1
        got = {path.parent.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in Path(tmp).glob("*/manifest.json")}
        mismatched = {name: _mismatched_artifacts(Path(tmp) / name) for name in got}
    bad = 0
    for name in sorted(expected.keys() | got.keys()):
        if name not in got:
            verdict = "MISSING"
        elif mismatched[name]:
            verdict = f"MISMATCH {' '.join(mismatched[name])}"
        elif name not in expected:
            verdict = "UNRECORDED"
        else:
            verdict = "ok" if got[name] == expected[name] else "CHANGED"
        bad += verdict != "ok"
        print(f"{name:8s} {verdict}")
    print(f"{bad} preset(s) differ" if bad else f"all {len(expected)} presets match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
