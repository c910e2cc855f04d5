"""SHA-256 digests of the files ``besselhardy all`` writes, for byte-identity checks.

Usage, from the root of a checkout (it imports ``besselhardy`` from that
checkout's ``src/``):

    python3 tools/cli_digests.py [--seed 0]

It runs ``besselhardy all --seed N`` at the default config into a temporary
directory and prints one ``<sha256>  <file>`` line for every CSV and for
``section.txt``, sorted by name, then the run's exit status.  ``summary.json``
is left out: it holds timings.  Running it at two commits and diffing the
output checks that the CLI artifacts are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from besselhardy.cli import main as cli_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["all", "--seed", str(args.seed), "--out", out])
        for path in sorted(Path(out).iterdir()):
            if path.suffix == ".csv" or path.name == "section.txt":
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    print(f"exit {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
