"""Replay the golden corpus through a `bst` command and byte-compare it.

    python tests/golden/replay.py bst
    PYTHONPATH=$PWD/src python tests/golden/replay.py python -m bottleneck_trees

Every run that `make_golden.golden_runs` lists goes through the given
command in a subprocess, started in the system temporary directory so that
nothing is picked up from the checkout; a relative PYTHONPATH therefore does
not reach the package.  Prints the number of files compared and the name of
every output that differs from its golden file, and exits 1 on any mismatch.
"""

import subprocess
import sys
import tempfile

import make_golden


def main(command: list[str]) -> int:
    def run(argv: list[str]) -> int:
        return subprocess.run([*command, *argv], cwd=tempfile.gettempdir()).returncode

    mismatches = make_golden.replay(run)
    count = sum(1 for _ in make_golden.golden_runs())
    print(f"{count} files compared, {len(mismatches)} mismatched")
    for name in mismatches:
        print(f"mismatch: {name}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} CMD...")
    sys.exit(main(sys.argv[1:]))
