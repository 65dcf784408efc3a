"""Set-up probe: import dohazard from the checkout and write one workload's
inputs, then print "ready" and exit. run.py times this process from spawn
to that line, which is the set-up a user pays before the first pass.

Usage: python3 perfbench/probe.py <workload> <seed> <work dir>
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    workloads.load_package(Path(__file__).resolve().parent.parent)
    workloads.prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print("ready", flush=True)
