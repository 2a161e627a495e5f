"""One cold start of a workload, timed from outside by run.py as set-up.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SIZE

Starts the interpreter, imports the library, resolves the workload's
scenario and makes its first call, then exits.
"""

import sys

import spec
import workloads

if __name__ == "__main__":
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.first_call(spec.workload(name), seed, size)
