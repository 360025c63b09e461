"""One set-up: import smallpoly and build one workload's inputs, then exit.

``run.py`` times this script in fresh interpreters to measure set-up time:
    python3 perfbench/probe.py <workload>
"""

import sys

import workloads

workloads.build(sys.argv[1])
