#!/usr/bin/env bash
# The end-to-end benchmark in one command: builds bench/e2e (Release) and
# runs the four workloads, each in its own process; exits non-zero on any
# failed output check. Arguments pass through to run.py, e.g.
#
#   bench/e2e/run.sh                 # all workloads, end-to-end metrics
#   bench/e2e/run.sh --trace         # traced: per-layer metrics + traces
#   bench/e2e/run.sh --smoke         # 2% sizes, 1 s each
#   bench/e2e/run.sh --runs 5 --out DIR   # result files for compare.py
exec python3 "$(dirname "$0")/run.py" "$@"
