#!/usr/bin/env bash
# Runs every workload once, end-to-end metrics only:
#   bash perfbench/run_all.sh [seed] [seconds]
set -euo pipefail
for workload in egf-bigint ogf-sieve weighted-rational estimate-float; do
  python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" --seconds "${2:-25}" --trace 0
done
