#!/usr/bin/env bash
# Reproduce everything: configure, build, run the full test suite, then every
# benchmark binary, writing their outputs to test_output.txt and
# bench_output.txt in the repo root (not committed).
#
# Usage:
#   scripts/run_all.sh               # default scale (1M-packet traces)
#   COCO_BENCH_PACKETS=4000000 scripts/run_all.sh   # closer to paper scale
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

{
  for b in build/bench/*; do
    echo "===== $b ====="
    "$b"
    echo
  done
} 2>&1 | tee bench_output.txt
