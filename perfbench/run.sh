#!/usr/bin/env bash
# Build the benchmark from source in .bench_build/ and run it; every
# argument goes to perfbench/main.exe (see perfbench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
exec dune exec --root . --build-dir .bench_build --profile release \
  --cache disabled --display quiet --no-print-directory \
  -- perfbench/main.exe "$@"
