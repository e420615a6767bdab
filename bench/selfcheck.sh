#!/bin/sh
# Self-agreement: run the full benchmark twice on this checkout and fail
# unless every workload x end-to-end row is `ok` and every modeled and
# count metric (end-to-end and per-layer) is identical in both.
# usage: bench/selfcheck.sh [--seed N] [--smoke]   (from the repository root)
set -eu
here=$(dirname "$0")
python3 "$here/run.py" "$@" --out "$here/out/self_a"
python3 "$here/run.py" "$@" --out "$here/out/self_b"
python3 "$here/run.py" --compare "$here/out/self_a/result.json" \
    "$here/out/self_b/result.json" --exact
