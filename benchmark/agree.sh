#!/usr/bin/env bash
# Runs the untraced suite twice on one build and fails if the two runs
# differ by more than the bounds in BENCHMARK.json (see README.md).
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" agree "$@"
