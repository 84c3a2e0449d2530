#!/bin/sh
# Build the benchmark from this checkout's sources, then run it with the
# given arguments (see cbench/README.md). Build output goes to stderr so
# that the benchmark's JSON stays the last line of stdout.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f cbench/dune ]; then
  echo "cbench: not a checkout of the repository (dune-project, lib/ or cbench/dune missing)" >&2
  exit 2
fi
dune build --root . ./cbench/main.exe 1>&2
exec ./_build/default/cbench/main.exe "$@"
