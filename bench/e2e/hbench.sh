#!/bin/sh
# Builds the end-to-end harness from source and runs it with the given
# arguments (see README.md).  Run it from the repository root.
exec dune exec --root . --cache=disabled --display=quiet bench/e2e/hbench.exe -- "$@"
