#!/usr/bin/env bash
# Runs the installed `descm` console script end to end; every JSON output
# must parse. Every CI matrix entry runs it, at the latest numpy and at the
# declared floor.
set -euo pipefail

descm validate > /dev/null
descm converge --potential 'cheb:20;shift=-1' --mesh trace-min > /dev/null
# Chebyshev composition and the trace slope, past the first truncations (exit 3:
# the sweep does not converge by N = 30)
descm converge --potential 'cheb:40;shift=-1' --mesh trace-min --N-max 30 > /dev/null || test $? -eq 3
# h*h underflows to 0 at the first mesh size; the trace there is inf, with no warning
descm trace-scan --potential poly:1,1 --N 3 --points 3 --h-min 1e-300 --h-max 1 > /dev/null
descm solve --potential 'poly:1,1' --N 17 --levels 3 --format json | python -m json.tool > /dev/null
# a spec read from a CRLF file ends in \r, which JSON must escape
descm solve --potential $'poly:1,1\r' --N 17 --format json | python -m json.tool > /dev/null
# near-degenerate doublet: one level from each parity block
descm solve --potential 'poly:-20,1' --N 50 --levels 2 --format json | python -m json.tool > /dev/null
descm converge --potential 'poly:1,1' --format json | python -m json.tool > /dev/null
# m = 1, where V' = 2 c1 x is a one-term stage of the shared Horner routine
descm converge --potential poly:1 --mesh trace-min --format json | python -m json.tool > /dev/null
descm trace-scan --potential 'poly:1,-4,1' --N 20 --format json | python -m json.tool > /dev/null
descm validate --format json | python -m json.tool > /dev/null
descm table --name 1 --format json | python -m json.tool > /dev/null
