#!/usr/bin/env bash
# Runs the installed `descm` console script end to end; every JSON output
# must parse. Every CI matrix entry runs it, at the latest numpy, at the
# declared floor and at a numpy pre-release.
set -euo pipefail

descm validate > /dev/null
descm converge --potential 'cheb:20;shift=-1' --mesh trace-min > /dev/null
# Chebyshev composition and the trace slope, past the first truncations (exit 3:
# the sweep does not converge by N = 30); JSON rows come straight from the
# table, and the first record's eps_n is null
status=0
out=$(descm converge --potential 'cheb:40;shift=-1' --mesh trace-min --N-max 30 --format json) \
    || status=$?
test "$status" -eq 3
printf '%s\n' "$out" | python -m json.tool \
    | python -c 'import json, sys; assert json.load(sys.stdin)["records"][0]["eps_n"] is None'
# h*h underflows to 0 at the first mesh size; the trace there is inf, with no
# warning, and null in JSON
descm trace-scan --potential poly:1,1 --N 3 --points 3 --h-min 1e-300 --h-max 1 > /dev/null
descm trace-scan --potential poly:1,1 --N 3 --points 3 --h-min 1e-300 --h-max 1 --format json \
    | python -m json.tool \
    | python -c 'import json, sys; assert json.load(sys.stdin)["scan"][0]["trace"] is None'
# kh overflows at a fixed h = 1e308: exit 1 with the one-line diagnosis, not
# a RuntimeWarning traceback, which also exits 1
status=0
err=$(descm solve --potential poly:1,1 --N 3 --mesh fixed --h 1e308 2>&1 > /dev/null) || status=$?
test "$status" -eq 1
test "$(printf '%s\n' "$err" | wc -l)" -eq 1
case "$err" in "descm: numerical failure:"*) ;; *) exit 1 ;; esac
# the same h on one odd block, as a sweep for level 1 builds it: only the
# slab's diagonal is tested for overflow, and kh overflows there from k = 2 on
status=0
err=$(descm converge --potential poly:1,1 --level 1 --mesh fixed --h 1e308 2>&1 > /dev/null) \
    || status=$?
test "$status" -eq 1
test "$(printf '%s\n' "$err" | wc -l)" -eq 1
case "$err" in "descm: numerical failure:"*) ;; *) exit 1 ;; esac
# a closed-form sweep evaluates the points of a block of truncations ahead of
# solving them; at h = 20 the first non-finite diagonal is at N = 9
# (t = kh = 180). A sweep that stops at N = 8 has N = 9 in its block, yet
# exits 0 with nothing on stderr, no RuntimeWarning ...
status=0
err=$(descm converge --potential poly:1,1 --mesh fixed --h 20 --N-start 7 --tolerance 1e300 \
    2>&1 > /dev/null) || status=$?
test "$status" -eq 0
test -z "$err"
# ... and one that solves N = 9 exits 1 with the one-line diagnosis of that point
status=0
err=$(descm converge --potential poly:1,1 --mesh fixed --h 20 --N-start 4 --tolerance 1e-300 \
    2>&1 > /dev/null) || status=$?
test "$status" -eq 1
test "$(printf '%s\n' "$err" | wc -l)" -eq 1
case "$err" in
    "descm: numerical failure: non-finite matrix entry at collocation point t = kh = 180 (k = 9, h = 20)") ;;
    *) exit 1 ;;
esac
# a plain solve builds its slabs as a block of one: the same point, the same line
status=0
err=$(descm solve --potential poly:1,1 --mesh fixed --h 20 --N 9 2>&1 > /dev/null) || status=$?
test "$status" -eq 1
test "$(printf '%s\n' "$err" | wc -l)" -eq 1
case "$err" in
    "descm: numerical failure: non-finite matrix entry at collocation point t = kh = 180 (k = 9, h = 20)") ;;
    *) exit 1 ;;
esac
# a sweep that stops inside its first block of planned truncations, N = 2..23
# at a step of 3, under warnings as errors: JSON on stdout, exit 0
PYTHONWARNINGS=error descm converge --potential poly:1,1 --N-step 3 --format json \
    | python -m json.tool > /dev/null
# the well's minimum lies below the double range: the trace-min slope rises
# from -inf, which places no zero, and the traces reach -inf; exit 1 with the
# one-line diagnosis, not a NaN mesh size (exit 2) or an inf * 0 warning
status=0
err=$(descm solve --potential poly:3.32e-266,-8.74e-62,-8.99e-93,5.07e-249 --mesh trace-min \
    --N 1 --levels 2 2>&1 > /dev/null) || status=$?
test "$status" -eq 1
test "$(printf '%s\n' "$err" | wc -l)" -eq 1
case "$err" in "descm: numerical failure:"*) ;; *) exit 1 ;; esac
# a trace-min sweep searches a block of planned truncations in lockstep and
# raises a failed search only at its own truncation: the same well swept,
# exit 1 with the one-line diagnosis at N = 2
status=0
err=$(descm converge --potential poly:3.32e-266,-8.74e-62,-8.99e-93,5.07e-249 --mesh trace-min \
    2>&1 > /dev/null) || status=$?
test "$status" -eq 1
test "$(printf '%s\n' "$err" | wc -l)" -eq 1
case "$err" in "descm: numerical failure:"*) ;; *) exit 1 ;; esac
# a trace-min sweep that stops inside a planned block, N = 74..95 at a step
# of 3 (stop at N = 86), under warnings as errors: JSON on stdout, exit 0
PYTHONWARNINGS=error descm converge --potential 'cheb:20;shift=-1' --mesh trace-min --N-step 3 \
    --format json | python -m json.tool > /dev/null
# the first passes of a block's searches are one round, each distinct
# first-scan cell evaluated once at the largest N asking for it: the
# blocks N = 1..8, 9..16, ..., 33..40 sit in 7, 5, 4, 3 and 2 cells, and the
# sweep stops at N = 36; exit 0
PYTHONWARNINGS=error descm converge --potential 'cheb:10;shift=-1' --mesh trace-min --N-start 1 \
    --format json | python -m json.tool > /dev/null
descm solve --potential 'poly:1,1' --N 17 --levels 3 --format json | python -m json.tool > /dev/null
# a spec read from a CRLF file ends in \r, which JSON must escape
descm solve --potential $'poly:1,1\r' --N 17 --format json | python -m json.tool > /dev/null
# near-degenerate doublet: one level from each parity block
descm solve --potential 'poly:-20,1' --N 50 --levels 2 --format json | python -m json.tool > /dev/null
descm converge --potential 'poly:1,1' --format json | python -m json.tool > /dev/null
# double well: level 1 is read from the odd parity block at every N
descm converge --potential 'poly:-20,1' --level 1 --format json | python -m json.tool > /dev/null
# an odd level above 1: one odd block per truncation, from N = 2 on
descm converge --potential 'poly:4,-6,1' --level 3 --format json | python -m json.tool > /dev/null
# a stiff well: the closed-form Lambert-W argument is 7.9e-8, below 1
descm solve --potential poly:1e18 --N 2 --format json | python -m json.tool > /dev/null
# several dips in the scan's best triple: one trace call over their zeros picks the lowest
descm solve --potential 'cheb:20;shift=-1' --mesh trace-min --N 1 --levels 2 --format json | python -m json.tool > /dev/null
# the last slope pass reads a 6-point slice of its cell, moved once where the
# first slice misses the rise (cheb:40 at N = 100)
descm solve --potential 'cheb:40;shift=-1' --mesh trace-min --N 100 --levels 2 --format json | python -m json.tool > /dev/null
# a widened first window: more than two slope passes before the slice
descm solve --potential poly:1e10,1e10 --mesh trace-min --N 100 --format json | python -m json.tool > /dev/null
# the search's rare paths, run here at every numpy of the matrix: several
# rises force one trace call over their zeros, ...
descm trace-scan --potential 'cheb:20;shift=-1' --N 1 --format json \
    | python -c 'import json, sys; h = json.load(sys.stdin)["h_trace_min"]; assert type(h) is float, h'
# ... a widened window is scanned twice, and its first slope pass runs
# over a np.linspace cell of its own, not a shared first-pass cell, ...
descm solve --potential poly:1e10,1e10 --N 400 --mesh trace-min > /dev/null
# ... and no slice shows the rise alone, so the full last cell is evaluated
descm solve --potential 'cheb:40;shift=-1' --N 13 --mesh trace-min > /dev/null
# m = 1, where V' = 2 c1 x is a one-term stage of the shared Horner routine
descm converge --potential poly:1 --mesh trace-min --format json | python -m json.tool > /dev/null
descm trace-scan --potential 'poly:1,-4,1' --N 20 --format json | python -m json.tool > /dev/null
# a large truncation: the first slope pass sums 5000 columns of its cell's terms
descm trace-scan --potential 'cheb:20;shift=-1' --N 5000 --points 2 --format json \
    | python -m json.tool > /dev/null
descm validate --format json | python -m json.tool > /dev/null
descm table --name 1 --format json | python -m json.tool > /dev/null
# a table built from converge sweeps
descm table --name 3 --format json | python -m json.tool > /dev/null
# ten trace-minimized sweeps in one process: each new potential replaces the
# first-scan table of the last
descm table --name 5 --mesh trace-min --format json | python -m json.tool > /dev/null
