#!/bin/sh
# Tier-1 check: build, full test suite, a determinism smoke — the
# plan/execute/render pipeline must print byte-identical output whether
# the execute stage runs on 1 domain or 4 — a cold/warm store equivalence
# gate, a serving-simulator gate (deterministic across -j, warm rerun
# fully store-served; once plain, once under a timeout/retry/admission
# policy), and a fault-injection gate (injected faults must
# not change a single output byte, and the store suite must pass with the
# injector armed).
set -eu

cd "$(dirname "$0")"

# Every build/test/smoke step runs under a global timeout so a deadlock
# (a stuck worker domain, a lost lockfile) fails the check instead of
# hanging CI forever.  Override with CHECK_TIMEOUT (seconds).
if command -v timeout >/dev/null 2>&1; then
  TO="timeout -k 10 ${CHECK_TIMEOUT:-1500}"
else
  TO=""
fi

echo "== dune build =="
$TO dune build

echo "== dune runtest =="
$TO dune runtest

MMSTUDY=./_build/default/bin/mmstudy.exe

echo "== determinism smoke: mmstudy run all at -j 1 vs -j 4 (no cache) =="
out1=$(mktemp) && out4=$(mktemp)
trap 'rm -f "$out1" "$out4"' EXIT
$TO $MMSTUDY run all --scale 0.05 -j 1 --no-cache > "$out1"
$TO $MMSTUDY run all --scale 0.05 -j 4 --no-cache > "$out4"
if ! diff -u "$out1" "$out4"; then
  echo "FAIL: run-all output differs between -j 1 and -j 4" >&2
  exit 1
fi
echo "byte-identical."

echo "== store smoke: cold vs warm run must be byte-identical =="
# Two fresh processes over one fresh store: the first simulates everything
# and writes the store; the second must render byte-identical stdout from
# disk alone (zero simulations).  Also proves the cached path reproduces
# the --no-cache output above exactly.
cachedir=$(mktemp -d)
cold=$(mktemp) && warm=$(mktemp) && warmerr=$(mktemp)
trap 'rm -f "$out1" "$out4" "$cold" "$warm" "$warmerr"; rm -rf "$cachedir"' EXIT
MMSTUDY_CACHE_DIR="$cachedir" $TO $MMSTUDY run all --scale 0.05 -j 4 > "$cold"
MMSTUDY_CACHE_DIR="$cachedir" $TO $MMSTUDY run all --scale 0.05 -j 4 > "$warm" 2> "$warmerr"
if ! diff -u "$cold" "$warm"; then
  echo "FAIL: warm (store-served) output differs from cold output" >&2
  exit 1
fi
if ! diff -u "$out4" "$warm"; then
  echo "FAIL: cached output differs from --no-cache output" >&2
  exit 1
fi
if ! grep -q 'simulations: 0,' "$warmerr"; then
  echo "FAIL: warm run re-simulated instead of reading the store:" >&2
  cat "$warmerr" >&2
  exit 1
fi
MMSTUDY_CACHE_DIR="$cachedir" $MMSTUDY cache stats
echo "cold = warm = uncached, 0 warm simulations."

echo "== serve smoke: deterministic across -j, memoized through the store =="
# A short serving sweep on a fresh store: deterministic at any job count,
# and a warm rerun must serve both the measurements and the derived
# sweeps from disk (zero simulations of either kind).
servedir=$(mktemp -d)
sj1=$(mktemp) && sj4=$(mktemp) && swarmerr=$(mktemp)
trap 'rm -f "$out1" "$out4" "$cold" "$warm" "$warmerr" "$sj1" "$sj4" "$swarmerr"; rm -rf "$cachedir" "$servedir"' EXIT
SERVE_ARGS="serve --workload mediawiki-ro --scale 0.05 --duration 2"
MMSTUDY_CACHE_DIR="$servedir" $TO $MMSTUDY $SERVE_ARGS -j 1 > "$sj1" 2>/dev/null
MMSTUDY_CACHE_DIR="$servedir" $TO $MMSTUDY $SERVE_ARGS -j 4 > "$sj4" 2> "$swarmerr"
if ! diff -u "$sj1" "$sj4"; then
  echo "FAIL: serve output differs between -j 1 and -j 4" >&2
  exit 1
fi
if ! grep -q 'simulations: 0,' "$swarmerr" || ! grep -q 'serve sims: 0,' "$swarmerr"; then
  echo "FAIL: warm serve run recomputed instead of reading the store:" >&2
  cat "$swarmerr" >&2
  exit 1
fi
if ! grep -q 'SATURATED' "$sj4"; then
  echo "FAIL: serve sweep never reached saturation (grid should cross capacity)" >&2
  exit 1
fi
echo "serve deterministic across -j; warm rerun 0 simulations, 0 serve sims."

echo "== serve smoke under a client policy: timeouts, retries, admission =="
# The same gates with a 50 ms deadline, 3 retries and deadline-aware
# admission, so the timeout FIFO, the retry heap and the shed path all
# run: deterministic across -j, fully store-served when warm, and the
# retry storm must actually collapse goodput somewhere on the grid.
retrydir=$(mktemp -d)
rj1=$(mktemp) && rj4=$(mktemp) && rwarmerr=$(mktemp)
trap 'rm -f "$out1" "$out4" "$cold" "$warm" "$warmerr" "$sj1" "$sj4" "$swarmerr" "$rj1" "$rj4" "$rwarmerr"; rm -rf "$cachedir" "$servedir" "$retrydir"' EXIT
RETRY_ARGS="$SERVE_ARGS --timeout 0.05 --retries 3 --admission deadline-aware"
MMSTUDY_CACHE_DIR="$retrydir" $TO $MMSTUDY $RETRY_ARGS -j 1 > "$rj1" 2>/dev/null
MMSTUDY_CACHE_DIR="$retrydir" $TO $MMSTUDY $RETRY_ARGS -j 4 > "$rj4" 2> "$rwarmerr"
if ! diff -u "$rj1" "$rj4"; then
  echo "FAIL: serve output under a client policy differs between -j 1 and -j 4" >&2
  exit 1
fi
if ! grep -q 'simulations: 0,' "$rwarmerr" || ! grep -q 'serve sims: 0,' "$rwarmerr"; then
  echo "FAIL: warm serve run under a client policy recomputed instead of reading the store:" >&2
  cat "$rwarmerr" >&2
  exit 1
fi
if ! grep -q 'COLLAPSED' "$rj4"; then
  echo "FAIL: serve sweep under a client policy never collapsed (retries should amplify past capacity)" >&2
  exit 1
fi
echo "policy serve deterministic across -j; warm rerun 0 simulations, 0 serve sims."

echo "== fault smoke: injected faults must not change a single output byte =="
# The determinism-under-faults invariant: MM_FAULT_SEED arms store I/O
# errors and torn writes throughout the pipeline, yet the
# rendered experiment output must equal the fault-free -j 4 baseline
# exactly — faults may only move counters and logs.
faultdir=$(mktemp -d)
faultout=$(mktemp) && faulterr=$(mktemp)
trap 'rm -f "$out1" "$out4" "$cold" "$warm" "$warmerr" "$sj1" "$sj4" "$swarmerr" "$rj1" "$rj4" "$rwarmerr" "$faultout" "$faulterr"; rm -rf "$cachedir" "$servedir" "$retrydir" "$faultdir"' EXIT
MM_FAULT_SEED=42 MMSTUDY_CACHE_DIR="$faultdir" \
  $TO $MMSTUDY run all --scale 0.05 -j 4 > "$faultout" 2> "$faulterr"
if ! diff -u "$out4" "$faultout"; then
  echo "FAIL: output under MM_FAULT_SEED=42 differs from the fault-free run" >&2
  cat "$faulterr" >&2
  exit 1
fi
echo "byte-identical under MM_FAULT_SEED=42."

echo "== fault-hardened store suite under env injection =="
# The store test binary asserts values always and exact counters only
# when unarmed, so it must pass with the injector on.
MM_FAULT_SEED=42 $TO ./_build/default/test/test_store.exe > /dev/null 2>&1 \
  || { echo "FAIL: test_store under MM_FAULT_SEED=42" >&2; exit 1; }
echo "test_store passes with injection armed."

echo "ALL CHECKS PASSED"
