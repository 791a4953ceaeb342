#!/bin/sh
# Tier-1 gate: everything must build and the full test suite must pass.
# Formatting is advisory (the repo does not pin an ocamlformat version).
set -e
cd "$(dirname "$0")/.."
dune build @all
dune runtest
# Fast deterministic fault gate: stall one domain inside every injection
# point of both Evequoz queues; fixed seed, reduced op target (<30s).
dune exec bin/torture.exe -- --queue evequoz-cas --seed 42 --ops 2000 > /dev/null
dune exec bin/torture.exe -- --queue evequoz-llsc --seed 42 --ops 2000 > /dev/null
# Blelloch-Wei backend: same stall matrix over its LL/announce/SC windows
# (Tag_reregister deliberately absent -- its ReRegister is a no-op).
dune exec bin/torture.exe -- --queue evequoz-bw --seed 42 --ops 2000 > /dev/null
# Sharded front-end gate: the same matrix over the 4-shard composition
# additionally stalls victims inside the shard-steal sweep and the
# between-operations gap (shard-steal / op-gap points), the windows the
# single-ring rows cannot reach.
dune exec bin/torture.exe -- --queue evequoz-cas-shard4 --seed 42 --ops 2000 > /dev/null
# Segmented-queue gate: the same stall matrix plus the two windows only
# the segment chain has -- a victim frozen mid-append (seg-append) and
# mid-retire (seg-retire) must leave the queue conserving and live.
dune exec bin/torture.exe -- --queue evequoz-seg --seed 42 --ops 2000 > /dev/null
# SCQ gate: the FAA-cycle matrix (faa-cycle / threshold-reset / catchup
# windows) under stalls and crashes for the base row, stalls for the
# wCQ-helping variant.  The harness clamps scq capacity to 2 so the
# catchup and threshold windows actually open (see lib/fault/torture.ml).
dune exec bin/torture.exe -- --queue scq --seed 42 --ops 2000 --crash > /dev/null
dune exec bin/torture.exe -- --queue scq-wcq --seed 42 --ops 2000 > /dev/null
# Wait-layer torture: stall/crash a waker inside the wake-lost window and
# a waiter inside the park window; every live parked domain must still
# complete (no lost-wakeup strand).
dune exec bin/torture.exe -- --wait > /dev/null
# Oversubscription gate: 16 parked domains on one core-starved queue
# for 2 s, requiring item conservation and per-domain progress.
dune exec bench/bench.exe -- gate-park > /dev/null
# Model-checking gate: exhaustive DPOR over the capacity-2 / 2-thread
# scenario catalog.  The fast line covers Algorithm 1 plus the simulated
# eventcount (park/wake must have no lost wakeup; the two seeded-bug
# entries must still be convicted) and proves >= 5x reduction vs plain
# DFS; the second line runs Algorithm 2's larger trees (batch commit and
# drain races included) to exhaustion.
dune exec bin/modelcheck_run.exe -- -a evequoz-llsc -a sim-wait -a toy-blocking \
  --min-reduction 5 --require-exhaustive > /dev/null
dune exec bin/modelcheck_run.exe -- -a evequoz-cas -a sharded-llsc \
  --require-exhaustive > /dev/null
# Blelloch-Wei model-checking gate: the full scenario matrix plus the
# batch races to exhaustion, and the no-scan seeded bug (a recycled
# reserved buffer losing an item to pointer ABA) must be convicted.
dune exec bin/modelcheck_run.exe -- -a evequoz-bw -a evequoz-bw-noscan \
  --require-exhaustive > /dev/null
# Segmented-queue model-checking gate: the scenario matrix (append and
# retire/recycle races included) to exhaustion, and the no-retire seeded
# bug (a pinned reader observing a recycled segment's next lap) must be
# convicted.
dune exec bin/modelcheck_run.exe -- -a evequoz-seg -a evequoz-seg-noretire \
  --require-exhaustive > /dev/null
# SCQ model-checking gate: the scenario matrix for scq / scq-d / scq-wcq
# to exhaustion, and the no-threshold seeded bug (a missed dequeue
# retrying with no budget, so on a drained queue its own slot bumps chase
# fresh tickets forever) must be convicted of livelock by the fair-probe
# continuation.
dune exec bin/modelcheck_run.exe -- -a scq -a scq-d -a scq-wcq -a scq-nothreshold \
  --require-exhaustive > /dev/null
# Burst-absorption gate: under a 10x offered-load burst the fixed ring
# must shed via Timeout while the segmented queue absorbs everything,
# and elasticity may cost at most 1.25x the fixed ring's steady-state
# per-item cost (median of 10 interleaved 0.2 s blocks).
dune exec bench/bench.exe -- gate-burst > /dev/null
# Flight-recorder overhead gate: an armed recorder (1/64 span sampling)
# must cost <= 10% vs the plain path (median of 10 interleaved blocks,
# best-of-6-runs per block).  Single-threaded on purpose: on a
# core-starved box multi-domain runs measure the scheduler, not the
# recorder.
dune exec bench/bench.exe -- gate-trace > /dev/null
# Bench smoke: every row-writing preset runs once at smoke scale, and
# also mirrors its freshly measured rows into a scratch file
# (NBQ_BENCH_FRESH): the trajectory file merges, so only the mirror can
# prove each family was actually re-measured this run rather than
# carried forward from yesterday.  The first run also exports Perfetto
# traces that our own validator must accept (--trace fails the run on a
# malformed export), and bench_compare must round-trip the trajectory.
# The minor-heap presets (shard-sweep, park-sweep) re-exec themselves,
# and park-sweep leaves the wait layer's ticker running, so each runs in
# its own process.
NBQ_BENCH_FRESH=results/.bench_fresh.json
export NBQ_BENCH_FRESH
rm -f "$NBQ_BENCH_FRESH"
smoke="--runs 1 --scale 0.002 --max-threads 4"
bench() { dune exec bench/bench.exe -- "$@" $smoke > /dev/null 2>&1; }
bench fig6-a --trace
test -s results/bench_summary.json
dune exec bin/bench_compare.exe -- results/bench_summary.json results/bench_summary.json > /dev/null
bench fig6-b fig6-c fig6-d fig6-s overhead shann-vs-cas latency \
  ablation-weak-llsc ablation-hp-threshold ablation-ebr-batch \
  ablation-capacity ablation-reclamation ablation-backends ablation-scq
bench contend -q evequoz-cas,evequoz-seg,scq -d 1,2,4
bench contend -q evequoz-bw -d 1,2
bench shard-sweep
bench park-sweep
bench burst-sweep
grep -q '"scq"' "$NBQ_BENCH_FRESH"
# The merged trajectory must still cover every configuration the
# *committed* summary has, with sane throughputs (--gate ignores
# machine-dependent slowdowns; falls back to self-compare when HEAD has
# no summary yet), and --fresh fails any family the committed summary
# lists for these sweeps that produced zero rows just now.
if git show HEAD:results/bench_summary.json > results/.bench_summary.base.json 2>/dev/null; then
  dune exec bin/bench_compare.exe -- results/.bench_summary.base.json results/bench_summary.json --gate --fresh "$NBQ_BENCH_FRESH" > /dev/null
  rm -f results/.bench_summary.base.json
else
  dune exec bin/bench_compare.exe -- results/bench_summary.json results/bench_summary.json --gate --fresh "$NBQ_BENCH_FRESH" > /dev/null
fi
rm -f "$NBQ_BENCH_FRESH"
unset NBQ_BENCH_FRESH
dune build @fmt 2>/dev/null || true
echo "check: OK"
