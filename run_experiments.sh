#!/bin/sh
# Regenerates every experiment artifact into results/ (see EXPERIMENTS.md).
set -x
bench() { dune exec bench/bench.exe -- "$@"; }
dune exec bin/modelcheck_run.exe -- --json results/modelcheck.json > results/modelcheck.txt 2>&1
bench space > results/space.txt 2>&1
bench overhead > results/overhead.txt 2>&1
bench shann-vs-cas --scale 0.1 > results/shann_vs_cas.txt 2>&1
bench fig6-a --scale 0.1 --plot --metrics > results/fig6a.txt 2>&1
bench fig6-b --scale 0.1 --plot > results/fig6b.txt 2>&1
bench fig6-c --scale 0.1 > results/fig6c.txt 2>&1
bench fig6-d --scale 0.1 > results/fig6d.txt 2>&1
bench latency > results/latency.txt 2>&1
bench ablation-weak-llsc ablation-hp-threshold ablation-ebr-batch ablation-capacity \
  ablation-reclamation ablation-backends ablation-scq --runs 2 > results/ablation.txt 2>&1
bench contend --runs 2 --scale 0.1 --plot > results/contend.txt 2>&1
bench gate-obs > results/obs_overhead.txt 2>&1
dune exec bin/torture.exe -- --seed 42 --ops 10000 --crash > results/torture.txt 2>&1
dune exec bin/torture.exe -- --wait --wait-iters 2000 > results/wait_torture.txt 2>&1
bench shard-sweep --csv > results/shard_sweep.csv
bench park-sweep --csv > results/park_sweep.csv
bench burst-sweep --csv > results/burst_sweep.csv
echo DONE > results/STATUS
