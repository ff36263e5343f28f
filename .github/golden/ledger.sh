#!/bin/sh
# Prints the golden simulated ledger: for each of the benchmark's four
# workloads at seeds 1 and 2, attempted/failed/correct and every sim_*
# value of a fixed-rep-count run (bench --seconds 0), then every
# per-layer metric of a fixed-rep-count traced run (bench --trace 1
# --seconds 0) but the host-dependent ones, then the three seeded
# seqbench tables, the 64/256/1024-reader readfan sweep and the full
# default seqbench suite at seed 1. Every value here is simulated or
# counted, so it is exact per seed: a change that moves one moves this
# output. Host metrics are left out (the untraced run's host_* and
# setup_s; the traced run's *.drive.*, phase.*, setup.*, teardown.ms,
# sim.host_ms_per_sim_ms and trace.overhead_frac), and so is the
# suite's wall-time header.
#
# Run from the repository root:
#   sh .github/golden/ledger.sh > /tmp/ledger.txt
#   diff -u .github/golden/ledger.txt /tmp/ledger.txt
# A change that moves a simulated value on purpose regenerates the file
# and says in CHANGES.md which values moved and why.
set -eu
export LC_ALL=C
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -C bench -o "$tmp/bench" .
go build -o "$tmp/seqbench" ./cmd/seqbench
for seed in 1 2; do
  for w in ior_strided ior_segmented readfan pingpong; do
    (cd bench && "$tmp/bench" --workload "$w" --seed "$seed" --seconds 0) |
      grep '^{' |
      jq -r --arg w "$w" --arg s "$seed" '
        "\($w) seed \($s) attempted \(.attempted) failed \(.failed) correct \(.correct)",
        (.metrics | to_entries[] | select(.key | startswith("sim_")) |
          "\($w) seed \($s) \(.key) \(.value.value)")'
  done
done
for seed in 1 2; do
  for w in ior_strided ior_segmented readfan pingpong; do
    (cd bench && "$tmp/bench" --workload "$w" --seed "$seed" --seconds 0 --trace 1) |
      grep '^{' |
      jq -r --arg w "$w" --arg s "$seed" '
        "\($w) traced seed \($s) attempted \(.attempted) failed \(.failed) correct \(.correct)",
        (.metrics | to_entries[] |
          select(.key | test("\\.drive\\.|^phase\\.|^setup\\.|^teardown\\.ms$|^sim\\.host_ms_per_sim_ms$|^trace\\.overhead_frac$") | not) |
          "\($w) traced seed \($s) \(.key) \(.value.value)")'
  done
done
for exp in pingpong readfan partition; do
  echo "== seqbench -exp $exp -seed 42"
  "$tmp/seqbench" -exp "$exp" -seed 42 | sed 's/, [0-9.]*s)/)/'
done
echo "== seqbench -exp readfan -seed 1 -readers 64,256,1024"
"$tmp/seqbench" -exp readfan -seed 1 -readers 64,256,1024 | sed 's/, [0-9.]*s)/)/'
echo "== seqbench -seed 1"
"$tmp/seqbench" -seed 1 | sed 's/, [0-9.]*s)/)/'
