#!/bin/sh
# Reproduce every stored experiment.  Results land under results/<name>/.
# The five-level k=2 Voronoi ladders (up to 6,400 cells) take longest.
set -e
cd "$(dirname "$0")/.."

for cfg in scripts/configs/ex1_*.json; do
    echo "== convergence $cfg"
    platevem convergence --config "$cfg"
done

for cfg in scripts/configs/ex2_*.json; do
    echo "== adaptive $cfg"
    platevem adaptive --config "$cfg"
done

for cfg in scripts/configs/timestep_*.json; do
    echo "== timestep $cfg"
    platevem timestep --config "$cfg"
done
