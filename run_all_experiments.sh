#!/usr/bin/env bash
# Regenerate every table, figure, and ablation of the SupMR reproduction.
# Outputs: terminal charts/tables + CSV series under results/ (override
# with SUPMR_RESULTS=<dir>).
set -euo pipefail
cd "$(dirname "$0")"

echo "building (release)..."
cargo build --release --workspace --quiet

run() {
    echo
    echo "################################################################"
    echo "## $*"
    echo "################################################################"
    cargo run --release --quiet -p supmr-bench --bin "$@"
}

run table2 -- --real        # Table II, simulated + real scaled
run fig1                    # Fig. 1  original sort trace (step curve)
run fig2_timeline           # Fig. 2/4 measured pipeline round Gantt
run fig3                    # Fig. 3  OpenMP comparator
run fig5                    # Fig. 5a-c chunk-size traces (simulated)
run fig5_real               # Fig. 5  on real threads
run fig6                    # Fig. 6  SupMR sort trace
run fig7 -- --real          # Fig. 7  HDFS case study
run chunk_sweep             # chunk-size ablation (+ energy)
run ablations               # prefetch depth / chunk size / merge backend
run scaleout_compare        # SVIII scale-up vs scale-out comparison

echo
echo "all experiment outputs written to ${SUPMR_RESULTS:-results}/"
