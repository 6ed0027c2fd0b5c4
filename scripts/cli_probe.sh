#!/usr/bin/env bash
# Byte-identity probe for a refactor: runs the CI command set (plus the
# `explain` and cms `profile` forms) with two charon-cli binaries and
# diffs what each wrote.
#
#   scripts/cli_probe.sh OLD_BIN NEW_BIN OUT_DIR
#
# Each binary runs every command in order inside OUT_DIR/old or
# OUT_DIR/new. For command NN the directory holds NN.cmd (the command
# line), NN.stdout, NN.stderr and NN.exit; files a command writes
# (`--out`, `--profile-out`, `--trace-out`, ledgers) land beside them.
# The script ends with `diff -r OUT_DIR/old OUT_DIR/new`, writing the
# full diff to OUT_DIR/diff.txt and printing which files differ, and
# exits with its status: 0 when the two binaries agree byte for byte.
#
# Build the old binary from the parent commit in a separate checkout
# (`git archive <rev> | tar -x -C DIR`, then `cargo build --release`
# there). A pass takes about 30 s per binary on 2 cores.
set -u

if [ $# -ne 3 ]; then
    echo "usage: $0 OLD_BIN NEW_BIN OUT_DIR" >&2
    exit 1
fi
REPO=$(cd "$(dirname "$0")/.." && pwd)
OUT=$3
mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)

COMMANDS=(
    "fault-campaign BS --seed 42 --steps 2"
    "fault-campaign KM --seed 1337 --steps 2 --jobs 2"
    "fault-campaign CC --seed 7 --steps 2"
    "compare BS --steps 2 --json"
    "compare KM --steps 2 --json"
    "run KM --platform Charon --steps 2 --json --trace-out km.trace.json"
    "run KM --platform Charon --steps 2 --threads 16 --trace-out km16.trace.json"
    "bench BS KM --steps 2"
    "bench BS KM --steps 2 --out BENCH_new.json"
    "regress $REPO/BENCH_baseline.json BENCH_new.json --tolerance 10"
    "profile BS --steps 2 --profile-out bs.profile.json"
    "profile BS --platform DDR4 --collector cms --json"
    "explain KM --top 2 --steps 2"
    "explain KM --top 2 --steps 2 --json"
    "trend record HISTORY.json BENCH_new.json --label ci-head"
    "trend report HISTORY.json --out trend_report.json"
    "trend report HISTORY.json"
    "trend bisect HISTORY.json --json"
    "autotune PS --policy static --out autotune-static.json"
    "autotune PS --policy census --out autotune-census.json"
    "autotune PS --policy bandit --seed 7 --jobs 2 --out autotune-bandit.json"
    "bench BS KM --steps 2 --out BENCH_serial.json"
    "bench BS KM --steps 2 --jobs 2 --out BENCH_jobs2.json"
    "chaos BS KM --rates 0.02,0.1 --steps 2 --jobs 2 --out chaos_report.json"
    "chaos BS --rates 0.05 --oracle --steps 2 --out chaos_oracle.json"
    "chaos BS --rates 0.3 --sites payload --rearm 1 --steps 4 --out chaos_rearm.json"
    "regress $REPO/BENCH_chaos_baseline.json chaos_report.json --tolerance 10"
    "run BS --steps 2 --json"
    "fleet --tenants 1 --mix BS --steps 2 --json"
    "run KM --steps 2"
    "fleet --tenants 1 --mix KM --steps 2"
    "fleet --tenants 4 --mix BS:2,KM:2 --sched fifo --steps 2 --jobs 2 --out fleet_fifo.json"
    "fleet --tenants 4 --mix BS:2,KM:2 --sched fair --steps 2 --jobs 2 --out fleet_fair.json"
    "fleet --tenants 4 --mix BS:2,KM:2 --sched deadline --steps 2 --jobs 2 --out fleet_deadline.json"
    "fleet --tenants 4 --mix BS:2,KM:2 --sched fair --steps 8 --out fleet_gate.json"
    "regress $REPO/BENCH_fleet_baseline.json fleet_gate.json --tolerance 5"
    "run BS --platform DDR4 --collector cms --json"
    "run BS --platform HMC --collector cms --json"
    "run PR --platform DDR4 --collector cms --json"
    "run PR --platform HMC --collector cms --json"
    "run PS --platform DDR4 --collector cms --json"
    "run PS --platform HMC --collector cms --json"
    "run BS --collector ms --mask all --steps 2"
    "bench BS KM --steps 10 --collector cms --out BENCH_cms_new.json"
    "regress $REPO/BENCH_cms_baseline.json BENCH_cms_new.json --tolerance 10"
)

probe() {
    local bin=$1 dir=$2 i=0 cmd tag
    rm -rf "$dir"
    mkdir -p "$dir"
    cp "$REPO/HISTORY_fixture.json" "$dir/HISTORY.json"
    for cmd in "${COMMANDS[@]}"; do
        i=$((i + 1))
        tag=$(printf '%02d' "$i")
        echo "$cmd" > "$dir/$tag.cmd"
        # shellcheck disable=SC2086 # each command is a word list
        (cd "$dir" && "$bin" $cmd > "$tag.stdout" 2> "$tag.stderr")
        echo $? > "$dir/$tag.exit"
    done
}

OLD=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
NEW=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
echo "probing $OLD" >&2
probe "$OLD" "$OUT/old"
echo "probing $NEW" >&2
probe "$NEW" "$OUT/new"
diff -r "$OUT/old" "$OUT/new" > "$OUT/diff.txt"
status=$?
diff -rq "$OUT/old" "$OUT/new"
exit $status
