#!/usr/bin/env bash
# The one command: builds the release daemons (root workspace) and the
# harness (this directory's own workspace), then runs the harness.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--repeat N] [--check-repeat]
#
# With CARGO_TARGET_DIR set, both builds go there; otherwise the daemons
# build into the repo's target/ and the harness into benchmark/target/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    daemons="$CARGO_TARGET_DIR/release"
    harness="$CARGO_TARGET_DIR/release"
else
    daemons="$root/target/release"
    harness="$here/target/release"
fi

# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p p4lru-server -p p4lru-tier -p p4lru-cluster \
    --bin p4lru_serverd --bin p4lru_tierd --bin p4lru_routerd 1>&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

exec "$harness/p4lru_benchmark" --bin-dir "$daemons" --out-dir "$here/out" "$@"
