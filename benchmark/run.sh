#!/usr/bin/env bash
# The one command: builds machid (from the repo's workspace) and machibench
# (this package), then hands every argument to machibench. See README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"
# One target directory for both builds; a relative CARGO_TARGET_DIR is taken
# from the directory the command was started in.
CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
export CARGO_TARGET_DIR
cargo build --release --offline --quiet --manifest-path "$repo/Cargo.toml" \
    -p machiavelli-repl --bin machid >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/machibench" \
    --root "$here" --machid "$CARGO_TARGET_DIR/release/machid" "$@"
