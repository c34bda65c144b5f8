#!/usr/bin/env bash
# Builds trustnetd and the benchmark client from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload fast-mixer --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and scratch file stays under
# .bench_build/ in the working directory. Where the kernel allows it, the
# benchmark runs in a private mount namespace with a tmpfs mounted on
# .bench_build/shm for trustnetd's -data and -out directories, so replay
# timings do not carry the host disk's fsync tail; the mount vanishes
# with the namespace when the run ends. Elsewhere those directories stay
# on disk, and the result's provenance line names their file system.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export GOPROXY=off GOSUMDB=off

go -C perfbench build -o "$build/bin/perfbench" . >&2
go build -o "$build/bin/trustnetd" ./cmd/trustnetd >&2
shm="$build/shm"
mkdir -p "$shm"
bench=("$build/bin/perfbench" -daemon "$build/bin/trustnetd" -work "$build" -shm "$shm" "$@")
if unshare -m --propagation private true 2>/dev/null; then
	exec unshare -m --propagation private bash -c '
		mount -t tmpfs -o size=2g perfbench "$1" 2>/dev/null ||
			echo "perfbench: no tmpfs; daemon directories stay on disk" >&2
		shift
		exec "$@"' _ "$shm" "${bench[@]}"
fi
echo "perfbench: no private mount namespace; daemon directories stay on disk" >&2
exec "${bench[@]}"
