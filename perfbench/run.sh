#!/usr/bin/env bash
# Builds the wmxmld benchmark from this checkout's sources and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload detect-warm --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache, the build's temporary files and the
# binary stay in perfbench/.build; run registries and spans stay under
# perfbench. The go command's config directory is moved there too, with
# telemetry off: otherwise every build writes telemetry counters under
# the user's home directory and may start a background upload process.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/cache" "$build/tmp" "$build/config/go/telemetry"
printf 'off' > "$build/config/go/telemetry/mode"
export GOCACHE="$build/cache" GOMODCACHE="$build/mod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --dir "$here" "$@"
