#!/bin/sh
# telemetry_smoke.sh — end-to-end observability and fleet gate: run the
# same seeded chaos crawl+mine twice under worker kills (workercrashes
# chaos), as a one-shard and as a 4-shard fleet, and require the two
# record exports to be byte-identical. Then validate the one-shard
# run's -metrics-out snapshot against the golden key-set
# (scripts/telemetry_keys.txt), sanity-check its -trace-out attack
# chains, and check that the 4-shard run's self-healing machinery
# actually fired. Dependency-free: POSIX sh + the Go toolchain.
#
#   sh scripts/telemetry_smoke.sh
set -eu

cd "$(dirname "$0")/.."

TMPD="$(mktemp -d)"
trap 'rm -rf "$TMPD"' EXIT

PROFILE="acceptance,workercrashes=0.05"

echo "==> telemetry smoke: one-shard chaos crawl+mine with -metrics-out/-trace-out"
go run ./cmd/wpncrawl -seed 11 -scale 0.002 -days 7 \
	-chaos-profile "$PROFILE" \
	-out "$TMPD/one.json" \
	-metrics-out "$TMPD/metrics.json" \
	-trace-out "$TMPD/trace.jsonl"

echo "==> telemetry smoke: 4-shard fleet under worker kills"
go run ./cmd/wpncrawl -seed 11 -scale 0.002 -days 7 \
	-chaos-profile "$PROFILE" \
	-shards 4 -fleet-dir "$TMPD/fleet" \
	-out "$TMPD/four.json" 2> "$TMPD/four.log"
cat "$TMPD/four.log" >&2

cmp -s "$TMPD/one.json" "$TMPD/four.json" || {
	echo "telemetry smoke: 4-shard output differs from the one-shard run" >&2
	exit 1
}

# The chaos plan must have exercised the control plane — a run with
# zero kills proves parity of nothing.
grep -Eq "fleet: .*kills=[1-9]" "$TMPD/four.log" || {
	echo "telemetry smoke: chaos plan produced no worker kills" >&2
	exit 1
}

[ -s "$TMPD/metrics.json" ] || { echo "telemetry smoke: empty metrics snapshot" >&2; exit 1; }
[ -s "$TMPD/trace.jsonl" ] || { echo "telemetry smoke: empty trace" >&2; exit 1; }

# The mine runs the default (cached) clustering path, so stop at the
# blocked-only marker; scripts/miningz_smoke.sh validates those keys on
# a blocked mine.
missing=0
while IFS= read -r key; do
	case "$key" in ''|'#'*) continue ;; esac
	if ! grep -q "\"$key\"" "$TMPD/metrics.json"; then
		echo "telemetry smoke: snapshot missing golden key \"$key\"" >&2
		missing=$((missing + 1))
	fi
done <<KEYS
$(sed '/^# mining-blocked-only/,$d' scripts/telemetry_keys.txt)
KEYS
[ "$missing" -eq 0 ] || { echo "telemetry smoke: $missing golden key(s) missing" >&2; exit 1; }

# The trace must contain at least one complete attack chain: a push
# received, a notification clicked, and a landing page reached.
for kind in push_received notification_clicked landing_page; do
	grep -q "\"name\":\"$kind\"" "$TMPD/trace.jsonl" || {
		echo "telemetry smoke: trace has no $kind span" >&2
		exit 1
	}
done

echo "telemetry smoke: OK (4-shard output byte-identical, $(grep -c . "$TMPD/trace.jsonl") spans, all golden keys present)"
