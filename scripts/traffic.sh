#!/bin/bash
# Lists the code that the repo's own traffic never runs. From the root of a
# checkout:
#
#   bash scripts/traffic.sh [OUT]
#
# It builds the benchmark (benchmark/, read only), tebaldi-bench and
# tebaldi-server with coverage of every repro package into a temporary
# directory, and runs
#   - the four BENCHMARK.json workloads at -seconds 2 -trace 1,
#   - the whole tebaldi-bench -quick table,
#   - CI's server smoke: tebaldi-server, an open-loop burst from
#     tebaldi-bench -quick -target ... serve, a /metrics scrape and SIGTERM.
# It merges the counters and writes to OUT (default traffic.txt) every
# function at 0.0 % outside the lint tree (internal/analysis, cmd/tebaldivet),
# the anomaly suite, leaktest and the examples, which are tests or tools
# rather than the system. The last line counts the statements the traffic
# reached among the same packages. Takes about four minutes on two cores.
# The server smoke listens on 127.0.0.1:7421 and :7423, as CI's does.
set -eu
if [ ! -f go.mod ] || [ ! -f benchmark/go.mod ]; then
	echo "scripts/traffic.sh: run from the root of a checkout (needs go.mod and benchmark/go.mod)" >&2
	exit 2
fi
out=${1:-traffic.txt}
tmp=$(mktemp -d)
server_pid=
cleanup() {
	if [ -n "$server_pid" ]; then kill "$server_pid" 2>/dev/null || true; fi
	rm -rf "$tmp"
}
trap cleanup EXIT
cov=$tmp/cov
mkdir -p "$cov/benchmark" "$cov/table" "$cov/server" "$cov/smoke" "$cov/all"

echo "traffic: building with coverage" >&2
go build -C benchmark -cover -coverpkg=repro/... -o "$tmp/benchmark" .
go build -cover -coverpkg=repro/... -o "$tmp/tebaldi-bench" ./cmd/tebaldi-bench
go build -cover -coverpkg=repro/... -o "$tmp/tebaldi-server" ./cmd/tebaldi-server

echo "traffic: benchmark workloads" >&2
GOCOVERDIR=$cov/benchmark "$tmp/benchmark" -seconds 2 -trace 1 -dir "$tmp/benchout" >/dev/null

echo "traffic: tebaldi-bench -quick table" >&2
GOCOVERDIR=$cov/table "$tmp/tebaldi-bench" -quick >/dev/null

echo "traffic: server smoke" >&2
GOCOVERDIR=$cov/server "$tmp/tebaldi-server" -addr 127.0.0.1:7421 -metrics 127.0.0.1:7423 -preload 20000 &
server_pid=$!
for _ in $(seq 1 50); do
	if curl -sf http://127.0.0.1:7423/metrics >/dev/null; then break; fi
	sleep 0.2
done
GOCOVERDIR=$cov/smoke "$tmp/tebaldi-bench" -quick -target 127.0.0.1:7421 serve >/dev/null
curl -sf http://127.0.0.1:7423/metrics >/dev/null
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=

go tool covdata merge -i="$cov/benchmark,$cov/table,$cov/server,$cov/smoke" -o "$cov/all"
go tool covdata textfmt -i="$cov/all" -o "$tmp/all.txt"
skip='^repro/(benchmark|internal/analysis|cmd/tebaldivet|internal/engine/anomaly|internal/leaktest|examples)/'
{
	head -n 1 "$tmp/all.txt"
	tail -n +2 "$tmp/all.txt" | grep -Ev "$skip"
} >"$tmp/system.txt"
{
	go tool cover -func="$tmp/system.txt" | awk '$NF == "0.0%"'
	# A block can appear once per binary: count it once, reached if any ran it.
	tail -n +2 "$tmp/system.txt" | awk '{ n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
		END {
			for (b in n) { all += n[b]; if (b in hit) reached += n[b] }
			printf "reached %d of %d statements (%.1f %%)\n", reached, all, 100 * reached / all
		}'
} >"$out"
echo "traffic: $(grep -c '0.0%$' "$out") functions at 0.0 %; $(tail -n 1 "$out"); list in $out" >&2
