#!/bin/sh
# Server smoke test: bring up a loopback server inside loadgen, drive a
# burst of mixed traffic (TPC-H point/range queries, payment-shaped
# transactions, verified point reads) over 8 connections with a seeded
# disk-fault round armed, and require zero mismatches, a fault round that
# injected something, and a clean graceful shutdown (a mismatch always
# exits non-zero, -check adds the other two). A second pass
# exercises the standalone server binary end to end through the remote
# shell, with the admin telemetry plane up: /metrics must serve Prometheus
# text, /traces must show recorded traces, and /bees must attribute
# nonzero estimated savings to at least one bee.
set -e

echo "== loadgen burst with seeded faults =="
go run ./cmd/loadgen sweep -conns 8 -dur 2s -tpch 0.005 -faults -faultseed 42 \
    -poolpages 96 -check

echo "== loadgen scaling smoke (MVCC snapshot reads, I/O-bound mode) =="
# Page reads really sleep, so concurrent connections must overlap their
# I/O waits: 4 connections are required to beat 1 connection by >= 1.5x,
# with every verified point read still returning its seeded value.
go run ./cmd/loadgen sweep -conns 1,4 -dur 2s -tpch 0.005 -latency 300us \
    -minscale 1.5 -check

echo "== standalone server round trip =="
go build -o /tmp/microspec-server ./cmd/microspec-server
go build -o /tmp/microspec ./cmd/microspec
/tmp/microspec-server -addr 127.0.0.1:5439 -admin 127.0.0.1:6439 -trace 1 \
    -tpch 0.001 >/tmp/server_smoke.log 2>&1 &
SRV=$!
trap 'kill $SRV 2>/dev/null || true' EXIT
sleep 3
OUT=$(printf 'select count(*) from region;\nselect count(*), sum(l_extendedprice) from lineitem where l_quantity < 24;\n\\q\n' | /tmp/microspec -connect 127.0.0.1:5439)
echo "$OUT"
echo "$OUT" | grep -q '^5$' || { echo "remote shell round trip failed"; exit 1; }

echo "== admin telemetry plane =="
# /metrics: HTTP 200 and real Prometheus exposition text.
METRICS=$(curl -sf http://127.0.0.1:6439/metrics) \
    || { echo "/metrics not serving"; exit 1; }
echo "$METRICS" | grep -q '^microspec_server_requests ' \
    || { echo "/metrics missing server counters"; exit 1; }
# /traces: HTTP 200 and at least one recorded trace with an exec span.
TRACES=$(curl -sf http://127.0.0.1:6439/traces) \
    || { echo "/traces not serving"; exit 1; }
echo "$TRACES" | grep -q '"name": "exec"' \
    || { echo "/traces has no exec spans"; exit 1; }
# /bees: HTTP 200 and a nonzero estimated-time-saved attribution.
BEES=$(curl -sf http://127.0.0.1:6439/bees) \
    || { echo "/bees not serving"; exit 1; }
echo "$BEES" | grep -q '"est_saved_ns"' \
    || { echo "/bees missing benefit section"; exit 1; }
echo "$BEES" | grep '"est_saved_ns"' | grep -vq '"est_saved_ns": 0' \
    || { echo "/bees attributes no savings to any bee"; exit 1; }
echo "admin telemetry OK"

kill -INT $SRV
wait $SRV
grep -q 'shutting down' /tmp/server_smoke.log || { echo "no graceful shutdown"; exit 1; }
echo "server smoke OK"
