#!/bin/sh
# Repository checks: vet everything, race-test the concurrency-heavy
# packages (the simulated MPI runtime, the worker pool, the parallel
# estimator) and the numerical core the sparse Jacobian path touches
# (solver, linear algebra), repeat the scheduling and fault-injection
# packages to catch timing-dependent results, give both parser fuzzers a
# short smoke run, run the history-kernel benchmark once so it keeps
# compiling, check that a traced rmsbench compile and a traced
# rmsc compile write their compiler-phase spans, then run the
# cross-stack conformance matrix (docs/testing.md). Run from the
# repository root; the full serial test suite is `go test ./...`.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go test -race (mpi, parallel, estimator, sched, ode, linalg, telemetry, introspect, codegen, service)"
go test -race ./internal/mpi/... ./internal/parallel/... ./internal/estimator/... \
	./internal/sched/... ./internal/ode/... ./internal/linalg/... \
	./internal/telemetry/... ./internal/introspect/... ./internal/codegen/... \
	./internal/service/... ./cmd/rmsd/...

# Repetition sweep: a determinism claim that holds on most runs but not
# all (a result that depends on goroutine timing) fails here fast.
echo "== repetition sweep (estimator, sched, faults, service: -count=20, then -race -count=20)"
go test -count=20 ./internal/estimator/... ./internal/sched/... \
	./internal/faults/... ./internal/service/...
go test -race -count=20 ./internal/estimator/... ./internal/sched/... \
	./internal/faults/... ./internal/service/...

echo "== introspection endpoints smoke (rmssim -listen)"
./scripts/introspect_smoke.sh

echo "== service smoke (rmsd + rmsctl vs rmssim/rmsrun)"
./scripts/service_smoke.sh

echo "== fault-injection suite (-race)"
go test -race -run 'Fault|Recover|Watchdog|Inject|Penal|NaN|NonFinite|Flaky|Stall|Crash|Abort' \
	./internal/faults/... ./internal/mpi ./internal/estimator ./internal/nlopt \
	./internal/conformance

echo "== chaos soak (make chaos: degradation ladders, checkpoint/resume, budgets)"
make chaos

echo "== fuzz smoke (FuzzParseRDL, 10s)"
go test -fuzz=FuzzParseRDL -fuzztime=10s ./internal/rdl

echo "== fuzz smoke (FuzzParseSMILES, 10s)"
go test -fuzz=FuzzParseSMILES -fuzztime=10s ./internal/chem

echo "== batched-eval smoke (rmsbench -batch, small system)"
go run ./cmd/rmsbench -batch -variants 64 -evalms 50

echo "== history-kernel benchmark smoke (BenchmarkHistory, one iteration)"
go test -run '^$' -bench History -benchtime 1x ./internal/ode

echo "== scheduler skew smoke (rmsbench -skew, small model)"
go run ./cmd/rmsbench -skew -variants 8

echo "== traced sparse smoke (rmsbench -sparse -trace records compiler-phase spans)"
trace=$(mktemp)
go run ./cmd/rmsbench -sparse -variants 60 -trace "$trace" >/dev/null
for span in optimize "jacobian compilation"; do
	if ! grep -q "\"name\":\"$span\",\"ph\":\"X\"" "$trace"; then
		echo "rmsbench -sparse -trace: no \"$span\" span in $trace" >&2
		exit 1
	fi
done
rm -f "$trace"

echo "== traced compile smoke (rmsc -trace records compiler-phase spans)"
trace=$(mktemp)
go run ./cmd/rmsc -trace "$trace" internal/network/testdata/golden/chain_scission.rdl >/dev/null
for span in parse "network generation"; do
	if ! grep -q "\"name\":\"$span\",\"ph\":\"X\"" "$trace"; then
		echo "rmsc -trace: no \"$span\" span in $trace" >&2
		exit 1
	fi
done
rm -f "$trace"

echo "== conformance matrix (make verify)"
make verify

echo "ok"
