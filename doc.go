// Package taskbench is a from-scratch Go reproduction of "Task Bench:
// A Parameterized Benchmark for Evaluating Parallel Runtime
// Performance" (Slaughter et al., SC 2020).
//
// The library lives under internal/: the core task-graph description
// (internal/core), the kernels (internal/kernels), the runtime
// backends modelling the paper's programming systems
// (internal/runtime/...), the shared scheduler engine and reusable
// task-DAG plan they execute through (internal/runtime/exec), a
// discrete-event cluster simulator standing in for the Cori and Piz
// Daint testbeds (internal/sim), the METG metric (internal/metg) and
// the experiment harness (internal/harness). See README.md for a tour
// and DESIGN.md for the architecture and system inventory.
//
// `go run ./cmd/figures` regenerates every table and figure of the
// paper's evaluation (-full for the complete sweeps). Performance is
// measured by the benchmark in bench/ (`bash bench/run.sh --workload
// ...`, see bench/README.md); the Go benchmarks in bench_test.go are
// only the CI gate's copies of its per-layer probes.
package taskbench
