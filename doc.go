// Package repro is a from-scratch Go reproduction of "Bringing Modular
// Concurrency Control to the Next Level" (SIGMOD 2017): Tebaldi, a
// transactional key-value store that federates concurrency control
// mechanisms in a multi-level tree, plus its automatic configuration
// machinery (Chapter 5 of the dissertation version).
//
// The public API lives in repro/tebaldi; workloads in repro/workload/...;
// the evaluation's experiment table in internal/bench, rendered by
// cmd/tebaldi-bench and bench_test.go. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for paper-vs-measured results.
package repro
