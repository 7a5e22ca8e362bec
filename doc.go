// Package insitu is a Go reproduction of "Combining In-situ and
// In-transit Processing to Enable Extreme-Scale Scientific Analysis"
// (Bennett et al., SC 2012): a hybrid concurrent-analysis framework in
// which analysis algorithms split into a massively parallel in-situ
// stage on the simulation's compute ranks and a small-scale or serial
// in-transit stage on staging buckets, connected by an asynchronous
// RDMA-style transport (DART) and a pull-based FCFS task scheduler
// (DataSpaces), with successive timesteps temporally multiplexed
// across buckets.
//
// See README.md for the architecture overview, DESIGN.md for the
// system inventory and per-experiment index, and EXPERIMENTS.md for
// the paper-vs-measured comparison. The root package holds the
// ablation and codec micro-benches (bench_test.go, bench_codec_test.go)
// and the godoc lint over the public-surface packages; the end-to-end
// benchmark is benchmark/ and cmd/experiments regenerates the paper's
// tables and figures.
package insitu
