//! Experiment-execution engine.
//!
//! - [`sched`] — the dependency-aware work-graph scheduler every figure
//!   runs on (through [`run_suite`](crate::suite::run_suite)): per-worker
//!   deques, steal-half work stealing, long-pole-first ordering. It is
//!   the only place cells fan out across threads, and the only emitter
//!   of [`Event::WorkerSpan`](jumanji::telemetry::Event::WorkerSpan).
//!
//! The worker count comes from the figure's
//! [`ExperimentSpec`](crate::spec::ExperimentSpec): `--threads N` beats
//! `JUMANJI_THREADS` beats the machine's available parallelism.
//!
//! Determinism: every cell derives its RNG streams from its own inputs,
//! and results are read back in plan order, so output is byte-identical
//! no matter how many workers run or how the scheduler interleaves them.

pub mod sched;
