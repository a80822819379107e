//! The TNN stack's benchmark: seeded workloads over the public APIs of
//! `tnn-core`, `tnn-serve`, `tnn-shard` and `tnn-rtree`, with answer
//! checks outside the timed regions and a separate traced run whose
//! spans are recorded here, around each call into a layer. See
//! `README.md` in this directory for the workloads and metrics.

#![forbid(unsafe_code)]
// A benchmark reads the wall clock by design; the repository's
// determinism lint (R1, `clippy.toml`) does not apply here.
#![allow(clippy::disallowed_methods)]

pub mod engine_exact;
pub mod fixture;
pub mod host;
pub mod metrics;
pub mod serve;
pub mod shard_skew;
pub mod spans;
pub mod stats;
