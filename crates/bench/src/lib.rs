//! # tnn-bench
//!
//! The equivalence gates of the TNN stack. The crate has no code of its
//! own: its integration tests under `tests/` hold every layer to the bare
//! `QueryEngine`, byte for byte —
//!
//! | gate | contract |
//! |---|---|
//! | `engine_equivalence` | the k-ary engine ≡ the frozen 2-channel pipeline |
//! | `linear_equivalence` | heap-ordered queues ≡ the paper-literal linear scan |
//! | `serve_equivalence` | `Server` ≡ engine |
//! | `qos_equivalence` | cached answers ≡ engine, FIFO within a class |
//! | `fault_equivalence` | zero-fault plans are transparent, fault plans replay |
//! | `shard_equivalence` | `ShardRouter` ≡ engine |
//! | `mutation_equivalence` | updated environments ≡ rebuilt ones |
//! | `trace_equivalence` | traced ≡ untraced |
//!
//! `serve_stress` adds concurrency storms: bounded ones in tier-1, long
//! soaks behind `--ignored`. The repository's benchmark is the separate
//! `tnnbench` package.

#![forbid(unsafe_code)]
