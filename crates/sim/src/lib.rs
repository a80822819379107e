//! # tnn-sim
//!
//! The experiment harness reproducing every measured table and figure of
//! the EDBT 2008 TNN paper's evaluation (§6):
//!
//! | experiment | binary | paper section |
//! |---|---|---|
//! | Figure 9 (a–d): access time | `fig9` | §6.1.1 |
//! | Figure 11 (a–d): tune-in time vs. density | `fig11` | §6.1.2 |
//! | Figure 12 (a–d): ANN vs. eNN optimization | `fig12` | §6.2 |
//! | Figure 13 (a–b): Hybrid-NN with ANN | `fig13` | §6.2.2 |
//! | Table 3: Approximate-TNN fail rates | `table3` | §6.3 |
//! | design ablations (packing, interleaving, …) | `ablations` | — |
//!
//! Run everything with `cargo run --release -p tnn-sim --bin
//! all-experiments`; set `TNN_QUERIES` (default 1000, the paper's count)
//! and `TNN_SEED` to control batch size and reproducibility.
//!
//! The harness mirrors the paper's methodology: for each configuration it
//! issues `TNN_QUERIES` queries at points uniform over the 39,000²
//! region, with **independent random phases per channel per query**
//! simulating the waiting times for the two roots, and reports access
//! time and tune-in time in pages.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
mod metrics;
mod report;
mod runner;
mod workload;

pub use metrics::BatchStats;
pub use report::{format_table, write_csv, Table};
pub use runner::{queries_per_batch, run_batch, run_chain_batch, run_tnn_batch, BatchConfig};
pub use workload::{Catalog, DatasetSpec};

#[cfg(feature = "linear-reference")]
pub use runner::run_batch_linear;
