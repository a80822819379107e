//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to a crates registry, so this shim
//! provides just enough of serde's surface for the repo to compile: the
//! `Serialize` / `Deserialize` marker traits (blanket-implemented) and the
//! matching no-op derive macros. Nothing in this workspace serializes
//! through serde — machine-readable artifacts (CSV tables, benchmark
//! reports) are written by hand — so the derives only need to exist, not to
//! generate real impls. Replacing this shim with the real `serde` is a
//! one-line change in the workspace manifest.

#![forbid(unsafe_code)]

/// Marker trait mirroring `serde::Serialize` (blanket-implemented).
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker trait mirroring `serde::Deserialize` (blanket-implemented).
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

pub use serde_derive::{Deserialize, Serialize};
