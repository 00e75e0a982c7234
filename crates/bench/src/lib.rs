//! # dlo-bench — reproduction harness and workloads
//!
//! Shared infrastructure for the `repro_*` binaries (one per table/figure
//! of the paper, in `src/bin/`; each binary's module docs name the result
//! it reproduces) and for the Criterion benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod workloads;

pub use workloads::*;
