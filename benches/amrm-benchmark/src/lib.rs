//! End-to-end and per-layer benchmark of the amrm runtime manager.
//!
//! The harness measures the program from outside: it drives four
//! workloads through the library's public API and wraps the public trait
//! objects in timing decorators. See `README.md` for the workloads, the
//! metrics, and the layer each per-layer metric belongs to.

pub mod cli;
pub mod driver;
pub mod hist;
pub mod report;
