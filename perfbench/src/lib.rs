//! Statistics and span recording behind the `imcis_perfbench` binary.
//!
//! Kept in a library so the benchmark's own tests (`tests/stats.rs`)
//! can pin the rules every reported number rests on: the tail
//! percentile, span self time and closed-loop accounting.

#![forbid(unsafe_code)]

pub mod stats;
pub mod trace;
