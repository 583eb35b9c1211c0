//! `calbench`: the host-calibrated benchmark of the passivity suite.
//!
//! It drives the suite from outside — `PassivityCheck` and the public layer
//! functions in-process, the release `ds-serve` binary over HTTP — and
//! prints one JSON result line per run.  See `BENCHMARK.json` at the
//! repository root for the workloads and metrics, and `run.py` for how a
//! run is built and started.

pub mod alloc;
pub mod cal;
pub mod decks;
pub mod report;
pub mod serve;
pub mod staged;
pub mod stats;
pub mod workloads;

/// Every allocation of the benchmark (and of the library code it calls) is
/// counted per thread; see [`alloc`].
#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
