//! One module per table/figure of the paper's evaluation — the
//! per-experiment index of DESIGN.md §4.

pub mod analyze;
pub mod async_rt;
pub mod chaos;
pub mod faults;
pub mod fig3;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod obs;
pub mod serve;
pub mod slo;
pub mod summary;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod trace;
pub mod verify;

/// The default traffic trace of the virtual-clock serve lanes (`serve`,
/// `chaos`, `slo`, `obs`; `async` shares the seed): the committed
/// `results/*.json` of those lanes are this trace's bytes.
pub const DEFAULT_SEED: u64 = 7;
pub const DEFAULT_RPS: f64 = 4.0;
pub const DEFAULT_REQUESTS: usize = 32;
