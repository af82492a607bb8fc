//! # tango-bench — regeneration harness for every figure and table
//!
//! One module per paper artifact (see DESIGN.md §4 for the index):
//!
//! | experiment | paper artifact | module |
//! |---|---|---|
//! | `fig3` | Fig. 3 + §4.1 path discovery | [`fig3`] |
//! | `fig4-left` | Fig. 4 (left): 24 h OWD trace | [`fig4`] |
//! | `fig4-middle` | Fig. 4 (middle): route change | [`fig4`] |
//! | `fig4-right` | Fig. 4 (right): instability | [`fig4`] |
//! | `jitter` | §5 rolling-window jitter (T-J) | [`jitter`] |
//! | `headline` | §5 "30 % worse" claim (T-30) | [`headline`] |
//! | `ablation-owd` | A1: one-way vs end-to-end accuracy | [`ablations`] |
//! | `ablation-policy` | A2: policies under the Fig. 4 events | [`ablations`] |
//! | `ablation-multihoming` | A3: Tango vs one-sided multihoming | [`ablations`] |
//! | `tango-of-n` | A4: §6 N-party extension | [`ablations`] |
//! | `ablation-failover` | A8: blackhole detection + failover | [`failover`] |
//!
//! Every experiment prints the paper-comparable rows and writes CSV
//! series under `results/` for external plotting. Absolute numbers come
//! from the calibrated simulator (DESIGN.md §2), so the claim being
//! regenerated is the *shape* — who wins, by what factor, where events
//! land — not testbed-exact milliseconds.
//!
//! Nothing in this crate creates a thread: a sweep is a loop over its
//! seeds (A4 over its pairs), and `sharded --mode threaded` reaches the
//! workspace's one thread site, `tango-sim`'s shard runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod chaos;
pub mod failover;
pub mod fig3;
pub mod fig4;
pub mod headline;
pub mod jitter;
pub mod scalability;
pub mod sharded;
pub mod telemetry;
pub mod trace;
pub mod util;
