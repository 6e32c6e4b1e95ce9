//! The TE configuration database and the push-loop resource model
//! (§3.2, §6.4).
//!
//! MegaTE replaces the conventional top-down push over millions of
//! persistent connections with a **bottom-up pull**: the controller
//! writes versioned TE configurations into a sharded in-memory
//! key-value database (the paper customizes Redis: ~160k concurrent
//! queries/second on two shards, scaling linearly); endpoints poll the
//! version with short-lived connections, spread over the sync period,
//! and fetch the new configuration only on a version change — eventual
//! consistency instead of synchronized push.
//!
//! * [`store`] — the sharded KV store with versioned-config helpers and
//!   per-shard query accounting (the pull loop itself — query spreading,
//!   convergence, shard load — is measured over real sockets by
//!   `megate_net::pull_round` and `fig14_sync_scale`, not modelled);
//! * [`topdown`] — the calibrated resource model of the conventional
//!   push loop (persistent connections + heartbeats) behind Figures 13
//!   and 14;
//! * [`hybrid`] — the §8 future-work hybrid: persistent push channels
//!   (see [`TeDatabase::watch_versions`]) for heavy-traffic endpoints,
//!   eventual-consistency pull for the tail;
//! * [`faults`] — deterministic, seed-driven fault schedules (outages,
//!   flapping, slow/lossy/corrupting shards) for the chaos harness.

#![warn(missing_docs)]

pub mod faults;
pub mod hybrid;
pub mod store;
pub mod topdown;

pub use faults::{FaultEvent, FaultPlan, FaultSpec};
pub use hybrid::{evaluate_hybrid, heavy_tailed_volumes, HybridConfig, HybridOutcome};
pub use store::{Changelog, ReadOutcome, ShardOutage, TeDatabase, TeKey, CONFIG_VERSION_KEY};
pub use topdown::{BottomUpModel, TopDownModel};
