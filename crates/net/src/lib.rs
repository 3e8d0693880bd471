//! Rank-based message-passing runtime with a Summit-like network model.
//!
//! Stand-in for the paper's MPI layer (Spectrum MPI on Summit's dual-rail
//! EDR fat-tree; see DESIGN.md §2). One engine runs every count, figure
//! and benchmark:
//!
//! * [`bsp`] — the **BSP executor**: ranks are tasks executed per
//!   superstep, collectives are performed centrally. Scales to thousands
//!   of simulated ranks on one host (the paper's CPU baseline uses 2,688
//!   ranks), which free-running threads cannot. Routing, wire faults and
//!   retries, and the journal all live here.
//! * [`threaded`] — a plain channel oracle for tests: ranks as real OS
//!   threads exchanging `u64` payloads over channels, with no routing,
//!   faults or clock. Rank code written against it looks like real MPI
//!   rank code and cross-checks the BSP engine's collective semantics.
//!
//! The [`cost`] module prices collectives with an α-β model over the
//! [`topology`] (per-node injection bandwidth of 23 GB/s, NVLink on-node,
//! per §V-A) and names the routing ([`cost::ExchangeAlgo`]), and
//! [`stats`] counts exact communication volumes — the numbers behind the
//! paper's Table II.

#![warn(missing_docs)]

pub mod bsp;
pub mod cost;
pub mod fault;
pub mod stats;
pub mod threaded;
pub mod topology;

pub use bsp::BspWorld;
pub use cost::NetworkParams;
pub use fault::{BucketFate, ChecksumFrame, FaultPlan, FaultSpec, RankPlan, RankSpec, WireHash};
pub use stats::CommStats;
pub use threaded::ThreadedWorld;
pub use topology::Topology;
