//! # cluster — multi-server CoScale under one datacenter power budget
//!
//! The paper sketches power capping as CoScale's natural extension (§2.3);
//! the single-server `PowerCapPolicy` in the `coscale` crate implements
//! it. This crate lifts that to a rack: **N independent servers**, each
//! running the full epoch engine on its own workload mix, coordinated by a
//! **cluster-level controller** that periodically redistributes one global
//! power budget into per-server caps — the shape FastCap (Liu et al.)
//! studies, motivated by cluster-level power management work such as
//! PowerTracer.
//!
//! The control loop is round-based:
//!
//! 1. At each round boundary every server reports telemetry: predicted
//!    uncapped demand, its power floor, and whether it is still active
//!    (its workload not yet complete).
//! 2. The coordinator splits the global budget into per-server caps using
//!    one of three disciplines ([`CapSplit`]): uniform,
//!    demand-proportional, or FastCap-style marginal-utility greedy.
//!    Finished servers return their share to the pool.
//! 3. Every server runs `epochs_per_round` epochs of the ordinary
//!    profiling/decision/execution engine with `PowerCapPolicy` reading
//!    its (freshly rewritten) cap.
//!
//! Servers only exchange state at round barriers, so each round's
//! unfinished servers are stepped on a persistent [`WorkerPool`] with
//! **bit-identical results for any thread count** — see
//! `ClusterResult::digest`.
//!
//! Budgets can also be split **hierarchically** (fleet → pod → rack →
//! server) through a [`BudgetTree`]: each interior node runs its own split
//! discipline over its children's aggregated telemetry, so a rack can be
//! SLA-aware internally while pods share the fleet budget uniformly — see
//! the [`tree`] module. Flat or hierarchical, every split runs through the
//! compiled [`HierSplitter`]: a flat split is the one-group tree
//! [`BudgetTree::flat`].
//!
//! All coordinator ↔ server traffic flows through a simulated **message
//! plane** ([`ctrlplane`]): telemetry reports, cap grants, acks/nacks, and
//! coordinator heartbeats are typed messages subject to configurable
//! latency, jitter, loss, and duplication. Cap grants are **leases** — a
//! server that misses renewals keeps its last cap until the lease expires,
//! then falls to a safe floor — and with failover enabled a standby
//! coordinator takes over by deterministic election when the primary goes
//! silent. The default [`RpcConfig`] is a perfect loopback under which
//! everything below is bit-identical to a direct-call coordinator.
//!
//! # Example
//!
//! ```no_run
//! use cluster::{run_cluster, CapSplit, ClusterConfig, ServerSpec};
//!
//! let fleet: Vec<ServerSpec> = (0..8)
//!     .map(|i| ServerSpec::small(&format!("srv{i}"), "MID1", i as u64))
//!     .collect();
//! let cfg = ClusterConfig::new(fleet, 400.0, CapSplit::FastCap).with_threads(4);
//! let result = run_cluster(cfg);
//! println!(
//!     "total energy {:.1} J, fairness {:.3}",
//!     result.total_energy_j(),
//!     result.cap_fairness()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
mod config;
pub mod coordinator;
pub mod ctrlplane;
pub mod engine;
pub mod hiercache;
mod server;
mod sim;
pub mod tree;

pub use balance::{BalancePolicy, LoadBalancer, ServerLoad};
pub use config::{
    synthetic_fleet, CapSplit, ChurnAction, ChurnEvent, ChurnSchedule, ClusterConfig, ServerSpec,
};
pub use coordinator::{
    jain_index, split_caps, split_caps_critical, split_caps_sla, ServerDemand, SlaSignal,
    SplitError,
};
pub use ctrlplane::{
    CapGrant, ControlPlane, ControlStats, CtrlMsg, GrantOutcome, GrantRecord, Heartbeat,
    LeaseClient, LeaseEntry, LeaseLedger, PartitionSpec, ReplState, ResolvedRpc, RpcConfig,
};
pub use engine::WorkerPool;
pub use hiercache::{HierSplitter, TracedSplit};
pub use netsim::{LinkConfig, NodeId, PlaneStats};
pub use server::{Server, ServerStatus};
pub use sim::{run_cluster, ClusterResult, ClusterSim, ServerOutcome};
pub use tree::{BudgetNode, BudgetTree, GroupShare, TreeSignals};
