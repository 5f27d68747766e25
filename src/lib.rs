//! # coscale-repro — a reproduction of CoScale (MICRO 2012)
//!
//! This facade crate re-exports the whole workspace so examples and
//! downstream users need a single dependency:
//!
//! * [`simkernel`] — deterministic discrete-event kernel (picosecond time,
//!   event queue, PRNG, statistics).
//! * [`workloads`] — synthetic SPEC-like traces and the paper's 16 mixes.
//! * [`cpusim`] — shared L2, prefetcher, in-order / MLP-window cores, and
//!   CoScale's performance counters.
//! * [`memsim`] — the DDR3 channel/rank/bank simulator with bus DVFS.
//! * [`powermodel`] — core/DRAM/MC/PLL/system power models.
//! * [`coscale`] — the performance/energy models, the CoScale controller,
//!   the five comparison policies, and the epoch engine.
//! * [`cluster`] — N servers under one global power budget, coordinated by
//!   a cluster-level cap redistributor (uniform / demand-proportional /
//!   FastCap-style / SLA-aware splitting), with fleet-churn schedules and
//!   hierarchical fleet → pod → rack budget trees mixing disciplines per
//!   level.
//! * [`service`] — the request-serving layer: open-loop Poisson/MMPP
//!   arrivals or a closed-loop client population (request → response →
//!   exponential think) routed by a front-end load balancer, bounded
//!   queues with admission control, fluid request draining at the engine's
//!   measured throughput, and tail-latency SLOs driving the SLA-aware cap
//!   splitting.
//!
//! # Example
//!
//! ```no_run
//! use coscale_repro::prelude::*;
//!
//! let cfg = SimConfig::small(mix("MID1").unwrap());
//! let base = run_policy(cfg.clone(), PolicyKind::StaticMax);
//! let co = run_policy(cfg, PolicyKind::CoScale);
//! assert!(co.energy_savings_vs(&base) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cluster;
pub use coscale;
pub use cpusim;
pub use memsim;
pub use powermodel;
pub use service;
pub use simkernel;
pub use workloads;

/// The most common imports for driving simulations.
pub mod prelude {
    pub use cluster::{
        run_cluster, synthetic_fleet, BalancePolicy, BudgetNode, BudgetTree, CapSplit,
        ChurnSchedule, ClusterConfig, ClusterResult, ClusterSim, ControlStats, LoadBalancer,
        PartitionSpec, RpcConfig, ServerLoad, ServerSpec,
    };
    pub use coscale::{
        run_policy, CoScalePolicy, Model, Plan, Policy, PolicyKind, RunResult, Runner, SimConfig,
        System,
    };
    pub use cpusim::{CoreConfig, PipelineMode};
    pub use service::{
        run_service, ArrivalKind, ClientModel, ClientPool, ClientPopulation, ClosedLoopConfig,
        FluidPool, ServiceConfig, ServiceResult, ServiceServerSpec, ServiceSim, TierConfig,
        TierGraph, TierSummary,
    };
    pub use simkernel::{Freq, Ps};
    pub use workloads::{all_mixes, mix, Mix, MixClass};
}
