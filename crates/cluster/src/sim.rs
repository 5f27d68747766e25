//! The cluster simulation loop: rounds of (collect telemetry → split the
//! budget → run every unfinished server a few epochs in parallel),
//! repeated until every server's workload completes.
//!
//! One loop drives every run. It keeps an ascending list of unfinished
//! servers, steps exactly those on a persistent [`WorkerPool`] at each
//! barrier, and trims the list after the step. Every server, finished
//! ones included, reports at every barrier in index order, because a
//! lossy plane draws each message's fate from its send order.
//!
//! Telemetry and caps flow through the [`ControlPlane`]: each barrier the
//! loop hands the round's reports to [`ControlPlane::barrier`] and
//! applies the effective (leased) caps it returns. Under the default
//! loopback [`RpcConfig`](crate::RpcConfig) the leases converge within the
//! barrier to the direct split, up to a few ulps where the plane funds an
//! increase from a float remainder (see the `ctrlplane` module's
//! "Loopback equivalence"); under a lossy or delayed plane servers ride
//! their last lease until expiry.

use crate::coordinator::{jain_index, ServerDemand};
use crate::ctrlplane::{ControlPlane, ControlStats};
use crate::engine::WorkerPool;
use crate::server::Server;
use crate::{CapSplit, ClusterConfig};
use coscale::RunResult;
use simkernel::Ps;

/// One server's final accounting.
#[derive(Clone, Debug)]
pub struct ServerOutcome {
    /// Server name from the spec.
    pub name: String,
    /// The single-server result (energy, makespan, latency percentiles…).
    pub result: RunResult,
    /// Mean cap granted over the server's rounds, watts.
    pub mean_cap_w: f64,
    /// Cap granted in the server's last round, watts.
    pub final_cap_w: f64,
    /// Rounds whose measured average power exceeded the granted cap by
    /// more than the 5% modelling tolerance.
    pub violation_rounds: u64,
    /// Instructions the workload committed across all cores (the
    /// completion target × cores).
    pub total_target_instrs: u64,
}

impl ServerOutcome {
    /// Aggregate instruction throughput: target instructions over the
    /// server's makespan, instructions per second. Zero when the server
    /// never ran (a churned server that joined and immediately left, or an
    /// empty workload, has a zero makespan — dividing through it would
    /// poison fleet aggregates with `inf`/`NaN`).
    pub fn throughput_ips(&self) -> f64 {
        let secs = self.result.makespan.as_secs_f64();
        if secs > 0.0 {
            self.total_target_instrs as f64 / secs
        } else {
            0.0
        }
    }
}

/// Everything one cluster simulation produces.
#[derive(Clone, Debug)]
pub struct ClusterResult {
    /// The splitting discipline that ran.
    pub split: CapSplit,
    /// The rendered budget topology, when the run was hierarchical.
    pub topology: Option<String>,
    /// The global budget, watts.
    pub global_cap_w: f64,
    /// Per-server outcomes, in fleet order.
    pub outcomes: Vec<ServerOutcome>,
    /// Coordination rounds executed.
    pub rounds: usize,
    /// Per-round per-server caps (rounds × servers), watts. These are the
    /// caps **in force** at each server — the leased cap, or the floor
    /// once a lease expired unrenewed.
    pub cap_timeline: Vec<Vec<f64>>,
    /// Control-plane statistics (messages, grants, leases, elections).
    /// Deliberately **not** part of [`ClusterResult::digest`]: the digest
    /// pins the physics, these describe the transport that delivered it.
    pub control: ControlStats,
}

impl ClusterResult {
    /// Total cluster energy to each server's completion, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.result.total_energy_j())
            .sum()
    }

    /// Cluster makespan: the slowest server's completion.
    pub fn makespan(&self) -> Ps {
        self.outcomes
            .iter()
            .map(|o| o.result.makespan)
            .fold(Ps::ZERO, Ps::max)
    }

    /// Aggregate performance: the sum of per-server instruction
    /// throughputs, instructions per second.
    pub fn aggregate_throughput_ips(&self) -> f64 {
        self.outcomes
            .iter()
            .map(ServerOutcome::throughput_ips)
            .sum()
    }

    /// Cap-violation rounds summed over the fleet.
    pub fn total_violations(&self) -> u64 {
        self.outcomes.iter().map(|o| o.violation_rounds).sum()
    }

    /// Jain fairness index over the mean cap each server was granted:
    /// 1 under a perfectly equal allocation, approaching `1/N` as the
    /// budget concentrates on one server.
    pub fn cap_fairness(&self) -> f64 {
        let caps: Vec<f64> = self.outcomes.iter().map(|o| o.mean_cap_w).collect();
        jain_index(&caps)
    }

    /// Jain fairness index over per-server completion speed
    /// (1/makespan) — performance fairness rather than allocation
    /// fairness. Servers that never ran (zero makespan) contribute a zero
    /// speed instead of an `inf` that would turn the index into `NaN`.
    pub fn perf_fairness(&self) -> f64 {
        let speeds: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| {
                let secs = o.result.makespan.as_secs_f64();
                if secs > 0.0 {
                    1.0 / secs
                } else {
                    0.0
                }
            })
            .collect();
        jain_index(&speeds)
    }

    /// A bit-exact digest of every scheduling-sensitive number in the
    /// result — per-server makespans, energies, caps, violations and the
    /// full cap timeline. Two runs of the same configuration must produce
    /// identical digests regardless of the worker thread count.
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "split={} topo={} cap={:016x}\n",
            self.split,
            self.topology.as_deref().unwrap_or("flat"),
            self.global_cap_w.to_bits()
        );
        for o in &self.outcomes {
            let _ = writeln!(
                s,
                "{} makespan={} energy={:016x} mean_cap={:016x} viol={} epochs={}",
                o.name,
                o.result.makespan.as_ps(),
                o.result.total_energy_j().to_bits(),
                o.mean_cap_w.to_bits(),
                o.violation_rounds,
                o.result.epochs,
            );
        }
        for (r, caps) in self.cap_timeline.iter().enumerate() {
            let _ = write!(s, "round {r}:");
            for c in caps {
                let _ = write!(s, " {:016x}", c.to_bits());
            }
            let _ = writeln!(s);
        }
        s
    }
}

/// The cluster simulator. Build with a validated [`ClusterConfig`], then
/// call [`ClusterSim::run`].
pub struct ClusterSim {
    config: ClusterConfig,
    servers: Vec<Server>,
}

impl ClusterSim {
    /// Builds the fleet.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ClusterConfig) -> ClusterSim {
        if let Err(e) = config.validate() {
            panic!("invalid cluster config: {e}");
        }
        let initial = config.global_cap_w / config.servers.len() as f64;
        // Construction is per-spec independent and allocation-heavy (cache
        // tag arrays, trace generators), so large fleets build in parallel
        // on the configured worker count. Order is preserved; results are
        // identical to serial construction.
        let servers = if config.threads > 1 && config.servers.len() > 1 {
            let chunk = config.servers.len().div_ceil(config.threads);
            let mut built: Vec<Option<Server>> = Vec::new();
            built.resize_with(config.servers.len(), || None);
            std::thread::scope(|scope| {
                for (specs, out) in config.servers.chunks(chunk).zip(built.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        for (spec, slot) in specs.iter().zip(out) {
                            *slot = Some(Server::new(spec, initial));
                        }
                    });
                }
            });
            built
                .into_iter()
                .map(|s| s.expect("every chunk constructed"))
                .collect()
        } else {
            config
                .servers
                .iter()
                .map(|spec| Server::new(spec, initial))
                .collect()
        };
        ClusterSim { config, servers }
    }

    /// Runs rounds until every server completes, then aggregates.
    ///
    /// Within a round the unfinished servers are advanced on
    /// `config.threads` pool workers. Servers exchange state with the
    /// coordinator only at round barriers, so results are bit-identical
    /// for every thread count.
    pub fn run(self) -> ClusterResult {
        let ClusterSim { config, servers } = self;
        let names: Vec<&str> = config.servers.iter().map(|s| s.name.as_str()).collect();
        let epochs = config.epochs_per_round;
        let pool = WorkerPool::new(config.threads, move |s: &mut Server| s.step_round(epochs));
        let mut plane = ControlPlane::new(&config);
        // Servers live in takeable slots so they can cross the pool by
        // value; every slot is full again by the end of each barrier.
        let mut slots: Vec<Option<Server>> = servers.into_iter().map(Some).collect();
        let done = |slot: &Option<Server>| slot.as_ref().expect("server in its slot").is_done();
        let mut awake: Vec<usize> = (0..slots.len()).filter(|&i| !done(&slots[i])).collect();
        let mut cap_timeline: Vec<Vec<f64>> = Vec::new();
        let mut rounds = 0usize;
        while !awake.is_empty() {
            // --- coordinate: telemetry in, leased caps out ---
            let reports: Vec<(usize, ServerDemand)> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let s = slot.as_mut().expect("server in its slot");
                    (i, s.status().demand)
                })
                .collect();
            let caps = plane.barrier(rounds as u64, &reports, &config, &names);
            for (slot, &cap) in slots.iter_mut().zip(&caps) {
                slot.as_mut().expect("server in its slot").set_cap(cap);
            }
            if config.record_timeline {
                cap_timeline.push(caps);
            }

            // --- advance the unfinished servers one coordination period ---
            let jobs = awake
                .iter()
                .map(|&i| (i, slots[i].take().expect("server in its slot")))
                .collect();
            pool.run(jobs, |i, s| slots[i] = Some(s));
            awake.retain(|&i| !done(&slots[i]));
            rounds += 1;
        }
        let control = plane.finish();
        let outcomes = slots
            .into_iter()
            .map(|slot| {
                let server = slot.expect("server in its slot");
                ServerOutcome {
                    name: server.name.clone(),
                    mean_cap_w: server.mean_cap_w(),
                    final_cap_w: server.cap_w(),
                    violation_rounds: server.violations(),
                    total_target_instrs: server.total_target_instrs(),
                    result: server.finalize(),
                }
            })
            .collect();
        ClusterResult {
            split: config.split,
            topology: config.topology.as_ref().map(|t| t.to_string()),
            global_cap_w: config.global_cap_w,
            outcomes,
            rounds,
            cap_timeline,
            control,
        }
    }
}

/// Convenience: build and run a cluster in one call.
pub fn run_cluster(config: ClusterConfig) -> ClusterResult {
    ClusterSim::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coscale::PolicyKind;

    fn outcome(name: &str, makespan: Ps, instrs: u64) -> ServerOutcome {
        ServerOutcome {
            name: name.to_string(),
            result: RunResult {
                policy: PolicyKind::CoScale,
                mix: "MID1".to_string(),
                epochs: 0,
                completion: Vec::new(),
                makespan,
                cpu_energy_j: 0.0,
                l2_energy_j: 0.0,
                mem_energy_j: 0.0,
                rest_energy_j: 0.0,
                records: Vec::new(),
                mpki: 0.0,
                wpki: 0.0,
                prefetch_accuracy: 0.0,
                bus_utilization: 0.0,
                row_hit_rate: 0.0,
                avg_read_latency_ns: 0.0,
                mem_sleep_fraction: 0.0,
                read_lat_p50_ns: 0.0,
                read_lat_p95_ns: 0.0,
                read_lat_p99_ns: 0.0,
            },
            mean_cap_w: 50.0,
            final_cap_w: 50.0,
            violation_rounds: 0,
            total_target_instrs: instrs,
        }
    }

    #[test]
    fn zero_makespan_yields_finite_aggregates() {
        // Regression: a server that joined and immediately left (or ran an
        // empty workload) has a zero makespan; throughput and fleet
        // fairness used to divide by it, turning the Jain index (and any
        // digest of it) into inf/NaN.
        let never_ran = outcome("ghost", Ps::ZERO, 1_000_000);
        assert_eq!(never_ran.throughput_ips(), 0.0);

        let r = ClusterResult {
            split: CapSplit::Uniform,
            topology: None,
            global_cap_w: 100.0,
            outcomes: vec![never_ran, outcome("ok", Ps::from_us(500), 1_000_000)],
            rounds: 1,
            cap_timeline: vec![vec![50.0, 50.0]],
            control: ControlStats::default(),
        };
        assert!(r.perf_fairness().is_finite());
        assert!(r.aggregate_throughput_ips().is_finite());
        // One of two servers did all the running: Jain index is 1/2.
        assert!((r.perf_fairness() - 0.5).abs() < 1e-12);
    }
}
