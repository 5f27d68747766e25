//! Test oracles: the reference batch loop (this module), a short serial
//! oracle for the fleet loop in `ClusterSim::run`, and the recursive
//! budget-tree allocator ([`tree`]), the reference for `HierSplitter`.
//!
//! The batch loop is built only from public pieces — `Server`,
//! `ControlPlane` and the `ClusterResult` fields. It touches every server
//! every round: all of
//! them report and receive a cap at each barrier in index order, and all
//! of them step, where a finished server's step is a no-op. The fleet
//! loop must match it digest for digest at any thread count, on a lossy
//! plane too, where who reports decides which messages the plane draws
//! fates for.

pub mod tree;

use cluster::{ClusterConfig, ClusterResult, ControlPlane, Server, ServerOutcome};

/// Runs `config` to completion on one thread, ignoring `config.threads`.
pub fn run(config: &ClusterConfig) -> ClusterResult {
    let initial = config.global_cap_w / config.servers.len() as f64;
    let mut servers: Vec<Server> = config
        .servers
        .iter()
        .map(|spec| Server::new(spec, initial))
        .collect();
    let names: Vec<&str> = config.servers.iter().map(|s| s.name.as_str()).collect();
    let mut plane = ControlPlane::new(config);
    let mut cap_timeline = Vec::new();
    let mut rounds = 0usize;
    while servers.iter().any(|s| !s.is_done()) {
        let reports: Vec<_> = servers
            .iter_mut()
            .enumerate()
            .map(|(i, s)| (i, s.status().demand))
            .collect();
        let caps = plane.barrier(rounds as u64, &reports, config, &names);
        for (server, &cap) in servers.iter_mut().zip(&caps) {
            server.set_cap(cap);
        }
        if config.record_timeline {
            cap_timeline.push(caps);
        }
        for server in &mut servers {
            server.step_round(config.epochs_per_round);
        }
        rounds += 1;
    }
    let control = plane.finish();
    let outcomes = servers
        .into_iter()
        .map(|server| ServerOutcome {
            name: server.name.clone(),
            mean_cap_w: server.mean_cap_w(),
            final_cap_w: server.cap_w(),
            violation_rounds: server.violations(),
            total_target_instrs: server.total_target_instrs(),
            result: server.finalize(),
        })
        .collect();
    ClusterResult {
        split: config.split,
        topology: config.topology.as_ref().map(ToString::to_string),
        global_cap_w: config.global_cap_w,
        outcomes,
        rounds,
        cap_timeline,
        control,
    }
}
