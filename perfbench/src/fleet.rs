//! The traced fleet driver: the reference round loop rebuilt from public
//! pieces only — `Server`, `ControlPlane` and `WorkerPool` — with a span
//! around every call into a layer, plus a shadow cap split that re-issues
//! each barrier's telemetry to `HierSplitter` so the split's cost can be
//! seen apart from the plane that runs it.
//!
//! Every server reports every barrier and finished servers are not
//! stepped, exactly as the default engine does, so the rebuilt
//! `ClusterResult` must digest-equal the untraced run — on a lossy plane
//! too, where who reports decides which messages the plane draws fates
//! for.

use crate::trace::Tracer;
use cluster::{
    BudgetNode, BudgetTree, CapSplit, ClusterConfig, ClusterResult, ControlPlane, HierSplitter,
    Server, ServerDemand, ServerOutcome, WorkerPool,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the shadow split saw.
#[derive(Debug, Default)]
pub struct ShadowStats {
    /// Interior-node replays across the run.
    pub node_hits: u64,
    /// Interior-node recomputes across the run.
    pub node_misses: u64,
    /// Caps compared against the plane's (loopback planes only).
    pub compared: u64,
    /// Of those, caps bit-identical to the plane's.
    pub exact: u64,
    /// Largest relative difference between a shadow cap and the plane's.
    pub max_rel_dev: f64,
}

/// Re-splits each barrier's telemetry through `HierSplitter`. A flat
/// config compiles as a one-group tree over the active servers — the same
/// compaction the plane's flat split applies — recompiled whenever the
/// active set changes; a hierarchical config compiles its own tree once.
struct ShadowSplit {
    split: CapSplit,
    budget_w: f64,
    quantum_w: f64,
    hierarchical: bool,
    names: Vec<String>,
    members: Vec<usize>,
    splitter: Option<HierSplitter>,
    stats: ShadowStats,
}

impl ShadowSplit {
    fn new(config: &ClusterConfig, names: &[&str]) -> ShadowSplit {
        // The default engine pins the plane's replay cache to a zero
        // dead-band; the shadow does the same so the two stay comparable.
        let splitter = config
            .topology
            .as_ref()
            .map(|tree| HierSplitter::compile(tree, names, 0.0));
        ShadowSplit {
            split: config.split,
            budget_w: config.global_cap_w,
            quantum_w: config.quantum_w,
            hierarchical: splitter.is_some(),
            names: names.iter().map(|n| (*n).to_string()).collect(),
            members: Vec::new(),
            splitter,
            stats: ShadowStats::default(),
        }
    }

    fn retire(&mut self) {
        if let Some(s) = self.splitter.take() {
            self.stats.node_hits += s.node_hits();
            self.stats.node_misses += s.node_misses();
        }
    }

    fn split(&mut self, demands: &[ServerDemand]) -> Vec<f64> {
        if self.hierarchical {
            let s = self.splitter.as_mut().expect("compiled tree");
            return s.split(self.budget_w, demands, None, self.quantum_w);
        }
        let active: Vec<usize> = (0..demands.len()).filter(|&i| demands[i].active).collect();
        let mut caps = vec![0.0; demands.len()];
        if active.is_empty() {
            return caps;
        }
        if active != self.members || self.splitter.is_none() {
            self.retire();
            let leaves = active
                .iter()
                .map(|&i| BudgetNode::server(&self.names[i]))
                .collect();
            let tree = BudgetTree::new(BudgetNode::group("fleet", self.split, leaves));
            let names: Vec<&str> = active.iter().map(|&i| self.names[i].as_str()).collect();
            self.splitter = Some(HierSplitter::compile(&tree, &names, 0.0));
            self.members = active;
        }
        let compact: Vec<ServerDemand> = self.members.iter().map(|&i| demands[i]).collect();
        let s = self.splitter.as_mut().expect("compiled tree");
        let shares = s.split(self.budget_w, &compact, None, self.quantum_w);
        for (&i, c) in self.members.iter().zip(shares) {
            caps[i] = c;
        }
        caps
    }

    fn finish(mut self) -> ShadowStats {
        self.retire();
        self.stats
    }
}

/// Runs `config` to completion under spans and rebuilds its result.
pub fn traced(config: ClusterConfig, tr: &Arc<Tracer>) -> (ClusterResult, ShadowStats) {
    let n = config.servers.len();
    let initial = config.global_cap_w / n as f64;
    let mut slots: Vec<Option<Server>> = tr.span(0, "setup", |setup| {
        config
            .servers
            .iter()
            .map(|spec| Some(tr.span(setup, "cluster.server_new", |_| Server::new(spec, initial))))
            .collect()
    });
    let names: Vec<&str> = config.servers.iter().map(|s| s.name.as_str()).collect();
    let loopback = config.rpc.is_loopback();

    tr.span(0, "run", |run| {
        let mut plane = ControlPlane::new(&config);
        let mut shadow = ShadowSplit::new(&config, &names);
        // Workers nest their step spans under whichever pool run is live.
        let pool_span = Arc::new(AtomicU64::new(0));
        let pool = {
            let (tr, pool_span) = (Arc::clone(tr), Arc::clone(&pool_span));
            let epochs = config.epochs_per_round;
            // The span id is published before `run` sends the jobs through
            // the pool's channel, which orders it before every read.
            WorkerPool::new(config.threads, move |s: &mut Server| {
                tr.span(
                    pool_span.load(Ordering::Relaxed),
                    "server.step_round",
                    |_| {
                        s.step_round(epochs);
                    },
                );
            })
        };
        let running = |slot: &Option<Server>| -> bool {
            !slot.as_ref().expect("server back from the pool").is_done()
        };
        let mut cap_timeline = Vec::new();
        let mut rounds = 0usize;
        while slots.iter().any(running) {
            let reports: Vec<(usize, ServerDemand)> = tr.span(run, "server.status", |_| {
                slots
                    .iter_mut()
                    .enumerate()
                    .map(|(i, s)| (i, s.as_mut().expect("server in slot").status().demand))
                    .collect()
            });
            let caps = tr.span(run, "ctrlplane.barrier", |_| {
                plane.barrier(rounds as u64, &reports, &config, &names)
            });
            let demands: Vec<ServerDemand> = reports.iter().map(|&(_, d)| d).collect();
            let shadow_caps = tr.span(run, "cluster.split", |_| shadow.split(&demands));
            if loopback {
                let st = &mut shadow.stats;
                for (&a, &b) in caps.iter().zip(&shadow_caps) {
                    st.compared += 1;
                    st.exact += u64::from(a.to_bits() == b.to_bits());
                    st.max_rel_dev = st.max_rel_dev.max((a - b).abs() / a.abs().max(1e-300));
                }
            }
            for (slot, &cap) in slots.iter_mut().zip(&caps) {
                slot.as_mut().expect("server in slot").set_cap(cap);
            }
            if config.record_timeline {
                cap_timeline.push(caps);
            }
            let awake: Vec<usize> = (0..n).filter(|&i| running(&slots[i])).collect();
            let jobs: Vec<(usize, Server)> = awake
                .into_iter()
                .map(|i| (i, slots[i].take().expect("server in slot")))
                .collect();
            tr.span(run, "engine.pool_run", |id| {
                pool_span.store(id, Ordering::Relaxed);
                pool.run(jobs, |i, s| slots[i] = Some(s));
            });
            rounds += 1;
        }
        drop(pool);
        let control = plane.finish();
        let outcomes = slots
            .into_iter()
            .map(|slot| {
                let server = slot.expect("server in slot");
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
        let result = ClusterResult {
            split: config.split,
            topology: config.topology.as_ref().map(ToString::to_string),
            global_cap_w: config.global_cap_w,
            outcomes,
            rounds,
            cap_timeline,
            control,
        };
        (result, shadow.finish())
    })
}
