//! `coscale-sim` — the command-line front end of the simulator.
//!
//! ```text
//! coscale-sim [OPTIONS]
//!
//!   --mix NAME          workload mix (Table 1 name; default MIX2)
//!   --policy NAME       baseline|coscale|memscale|cpuonly|uncoordinated|
//!                       semi|offline|powercap (default coscale)
//!   --gamma PCT         performance bound in percent (default 10)
//!   --instrs N          instructions per application (default 10000000)
//!   --cores N           number of cores, 1..=16 (default 16)
//!   --prefetch          enable the next-line prefetcher
//!   --ooo               MLP-window (out-of-order emulation) pipeline
//!   --open-page         open-page row-buffer policy (+ row-interleaved map)
//!   --cap WATTS         power budget for --policy powercap (default 150)
//!   --seed N            workload seed
//!   --timeline FILE     write the per-epoch decision timeline as TSV
//!   --compare           also run the no-DVFS baseline and report savings
//!
//! coscale-sim cluster [OPTIONS]     multi-server fleet under one budget
//!
//!   --servers LIST      comma-separated name=mix[:cores][@rate] entries
//!   --fleet-size N      synthetic N-server batch fleet instead of --servers
//!   --idle-fraction F   share of the synthetic fleet that is near-idle
//!                       (default 0.9)
//!   --cap WATTS         global power budget (default 280)
//!   --split NAME        uniform|demand-proportional|fastcap|sla-aware|
//!                       critical-path (default fastcap; sla-aware needs
//!                       --serve, critical-path needs --tiers)
//!   --topology SPEC     hierarchical budget tree, e.g.
//!                       dc:uniform[rack:sla-aware[a,b],pod:fastcap[c,d]]
//!                       (flat splitting by --split is the default)
//!   --threads N         round worker threads (default 4)
//!   --serve             request-serving mode: open-loop arrivals, queues,
//!                       p99 SLOs (batch completion mode otherwise)
//!   --rounds N          serving rounds in --serve mode (default 40)
//!   --rate HZ           default arrival rate per server (default 30000)
//!   --p99-target MS     p99 SLO in milliseconds (default 1.0)
//!   --join R:SPEC       server SPEC joins at round R (--serve only)
//!   --leave R:NAME      server NAME leaves at round R (--serve only)
//!   --clients N         closed-loop client population instead of open-loop
//!                       arrivals (--serve only; 0 = open loop, the default)
//!   --think-ms F        mean client think time in milliseconds (default 0.2)
//!   --client-model NAME exact per-client pool or the aggregated fluid
//!                       model for 10^6+ populations: exact|fluid
//!                       (default exact)
//!   --think-diurnal P:D sinusoidal think-rate modulation, period P ms at
//!                       depth D in [0,1] (fluid model only)
//!   --balance NAME      front-end balancer: round-robin|least-queue|
//!                       power-headroom (default round-robin)
//!   --tiers SPEC        multi-tier request topology, e.g.
//!                       "fe[2] -> app[4]*2 -> storage[3]" (--serve with
//!                       --clients only); requests fan out as sub-request
//!                       DAGs and per-tier critical-path traces drive the
//!                       budget split
//!   --tier-floor F      per-tier budget floor as a fraction of the global
//!                       cap (default 0.1; --tiers only)
//!   --e2e-target MS     end-to-end p99 SLO for multi-tier requests in
//!                       milliseconds (default 5.0; --tiers only)
//! ```

use coscale::PowerCapPolicy;
use coscale_repro::prelude::*;

struct Args {
    mix: String,
    policy: String,
    gamma: f64,
    instrs: u64,
    cores: usize,
    prefetch: bool,
    ooo: bool,
    open_page: bool,
    cap: f64,
    seed: Option<u64>,
    timeline: Option<String>,
    compare: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: coscale-sim [--mix NAME] [--policy NAME] [--gamma PCT] \
         [--instrs N] [--cores N] [--prefetch] [--ooo] [--open-page] \
         [--cap WATTS] [--seed N] [--timeline FILE] [--compare]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        mix: "MIX2".into(),
        policy: "coscale".into(),
        gamma: 10.0,
        instrs: 10_000_000,
        cores: 16,
        prefetch: false,
        ooo: false,
        open_page: false,
        cap: 150.0,
        seed: None,
        timeline: None,
        compare: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--mix" => a.mix = val("--mix"),
            "--policy" => a.policy = val("--policy"),
            "--gamma" => a.gamma = val("--gamma").parse().unwrap_or_else(|_| usage()),
            "--instrs" => a.instrs = val("--instrs").parse().unwrap_or_else(|_| usage()),
            "--cores" => a.cores = val("--cores").parse().unwrap_or_else(|_| usage()),
            "--prefetch" => a.prefetch = true,
            "--ooo" => a.ooo = true,
            "--open-page" => a.open_page = true,
            "--cap" => a.cap = val("--cap").parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = Some(val("--seed").parse().unwrap_or_else(|_| usage())),
            "--timeline" => a.timeline = Some(val("--timeline")),
            "--compare" => a.compare = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    a
}

// ---------------------------------------------------------------------------
// `coscale-sim cluster` — fleet runs without the bench harness.
// ---------------------------------------------------------------------------

struct ClusterArgs {
    servers: String,
    fleet_size: usize,
    idle_fraction: f64,
    cap: Option<f64>,
    quantum: f64,
    epochs_per_round: Option<usize>,
    split: CapSplit,
    topology: Option<BudgetTree>,
    threads: usize,
    serve: bool,
    rounds: usize,
    rate: f64,
    p99_target_ms: f64,
    seed: u64,
    joins: Vec<String>,
    leaves: Vec<String>,
    clients: usize,
    think_ms: f64,
    client_model: ClientModel,
    think_diurnal: Option<(f64, f64)>,
    balance: BalancePolicy,
    tiers: Option<TierGraph>,
    tier_floor: f64,
    e2e_target_ms: f64,
    servers_set: bool,
    rpc: RpcConfig,
    rpc_flags_used: bool,
}

fn cluster_usage() -> ! {
    eprintln!(
        "usage: coscale-sim cluster [--servers LIST] [--fleet-size N] [--idle-fraction F] \
         [--cap WATTS] [--quantum W] [--epochs-per-round N] [--split NAME] \
         [--topology SPEC] [--threads N] [--serve] [--rounds N] [--rate HZ] \
         [--p99-target MS] [--seed N] [--join R:SPEC]... [--leave R:NAME]... \
         [--clients N] [--think-ms F] [--client-model NAME] [--think-diurnal P:D] \
         [--balance NAME] \
         [--tiers SPEC] [--tier-floor F] [--e2e-target MS] \
         [--rpc-latency-us F] [--rpc-jitter-us F] [--rpc-loss P] [--rpc-dup P] \
         [--rpc-seed N] [--lease-rounds N] [--floor-cap W] [--failover] \
         [--partition FROM:TO:NODES]...\n\
         \x20 LIST entries: name=mix[:cores][@rate], e.g. heavy=MEM2:8@230000\n\
         \x20 --fleet-size N replaces --servers with a synthetic N-server fleet\n\
         \x20   (batch only); --idle-fraction F makes that share of it near-idle (default 0.9);\n\
         \x20   the default budget scales to 100 W per server (named fleets default to 280 W)\n\
         \x20 splits: uniform demand-proportional fastcap sla-aware critical-path\n\
         \x20   (sla-aware needs --serve; critical-path needs --tiers)\n\
         \x20 --epochs-per-round N: epochs between budget splits, at least 1\n\
         \x20   (default 5, or 4 with --serve)\n\
         \x20 --topology splits the budget down a tree instead of flat, e.g.\n\
         \x20   dc:uniform[rack:sla-aware[heavy,light0],pod:fastcap[light1,light2]]\n\
         \x20 --join/--leave change the fleet at round boundaries (--serve only)\n\
         \x20 --clients N replaces open-loop arrivals with a closed-loop client\n\
         \x20   population (--serve only); --balance picks the front-end policy:\n\
         \x20   round-robin least-queue power-headroom\n\
         \x20 --client-model exact|fluid: fluid swaps the per-client pool for\n\
         \x20   aggregated population counters (statistically equivalent, scales\n\
         \x20   past 10^6 clients); --think-diurnal P:D modulates the fluid think\n\
         \x20   rate sinusoidally with period P ms and depth D in [0,1]\n\
         \x20 --tiers SPEC turns each client request into a DAG of sub-requests\n\
         \x20   across tiers, e.g. \"fe[2] -> app[4]*2 -> storage[3]\" (--serve\n\
         \x20   with --clients only). With --tiers, --servers entries name TIERS\n\
         \x20   (tier=mix[:cores][@rate], one per tier) and are expanded to the\n\
         \x20   graph's servers; omit --servers for an all-MID1 fleet. Budgets\n\
         \x20   split per tier by critical-path share, floored at --tier-floor\n\
         \x20   of the global cap per tier; --e2e-target MS sets the\n\
         \x20   end-to-end p99 SLO\n\
         \x20 --rpc-* shape the coordinator<->server message plane (batch only):\n\
         \x20   one-way latency and jitter in µs, loss and duplication probabilities\n\
         \x20   in [0, 1]; the default is a perfect loopback plane\n\
         \x20 --lease-rounds N: cap grants stay in force N rounds unrenewed (default 8);\n\
         \x20   --floor-cap W is the safe cap after a lease expires (default 0)\n\
         \x20 --failover runs a standby coordinator with heartbeat takeover\n\
         \x20 timings derive from d = rpc latency + jitter in rounds: a server is\n\
         \x20   suspected after max(5, 2d+1) silent rounds, a coordinator elects itself\n\
         \x20   after max(3, d+1), and a new leader's free pool stays empty d + lease\n\
         \x20 --partition FROM:TO:NODES cuts the comma-separated nodes off for\n\
         \x20   rounds FROM..TO (server names, or 'primary'/'standby'), e.g.\n\
         \x20   --partition 10:30:primary or --partition 20:40:light1,light2"
    );
    std::process::exit(2);
}

fn cluster_fail(msg: &str) -> ! {
    eprintln!("{msg}");
    cluster_usage();
}

/// Parses one `name=mix[:cores][@rate]` fleet entry.
fn parse_server_entry(entry: &str, default_rate: f64) -> (String, String, usize, f64) {
    let (head, rate) = match entry.split_once('@') {
        Some((head, r)) => {
            let rate: f64 = r
                .parse()
                .unwrap_or_else(|_| cluster_fail(&format!("bad rate in server entry '{entry}'")));
            (head, rate)
        }
        None => (entry, default_rate),
    };
    let Some((name, mix_spec)) = head.split_once('=') else {
        cluster_fail(&format!(
            "server entry '{entry}' must look like name=mix[:cores][@rate]"
        ));
    };
    let (mix_name, cores) = match mix_spec.split_once(':') {
        Some((m, c)) => {
            let cores: usize = c
                .parse()
                .unwrap_or_else(|_| cluster_fail(&format!("bad core count in '{entry}'")));
            (m, cores)
        }
        None => (mix_spec, 4),
    };
    if mix(mix_name).is_none() {
        cluster_fail(&format!(
            "unknown mix '{mix_name}' in server entry '{entry}'"
        ));
    }
    if name.is_empty() {
        cluster_fail(&format!("empty server name in entry '{entry}'"));
    }
    (name.to_string(), mix_name.to_string(), cores, rate)
}

/// Parses a `--join ROUND:name=mix[:cores][@rate]` or `--leave ROUND:name`
/// payload into its round and the rest.
fn parse_round_prefix(s: &str, flag: &str) -> (usize, String) {
    let Some((round, rest)) = s.split_once(':') else {
        cluster_fail(&format!("{flag} value '{s}' must look like ROUND:..."));
    };
    let round: usize = round
        .parse()
        .unwrap_or_else(|_| cluster_fail(&format!("bad round number in {flag} '{s}'")));
    (round, rest.to_string())
}

/// Parses a `--partition FROM:TO:NODES` payload: the half-open round window
/// and the comma-separated node names cut off during it.
fn parse_partition(s: &str) -> PartitionSpec {
    let parts: Vec<&str> = s.splitn(3, ':').collect();
    let [from, to, nodes] = parts[..] else {
        cluster_fail(&format!(
            "--partition value '{s}' must look like FROM:TO:NODES (e.g. 10:30:primary)"
        ));
    };
    let from_round: u64 = from
        .parse()
        .unwrap_or_else(|_| cluster_fail(&format!("bad FROM round in --partition '{s}'")));
    let to_round: u64 = to
        .parse()
        .unwrap_or_else(|_| cluster_fail(&format!("bad TO round in --partition '{s}'")));
    let nodes: Vec<String> = nodes
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .map(str::to_string)
        .collect();
    if nodes.is_empty() {
        cluster_fail(&format!("--partition '{s}' names no nodes"));
    }
    PartitionSpec {
        from_round,
        to_round,
        nodes,
    }
}

fn parse_cluster_args() -> ClusterArgs {
    let mut a = ClusterArgs {
        servers: "heavy=MEM2:8@230000,light0=ILP1,light1=ILP2,light2=MID2".into(),
        fleet_size: 0,
        idle_fraction: 0.9,
        cap: None,
        quantum: 1.0,
        epochs_per_round: None,
        split: CapSplit::FastCap,
        topology: None,
        threads: 4,
        serve: false,
        rounds: 40,
        rate: 30_000.0,
        p99_target_ms: 1.0,
        seed: 11,
        joins: Vec::new(),
        leaves: Vec::new(),
        clients: 0,
        think_ms: 0.2,
        client_model: ClientModel::Exact,
        think_diurnal: None,
        balance: BalancePolicy::RoundRobin,
        tiers: None,
        tier_floor: 0.1,
        e2e_target_ms: 5.0,
        servers_set: false,
        rpc: RpcConfig::default(),
        rpc_flags_used: false,
    };
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| cluster_fail(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--servers" => {
                a.servers = val("--servers");
                a.servers_set = true;
            }
            "--cap" => a.cap = Some(val("--cap").parse().unwrap_or_else(|_| cluster_usage())),
            "--quantum" => a.quantum = val("--quantum").parse().unwrap_or_else(|_| cluster_usage()),
            "--epochs-per-round" => {
                a.epochs_per_round = Some(
                    val("--epochs-per-round")
                        .parse()
                        .unwrap_or_else(|_| cluster_usage()),
                )
            }
            "--split" => {
                a.split = val("--split")
                    .parse()
                    .unwrap_or_else(|e: String| cluster_fail(&e))
            }
            "--topology" => {
                let spec = val("--topology");
                a.topology = Some(BudgetTree::parse(&spec).unwrap_or_else(|e| cluster_fail(&e)));
            }
            "--threads" => a.threads = val("--threads").parse().unwrap_or_else(|_| cluster_usage()),
            "--fleet-size" => {
                a.fleet_size = val("--fleet-size")
                    .parse()
                    .unwrap_or_else(|_| cluster_usage())
            }
            "--idle-fraction" => {
                a.idle_fraction = val("--idle-fraction")
                    .parse()
                    .unwrap_or_else(|_| cluster_usage())
            }
            "--serve" => a.serve = true,
            "--rounds" => a.rounds = val("--rounds").parse().unwrap_or_else(|_| cluster_usage()),
            "--rate" => a.rate = val("--rate").parse().unwrap_or_else(|_| cluster_usage()),
            "--p99-target" => {
                a.p99_target_ms = val("--p99-target")
                    .parse()
                    .unwrap_or_else(|_| cluster_usage())
            }
            "--seed" => a.seed = val("--seed").parse().unwrap_or_else(|_| cluster_usage()),
            "--join" => a.joins.push(val("--join")),
            "--leave" => a.leaves.push(val("--leave")),
            "--clients" => a.clients = val("--clients").parse().unwrap_or_else(|_| cluster_usage()),
            "--think-ms" => {
                a.think_ms = val("--think-ms")
                    .parse()
                    .unwrap_or_else(|_| cluster_usage())
            }
            "--client-model" => {
                a.client_model = val("--client-model")
                    .parse::<ClientModel>()
                    .unwrap_or_else(|e: String| cluster_fail(&e))
            }
            "--think-diurnal" => {
                let spec = val("--think-diurnal");
                let (p, d) = spec
                    .split_once(':')
                    .unwrap_or_else(|| cluster_fail("--think-diurnal wants PERIOD_MS:DEPTH"));
                let period: f64 = p
                    .parse()
                    .unwrap_or_else(|_| cluster_fail("--think-diurnal period must be a number"));
                let depth: f64 = d
                    .parse()
                    .unwrap_or_else(|_| cluster_fail("--think-diurnal depth must be a number"));
                a.think_diurnal = Some((period, depth));
            }
            "--balance" => {
                a.balance = val("--balance")
                    .parse::<BalancePolicy>()
                    .unwrap_or_else(|e: String| cluster_fail(&e))
            }
            "--tiers" => {
                let spec = val("--tiers");
                a.tiers = Some(
                    spec.parse::<TierGraph>()
                        .unwrap_or_else(|e: String| cluster_fail(&e)),
                );
            }
            "--tier-floor" => {
                a.tier_floor = val("--tier-floor")
                    .parse()
                    .unwrap_or_else(|_| cluster_fail("--tier-floor must be a fraction in [0, 1)"))
            }
            "--e2e-target" => {
                a.e2e_target_ms = val("--e2e-target")
                    .parse()
                    .unwrap_or_else(|_| cluster_fail("--e2e-target must be milliseconds"))
            }
            "--rpc-latency-us" => {
                a.rpc.latency_us = val("--rpc-latency-us")
                    .parse()
                    .unwrap_or_else(|_| cluster_fail("--rpc-latency-us must be a number (µs)"));
                a.rpc_flags_used = true;
            }
            "--rpc-jitter-us" => {
                a.rpc.jitter_us = val("--rpc-jitter-us")
                    .parse()
                    .unwrap_or_else(|_| cluster_fail("--rpc-jitter-us must be a number (µs)"));
                a.rpc_flags_used = true;
            }
            "--rpc-loss" => {
                a.rpc.loss = val("--rpc-loss")
                    .parse()
                    .unwrap_or_else(|_| cluster_fail("--rpc-loss must be a probability in [0, 1]"));
                a.rpc_flags_used = true;
            }
            "--rpc-dup" => {
                a.rpc.duplicate = val("--rpc-dup")
                    .parse()
                    .unwrap_or_else(|_| cluster_fail("--rpc-dup must be a probability in [0, 1]"));
                a.rpc_flags_used = true;
            }
            "--rpc-seed" => {
                a.rpc.seed = val("--rpc-seed")
                    .parse()
                    .unwrap_or_else(|_| cluster_fail("--rpc-seed must be an integer"));
                a.rpc_flags_used = true;
            }
            "--lease-rounds" => {
                a.rpc.lease_rounds = val("--lease-rounds")
                    .parse()
                    .unwrap_or_else(|_| cluster_fail("--lease-rounds must be a positive integer"));
                a.rpc_flags_used = true;
            }
            "--floor-cap" => {
                a.rpc.floor_cap_w = val("--floor-cap")
                    .parse()
                    .unwrap_or_else(|_| cluster_fail("--floor-cap must be a wattage"));
                a.rpc_flags_used = true;
            }
            "--failover" => {
                a.rpc.failover = true;
                a.rpc_flags_used = true;
            }
            "--partition" => {
                a.rpc.partitions.push(parse_partition(&val("--partition")));
                a.rpc_flags_used = true;
            }
            "--help" | "-h" => cluster_usage(),
            other => cluster_fail(&format!("unknown flag {other}")),
        }
    }
    if a.serve && a.rpc_flags_used {
        cluster_fail(
            "the --rpc-*/--lease-rounds/--floor-cap/--failover/--partition plane flags \
             apply to batch cluster runs; the serving layer does not route through the \
             message plane yet",
        );
    }
    if !a.serve && (!a.joins.is_empty() || !a.leaves.is_empty()) {
        cluster_fail("--join/--leave require --serve (batch fleets run to completion)");
    }
    if !a.serve && a.clients > 0 {
        cluster_fail("--clients requires --serve (batch fleets take no requests)");
    }
    if a.serve && a.fleet_size > 0 {
        cluster_fail("--fleet-size builds a synthetic batch fleet; it does not mix with --serve");
    }
    if !(0.0..=1.0).contains(&a.idle_fraction) {
        cluster_fail("--idle-fraction must be in [0, 1]");
    }
    if a.think_ms < 0.0 || !a.think_ms.is_finite() {
        cluster_fail("--think-ms must be a finite non-negative number");
    }
    if !a.serve && a.split == CapSplit::SlaAware {
        eprintln!(
            "note: sla-aware without --serve has no latency signal; using the fastcap fallback"
        );
    }
    if a.tiers.is_some() && (!a.serve || a.clients == 0) {
        cluster_fail("--tiers needs --serve and a closed-loop --clients population");
    }
    if a.tiers.is_some() && a.topology.is_some() {
        cluster_fail(
            "--tiers builds its own per-tier budget tree; it does not mix with --topology",
        );
    }
    if a.tiers.is_some() && a.fleet_size > 0 {
        cluster_fail(
            "--tiers derives the fleet from the tier graph; it does not mix with --fleet-size",
        );
    }
    if a.tiers.is_none() && a.split == CapSplit::CriticalPath {
        cluster_fail("the critical-path split needs per-tier traces; pass --tiers");
    }
    a
}

fn cluster_batch_main(args: &ClusterArgs) {
    let fleet = if args.fleet_size > 0 {
        synthetic_fleet(args.fleet_size, args.idle_fraction)
    } else {
        let mut fleet = Vec::new();
        for (i, entry) in args.servers.split(',').enumerate() {
            let (name, mix_name, cores, _rate) = parse_server_entry(entry, args.rate);
            fleet.push(ServerSpec::small_with_cores(
                &name,
                &mix_name,
                args.seed + i as u64,
                cores,
            ));
        }
        fleet
    };
    // A synthetic fleet's budget scales with its size — the fixed 280 W
    // default that fits a 4-server named fleet would starve a thousand.
    let cap = match args.cap {
        Some(w) => w,
        None if args.fleet_size > 0 => 100.0 * args.fleet_size as f64,
        None => 280.0,
    };
    let mut cfg = ClusterConfig::new(fleet, cap, args.split).with_threads(args.threads);
    cfg.quantum_w = args.quantum;
    if let Some(epochs) = args.epochs_per_round {
        cfg.epochs_per_round = epochs;
    }
    cfg.topology = args.topology.clone();
    cfg.rpc = args.rpc.clone();
    if let Err(e) = cfg.validate() {
        cluster_fail(&format!("invalid cluster configuration: {e}"));
    }

    eprintln!(
        "running {}-server batch fleet / {} @ {} W ...",
        cfg.servers.len(),
        args.split,
        cap,
    );
    let r = run_cluster(cfg);

    println!("split          : {}", r.split);
    if let Some(t) = &r.topology {
        println!("topology       : {t}");
    }
    println!("global cap     : {:.1} W", r.global_cap_w);
    println!("rounds         : {}", r.rounds);
    println!();
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>12} {:>6}",
        "server", "makespan", "energy", "mean cap", "throughput", "viol"
    );
    for o in &r.outcomes {
        println!(
            "{:<10} {:>9.3} ms {:>8.3} J {:>8.1} W {:>6.1} Minst/s {:>6}",
            o.name,
            o.result.makespan.as_secs_f64() * 1e3,
            o.result.total_energy_j(),
            o.mean_cap_w,
            o.throughput_ips() / 1e6,
            o.violation_rounds,
        );
    }
    println!();
    println!("fleet energy   : {:.3} J", r.total_energy_j());
    println!(
        "fleet makespan : {:.3} ms",
        r.makespan().as_secs_f64() * 1e3
    );
    println!(
        "fairness       : caps {:.3}, perf {:.3} (Jain index)",
        r.cap_fairness(),
        r.perf_fairness()
    );
    println!("cap violations : {}", r.total_violations());
    if args.rpc_flags_used {
        let c = &r.control;
        println!();
        println!(
            "control plane  : {} msgs sent, {} delivered, {} lost, {} cut by partition, {} duplicated",
            c.plane.sent,
            c.plane.delivered,
            c.plane.dropped_loss,
            c.plane.dropped_partition,
            c.plane.duplicated
        );
        println!(
            "grants         : {} sent ({} applied, {} stale, {} expired), {} acks, {} nacks",
            c.grants_sent, c.grants_applied, c.grants_stale, c.grants_expired, c.acks, c.nacks
        );
        println!(
            "leases         : {} expirations, {} server-rounds on the floor cap",
            c.lease_expirations, c.floor_rounds
        );
        if args.rpc.failover {
            println!(
                "failover       : {} elections, {} step-downs, final terms {:?}",
                c.elections, c.step_downs, c.terms
            );
        }
    }
}

/// Builds one serving-fleet spec from a `name=mix[:cores][@rate]` entry,
/// advancing the shared seed counter.
fn serve_spec(entry: &str, default_rate: f64, target_s: f64, seed: &mut u64) -> ServiceServerSpec {
    let (name, mix_name, cores, rate) = parse_server_entry(entry, default_rate);
    *seed += 1;
    ServiceServerSpec::small_with_cores(&name, &mix_name, *seed, rate, cores)
        .with_p99_target_s(target_s)
}

/// Expands a tier graph into the `{tier}{index}` serving fleet it implies.
/// With `--tiers`, each `--servers` entry names a TIER (`tier=mix[:cores]
/// [@rate]`) and styles every server in it; unnamed tiers default to MID1.
fn tier_serve_fleet(
    args: &ClusterArgs,
    graph: &TierGraph,
    target_s: f64,
    seed: &mut u64,
) -> Vec<ServiceServerSpec> {
    let mut style: Vec<(String, usize, f64)> = graph
        .tiers()
        .iter()
        .map(|_| ("MID1".to_string(), 4, args.rate))
        .collect();
    if args.servers_set {
        for entry in args.servers.split(',') {
            let (name, mix_name, cores, rate) = parse_server_entry(entry, args.rate);
            let Some(ti) = graph.tiers().iter().position(|t| t.name == name) else {
                cluster_fail(&format!(
                    "--servers entry '{entry}' names no tier of the --tiers graph \
                     (with --tiers, entries look like tier=mix[:cores][@rate])"
                ));
            };
            style[ti] = (mix_name, cores, rate);
        }
    }
    let mut fleet = Vec::new();
    for (ti, tier) in graph.tiers().iter().enumerate() {
        let (mix_name, cores, rate) = style[ti].clone();
        for i in 0..tier.servers {
            *seed += 1;
            fleet.push(
                ServiceServerSpec::small_with_cores(
                    &format!("{}{}", tier.name, i),
                    &mix_name,
                    *seed,
                    rate,
                    cores,
                )
                .with_p99_target_s(target_s),
            );
        }
    }
    fleet
}

fn cluster_serve_main(args: &ClusterArgs) {
    let target_s = args.p99_target_ms * 1e-3;
    let mut seed = args.seed;

    let fleet: Vec<ServiceServerSpec> = match &args.tiers {
        Some(graph) => tier_serve_fleet(args, graph, target_s, &mut seed),
        None => args
            .servers
            .split(',')
            .map(|entry| serve_spec(entry, args.rate, target_s, &mut seed))
            .collect(),
    };
    let mut churn = ChurnSchedule::new();
    for j in &args.joins {
        let (round, rest) = parse_round_prefix(j, "--join");
        let spec = serve_spec(&rest, args.rate, target_s, &mut seed);
        let name = spec.name.clone();
        if let Err(e) = churn.join(round, &name, spec) {
            cluster_fail(&e);
        }
    }
    for l in &args.leaves {
        let (round, name) = parse_round_prefix(l, "--leave");
        if let Err(e) = churn.leave(round, &name) {
            cluster_fail(&e);
        }
    }

    let cap = args.cap.unwrap_or(280.0);
    let mut cfg = ServiceConfig::new(fleet, cap, args.split)
        .with_rounds(args.rounds)
        .with_threads(args.threads)
        .with_churn(churn);
    cfg.quantum_w = args.quantum;
    if let Some(epochs) = args.epochs_per_round {
        cfg.epochs_per_round = epochs;
    }
    if args.clients > 0 {
        let mut closed = ClosedLoopConfig::new(
            args.clients,
            Ps::from_secs_f64(args.think_ms * 1e-3),
            args.balance,
        )
        .with_model(args.client_model);
        if let Some((period_ms, depth)) = args.think_diurnal {
            closed = closed.with_think_diurnal(Ps::from_secs_f64(period_ms * 1e-3), depth);
        }
        cfg = cfg.with_closed_loop(closed);
    }
    cfg.topology = args.topology.clone();
    if let Some(graph) = &args.tiers {
        cfg = cfg.with_tiers(
            TierConfig::new(graph.clone())
                .with_floor_frac(args.tier_floor)
                .with_e2e_target_s(args.e2e_target_ms * 1e-3),
        );
    }
    if let Err(e) = cfg.validate() {
        cluster_fail(&format!("invalid service configuration: {e}"));
    }

    eprintln!(
        "running {}-server serving fleet / {} @ {} W for {} rounds ...",
        cfg.servers.len(),
        args.split,
        cap,
        args.rounds
    );
    let r = run_service(cfg);

    println!("split          : {}", r.split);
    if let Some(t) = &r.topology {
        println!("topology       : {t}");
    }
    println!("global cap     : {:.1} W", r.global_cap_w);
    println!("rounds         : {}", r.rounds);
    println!();
    println!(
        "{:<10} {:>9} {:>9} {:>7} {:>10} {:>10} {:>5} {:>9} {:>5}",
        "server", "mean cap", "done", "shed", "p50", "p99", "SLO", "energy", "note"
    );
    for o in &r.outcomes {
        println!(
            "{:<10} {:>7.1} W {:>9} {:>7} {:>7.0} µs {:>7.0} µs {:>5} {:>7.2} J {:>5}",
            o.name,
            o.mean_cap_w,
            o.completed,
            o.shed,
            o.percentile_s(0.50) * 1e6,
            o.p99_s() * 1e6,
            if o.meets_slo() { "met" } else { "MISS" },
            o.energy_j,
            if o.departed { "left" } else { "" },
        );
    }
    println!();
    println!("fleet energy   : {:.3} J", r.total_energy_j());
    println!(
        "fleet p99      : {:.3} ms (target {:.3} ms)",
        r.fleet_percentile_s(0.99) * 1e3,
        args.p99_target_ms
    );
    println!(
        "SLO            : {} ({} violation rounds)",
        if r.all_meet_slo() {
            "every server meets its p99 target"
        } else {
            "MISSED on at least one server"
        },
        r.total_violation_rounds()
    );
    println!(
        "requests       : {} completed, {} shed, {} abandoned in queue",
        r.total_completed(),
        r.total_shed(),
        r.outcomes.iter().map(|o| o.abandoned).sum::<u64>()
    );
    if let Some(cl) = &r.closed_loop {
        println!(
            "closed loop    : {} clients ({} model) / {} balancer, {:.3} ms mean think",
            cl.clients,
            cl.model,
            cl.balance,
            cl.mean_think.as_secs_f64() * 1e3
        );
        println!(
            "clients at end : {} generated, {} responses; {} thinking, {} waiting",
            cl.generated, cl.responses, cl.thinking_at_end, cl.waiting_at_end
        );
    }
    if let Some(t) = &r.tiers {
        let shares = t.crit_shares();
        println!();
        println!("tier graph     : {}", t.graph);
        println!(
            "request DAGs   : {} opened, {} closed ({} failed), {} still open; {} spans done",
            t.stats.roots_opened,
            t.stats.roots_closed,
            t.stats.roots_failed,
            t.stats.open_roots,
            t.stats.spans_closed,
        );
        for (ti, name) in t.tier_names.iter().enumerate() {
            println!(
                "  {:<12} crit share {:.3}, slowest in {:>6} DAGs, {:>8} sub-requests done",
                name, shares[ti], t.slowest_counts[ti], t.stats.completed_by_tier[ti],
            );
        }
        println!(
            "end-to-end     : p50 {:.3} ms, p99 {:.3} ms over {} DAGs (target {:.3} ms, {})",
            t.e2e_percentile_s(0.50) * 1e3,
            t.e2e_p99_s() * 1e3,
            t.e2e_hist.count(),
            t.e2e_target_s * 1e3,
            if t.meets_e2e_slo() { "met" } else { "MISSED" },
        );
    }
}

fn cluster_main() {
    let args = parse_cluster_args();
    if args.serve {
        cluster_serve_main(&args);
    } else {
        cluster_batch_main(&args);
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("cluster") {
        cluster_main();
        return;
    }
    let args = parse_args();
    let Some(m) = mix(&args.mix) else {
        eprintln!(
            "unknown mix '{}'; known: {:?}",
            args.mix,
            all_mixes().iter().map(|m| m.name).collect::<Vec<_>>()
        );
        std::process::exit(2);
    };

    let mut cfg = SimConfig::for_mix(m);
    cfg.gamma = args.gamma / 100.0;
    cfg.target_instrs = args.instrs;
    cfg.cores = args.cores;
    cfg.core.prefetch = args.prefetch;
    if args.ooo {
        cfg.core.pipeline = PipelineMode::MlpWindow(128);
    }
    if args.open_page {
        cfg.mem.page_policy = memsim::PagePolicy::Open;
        cfg.mem.addr_map = memsim::AddrMap::RowInterleaved;
    }
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }

    let (kind, custom): (PolicyKind, Option<Box<dyn coscale::Policy>>) = match args.policy.as_str()
    {
        "baseline" | "static" => (PolicyKind::StaticMax, None),
        "coscale" => (PolicyKind::CoScale, None),
        "memscale" => (PolicyKind::MemScale, None),
        "cpuonly" => (PolicyKind::CpuOnly, None),
        "uncoordinated" => (PolicyKind::Uncoordinated, None),
        "semi" => (PolicyKind::SemiCoordinated, None),
        "offline" => (PolicyKind::Offline, None),
        "powercap" => (
            PolicyKind::PowerCap,
            Some(Box::new(PowerCapPolicy::new(args.cap))),
        ),
        other => {
            eprintln!("unknown policy '{other}'");
            usage();
        }
    };

    eprintln!("running {} / {kind} ...", args.mix);
    let mut runner = Runner::new(cfg.clone(), kind);
    if let Some(p) = custom {
        runner = runner.with_policy(p);
    }
    let r = runner.run();

    println!("mix            : {}", r.mix);
    println!("policy         : {}", r.policy);
    println!("epochs         : {}", r.epochs);
    println!("makespan       : {}", r.makespan);
    println!(
        "energy         : {:.3} J (cpu {:.3}, l2 {:.3}, mem {:.3}, rest {:.3})",
        r.total_energy_j(),
        r.cpu_energy_j,
        r.l2_energy_j,
        r.mem_energy_j,
        r.rest_energy_j
    );
    println!(
        "avg power      : {:.1} W",
        r.total_energy_j() / r.makespan.as_secs_f64()
    );
    println!("workload MPKI  : {:.2}   WPKI: {:.2}", r.mpki, r.wpki);
    if args.prefetch {
        println!("pref. accuracy : {:.1}%", 100.0 * r.prefetch_accuracy);
    }
    if args.open_page {
        println!("row hit rate   : {:.1}%", 100.0 * r.row_hit_rate);
    }
    println!("bus utilization: {:.1}%", 100.0 * r.bus_utilization);
    println!(
        "read latency   : avg {:.1} ns, p50 {:.0}, p95 {:.0}, p99 {:.0}",
        r.avg_read_latency_ns, r.read_lat_p50_ns, r.read_lat_p95_ns, r.read_lat_p99_ns
    );

    if args.compare {
        eprintln!("running {} / baseline ...", args.mix);
        let base = coscale::run_policy(cfg, PolicyKind::StaticMax);
        let d = r.degradation_vs(&base);
        let worst = d.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "vs baseline    : {:.1}% energy savings, worst slowdown {:.1}%",
            100.0 * r.energy_savings_vs(&base),
            100.0 * worst
        );
    }

    if let Some(path) = args.timeline {
        let f = std::fs::File::create(&path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        r.write_timeline(std::io::BufWriter::new(f))
            .unwrap_or_else(|e| {
                eprintln!("cannot write timeline: {e}");
                std::process::exit(1);
            });
        println!("timeline       : {path}");
    }
}
