//! The full-system simulation engine: 16 cores + shared L2 + DDR3 memory
//! under one event agenda, driven in profiling/decision/execution epochs.

use crate::agenda::{Agenda, Due};
use crate::{
    extract_profile, make_policy, EpochProfile, Model, Plan, Policy, PolicyKind, SimConfig,
};
use cpusim::{CoreCounters, CoreOutput, CoreSim, L2Cache, Wake};
use memsim::{LineAddr, MemCounters, MemEvent, MemorySystem, Outcome};
use powermodel::{system_power, MemGeometry};
use simkernel::{Freq, Ps};

/// The agenda's memory lanes: channel `c`'s scheduling passes are lane
/// `c`, and rank `r` of channel `c` refreshes on lane
/// `channels + c * ranks + r`.
#[derive(Clone, Copy, Debug)]
struct MemLanes {
    channels: usize,
    ranks: usize,
}

impl MemLanes {
    fn count(self) -> usize {
        self.channels * (1 + self.ranks)
    }

    fn of(self, event: MemEvent) -> usize {
        match event {
            MemEvent::Schedule { channel } => channel,
            MemEvent::Refresh { channel, rank } => self.channels + channel * self.ranks + rank,
        }
    }

    fn event(self, lane: usize) -> MemEvent {
        match lane.checked_sub(self.channels) {
            None => MemEvent::Schedule { channel: lane },
            Some(r) => MemEvent::Refresh {
                channel: r / self.ranks,
                rank: r % self.ranks,
            },
        }
    }
}

/// What a read tag refers to.
#[derive(Clone, Copy, Debug)]
struct ReadInfo {
    core: usize,
    line: LineAddr,
    prefetch: bool,
}

/// The complete simulated system. `Clone` on purpose: the Offline oracle
/// checkpoints the whole system, looks one epoch ahead, and rewinds.
#[derive(Clone)]
pub struct System {
    config: SimConfig,
    cores: Vec<CoreSim>,
    l2: L2Cache,
    mem: MemorySystem,
    lanes: MemLanes,
    agenda: Agenda,
    now: Ps,
    /// In-flight reads, indexed by tag. `memsim` only echoes a tag back in
    /// its completion, so a tag is a slot here, recycled via `free_tags`.
    reads: Vec<ReadInfo>,
    free_tags: Vec<u64>,
    plan: Plan,
    completion: Vec<Option<Ps>>,
    // Reused buffers.
    core_out: CoreOutput,
    mem_out: Outcome,
}

/// A snapshot of every counter at one instant, for window deltas.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Time the snapshot was taken.
    pub at: Ps,
    /// Per-core counters.
    pub cores: Vec<CoreCounters>,
    /// Memory counters.
    pub mem: MemCounters,
    /// L2 demand accesses (hits + misses).
    pub l2_accesses: u64,
}

impl System {
    /// Builds the system for `config`, warms the L2, and schedules initial
    /// events.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: SimConfig) -> System {
        if let Err(e) = config.validate() {
            panic!("invalid simulation config: {e}");
        }
        let n = config.cores;
        let max_core = config.max_core_idx();
        let fmax = config.core_freqs[max_core];
        let cores: Vec<CoreSim> = (0..n)
            .map(|i| {
                CoreSim::new(
                    i,
                    config.mix.app_for_core(i),
                    config.seed,
                    fmax,
                    config.core,
                )
            })
            .collect();
        let mut l2 = L2Cache::new(config.cache);
        for c in &cores {
            c.warm_l2(&mut l2);
        }
        let mem = MemorySystem::new(config.mem.clone());
        let lanes = MemLanes {
            channels: config.mem.channels,
            ranks: config.mem.ranks_per_channel(),
        };
        let mut agenda = Agenda::new(n, lanes.count());
        for (t, e) in mem.initial_events() {
            agenda.push_lane(lanes.of(e), t);
        }
        for i in 0..n {
            agenda.wake(i, Ps::ZERO);
        }
        let plan = Plan::max(n, config.core_freqs.len(), config.mem.freq_grid.len());
        System {
            config,
            completion: vec![None; n],
            cores,
            l2,
            mem,
            lanes,
            agenda,
            now: Ps::ZERO,
            reads: Vec::new(),
            free_tags: Vec::new(),
            plan,
            core_out: CoreOutput::default(),
            mem_out: Outcome::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Ps {
        self.now
    }

    /// The frequency plan currently applied.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Per-core completion times (first instant each core reached the
    /// instruction target).
    pub fn completion(&self) -> &[Option<Ps>] {
        &self.completion
    }

    /// Whether every application has reached the instruction target.
    pub fn all_done(&self) -> bool {
        self.makespan().is_some()
    }

    /// The instant the last application reached the instruction target,
    /// once every one has.
    pub(crate) fn makespan(&self) -> Option<Ps> {
        self.completion
            .iter()
            .try_fold(Ps::ZERO, |m, c| c.map(|c| m.max(c)))
    }

    /// Snapshots all counters.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            at: self.now,
            cores: self.cores.iter().map(|c| *c.counters()).collect(),
            mem: *self.mem.counters(),
            l2_accesses: self.l2.stats().hits + self.l2.stats().misses,
        }
    }

    /// Runs the event loop until simulated time `t_end`.
    pub fn run_until(&mut self, t_end: Ps) {
        while let Some((t, due)) = self.agenda.pop_until(t_end) {
            self.now = t;
            match due {
                Due::Core(id) => self.step_core(id),
                Due::Lane(lane) => {
                    self.mem
                        .handle(t, self.lanes.event(lane), &mut self.mem_out);
                    self.absorb_mem_out();
                }
                Due::Read(tag) => self.finish_read(tag),
            }
        }
        self.now = t_end;
    }

    /// Moves the memory system's completions and wake-ups into the agenda,
    /// leaving `mem_out` empty for the next memory call.
    fn absorb_mem_out(&mut self) {
        for c in self.mem_out.completions.drain(..) {
            self.agenda.push_read(c.finish, c.tag);
        }
        for (t, e) in self.mem_out.wakeups.drain(..) {
            self.agenda.push_lane(self.lanes.of(e), t);
        }
    }

    fn issue_read(&mut self, core: usize, line: LineAddr, prefetch: bool) {
        let info = ReadInfo {
            core,
            line,
            prefetch,
        };
        let tag = match self.free_tags.pop() {
            Some(tag) => {
                self.reads[tag as usize] = info;
                tag
            }
            None => {
                self.reads.push(info);
                self.reads.len() as u64 - 1
            }
        };
        self.mem
            .enqueue_read(self.now, line, tag, &mut self.mem_out);
        self.absorb_mem_out();
    }

    fn issue_writeback(&mut self, line: LineAddr) {
        self.mem
            .enqueue_writeback(self.now, line, &mut self.mem_out);
        self.absorb_mem_out();
    }

    /// Issues `self.core_out` to the memory system: reads, then
    /// prefetches, then writebacks.
    fn dispatch_core_output(&mut self, core: usize) {
        if self.core_out.is_empty() {
            return;
        }
        let out = std::mem::take(&mut self.core_out);
        for &line in &out.reads {
            self.issue_read(core, line, false);
        }
        for &line in &out.prefetches {
            self.issue_read(core, line, true);
        }
        for &line in &out.writebacks {
            self.issue_writeback(line);
        }
        self.core_out = out;
    }

    fn step_core(&mut self, id: usize) {
        self.core_out.clear();
        let wake = self.cores[id].advance(self.now, &mut self.l2, &mut self.core_out);
        self.dispatch_core_output(id);
        // Re-key the slot, which still holds the wake that popped this
        // step, if one did. A blocked core has no wake: only a read
        // completion steps it again, and a DVFS change leaves it blocked.
        match wake {
            Wake::At(t) => self.agenda.wake(id, t),
            Wake::AfterStall { stall_end, at } => self.agenda.wake_as_of(id, stall_end, at),
            Wake::Blocked => self.agenda.park(id),
        }
        if self.completion[id].is_none() && self.cores[id].instrs() >= self.config.target_instrs {
            self.completion[id] = Some(self.now);
        }
    }

    fn finish_read(&mut self, tag: u64) {
        let info = self.reads[tag as usize];
        self.free_tags.push(tag);
        self.core_out.clear();
        let core = &mut self.cores[info.core];
        let runnable = if info.prefetch {
            core.complete_prefetch(self.now, info.line, &mut self.l2, &mut self.core_out)
        } else {
            core.complete_read(self.now, info.line, &mut self.l2, &mut self.core_out)
        };
        self.dispatch_core_output(info.core);
        if runnable {
            self.step_core(info.core);
        }
    }

    /// Applies a frequency plan at the current time, halting changed cores
    /// for the transition and recalibrating memory if its frequency moved.
    pub fn apply_plan(&mut self, plan: &Plan) {
        assert_eq!(plan.cores.len(), self.cores.len(), "plan size mismatch");
        for i in 0..self.cores.len() {
            if plan.cores[i] != self.plan.cores[i] {
                let freq = self.config.core_freqs[plan.cores[i]];
                match self.cores[i].apply_dvfs(self.now, freq, self.config.core_transition) {
                    Some(Wake::At(t)) => self.agenda.wake(i, t),
                    Some(Wake::AfterStall { stall_end, at }) => {
                        self.agenda.wake_as_of(i, stall_end, at);
                    }
                    Some(Wake::Blocked) | None => {}
                }
            }
        }
        if plan.mem != self.plan.mem {
            self.mem
                .set_frequency(self.now, plan.mem, &mut self.mem_out);
            self.absorb_mem_out();
        }
        self.plan = plan.clone();
    }

    /// The L2 cache (for statistics).
    pub fn l2(&self) -> &L2Cache {
        &self.l2
    }

    /// The memory system (for statistics).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Per-core instruction counts.
    pub fn instrs(&self) -> Vec<u64> {
        self.cores.iter().map(|c| c.instrs()).collect()
    }
}

/// One epoch's decision record, for timeline figures and for cluster-level
/// coordinators that need each server's power demand.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Epoch start time.
    pub start: Ps,
    /// Plan selected for the epoch (post-profiling).
    pub plan: Plan,
    /// Per-core slack after the epoch's settlement, seconds.
    pub slack: Vec<f64>,
    /// The model's predicted SER for the chosen plan.
    pub predicted_ser: f64,
    /// The model's predicted full-system power for the chosen plan, watts.
    pub predicted_power_w: f64,
    /// Predicted power at the all-maximum plan — the server's uncapped
    /// demand this epoch, watts.
    pub demand_power_w: f64,
    /// Predicted power at the all-minimum plan — the floor below which no
    /// cap is reachable, watts.
    pub min_power_w: f64,
}

/// Everything a single run produces.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The policy that ran.
    pub policy: PolicyKind,
    /// Workload mix name.
    pub mix: String,
    /// Number of epochs executed.
    pub epochs: usize,
    /// Per-core completion time of the instruction target.
    pub completion: Vec<Ps>,
    /// Time the whole workload completed (slowest application).
    pub makespan: Ps,
    /// Energy to workload completion, joules: CPU cores.
    pub cpu_energy_j: f64,
    /// Energy: shared L2.
    pub l2_energy_j: f64,
    /// Energy: memory subsystem (DRAM + MC + PLL/register).
    pub mem_energy_j: f64,
    /// Energy: rest of system.
    pub rest_energy_j: f64,
    /// Per-epoch decisions.
    pub records: Vec<EpochRecord>,
    /// Workload-level misses per kilo-instruction observed.
    pub mpki: f64,
    /// Workload-level writebacks per kilo-instruction observed.
    pub wpki: f64,
    /// Prefetch accuracy (0 when prefetching is off).
    pub prefetch_accuracy: f64,
    /// Average memory bus utilization over the run.
    pub bus_utilization: f64,
    /// Fraction of memory accesses served from an open row (0 under the
    /// closed-page policy).
    pub row_hit_rate: f64,
    /// Average demand-read latency over the run, nanoseconds.
    pub avg_read_latency_ns: f64,
    /// Fraction of rank-time spent in a managed idle low-power state.
    pub mem_sleep_fraction: f64,
    /// Median demand-read latency, nanoseconds.
    pub read_lat_p50_ns: f64,
    /// 95th-percentile demand-read latency, nanoseconds.
    pub read_lat_p95_ns: f64,
    /// 99th-percentile demand-read latency, nanoseconds.
    pub read_lat_p99_ns: f64,
}

impl RunResult {
    /// Total energy, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.cpu_energy_j + self.l2_energy_j + self.mem_energy_j + self.rest_energy_j
    }

    /// Per-application completion-time degradation versus a baseline run:
    /// `t/t_base - 1` per core.
    pub fn degradation_vs(&self, base: &RunResult) -> Vec<f64> {
        self.completion
            .iter()
            .zip(&base.completion)
            .map(|(t, b)| t.as_secs_f64() / b.as_secs_f64() - 1.0)
            .collect()
    }

    /// Full-system energy savings versus a baseline run, as a fraction.
    pub fn energy_savings_vs(&self, base: &RunResult) -> f64 {
        1.0 - self.total_energy_j() / base.total_energy_j()
    }

    /// A bit-exact text digest of the run: policy, mix, epoch count and
    /// makespan; the four energies, MPKI, WPKI, prefetch accuracy, row-hit
    /// rate and read-latency percentiles as bit patterns; every completion
    /// time; and every epoch's plan. Two runs digest equal exactly when
    /// the simulation took the same path.
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "policy={} mix={} epochs={} makespan={}\n",
            self.policy,
            self.mix,
            self.epochs,
            self.makespan.as_ps()
        );
        let bits = [
            ("cpu", self.cpu_energy_j),
            ("l2", self.l2_energy_j),
            ("mem", self.mem_energy_j),
            ("rest", self.rest_energy_j),
            ("mpki", self.mpki),
            ("wpki", self.wpki),
            ("pf_acc", self.prefetch_accuracy),
            ("row_hit", self.row_hit_rate),
            ("p50", self.read_lat_p50_ns),
            ("p95", self.read_lat_p95_ns),
            ("p99", self.read_lat_p99_ns),
        ];
        for (name, v) in bits {
            let _ = writeln!(s, "{name}={:016x}", v.to_bits());
        }
        let _ = write!(s, "completion:");
        for c in &self.completion {
            let _ = write!(s, " {}", c.as_ps());
        }
        let _ = writeln!(s);
        for rec in &self.records {
            let _ = writeln!(
                s,
                "epoch {}: mem={} cores={:?}",
                rec.epoch, rec.plan.mem, rec.plan.cores
            );
        }
        s
    }

    /// Writes the per-epoch decision timeline as TSV: epoch, start time,
    /// memory frequency index, each core's frequency index, predicted SER,
    /// and the minimum per-core slack.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn write_timeline<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        write!(w, "epoch	start_us	mem_idx	pred_ser	min_slack_us")?;
        let n = self.records.first().map_or(0, |r| r.plan.cores.len());
        for i in 0..n {
            write!(w, "	core{i}")?;
        }
        writeln!(w)?;
        for rec in &self.records {
            let min_slack = rec.slack.iter().cloned().fold(f64::INFINITY, f64::min);
            write!(
                w,
                "{}	{:.1}	{}	{:.4}	{:.2}",
                rec.epoch,
                rec.start.as_secs_f64() * 1e6,
                rec.plan.mem,
                rec.predicted_ser,
                min_slack * 1e6,
            )?;
            for &c in &rec.plan.cores {
                write!(w, "	{c}")?;
            }
            writeln!(w)?;
        }
        Ok(())
    }
}

/// Runs one complete workload under `policy`.
///
/// A runner can either be driven to completion in one call ([`Runner::run`])
/// or stepped epoch by epoch ([`Runner::step_epoch`]) so an external
/// coordinator — such as the cluster-level power capper in the `cluster`
/// crate — can observe telemetry and adjust the policy between epochs.
pub struct Runner {
    sys: System,
    policy: Box<dyn Policy>,
    slack: Vec<f64>,
    /// Energy of every window so far, joules: live telemetry. It starts
    /// at the empty sum, -0.0, the bits a serving digest records for a
    /// server that has run no window.
    energy_j: f64,
    /// Energy up to the makespan by component, joules: CPU, L2, memory
    /// and rest of system.
    parts_j: [f64; 4],
    records: Vec<EpochRecord>,
    geom: MemGeometry,
    epoch: usize,
}

impl Runner {
    /// Creates a runner for `config` under the given policy kind.
    pub fn new(config: SimConfig, kind: PolicyKind) -> Runner {
        let geom = MemGeometry::of(&config.mem);
        let n = config.cores;
        Runner {
            sys: System::new(config),
            policy: make_policy(kind),
            slack: vec![0.0; n],
            energy_j: -0.0,
            parts_j: [0.0; 4],
            records: Vec::new(),
            geom,
            epoch: 0,
        }
    }

    /// Replaces the policy object (for ablation variants such as
    /// no-grouping CoScale or out-of-phase Semi-coordinated).
    pub fn with_policy(mut self, policy: Box<dyn Policy>) -> Runner {
        self.policy = policy;
        self
    }

    /// Moves the policy's power budget for the coming epochs
    /// ([`Policy::set_power_cap`]; only a capping policy holds one).
    pub fn set_power_cap(&mut self, cap_w: f64) {
        self.policy.set_power_cap(cap_w);
    }

    /// Builds an [`EpochProfile`] over the window `[a, b]` run under `plan`.
    fn profile_between(&self, a: &Snapshot, b: &Snapshot, plan: &Plan) -> EpochProfile {
        let deltas: Vec<(usize, CoreCounters)> = (0..a.cores.len())
            .map(|i| (plan.cores[i], b.cores[i].delta(&a.cores[i])))
            .collect();
        extract_profile(
            &deltas,
            &self.sys.config.core_freqs,
            &b.mem.delta(&a.mem),
            b.l2_accesses - a.l2_accesses,
            plan.mem,
            b.at - a.at,
        )
    }

    /// Integrates the power model over the window `[a, b]` run under
    /// `plan`: the whole window into the live total, and its part before
    /// the makespan into the component totals. Once every application is
    /// done, the window holding the makespan counts up to it and later
    /// windows count not at all.
    fn integrate(&mut self, a: &Snapshot, b: &Snapshot, plan: &Plan) {
        let window = b.at - a.at;
        if window == Ps::ZERO {
            return;
        }
        let cfg = &self.sys.config;
        let cores: Vec<(Freq, Freq, CoreCounters)> = (0..a.cores.len())
            .map(|i| {
                let v = plan.voltage_idx(i, cfg.voltage_domain_cores);
                let ctr = b.cores[i].delta(&a.cores[i]);
                (cfg.core_freqs[plan.cores[i]], cfg.core_freqs[v], ctr)
            })
            .collect();
        let power = system_power(
            &cfg.power,
            &self.geom,
            &cores,
            b.l2_accesses - a.l2_accesses,
            cfg.mem.freq_grid[plan.mem],
            &b.mem.delta(&a.mem),
            window,
        );
        self.energy_j += power.total() * window.as_secs_f64();
        let end = self.sys.makespan().map_or(b.at, |m| m.min(b.at));
        if end > a.at {
            let secs = (end - a.at).as_secs_f64();
            let parts = [
                power.cpu_total(),
                power.l2_w,
                power.mem.total(),
                power.rest_w,
            ];
            for (e, w) in self.parts_j.iter_mut().zip(parts) {
                *e += w * secs;
            }
        }
    }

    /// Whether every application has reached its instruction target.
    pub fn is_done(&self) -> bool {
        self.sys.all_done()
    }

    /// The per-epoch decision records so far.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// The underlying system (for telemetry).
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Full-system energy integrated over every window so far, joules.
    ///
    /// Unlike the final [`RunResult`] energies this is not prorated to the
    /// makespan — it is live telemetry for coordinators while the workload
    /// is still running.
    pub fn energy_so_far_j(&self) -> f64 {
        self.energy_j
    }

    /// Runs to completion and produces the result.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails to complete within `max_epochs` (a
    /// configuration error).
    pub fn run(mut self) -> RunResult {
        while !self.is_done() {
            self.step_epoch();
        }
        self.finalize()
    }

    /// Executes one profiling/decision/execution epoch. No-op once the
    /// workload is complete.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails to complete within `max_epochs` (a
    /// configuration error).
    pub fn step_epoch(&mut self) {
        if self.sys.all_done() {
            return;
        }
        let cfg = &self.sys.config;
        let (n, epoch_len, profile_window) = (cfg.cores, cfg.epoch, cfg.profile_window);
        let epoch = self.epoch;
        assert!(
            epoch < cfg.max_epochs,
            "workload did not complete in {} epochs",
            cfg.max_epochs
        );
        let start_snap = self.sys.snapshot();
        let epoch_start = start_snap.at;
        let old_plan = self.sys.plan().clone();

        // --- profiling phase ---
        self.sys.run_until(epoch_start + profile_window);
        let prof_snap = self.sys.snapshot();
        self.integrate(&start_snap, &prof_snap, &old_plan);

        // --- decision ---
        let profile = if self.policy.needs_oracle() {
            // Perfect lookahead: run a checkpoint to the epoch end at
            // the current frequencies, profile the whole epoch, rewind.
            let mut oracle = self.sys.clone();
            oracle.run_until(epoch_start + epoch_len);
            let end = oracle.snapshot();
            self.profile_between(&start_snap, &end, &old_plan)
        } else {
            self.profile_between(&start_snap, &prof_snap, &old_plan)
        };
        let cfg = &self.sys.config;
        let model = Model::new(
            &profile,
            &cfg.core_freqs,
            &cfg.mem.freq_grid,
            &cfg.power,
            self.geom,
            &cfg.mem.timings,
            &self.slack,
            cfg.epoch,
            cfg.gamma,
        )
        .with_voltage_domains(cfg.voltage_domain_cores);
        let plan = self.policy.decide(&model, &old_plan);
        let predicted_ser = model.ser(&plan);
        let predicted_power_w = model.power(&plan).total();
        let demand_power_w = model.base_power();
        let min_power_w = model
            .power(&Plan {
                cores: vec![0; n],
                mem: 0,
            })
            .total();
        drop(model);
        self.sys.apply_plan(&plan);

        // --- execution phase ---
        self.sys.run_until(epoch_start + epoch_len);
        let end_snap = self.sys.snapshot();
        self.integrate(&prof_snap, &end_snap, &plan);

        // --- slack settlement (paper §3: estimate what performance
        // would have been at maximum frequencies and bank the
        // difference) ---
        let epoch_profile = self.profile_between(&start_snap, &end_snap, &plan);
        let cfg = &self.sys.config;
        let settle = Model::new(
            &epoch_profile,
            &cfg.core_freqs,
            &cfg.mem.freq_grid,
            &cfg.power,
            self.geom,
            &cfg.mem.timings,
            &self.slack,
            cfg.epoch,
            cfg.gamma,
        );
        let epoch_s = cfg.epoch.as_secs_f64();
        for i in 0..n {
            let instrs = (end_snap.cores[i].tic - start_snap.cores[i].tic) as f64;
            let tpi_max = settle.tpi(i, cfg.max_core_idx(), cfg.mem.max_freq_idx());
            let target = instrs * tpi_max * (1.0 + cfg.gamma);
            self.slack[i] += target - epoch_s;
            // Bound the bank so numeric drift cannot hide real debt and
            // surpluses cannot grow without bound.
            self.slack[i] = self.slack[i].clamp(-4.0 * epoch_s, 4.0 * epoch_s);
        }

        self.records.push(EpochRecord {
            epoch,
            start: epoch_start,
            plan,
            slack: self.slack.clone(),
            predicted_ser,
            predicted_power_w,
            demand_power_w,
            min_power_w,
        });
        self.epoch += 1;
    }

    /// Consumes the runner and produces the result.
    ///
    /// # Panics
    ///
    /// Panics if the workload has not completed yet (drive it with
    /// [`Runner::run`] or [`Runner::step_epoch`] first).
    pub fn finalize(self) -> RunResult {
        assert!(self.sys.all_done(), "finalize() before workload completion");
        let sys = &self.sys;
        let cfg = sys.config();
        let completion: Vec<Ps> = sys
            .completion()
            .iter()
            .map(|c| c.expect("all_done checked"))
            .collect();
        let makespan = sys.makespan().expect("all_done checked");
        let [cpu, l2, mem, rest] = self.parts_j;

        let total_instrs: u64 = sys.instrs().iter().sum();
        let stats = sys.l2().stats();
        let kinst = (total_instrs as f64 / 1000.0).max(1.0);
        let mem_ctr = sys.mem().counters();
        let mem_accesses = (mem_ctr.row_hits + mem_ctr.page_opens).max(1);
        RunResult {
            policy: self.policy.kind(),
            mix: cfg.mix.name.to_string(),
            epochs: self.epoch,
            completion,
            makespan,
            cpu_energy_j: cpu,
            l2_energy_j: l2,
            mem_energy_j: mem,
            rest_energy_j: rest,
            records: self.records,
            mpki: stats.misses as f64 / kinst,
            wpki: stats.writebacks as f64 / kinst,
            prefetch_accuracy: stats.prefetch_accuracy(),
            bus_utilization: mem_ctr.bus_utilization(makespan, cfg.mem.channels),
            row_hit_rate: mem_ctr.row_hits as f64 / mem_accesses as f64,
            avg_read_latency_ns: mem_ctr.avg_read_latency().as_ps() as f64 / 1e3,
            mem_sleep_fraction: mem_ctr.rank_sleep_fraction(makespan, cfg.mem.total_ranks()),
            read_lat_p50_ns: sys.mem().read_latency_histogram().percentile(0.50) as f64 / 1e3,
            read_lat_p95_ns: sys.mem().read_latency_histogram().percentile(0.95) as f64 / 1e3,
            read_lat_p99_ns: sys.mem().read_latency_histogram().percentile(0.99) as f64 / 1e3,
        }
    }
}

/// Convenience: run `mix` under `policy` with `config`.
pub fn run_policy(config: SimConfig, kind: PolicyKind) -> RunResult {
    Runner::new(config, kind).run()
}
