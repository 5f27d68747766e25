//! The online performance and energy models (§3.3 of the paper).
//!
//! From one profiling window's performance counters the models predict, for
//! any candidate frequency plan:
//!
//! * each application's time-per-instruction (Eq. 1 restated in time units:
//!   `tpi = cpu_cycles/f_core + α·TPI_L2 + β·TPI_Mem(f_mem)`);
//! * the memory stall time at any bus frequency, via the MemScale queueing
//!   decomposition `E[TPI_Mem] = ξ_bank·S_Bank + S + ξ_bus·S_Bus`;
//! * full-system power (through the `powermodel` crate) and the System
//!   Energy Ratio of Eq. 2, using the worst per-core slowdown as the time
//!   estimate.
//!
//! Every policy uses this same model; they differ only in how they search.

use cpusim::CoreCounters;
use memsim::{DdrTimings, MemCounters};
use powermodel::{core_power, system_power, MemGeometry, PowerConfig, SystemPower};
use simkernel::{Freq, Ps};

/// A complete frequency assignment: one grid index per core plus the memory
/// bus grid index.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Plan {
    /// Core frequency indices into the core grid.
    pub cores: Vec<usize>,
    /// Memory bus frequency index into the memory grid.
    pub mem: usize,
}

impl Plan {
    /// The all-maximum plan (the baseline operating point).
    pub fn max(n_cores: usize, core_grid_len: usize, mem_grid_len: usize) -> Plan {
        Plan {
            cores: vec![core_grid_len - 1; n_cores],
            mem: mem_grid_len - 1,
        }
    }

    /// The core-grid index that sets core `i`'s supply voltage when cores
    /// share voltage domains of `domain` cores (§3.4): the fastest clock in
    /// its domain. With per-core domains (`domain == 1`) that is its own.
    pub(crate) fn voltage_idx(&self, i: usize, domain: usize) -> usize {
        let lo = i - i % domain;
        let hi = (lo + domain).min(self.cores.len());
        self.cores[lo..hi]
            .iter()
            .fold(self.cores[i], |v, &c| v.max(c))
    }
}

/// Per-core profile distilled from a window of counters; all quantities are
/// per instruction and frequency-normalized where possible.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CoreProfile {
    /// Core cycles per instruction (frequency-invariant).
    pub cpu_cycles_pi: f64,
    /// Seconds per instruction stalled on L2 hits (uncore; invariant).
    pub l2_s_pi: f64,
    /// Seconds per instruction stalled on memory at the profiled bus
    /// frequency.
    pub mem_s_pi: f64,
    /// Instructions committed in the window.
    pub instrs: u64,
    /// Per-instruction activity counters (ALU, FPU, branch, load/store).
    pub cac_pi: [f64; 4],
}

/// Memory-subsystem profile for the window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemProfile {
    /// Average bank-queueing wait per read, seconds.
    pub bank_wait_s: f64,
    /// Average bus wait per read, seconds.
    pub bus_wait_s: f64,
    /// Reads completed in the window.
    pub reads: u64,
    /// Page-open events (reads + writes).
    pub page_opens: u64,
    /// Refreshes issued.
    pub refreshes: u64,
    /// Rank-active time (rank-seconds).
    pub rank_active_s: f64,
    /// Shared-L2 accesses in the window.
    pub l2_accesses: u64,
}

/// Everything the models saw in one profiling window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochProfile {
    /// Per-core profiles.
    pub cores: Vec<CoreProfile>,
    /// Memory profile.
    pub mem: MemProfile,
    /// Window length.
    pub window: Ps,
    /// Core frequency indices during the window.
    pub core_freq_idx: Vec<usize>,
    /// Memory frequency index during the window.
    pub mem_freq_idx: usize,
}

/// Builds an [`EpochProfile`] from counter deltas.
///
/// `cores` pairs each core's counter delta with the index into `grid` of
/// the clock it ran at during the window, which turns its measured busy
/// time into frequency-invariant cycles per instruction.
pub fn extract_profile(
    cores: &[(usize, CoreCounters)],
    grid: &[Freq],
    mem: &MemCounters,
    l2_accesses: u64,
    mem_freq_idx: usize,
    window: Ps,
) -> EpochProfile {
    let core_profiles = cores
        .iter()
        .map(|&(fidx, c)| {
            let tic = c.tic.max(1) as f64;
            CoreProfile {
                cpu_cycles_pi: c.busy_time.as_secs_f64() * grid[fidx].as_hz() as f64 / tic,
                l2_s_pi: c.l2_stall_time.as_secs_f64() / tic,
                mem_s_pi: c.mem_stall_time.as_secs_f64() / tic,
                instrs: c.tic,
                cac_pi: [
                    c.cac_alu / tic,
                    c.cac_fpu / tic,
                    c.cac_branch / tic,
                    c.cac_loadstore / tic,
                ],
            }
        })
        .collect::<Vec<_>>();

    EpochProfile {
        cores: core_profiles,
        mem: MemProfile {
            bank_wait_s: mem.avg_bank_wait().as_secs_f64(),
            bus_wait_s: mem.avg_bus_wait().as_secs_f64(),
            reads: mem.reads,
            page_opens: mem.page_opens,
            refreshes: mem.refreshes,
            rank_active_s: mem.rank_active.as_secs_f64(),
            l2_accesses,
        },
        window,
        core_freq_idx: cores.iter().map(|&(i, _)| i).collect(),
        mem_freq_idx,
    }
}

/// The prediction model bound to one profile and one configuration.
///
/// All methods are pure; policies call them thousands of times per decision
/// (the whole search is still far under the paper's 5 µs-at-16-cores
/// budget — see the `bench` crate).
pub struct Model<'a> {
    profile: &'a EpochProfile,
    core_grid: &'a [Freq],
    mem_grid: &'a [Freq],
    power_cfg: &'a PowerConfig,
    geom: MemGeometry,
    /// Frequency-independent read service time, seconds.
    fixed_service_s: f64,
    /// Burst time per memory grid point, seconds.
    burst_s: Vec<f64>,
    /// Allowed time-per-instruction per core (slack-adjusted).
    allowed_tpi: Vec<f64>,
    /// The degradation bound γ.
    gamma: f64,
    /// Baseline (all-max) tpi per core.
    base_tpi: Vec<f64>,
    /// Baseline power, for SER normalization.
    base_power: f64,
    /// Cores per shared voltage domain (1 = per-core domains).
    domain_size: usize,
}

impl<'a> Model<'a> {
    /// Builds the model.
    ///
    /// `slack` is each core's accumulated slack in seconds (positive = the
    /// application is ahead of its bound); `epoch` the upcoming epoch
    /// length; `gamma` the degradation bound.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        profile: &'a EpochProfile,
        core_grid: &'a [Freq],
        mem_grid: &'a [Freq],
        power_cfg: &'a PowerConfig,
        geom: MemGeometry,
        timings: &DdrTimings,
        slack: &[f64],
        epoch: Ps,
        gamma: f64,
    ) -> Model<'a> {
        let fixed_service_s = timings.fixed_read_service().as_secs_f64();
        let burst_s: Vec<f64> = mem_grid
            .iter()
            .map(|f| timings.burst_time(*f).as_secs_f64())
            .collect();

        let mut m = Model {
            profile,
            core_grid,
            mem_grid,
            power_cfg,
            geom,
            fixed_service_s,
            burst_s,
            allowed_tpi: Vec::new(),
            gamma,
            base_tpi: Vec::new(),
            base_power: 1.0,
            domain_size: 1,
        };

        let n = profile.cores.len();
        let max_plan = Plan::max(n, core_grid.len(), mem_grid.len());
        m.base_tpi = (0..n)
            .map(|i| m.tpi(i, core_grid.len() - 1, mem_grid.len() - 1))
            .collect();
        m.base_power = m.power(&max_plan).total();

        let epoch_s = epoch.as_secs_f64();
        m.allowed_tpi = (0..n)
            .map(|i| {
                let denom = 1.0 - slack.get(i).copied().unwrap_or(0.0) / epoch_s;
                if denom <= 1e-9 {
                    f64::INFINITY // enormous surplus: any setting is fine
                } else {
                    m.base_tpi[i] * (1.0 + gamma) / denom
                }
            })
            .collect();
        m
    }

    /// Configures shared voltage domains of `size` cores (§3.4). Returns
    /// `self` for builder-style use after [`Model::new`].
    pub fn with_voltage_domains(mut self, size: usize) -> Self {
        assert!(size > 0, "domain size must be positive");
        self.domain_size = size;
        // The baseline is all-max, where domain sharing changes nothing,
        // so base_power stays valid.
        self
    }

    /// The clock that sets core `i`'s voltage under `plan`
    /// ([`Plan::voltage_idx`]).
    fn vfreq(&self, plan: &Plan, i: usize) -> Freq {
        self.core_grid[plan.voltage_idx(i, self.domain_size)]
    }

    /// Predicted full-system power at the all-max plan, watts: the
    /// server's uncapped demand, and the denominator of every SER.
    pub(crate) fn base_power(&self) -> f64 {
        self.base_power
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.profile.cores.len()
    }

    /// Number of core frequency grid points.
    pub fn core_grid_len(&self) -> usize {
        self.core_grid.len()
    }

    /// Number of memory frequency grid points.
    pub fn mem_grid_len(&self) -> usize {
        self.mem_grid.len()
    }

    /// The performance-degradation bound γ this model was built with.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Predicted average memory read latency at memory grid index `fm`.
    pub fn mem_latency(&self, fm: usize) -> f64 {
        let p = &self.profile.mem;
        let s_now = self.fixed_service_s + self.burst_s[self.profile.mem_freq_idx];
        let s_new = self.fixed_service_s + self.burst_s[fm];
        if p.reads == 0 {
            return s_new;
        }
        // Queueing waits scale with the service times they queue behind
        // (constant-ξ assumption inherited from MemScale).
        let bank_wait = p.bank_wait_s * s_new / s_now;
        let bus_wait = p.bus_wait_s * self.burst_s[fm] / self.burst_s[self.profile.mem_freq_idx];
        bank_wait + s_new + bus_wait
    }

    /// Predicted time per instruction of core `i` at plan point
    /// `(fc, fm)` (grid indices), in seconds.
    pub fn tpi(&self, i: usize, fc: usize, fm: usize) -> f64 {
        let cp = &self.profile.cores[i];
        let cpu = cp.cpu_cycles_pi / self.core_grid[fc].as_hz() as f64;
        let mem = if cp.mem_s_pi == 0.0 {
            0.0
        } else {
            let l_now = self.mem_latency(self.profile.mem_freq_idx);
            if l_now <= 0.0 {
                cp.mem_s_pi
            } else {
                cp.mem_s_pi * self.mem_latency(fm) / l_now
            }
        };
        cpu + cp.l2_s_pi + mem
    }

    /// Predicted slowdown of core `i` relative to its all-max baseline.
    pub fn slowdown(&self, i: usize, fc: usize, fm: usize) -> f64 {
        let b = self.base_tpi[i];
        if b <= 0.0 {
            1.0
        } else {
            self.tpi(i, fc, fm) / b
        }
    }

    /// The slack-adjusted maximum tpi core `i` may run at this epoch.
    pub fn allowed_tpi(&self, i: usize) -> f64 {
        self.allowed_tpi[i]
    }

    /// Whether core `i` stays within its bound at `(fc, fm)`.
    pub fn core_ok(&self, i: usize, fc: usize, fm: usize) -> bool {
        self.tpi(i, fc, fm) <= self.allowed_tpi[i]
    }

    /// Whether every core stays within its bound under `plan`.
    pub fn plan_ok(&self, plan: &Plan) -> bool {
        (0..self.n_cores()).all(|i| self.core_ok(i, plan.cores[i], plan.mem))
    }

    /// The worst predicted slowdown of any core under `plan`.
    pub fn worst_slowdown(&self, plan: &Plan) -> f64 {
        (0..self.n_cores())
            .map(|i| self.slowdown(i, plan.cores[i], plan.mem))
            .fold(1.0, f64::max)
    }

    /// Synthesizes the per-core counter window the power model needs for a
    /// hypothetical plan: the core's clock and its counters.
    fn synth_core_counters(&self, i: usize, fc: usize, fm: usize) -> (Freq, CoreCounters) {
        let cp = &self.profile.cores[i];
        let w = self.profile.window.as_secs_f64();
        let tpi = self.tpi(i, fc, fm).max(1e-15);
        let instrs = w / tpi;
        let f = self.core_grid[fc];
        let busy = instrs * cp.cpu_cycles_pi / f.as_hz() as f64;
        (
            f,
            CoreCounters {
                tic: instrs as u64,
                busy_time: Ps::from_secs_f64(busy.min(w)),
                cac_alu: instrs * cp.cac_pi[0],
                cac_fpu: instrs * cp.cac_pi[1],
                cac_branch: instrs * cp.cac_pi[2],
                cac_loadstore: instrs * cp.cac_pi[3],
                ..CoreCounters::default()
            },
        )
    }

    /// Ratio of predicted total instruction throughput under `plan` to the
    /// profiled throughput; memory traffic is assumed proportional.
    fn throughput_ratio(&self, plan: &Plan) -> f64 {
        let w = self.profile.window.as_secs_f64();
        let prof_rate: f64 = self.profile.cores.iter().map(|c| c.instrs as f64 / w).sum();
        if prof_rate <= 0.0 {
            return 1.0;
        }
        let new_rate: f64 = (0..self.n_cores())
            .map(|i| 1.0 / self.tpi(i, plan.cores[i], plan.mem).max(1e-15))
            .sum();
        new_rate / prof_rate
    }

    /// Predicted full-system power under `plan`.
    pub fn power(&self, plan: &Plan) -> SystemPower {
        let w = self.profile.window;
        let rho = self.throughput_ratio(plan);
        let cores: Vec<(Freq, Freq, CoreCounters)> = (0..self.n_cores())
            .map(|i| {
                let (f, ctr) = self.synth_core_counters(i, plan.cores[i], plan.mem);
                (f, self.vfreq(plan, i), ctr)
            })
            .collect();

        let p = &self.profile.mem;
        let page_opens = (p.page_opens as f64 * rho) as u64;
        let bus_busy = Ps::from_secs_f64(page_opens as f64 * self.burst_s[plan.mem]);
        let rank_cap = w.as_secs_f64() * self.geom.ranks as f64;
        let mem_ctr = MemCounters {
            reads: (p.reads as f64 * rho) as u64,
            page_opens,
            page_closes: page_opens,
            refreshes: p.refreshes,
            rank_active: Ps::from_secs_f64((p.rank_active_s * rho).min(rank_cap)),
            bus_busy,
            ..MemCounters::default()
        };
        system_power(
            self.power_cfg,
            &self.geom,
            &cores,
            (p.l2_accesses as f64 * rho) as u64,
            self.mem_grid[plan.mem],
            &mem_ctr,
            w,
        )
    }

    /// The System Energy Ratio of Eq. 2: predicted epoch time (worst-core
    /// slowdown) × predicted power, normalized to the all-max baseline.
    /// Values below 1 mean the plan saves energy.
    pub fn ser(&self, plan: &Plan) -> f64 {
        self.worst_slowdown(plan) * self.power(plan).total() / self.base_power
    }

    /// Marginal utility of one *core* step `fc → fc-1` for core `i` under
    /// `plan`: `(power saved) / (performance lost)`. The performance loss is
    /// the core's slowdown increase.
    pub fn core_step_utility(&self, i: usize, plan: &Plan) -> Option<StepUtility> {
        let fc = plan.cores[i];
        if fc == 0 || !self.core_ok(i, fc - 1, plan.mem) {
            return None;
        }
        let (f_hi, c_hi) = self.synth_core_counters(i, fc, plan.mem);
        let (f_lo, c_lo) = self.synth_core_counters(i, fc - 1, plan.mem);
        let w = self.profile.window;
        let mut lower = plan.clone();
        lower.cores[i] -= 1;
        let p_hi = core_power(self.power_cfg, f_hi, self.vfreq(plan, i), &c_hi, w);
        let p_lo = core_power(self.power_cfg, f_lo, self.vfreq(&lower, i), &c_lo, w);
        let d_perf = self.slowdown(i, fc - 1, plan.mem) - self.slowdown(i, fc, plan.mem);
        Some(StepUtility {
            d_power: (p_hi - p_lo).max(0.0),
            d_perf: d_perf.max(0.0),
        })
    }

    /// Marginal utility of one *memory* step `fm → fm-1` under `plan`.
    /// Δperformance is the worst per-core slowdown increase (§3.1); the
    /// step is infeasible if any core would violate its bound.
    pub fn mem_step_utility(&self, plan: &Plan) -> Option<StepUtility> {
        if plan.mem == 0 {
            return None;
        }
        let mut lower = plan.clone();
        lower.mem -= 1;
        if !self.plan_ok(&lower) {
            return None;
        }
        let p_hi = self.power(plan).total();
        let p_lo = self.power(&lower).total();
        let d_perf = (0..self.n_cores())
            .map(|i| {
                self.slowdown(i, plan.cores[i], lower.mem)
                    - self.slowdown(i, plan.cores[i], plan.mem)
            })
            .fold(0.0, f64::max);
        Some(StepUtility {
            d_power: (p_hi - p_lo).max(0.0),
            d_perf: d_perf.max(0.0),
        })
    }
}

/// A candidate move's power/performance trade-off.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepUtility {
    /// Power saved by the move, watts (≥ 0).
    pub d_power: f64,
    /// Performance lost (slowdown increase, ≥ 0).
    pub d_perf: f64,
}

impl StepUtility {
    /// Δpower/Δperformance; a zero-cost move has infinite utility.
    pub fn value(&self) -> f64 {
        if self.d_perf <= 0.0 {
            if self.d_power > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.d_power / self.d_perf
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::MemConfig;

    /// A hand-built profile: core 0 compute-bound, core 1 memory-bound.
    fn profile() -> EpochProfile {
        EpochProfile {
            cores: vec![
                CoreProfile {
                    cpu_cycles_pi: 1.2,
                    l2_s_pi: 50e-12,
                    mem_s_pi: 20e-12,
                    instrs: 900_000,
                    cac_pi: [0.45, 0.02, 0.18, 0.35],
                },
                CoreProfile {
                    cpu_cycles_pi: 1.1,
                    l2_s_pi: 100e-12,
                    mem_s_pi: 900e-12,
                    instrs: 350_000,
                    cac_pi: [0.28, 0.32, 0.08, 0.32],
                },
            ],
            mem: MemProfile {
                bank_wait_s: 20e-9,
                bus_wait_s: 5e-9,
                reads: 20_000,
                page_opens: 25_000,
                refreshes: 38,
                rank_active_s: 80e-6,
                l2_accesses: 60_000,
            },
            window: Ps::from_us(300),
            core_freq_idx: vec![9, 9],
            mem_freq_idx: 9,
        }
    }

    fn fixtures() -> (Vec<Freq>, Vec<Freq>, PowerConfig, MemGeometry, DdrTimings) {
        let mem_cfg = MemConfig::default();
        (
            crate::SimConfig::core_grid_with_steps(10),
            mem_cfg.freq_grid.clone(),
            PowerConfig::default(),
            MemGeometry::of(&mem_cfg),
            mem_cfg.timings,
        )
    }

    fn model<'a>(
        p: &'a EpochProfile,
        cg: &'a [Freq],
        mg: &'a [Freq],
        pc: &'a PowerConfig,
        geom: MemGeometry,
        t: &DdrTimings,
        slack: &[f64],
    ) -> Model<'a> {
        Model::new(p, cg, mg, pc, geom, t, slack, Ps::from_ms(5), 0.10)
    }

    #[test]
    fn tpi_increases_as_frequencies_drop() {
        let p = profile();
        let (cg, mg, pc, geom, t) = fixtures();
        let m = model(&p, &cg, &mg, &pc, geom, &t, &[0.0, 0.0]);
        for i in 0..2 {
            let base = m.tpi(i, 9, 9);
            assert!(m.tpi(i, 0, 9) > base);
            assert!(m.tpi(i, 9, 0) >= base);
            assert!(m.tpi(i, 0, 0) > m.tpi(i, 0, 9));
        }
    }

    #[test]
    fn memory_bound_core_is_more_sensitive_to_mem_freq() {
        let p = profile();
        let (cg, mg, pc, geom, t) = fixtures();
        let m = model(&p, &cg, &mg, &pc, geom, &t, &[0.0, 0.0]);
        let d0 = m.slowdown(0, 9, 0) - 1.0;
        let d1 = m.slowdown(1, 9, 0) - 1.0;
        assert!(
            d1 > d0 * 3.0,
            "memory-bound core should suffer more: {d0} vs {d1}"
        );
    }

    #[test]
    fn compute_bound_core_is_more_sensitive_to_core_freq() {
        let p = profile();
        let (cg, mg, pc, geom, t) = fixtures();
        let m = model(&p, &cg, &mg, &pc, geom, &t, &[0.0, 0.0]);
        let d0 = m.slowdown(0, 0, 9) - 1.0;
        let d1 = m.slowdown(1, 0, 9) - 1.0;
        assert!(
            d0 > d1,
            "compute-bound core should suffer more: {d0} vs {d1}"
        );
    }

    #[test]
    fn slowdown_at_max_is_one_and_ser_at_max_is_one() {
        let p = profile();
        let (cg, mg, pc, geom, t) = fixtures();
        let m = model(&p, &cg, &mg, &pc, geom, &t, &[0.0, 0.0]);
        let max = Plan::max(2, cg.len(), mg.len());
        assert!((m.worst_slowdown(&max) - 1.0).abs() < 1e-12);
        assert!((m.ser(&max) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lower_frequencies_reduce_predicted_power() {
        let p = profile();
        let (cg, mg, pc, geom, t) = fixtures();
        let m = model(&p, &cg, &mg, &pc, geom, &t, &[0.0, 0.0]);
        let hi = m.power(&Plan::max(2, cg.len(), mg.len())).total();
        let lo = m
            .power(&Plan {
                cores: vec![0, 0],
                mem: 0,
            })
            .total();
        assert!(lo < hi * 0.8, "lo {lo}, hi {hi}");
    }

    #[test]
    fn slack_expands_and_debt_contracts_the_bound() {
        let p = profile();
        let (cg, mg, pc, geom, t) = fixtures();
        let neutral = model(&p, &cg, &mg, &pc, geom, &t, &[0.0, 0.0]);
        let surplus = model(&p, &cg, &mg, &pc, geom, &t, &[1e-3, 1e-3]);
        let debt = model(&p, &cg, &mg, &pc, geom, &t, &[-1e-3, -1e-3]);
        for i in 0..2 {
            assert!(surplus.allowed_tpi(i) > neutral.allowed_tpi(i));
            assert!(debt.allowed_tpi(i) < neutral.allowed_tpi(i));
        }
    }

    #[test]
    fn feasibility_respects_bound() {
        let p = profile();
        let (cg, mg, pc, geom, t) = fixtures();
        let m = model(&p, &cg, &mg, &pc, geom, &t, &[0.0, 0.0]);
        assert!(m.plan_ok(&Plan::max(2, cg.len(), mg.len())));
        // Dropping everything to minimum should violate a 10% bound for the
        // compute-bound core (2.2/4.0 alone is a 45% slowdown).
        assert!(!m.plan_ok(&Plan {
            cores: vec![0, 0],
            mem: 0
        }));
    }

    #[test]
    fn step_utilities_have_expected_signs() {
        let p = profile();
        let (cg, mg, pc, geom, t) = fixtures();
        let m = model(&p, &cg, &mg, &pc, geom, &t, &[0.0, 0.0]);
        let plan = Plan::max(2, cg.len(), mg.len());
        let cu = m
            .core_step_utility(0, &plan)
            .expect("step must be feasible");
        assert!(cu.d_power > 0.0);
        assert!(cu.d_perf > 0.0);
        assert!(cu.value() > 0.0);
        let mu = m.mem_step_utility(&plan).expect("step must be feasible");
        assert!(mu.d_power > 0.0);
        assert!(mu.d_perf > 0.0);
    }

    #[test]
    fn utility_of_free_move_is_infinite() {
        let u = StepUtility {
            d_power: 1.0,
            d_perf: 0.0,
        };
        assert!(u.value().is_infinite());
        let z = StepUtility {
            d_power: 0.0,
            d_perf: 0.0,
        };
        assert_eq!(z.value(), 0.0);
    }

    #[test]
    fn shared_voltage_domains_raise_power_of_mixed_plans() {
        let p = profile();
        let (cg, mg, pc, geom, t) = fixtures();
        let per_core = model(&p, &cg, &mg, &pc, geom, &t, &[0.0, 0.0]);
        let shared = Model::new(
            &p,
            &cg,
            &mg,
            &pc,
            geom,
            &t,
            &[0.0, 0.0],
            Ps::from_ms(5),
            0.10,
        )
        .with_voltage_domains(2);
        // One fast + one slow core: with a shared domain the slow core pays
        // the fast core's voltage.
        let plan = Plan {
            cores: vec![9, 0],
            mem: 9,
        };
        let p_ind = per_core.power(&plan).total();
        let p_shared = shared.power(&plan).total();
        assert!(
            p_shared > p_ind + 0.1,
            "shared domain must cost power: {p_ind} vs {p_shared}"
        );
        // A uniform plan is unaffected.
        let uniform = Plan {
            cores: vec![3, 3],
            mem: 9,
        };
        let u_ind = per_core.power(&uniform).total();
        let u_shared = shared.power(&uniform).total();
        assert!((u_ind - u_shared).abs() < 1e-9);
    }

    #[test]
    fn extract_profile_normalizes_busy_time_to_cycles() {
        let (cg, ..) = fixtures();
        let ctr = CoreCounters {
            tic: 1000,
            busy_time: Ps::from_ns(300), // 300ns at 4GHz = 1200 cycles
            l2_stall_time: Ps::from_ns(75),
            mem_stall_time: Ps::from_ns(400),
            cac_alu: 450.0,
            ..CoreCounters::default()
        };
        let cores = vec![(9usize, ctr)];
        let mem = MemCounters::default();
        let p = extract_profile(&cores, &cg, &mem, 120, 9, Ps::from_us(1));
        let cp = &p.cores[0];
        assert!((cp.cpu_cycles_pi - 1.2).abs() < 1e-9);
        assert!((cp.l2_s_pi - 75e-12).abs() < 1e-15);
        assert!((cp.mem_s_pi - 400e-12).abs() < 1e-15);
        assert!((cp.cac_pi[0] - 0.45).abs() < 1e-12);
        assert_eq!(p.mem.l2_accesses, 120);
    }
}
