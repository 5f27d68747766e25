//! The DDR3 timing constants (Table 2), the memory system's policies and
//! the DVFS grid.

use simkernel::{Freq, Ps};

// DDR3 device timing constraints, Table 2 of the paper (converted from
// cycles at 800 MHz where the paper lists cycles). The DRAM-core timings are
// fixed in absolute time: when the bus is frequency-scaled, a real
// controller reprograms the corresponding cycle counts so that the analog
// constraints stay constant, exactly as MemScale assumes. Only the data
// burst (`BURST_CYCLES` bus cycles) scales with bus frequency.

/// Row-activate to column command, tRCD (15 ns in the paper).
pub(crate) const T_RCD: Ps = Ps::from_ns(15);
/// Precharge latency, tRP (15 ns).
pub const T_RP: Ps = Ps::from_ns(15);
/// Column-access (CAS) latency, tCL (15 ns).
pub const T_CL: Ps = Ps::from_ns(15);
/// Minimum row-active time, tRAS: 28 bus cycles at 800 MHz = 35 ns.
pub const T_RAS: Ps = Ps::from_ns(35);
/// Activate-to-activate on one rank, tRRD: 4 cycles at 800 MHz = 5 ns.
pub(crate) const T_RRD: Ps = Ps::from_ns(5);
/// Read-to-precharge, tRTP: 5 cycles at 800 MHz = 6.25 ns.
pub(crate) const T_RTP: Ps = Ps::new(6_250);
/// Four-activate window per rank, tFAW: 20 cycles at 800 MHz = 25 ns.
pub(crate) const T_FAW: Ps = Ps::from_ns(25);
/// Write recovery before precharge, tWR (15 ns, DDR3 typical).
pub(crate) const T_WR: Ps = Ps::from_ns(15);
/// Data burst length in bus clock cycles (BL8 on a DDR bus = 4 cycles).
pub(crate) const BURST_CYCLES: u64 = 4;
/// Average refresh-command interval per rank, tREFI (7.8 µs for
/// 64 ms / 8192).
pub(crate) const T_REFI: Ps = Ps::from_ns(7_800);
/// Refresh cycle time with the rank blocked, tRFC (110 ns for 1 Gb
/// devices).
pub const T_RFC: Ps = Ps::from_ns(110);
/// Fixed memory-controller pipeline overhead added to every read's
/// completion (command decode, response queueing).
pub const MC_OVERHEAD: Ps = Ps::from_ns(5);

/// Duration of one data burst at bus frequency `bus`.
pub fn burst_time(bus: Freq) -> Ps {
    bus.cycles_to_ps(BURST_CYCLES)
}

/// The frequency-independent part of a closed-page read's service time:
/// ACT→CAS→data-start plus controller overhead (tRCD + tCL + overhead).
pub fn fixed_read_service() -> Ps {
    T_RCD + T_CL + MC_OVERHEAD
}

/// Row-buffer management policy.
///
/// The paper's controller runs on a closed-page system ("closed-page row
/// buffer management ... outperforms open-page policies for multi-core
/// CPUs", §4.1); the open-page mode exists to reproduce exactly that
/// comparison (see the `ablation-page-policy` experiment).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Precharge immediately after every access.
    #[default]
    Closed,
    /// Leave rows open; precharge on conflict or refresh.
    Open,
}

/// Request scheduling policy within a channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// First-come first-served (the paper's configuration).
    #[default]
    Fcfs,
    /// First-ready FCFS: row-buffer hits bypass older conflicting reads.
    /// Only meaningful with [`PagePolicy::Open`].
    FrFcfs,
}

/// Physical address mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AddrMap {
    /// Consecutive lines rotate across channels, then banks (maximum
    /// parallelism; the mapping closed-page systems prefer).
    #[default]
    ChannelInterleaved,
    /// Consecutive lines fill a row before moving to the next channel
    /// (maximum row locality; the mapping open-page systems prefer).
    RowInterleaved,
}

/// Idle low-power state management — the *alternative* to memory DVFS that
/// prior work explored ([Fan'03], [Li'07]; §2.2 of the paper argues active
/// low-power modes beat these for server workloads). When configured, a
/// rank that stays idle longer than `threshold` drops into the given state
/// and pays `exit_penalty` on its next access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdleMemPolicy {
    /// Idle time before the rank transitions into the low-power state.
    pub threshold: Ps,
    /// Which state to enter.
    pub mode: IdleMode,
}

/// The idle state a rank drops into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdleMode {
    /// Fast-exit precharge powerdown: cheap to leave, moderate savings.
    Powerdown,
    /// Self-refresh: deepest savings, but exit requires DLL re-lock.
    SelfRefresh,
}

impl IdleMode {
    /// Exit latency paid by the first access after sleep.
    pub fn exit_penalty(self) -> Ps {
        match self {
            // tXP-class exit for fast-exit powerdown.
            IdleMode::Powerdown => Ps::from_ns(20),
            // tXSDLL-class exit (DLL re-lock) for self-refresh.
            IdleMode::SelfRefresh => Ps::from_ns(640),
        }
    }
}

/// The memory subsystem's policies and DVFS grid: what an experiment
/// varies. The geometry and timings are the paper's constants (see the
/// crate docs).
///
/// Defaults mirror the paper: closed page, FCFS, channel-interleaved lines,
/// no idle-state management, and bus frequencies 800 MHz down to 200 MHz in
/// ~66 MHz steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Available bus frequencies, ascending. The memory controller runs at
    /// twice the bus frequency; DIMM clocks lock to the bus frequency.
    pub freq_grid: Vec<Freq>,
    /// Row-buffer management.
    pub page_policy: PagePolicy,
    /// Request scheduling.
    pub sched: SchedPolicy,
    /// Physical address mapping.
    pub addr_map: AddrMap,
    /// Optional idle low-power state management (off in the paper's
    /// CoScale configuration; used by the idle-states ablation).
    pub idle_policy: Option<IdleMemPolicy>,
}

impl MemConfig {
    /// The paper's default 10-point frequency grid: 800 MHz down to 200 MHz.
    pub fn default_freq_grid() -> Vec<Freq> {
        // 200 + k*66 for k = 0..9 gives 200..794; the paper's endpoints are
        // 200 and 800, so we pin the top step to exactly 800 MHz.
        let mut grid: Vec<Freq> = (0..9).map(|k| Freq::from_mhz(200 + 66 * k)).collect();
        grid.push(Freq::from_mhz(800));
        grid
    }

    /// A reduced frequency grid with `n` equally spaced points between
    /// 200 and 800 MHz (used by the Figure 15 sensitivity study).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn freq_grid_with_steps(n: usize) -> Vec<Freq> {
        assert!(n >= 2, "need at least two frequency steps");
        (0..n)
            .map(|k| {
                let mhz = 200.0 + 600.0 * k as f64 / (n - 1) as f64;
                Freq::from_mhz(mhz.round() as u64)
            })
            .collect()
    }

    /// Index of the highest (nominal) frequency in the grid.
    pub fn max_freq_idx(&self) -> usize {
        self.freq_grid.len() - 1
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found: an empty or
    /// unsorted frequency grid.
    pub fn validate(&self) -> Result<(), String> {
        if self.freq_grid.is_empty() {
            return Err("frequency grid is empty".into());
        }
        if self.freq_grid.windows(2).any(|w| w[0] >= w[1]) {
            return Err("frequency grid must be strictly ascending".into());
        }
        Ok(())
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            freq_grid: Self::default_freq_grid(),
            page_policy: PagePolicy::default(),
            sched: SchedPolicy::default(),
            addr_map: AddrMap::default(),
            idle_policy: None,
        }
    }
}

#[cfg(test)]
// Tests build counter/config fixtures incrementally from defaults on purpose.
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_matches_paper() {
        let g = MemConfig::default_freq_grid();
        assert_eq!(g.len(), 10);
        assert_eq!(g[0], Freq::from_mhz(200));
        assert_eq!(*g.last().unwrap(), Freq::from_mhz(800));
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn reduced_grids_span_range() {
        for n in [4, 7, 10] {
            let g = MemConfig::freq_grid_with_steps(n);
            assert_eq!(g.len(), n);
            assert_eq!(g[0], Freq::from_mhz(200));
            assert_eq!(*g.last().unwrap(), Freq::from_mhz(800));
        }
    }

    #[test]
    fn default_config_is_valid() {
        let c = MemConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.max_freq_idx(), 9);
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = MemConfig::default();
        c.freq_grid = vec![];
        assert!(c.validate().is_err());

        let mut c = MemConfig::default();
        c.freq_grid = vec![Freq::from_mhz(800), Freq::from_mhz(200)];
        assert!(c.validate().is_err());
    }

    #[test]
    fn burst_time_scales_with_frequency() {
        assert_eq!(burst_time(Freq::from_mhz(800)), Ps::new(5_000));
        assert_eq!(burst_time(Freq::from_mhz(200)), Ps::new(20_000));
    }

    #[test]
    fn fixed_service_excludes_burst() {
        assert_eq!(fixed_read_service(), Ps::from_ns(35));
    }
}
