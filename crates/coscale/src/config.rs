//! Top-level simulation configuration.

use cpusim::{CacheConfig, CoreConfig};
use memsim::{LineAddr, MemConfig};
use powermodel::PowerConfig;
use simkernel::{Freq, Ps};
use workloads::Mix;

/// Which energy-management policy drives the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// No energy management: everything pinned at maximum frequency.
    StaticMax,
    /// CoScale's coordinated gradient-descent search (the contribution).
    CoScale,
    /// Memory-subsystem DVFS only (MemScale).
    MemScale,
    /// Per-core CPU DVFS only.
    CpuOnly,
    /// Fully independent CPU and memory managers, each assuming it alone
    /// owns the slack.
    Uncoordinated,
    /// Independent managers sharing one slack estimate.
    SemiCoordinated,
    /// Oracle: perfect epoch profile plus exhaustive-equivalent search.
    Offline,
    /// Extension (§2.3): maximize performance under a full-system power
    /// budget instead of minimizing energy under a performance bound.
    PowerCap,
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PolicyKind::StaticMax => "Baseline",
            PolicyKind::CoScale => "CoScale",
            PolicyKind::MemScale => "MemScale",
            PolicyKind::CpuOnly => "CPUOnly",
            PolicyKind::Uncoordinated => "Uncoordinated",
            PolicyKind::SemiCoordinated => "Semi-coordinated",
            PolicyKind::Offline => "Offline",
            PolicyKind::PowerCap => "PowerCap",
        };
        write!(f, "{s}")
    }
}

/// Complete configuration of one simulation run. A run is a pure function
/// of its configuration and policy, so equal configurations under one
/// policy give equal results.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// The workload mix to execute.
    pub mix: Mix,
    /// Number of cores (the paper's CMP has 16; the mixes assume 16).
    pub cores: usize,
    /// Per-core frequency grid, ascending (paper: 10 steps, 2.2–4.0 GHz).
    pub core_freqs: Vec<Freq>,
    /// Memory/cache/power sub-configurations.
    pub mem: MemConfig,
    /// Shared L2 geometry.
    pub cache: CacheConfig,
    /// Per-core pipeline/prefetch settings.
    pub core: CoreConfig,
    /// Power-model calibration.
    pub power: PowerConfig,
    /// Epoch length (paper default 5 ms).
    pub epoch: Ps,
    /// Profiling window at the start of each epoch (paper default 300 µs).
    pub profile_window: Ps,
    /// Maximum allowed per-application slowdown γ (paper default 0.10).
    pub gamma: f64,
    /// Core DVFS transition halt ("a few 10's of microseconds").
    pub core_transition: Ps,
    /// Instructions each application must commit for the workload to end
    /// (paper: 100 M; scaled down by default for wall-clock reasons —
    /// see DESIGN.md).
    pub target_instrs: u64,
    /// Hard cap on epochs, guarding against non-terminating configurations.
    pub max_epochs: usize,
    /// Workload generator seed.
    pub seed: u64,
    /// Cores per voltage domain. 1 (the paper's assumption, after [21, 40])
    /// means fully independent per-core V/f; larger values make slow cores
    /// pay the fastest domain member's voltage (§3.4 discusses this
    /// hardware limitation).
    pub voltage_domain_cores: usize,
}

impl SimConfig {
    /// The paper's configuration for `mix`, with the time scale reduced
    /// uniformly for wall-clock reasons: 25 M instructions per application
    /// (paper: 100 M) and 1 ms epochs with a 100 µs profiling window
    /// (paper: 5 ms / 300 µs). The scaling keeps per-class epoch counts in
    /// the paper's ratios (MEM ≈ 40+, ILP ≈ 10); see DESIGN.md.
    pub fn for_mix(mix: Mix) -> Self {
        SimConfig {
            mix,
            cores: 16,
            core_freqs: Self::default_core_grid(),
            mem: MemConfig::default(),
            cache: CacheConfig::default(),
            core: CoreConfig::default(),
            power: PowerConfig::default(),
            epoch: Ps::from_ms(1),
            profile_window: Ps::from_us(100),
            gamma: 0.10,
            core_transition: Ps::from_us(20),
            target_instrs: 25_000_000,
            max_epochs: 400,
            seed: 0xC05CA1E,
            voltage_domain_cores: 1,
        }
    }

    /// A reduced configuration for fast tests: 4 cores, 2 M instructions,
    /// 1 ms epochs.
    pub fn small(mix: Mix) -> Self {
        let mut c = Self::for_mix(mix);
        c.cores = 4;
        c.target_instrs = 2_000_000;
        c.epoch = Ps::from_ms(1);
        c.profile_window = Ps::from_us(100);
        c.max_epochs = 200;
        c
    }

    /// The paper's 10-point core frequency grid: 2.2–4.0 GHz, equally
    /// spaced.
    pub fn default_core_grid() -> Vec<Freq> {
        Self::core_grid_with_steps(10)
    }

    /// `n` equally spaced core frequencies between 2.2 and 4.0 GHz
    /// (Figure 15 uses 4, 7 and 10).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn core_grid_with_steps(n: usize) -> Vec<Freq> {
        assert!(n >= 2, "need at least two core frequencies");
        (0..n)
            .map(|k| {
                let ghz = 2.2 + 1.8 * k as f64 / (n - 1) as f64;
                Freq::from_hz((ghz * 1e9).round() as u64)
            })
            .collect()
    }

    /// Index of the maximum core frequency.
    pub fn max_core_idx(&self) -> usize {
        self.core_freqs.len() - 1
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 || self.cores > 16 {
            return Err(format!(
                "cores {} out of 1..=16 (mixes define 16)",
                self.cores
            ));
        }
        if self.core_freqs.is_empty() {
            return Err("empty core frequency grid".into());
        }
        if self.core_freqs.windows(2).any(|w| w[0] >= w[1]) {
            return Err("core frequency grid must be strictly ascending".into());
        }
        if self.profile_window >= self.epoch {
            return Err("profiling window must be shorter than the epoch".into());
        }
        if !(0.0..1.0).contains(&self.gamma) {
            return Err(format!("gamma {} out of [0,1)", self.gamma));
        }
        if self.target_instrs == 0 {
            return Err("target_instrs must be positive".into());
        }
        if self.voltage_domain_cores == 0 {
            return Err("voltage_domain_cores must be positive".into());
        }
        self.cache.validate()?;
        // The prefetcher probes one line above the highest a trace
        // references; a line the L2 cannot tag would panic mid-run.
        let probe = LineAddr(workloads::max_line(self.cores).0 + 1);
        if !self.cache.can_tag(probe) {
            return Err(format!(
                "L2 of {} sets cannot tag line {:#x}, the prefetch probe above a \
                 {}-core trace's highest line; it needs more sets",
                self.cache.sets(),
                probe.0,
                self.cores
            ));
        }
        self.mem.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::mix;

    #[test]
    fn default_config_is_valid() {
        let c = SimConfig::for_mix(mix("MEM1").unwrap());
        assert!(c.validate().is_ok());
        assert_eq!(c.core_freqs.len(), 10);
        assert_eq!(c.core_freqs[0], Freq::from_ghz(2.2));
        assert_eq!(c.core_freqs[9], Freq::from_ghz(4.0));
    }

    #[test]
    fn grid_steps_span_range() {
        for n in [4, 7, 10] {
            let g = SimConfig::core_grid_with_steps(n);
            assert_eq!(g.len(), n);
            assert_eq!(g[0], Freq::from_ghz(2.2));
            assert_eq!(*g.last().unwrap(), Freq::from_ghz(4.0));
        }
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let base = SimConfig::for_mix(mix("ILP1").unwrap());

        let mut c = base.clone();
        c.cores = 0;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.gamma = 1.5;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.profile_window = c.epoch;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.core_freqs = vec![];
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.target_instrs = 0;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.cache.ways = 0;
        assert!(c.validate().is_err());

        let mut c = base;
        c.cache.size_bytes = 3 << 20;
        assert!(c.validate().is_err());
    }

    /// An L2 too small to tag a trace's lines is refused before round 0:
    /// 16 cores reach past 2^35, which an 8-set cache's 30-bit tags do not.
    /// The kernel goldens' small-L2 geometries fit any core count.
    #[test]
    fn validation_rejects_an_l2_too_small_to_tag_the_traces() {
        let mut c = SimConfig::for_mix(mix("MEM1").unwrap());
        c.cache = CacheConfig {
            size_bytes: 8 * 16 * 64,
            ways: 16,
        };
        let err = c.validate().unwrap_err();
        assert!(
            err.starts_with("L2 of 8 sets cannot tag line 0xf21000000"),
            "{err}"
        );
        c.cores = 1;
        assert_eq!(c.validate(), Ok(()));

        let goldens = [(256 * 1024, 4), (512 * 1024, 32)];
        for (size_bytes, ways) in goldens {
            let mut c = SimConfig::for_mix(mix("MEM1").unwrap());
            c.cache.size_bytes = size_bytes;
            c.cache.ways = ways;
            assert_eq!(c.validate(), Ok(()), "{size_bytes} B {ways}-way");
        }
    }

    #[test]
    fn policy_kind_display() {
        assert_eq!(PolicyKind::CoScale.to_string(), "CoScale");
        assert_eq!(PolicyKind::StaticMax.to_string(), "Baseline");
        assert_eq!(PolicyKind::SemiCoordinated.to_string(), "Semi-coordinated");
    }
}
