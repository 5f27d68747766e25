//! CoScale's per-core performance counters (§3.3 of the paper).
//!
//! Beyond MemScale's two per-core counters, CoScale adds L2 and activity
//! counters so the OS can split CPI into core-, L2- and memory-attributable
//! time and estimate core power:
//!
//! * **TIC** — Total Instructions Committed
//! * **TMS** — Total L1 Miss Stalls (stalls satisfied by the L2)
//! * **TLA / TLM / TLS** — Total L2 Accesses / Misses / Miss Stalls
//! * **CAC** — four Core Activity Counters (ALU, FPU, branch, load/store)
//!
//! We additionally accumulate the stall *times* the simulator knows exactly;
//! a real implementation derives them from the counts and latencies, and the
//! analytic model in the `coscale` crate consumes them the same way.

use simkernel::Ps;

/// Cumulative counters for one core. Snapshot-and-subtract for windows.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CoreCounters {
    /// Total instructions committed.
    pub tic: u64,
    /// Instructions that stalled on an L1 miss that hit in the L2.
    pub tms: u64,
    /// Total L2 accesses.
    pub tla: u64,
    /// Total L2 misses.
    pub tlm: u64,
    /// Instructions that stalled on an L2 miss (equals `tlm` on the in-order
    /// pipeline; on the MLP-window pipeline misses may be fully hidden).
    pub tls: u64,
    /// Committed ALU instructions (CAC).
    pub cac_alu: f64,
    /// Committed FPU instructions (CAC).
    pub cac_fpu: f64,
    /// Committed branches (CAC).
    pub cac_branch: f64,
    /// Committed loads/stores (CAC).
    pub cac_loadstore: f64,
    /// Time the core spent executing instructions (frequency-dependent).
    pub busy_time: Ps,
    /// Time stalled on L2 hits (uncore clock: frequency-independent).
    pub l2_stall_time: Ps,
    /// Time stalled waiting for memory.
    pub mem_stall_time: Ps,
    /// Time halted for DVFS transitions.
    pub halt_time: Ps,
}

impl CoreCounters {
    /// Component-wise `self - earlier`.
    pub fn delta(&self, earlier: &CoreCounters) -> CoreCounters {
        CoreCounters {
            tic: self.tic - earlier.tic,
            tms: self.tms - earlier.tms,
            tla: self.tla - earlier.tla,
            tlm: self.tlm - earlier.tlm,
            tls: self.tls - earlier.tls,
            cac_alu: self.cac_alu - earlier.cac_alu,
            cac_fpu: self.cac_fpu - earlier.cac_fpu,
            cac_branch: self.cac_branch - earlier.cac_branch,
            cac_loadstore: self.cac_loadstore - earlier.cac_loadstore,
            busy_time: self.busy_time - earlier.busy_time,
            l2_stall_time: self.l2_stall_time - earlier.l2_stall_time,
            mem_stall_time: self.mem_stall_time - earlier.mem_stall_time,
            halt_time: self.halt_time - earlier.halt_time,
        }
    }

    /// α in Eq. (1): fraction of instructions that stall on an L2 access.
    pub fn alpha(&self) -> f64 {
        if self.tic == 0 {
            0.0
        } else {
            self.tms as f64 / self.tic as f64
        }
    }

    /// β in Eq. (1): fraction of instructions that miss the L2 and stall.
    pub fn beta(&self) -> f64 {
        if self.tic == 0 {
            0.0
        } else {
            self.tls as f64 / self.tic as f64
        }
    }

    /// E\[TPI_L2\]: average stall per L2-hit stall.
    pub fn tpi_l2(&self) -> Ps {
        if self.tms == 0 {
            Ps::ZERO
        } else {
            self.l2_stall_time / self.tms
        }
    }

    /// E\[TPI_Mem\]: average stall per stalled L2 miss.
    pub fn tpi_mem(&self) -> Ps {
        if self.tls == 0 {
            Ps::ZERO
        } else {
            self.mem_stall_time / self.tls
        }
    }

    /// LLC misses per kilo-instruction in this window.
    pub fn mpki(&self) -> f64 {
        if self.tic == 0 {
            0.0
        } else {
            self.tlm as f64 * 1000.0 / self.tic as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoreCounters {
        CoreCounters {
            tic: 1000,
            tms: 100,
            tla: 120,
            tlm: 20,
            tls: 20,
            cac_alu: 450.0,
            cac_fpu: 20.0,
            cac_branch: 180.0,
            cac_loadstore: 350.0,
            busy_time: Ps::from_ns(300),
            l2_stall_time: Ps::from_ns(750),
            mem_stall_time: Ps::from_ns(1200),
            halt_time: Ps::ZERO,
        }
    }

    #[test]
    fn ratios() {
        let c = sample();
        assert!((c.alpha() - 0.1).abs() < 1e-12);
        assert!((c.beta() - 0.02).abs() < 1e-12);
        assert!((c.mpki() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn per_instruction_times() {
        let c = sample();
        assert_eq!(c.tpi_l2(), Ps::new(7_500));
        assert_eq!(c.tpi_mem(), Ps::from_ns(60));
    }

    #[test]
    fn zero_window_is_all_zeros() {
        let c = CoreCounters::default();
        assert_eq!(c.alpha(), 0.0);
        assert_eq!(c.beta(), 0.0);
        assert_eq!(c.tpi_l2(), Ps::ZERO);
        assert_eq!(c.tpi_mem(), Ps::ZERO);
        assert_eq!(c.mpki(), 0.0);
    }

    #[test]
    fn delta_is_componentwise() {
        let a = sample();
        let mut b = a;
        b.tic += 500;
        b.busy_time += Ps::from_ns(100);
        b.cac_alu += 225.0;
        let d = b.delta(&a);
        assert_eq!(d.tic, 500);
        assert_eq!(d.busy_time, Ps::from_ns(100));
        assert!((d.cac_alu - 225.0).abs() < 1e-9);
        assert_eq!(d.tms, 0);
    }
}
