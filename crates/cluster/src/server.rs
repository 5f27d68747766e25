//! One simulated server in a fleet: the existing epoch engine
//! (`coscale::Runner`) running `PowerCapPolicy`, which holds the cap the
//! fleet coordinator rewrites at round boundaries ([`Server::set_cap`]).
//! Both fleet layers run it: the batch layer to completion, the serving
//! layer under a request queue with an unreachable completion target.

use crate::coordinator::ServerDemand;
use crate::ServerSpec;
use coscale::{PolicyKind, RunResult, Runner};
use simkernel::Ps;

/// Telemetry a server reports to the coordinator at a round boundary.
#[derive(Clone, Copy, Debug)]
pub struct ServerStatus {
    /// Demand estimate for cap splitting.
    pub demand: ServerDemand,
}

/// One server: name, runner, the assigned cap, and round telemetry
/// accumulators.
pub struct Server {
    /// Display name from the spec.
    pub name: String,
    runner: Runner,
    cap_w: f64,
    mean_cap_num: f64,
    rounds_run: u64,
    violations: u64,
    total_target_instrs: u64,
    records_seen: usize,
}

impl Server {
    /// Builds the server from its spec, initially granted `initial_cap_w`.
    pub fn new(spec: &ServerSpec, initial_cap_w: f64) -> Server {
        // Saturates for a target nobody can reach (a serving engine's).
        let total_target_instrs = spec
            .config
            .target_instrs
            .saturating_mul(spec.config.cores as u64);
        let mut runner = Runner::new(spec.config.clone(), PolicyKind::PowerCap);
        runner.set_power_cap(initial_cap_w);
        Server {
            name: spec.name.clone(),
            runner,
            cap_w: initial_cap_w,
            mean_cap_num: 0.0,
            rounds_run: 0,
            violations: 0,
            total_target_instrs,
            records_seen: 0,
        }
    }

    /// Whether the server's workload is complete.
    pub fn is_done(&self) -> bool {
        self.runner.is_done()
    }

    /// Assigns the cap for the coming round.
    pub fn set_cap(&mut self, cap_w: f64) {
        self.runner.set_power_cap(cap_w);
        self.cap_w = cap_w;
    }

    /// The cap currently assigned, watts.
    pub fn cap_w(&self) -> f64 {
        self.cap_w
    }

    /// Runs up to `epochs` epochs (stopping early on completion), then
    /// settles round telemetry: mean cap and violations.
    pub fn step_round(&mut self, epochs: usize) {
        if self.is_done() {
            return;
        }
        let energy_before = self.energy_j();
        let t_before = self.now();
        for _ in 0..epochs {
            if self.is_done() {
                break;
            }
            self.runner.step_epoch();
        }
        let dt = (self.now() - t_before).as_secs_f64();
        let de = self.energy_j() - energy_before;
        let measured_w = if dt > 0.0 { de / dt } else { 0.0 };
        self.mean_cap_num += self.cap_w;
        self.rounds_run += 1;
        // A violation means the model under-predicted: measured average
        // power over the round exceeded the granted cap beyond a 5%
        // modelling tolerance.
        if self.cap_w > 0.0 && measured_w > self.cap_w * 1.05 {
            self.violations += 1;
        }
    }

    /// Round-boundary telemetry for the coordinator. Demand and floor are
    /// the mean of the model's per-epoch predictions since the last call
    /// (falling back to the most recent epoch, or zero before any epoch
    /// has run — the coordinator treats a zero-demand active server as
    /// "unknown" and splits uniformly).
    pub fn status(&mut self) -> ServerStatus {
        let records = self.runner.records();
        let fresh = &records[self.records_seen.min(records.len())..];
        let (demand_w, min_w) = if fresh.is_empty() {
            records
                .last()
                .map_or((0.0, 0.0), |r| (r.demand_power_w, r.min_power_w))
        } else {
            let n = fresh.len() as f64;
            (
                fresh.iter().map(|r| r.demand_power_w).sum::<f64>() / n,
                fresh.iter().map(|r| r.min_power_w).sum::<f64>() / n,
            )
        };
        self.records_seen = records.len();
        ServerStatus {
            demand: ServerDemand {
                demand_w,
                min_w,
                active: !self.is_done(),
            },
        }
    }

    /// Simulated time reached.
    pub fn now(&self) -> Ps {
        self.runner.system().now()
    }

    /// Instructions committed so far, all cores.
    pub fn instrs(&self) -> u64 {
        self.runner.system().instrs().iter().sum()
    }

    /// Engine energy consumed so far, joules (live telemetry, not
    /// prorated to a makespan).
    pub fn energy_j(&self) -> f64 {
        self.runner.energy_so_far_j()
    }

    /// Cap-violation rounds so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Mean assigned cap over the rounds run, watts.
    pub fn mean_cap_w(&self) -> f64 {
        if self.rounds_run == 0 {
            0.0
        } else {
            self.mean_cap_num / self.rounds_run as f64
        }
    }

    /// Rounds this server participated in.
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Total instructions the workload must commit (all cores).
    pub fn total_target_instrs(&self) -> u64 {
        self.total_target_instrs
    }

    /// Finishes the server and produces its single-server result.
    ///
    /// # Panics
    ///
    /// Panics if the workload has not completed.
    pub fn finalize(self) -> RunResult {
        self.runner.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mean of `f` over `records`, summed in order as `status` does.
    fn mean(records: &[coscale::EpochRecord], f: fn(&coscale::EpochRecord) -> f64) -> f64 {
        records.iter().map(f).sum::<f64>() / records.len() as f64
    }

    #[test]
    fn status_averages_exactly_the_fresh_records() {
        let mut spec = ServerSpec::small("s", "MID1", 7);
        spec.config.target_instrs *= 100;
        let mut s = Server::new(&spec, 60.0);
        let d = s.status().demand;
        assert_eq!((d.demand_w, d.min_w, d.active), (0.0, 0.0, true));

        s.step_round(2);
        s.status();
        s.step_round(3);
        let d = s.status().demand;
        let fresh = &s.runner.records()[2..];
        assert_eq!(fresh.len(), 3);
        assert_eq!(d.demand_w, mean(fresh, |r| r.demand_power_w));
        assert_eq!(d.min_w, mean(fresh, |r| r.min_power_w));
        assert!(d.active);

        // No new epoch since the last call: the last record, not a mean.
        let again = s.status().demand;
        let last = s.runner.records().last().unwrap();
        assert_eq!(
            (again.demand_w, again.min_w),
            (last.demand_power_w, last.min_power_w)
        );
    }

    #[test]
    fn a_finished_server_reports_inactive() {
        let mut spec = ServerSpec::small("s", "ILP1", 7);
        spec.config.target_instrs = 20_000;
        let mut s = Server::new(&spec, 60.0);
        while !s.is_done() {
            s.step_round(1);
        }
        assert!(!s.status().demand.active);
    }

    #[test]
    fn an_unreachable_target_saturates_the_instruction_total() {
        let mut spec = ServerSpec::small("s", "MID1", 7);
        spec.config.target_instrs = u64::MAX;
        let mut s = Server::new(&spec, 60.0);
        assert_eq!(s.total_target_instrs(), u64::MAX);
        s.step_round(1);
        assert!(!s.is_done());
        assert!(s.instrs() > 0);
    }
}
