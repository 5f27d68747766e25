//! Per-channel scheduling: queues, bank/rank timing state, and the
//! closed-page FCFS command issue logic.

use crate::addr::BANKS_PER_RANK;
use crate::config::{
    burst_time, MC_OVERHEAD, T_CL, T_FAW, T_RAS, T_RCD, T_RFC, T_RP, T_RRD, T_RTP, T_WR,
};
use crate::{Location, MemConfig, MemCounters, PagePolicy, SchedPolicy, RANKS_PER_CHANNEL};
use simkernel::{Freq, Ps};
use std::collections::VecDeque;

/// Writebacks are serviced ahead of reads once this many are queued on a
/// channel (the paper: "until the writeback queue is half-full", cap 64).
const WB_PRIORITY_THRESHOLD: usize = 32;

/// A queued memory request.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Request {
    /// Caller-chosen identifier returned with the completion (reads only).
    pub tag: u64,
    /// Mapped location of the line.
    pub loc: Location,
    /// When the request entered the controller.
    pub arrival: Ps,
    /// Writeback (no completion is reported) vs demand read.
    pub is_write: bool,
}

/// Timing state of one bank.
#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    /// Earliest time the next command (ACT, or CAS under open page) may
    /// start on this bank.
    next_free: Ps,
    /// The currently open row (open-page policy only).
    open_row: Option<u64>,
    /// When the open row was activated (tRAS gate for its precharge).
    last_act: Ps,
    /// Earliest legal precharge (read-to-precharge / write recovery).
    earliest_pre: Ps,
}

/// Timing state shared by all banks of a rank.
#[derive(Clone, Debug)]
struct RankState {
    /// Last ACT issue time (tRRD); `None` before the first ACT.
    last_act: Option<Ps>,
    /// Rolling window of the last four ACT times (tFAW).
    act_window: VecDeque<Ps>,
    /// End of the current "some bank is active" interval, for exact
    /// active-time union accounting (power model input; closed page).
    active_until: Ps,
    /// Number of banks with an open row (open-page active accounting).
    open_banks: u32,
    /// When `open_banks` last rose from zero.
    active_since: Ps,
    /// End of the rank's most recent activity (idle-state management).
    last_activity: Ps,
}

impl RankState {
    fn new() -> Self {
        RankState {
            last_act: None,
            act_window: VecDeque::with_capacity(4),
            active_until: Ps::ZERO,
            open_banks: 0,
            active_since: Ps::ZERO,
            last_activity: Ps::ZERO,
        }
    }

    /// Open-page accounting: a row opened at `t`.
    fn row_opened(&mut self, t: Ps) {
        if self.open_banks == 0 {
            self.active_since = t;
        }
        self.open_banks += 1;
    }

    /// Open-page accounting: a row closed at `t`; returns the newly
    /// completed active span, if the rank went fully idle.
    fn row_closed(&mut self, t: Ps) -> Ps {
        debug_assert!(self.open_banks > 0, "row_closed with no open rows");
        self.open_banks -= 1;
        if self.open_banks == 0 {
            t.saturating_sub(self.active_since)
        } else {
            Ps::ZERO
        }
    }

    /// Earliest ACT permitted by tRRD and tFAW.
    fn act_constraint(&self) -> Ps {
        let rrd = match self.last_act {
            Some(last) => last + T_RRD,
            None => Ps::ZERO,
        };
        let faw = if self.act_window.len() == 4 {
            self.act_window[0] + T_FAW
        } else {
            Ps::ZERO
        };
        rrd.max(faw)
    }

    fn record_act(&mut self, act: Ps) {
        self.last_act = Some(act);
        if self.act_window.len() == 4 {
            self.act_window.pop_front();
        }
        self.act_window.push_back(act);
    }

    /// Adds `[start, end)` to the rank-active union and returns the newly
    /// covered span. ACT issue times are non-decreasing per channel, so a
    /// simple high-water mark computes the exact union.
    fn extend_active(&mut self, start: Ps, end: Ps) -> Ps {
        let covered = if start >= self.active_until {
            end - start
        } else if end > self.active_until {
            end - self.active_until
        } else {
            Ps::ZERO
        };
        self.active_until = self.active_until.max(end);
        covered
    }
}

/// The result of issuing one request.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Issued {
    /// For reads: `(tag, completion_time, latency)` to report to the core.
    pub completion: Option<(u64, Ps, Ps)>,
    /// When the channel should make its next scheduling decision.
    pub next_decision: Ps,
}

/// One memory channel: request queues plus all bank/rank/bus timing state.
#[derive(Clone, Debug)]
pub(crate) struct Channel {
    reads: VecDeque<Request>,
    writes: VecDeque<Request>,
    banks: Vec<Bank>,
    ranks: Vec<RankState>,
    /// Earliest time the shared data bus is free.
    bus_free: Ps,
    /// Last ACT issue time on this channel; command issue stays FCFS.
    last_act_issue: Option<Ps>,
    /// Time of the currently pending Schedule event, if any (dedup).
    pub next_schedule: Option<Ps>,
}

impl Channel {
    pub fn new() -> Self {
        Channel {
            reads: VecDeque::new(),
            writes: VecDeque::new(),
            banks: vec![Bank::default(); RANKS_PER_CHANNEL * BANKS_PER_RANK],
            ranks: (0..RANKS_PER_CHANNEL).map(|_| RankState::new()).collect(),
            bus_free: Ps::ZERO,
            last_act_issue: None,
            next_schedule: None,
        }
    }

    pub fn push_read(&mut self, req: Request) {
        debug_assert!(!req.is_write);
        self.reads.push_back(req);
    }

    pub fn push_write(&mut self, req: Request) {
        debug_assert!(req.is_write);
        self.writes.push_back(req);
    }

    pub fn has_pending(&self) -> bool {
        !self.reads.is_empty() || !self.writes.is_empty()
    }

    pub fn queued_reads(&self) -> usize {
        self.reads.len()
    }

    pub fn queued_writes(&self) -> usize {
        self.writes.len()
    }

    /// Picks the next request. Reads have priority over writebacks until
    /// the writeback queue reaches its threshold (the paper's policy);
    /// under FR-FCFS, the oldest *row-hitting* read bypasses older
    /// conflicting reads.
    fn pick(&mut self, sched: SchedPolicy) -> Option<Request> {
        if self.writes.len() >= WB_PRIORITY_THRESHOLD {
            return self.writes.pop_front();
        }
        if sched == SchedPolicy::FrFcfs {
            let hit = self.reads.iter().position(|r| {
                let bank_idx = r.loc.rank * BANKS_PER_RANK + r.loc.bank;
                self.banks[bank_idx].open_row == Some(r.loc.row)
            });
            if let Some(i) = hit {
                return self.reads.remove(i);
            }
        }
        if let Some(r) = self.reads.pop_front() {
            Some(r)
        } else {
            self.writes.pop_front()
        }
    }

    /// Issues the next request (if any) no earlier than `now`, updating all
    /// timing state and counters. Returns `None` when both queues are empty.
    pub fn issue_next(
        &mut self,
        now: Ps,
        config: &MemConfig,
        bus: Freq,
        counters: &mut MemCounters,
    ) -> Option<Issued> {
        let req = self.pick(config.sched)?;
        match config.page_policy {
            PagePolicy::Closed => Some(self.issue_closed(now, req, config, bus, counters)),
            PagePolicy::Open => Some(self.issue_open(now, req, config, bus, counters)),
        }
    }

    /// Closed-page service: ACT, column access, immediate precharge.
    fn issue_closed(
        &mut self,
        now: Ps,
        req: Request,
        config: &MemConfig,
        bus: Freq,
        counters: &mut MemCounters,
    ) -> Issued {
        let rank = req.loc.rank;
        let bank_idx = rank * BANKS_PER_RANK + req.loc.bank;

        let cmd_cycle = bus.period();
        let act_issue_floor = match self.last_act_issue {
            Some(last) => last + cmd_cycle,
            None => Ps::ZERO,
        };
        // A request cannot be serviced before it arrives; drivers that
        // enqueue future arrivals up front (tests, trace replay) rely on
        // this clamp.
        let act_start = now
            .max(req.arrival)
            .max(self.banks[bank_idx].next_free)
            .max(self.ranks[rank].act_constraint())
            .max(act_issue_floor);
        let act_start = self.wake_rank(rank, act_start, config, counters);

        let burst = burst_time(bus);
        let cas_done = act_start + T_RCD + T_CL;
        let data_start = cas_done.max(self.bus_free);
        let data_end = data_start + burst;

        // Closed-page policy: precharge immediately after the access obeying
        // tRAS and read-to-precharge / write-recovery constraints.
        let pre_start = if req.is_write {
            (act_start + T_RAS).max(data_end + T_WR)
        } else {
            (act_start + T_RAS).max(data_start + T_RTP)
        };
        let bank_free = pre_start + T_RP;

        self.banks[bank_idx].next_free = bank_free;
        self.ranks[rank].record_act(act_start);
        self.bus_free = data_end;
        self.last_act_issue = Some(act_start);

        counters.page_opens += 1;
        counters.page_closes += 1;
        counters.bus_busy += burst;
        counters.rank_active += self.ranks[rank].extend_active(act_start, bank_free);
        self.touch_rank(rank, bank_free);

        let completion = if req.is_write {
            counters.writes += 1;
            None
        } else {
            let done = data_end + MC_OVERHEAD;
            counters.reads += 1;
            counters.read_latency_sum += done - req.arrival;
            counters.bank_wait_sum += act_start - req.arrival;
            counters.bus_wait_sum += data_start - cas_done;
            counters.bank_service_sum += T_RCD + T_CL + burst + MC_OVERHEAD;
            Some((req.tag, done, done - req.arrival))
        };

        Issued {
            completion,
            next_decision: act_start + cmd_cycle,
        }
    }

    /// Open-page service: row hits skip the ACT entirely; conflicts pay a
    /// precharge before the new activation; rows stay open afterwards.
    fn issue_open(
        &mut self,
        now: Ps,
        req: Request,
        config: &MemConfig,
        bus: Freq,
        counters: &mut MemCounters,
    ) -> Issued {
        let rank = req.loc.rank;
        let bank_idx = rank * BANKS_PER_RANK + req.loc.bank;
        let cmd_cycle = bus.period();
        let burst = burst_time(bus);
        let floor = now.max(req.arrival);
        let floor = self.wake_rank(rank, floor, config, counters);

        let bank = self.banks[bank_idx];
        let (cas_start, service_floor, opened_act) = match bank.open_row {
            Some(row) if row == req.loc.row => {
                // Row hit: column command as soon as the bank is ready.
                counters.row_hits += 1;
                let cas = floor.max(bank.next_free);
                (cas, T_CL, None)
            }
            Some(_) => {
                // Row conflict: precharge (honouring tRAS and read/write
                // recovery), then activate the new row.
                counters.row_conflicts += 1;
                counters.page_closes += 1;
                counters.page_opens += 1;
                let pre_start = floor
                    .max(bank.next_free)
                    .max(bank.last_act + T_RAS)
                    .max(bank.earliest_pre);
                counters.rank_active += self.ranks[rank].row_closed(pre_start);
                let act = (pre_start + T_RP)
                    .max(self.ranks[rank].act_constraint())
                    .max(self.act_issue_floor(cmd_cycle));
                (act + T_RCD, T_RP + T_RCD + T_CL, Some(act))
            }
            None => {
                // Row empty (initial state or just refreshed): activate.
                counters.page_opens += 1;
                let act = floor
                    .max(bank.next_free)
                    .max(self.ranks[rank].act_constraint())
                    .max(self.act_issue_floor(cmd_cycle));
                (act + T_RCD, T_RCD + T_CL, Some(act))
            }
        };

        let cas_done = cas_start + T_CL;
        let data_start = cas_done.max(self.bus_free);
        let data_end = data_start + burst;

        if let Some(act) = opened_act {
            self.ranks[rank].record_act(act);
            self.ranks[rank].row_opened(act);
            self.last_act_issue = Some(act);
            self.banks[bank_idx].last_act = act;
        }
        self.banks[bank_idx].open_row = Some(req.loc.row);
        self.banks[bank_idx].next_free = data_end;
        self.banks[bank_idx].earliest_pre = if req.is_write {
            data_end + T_WR
        } else {
            data_start + T_RTP
        };
        self.bus_free = data_end;
        self.touch_rank(rank, data_end);

        counters.bus_busy += burst;

        let completion = if req.is_write {
            counters.writes += 1;
            None
        } else {
            let done = data_end + MC_OVERHEAD;
            counters.reads += 1;
            counters.read_latency_sum += done - req.arrival;
            // Queue wait: everything before the column/activate sequence
            // could begin.
            let service = service_floor + burst + MC_OVERHEAD;
            counters.bank_wait_sum += (done - req.arrival)
                .saturating_sub(service)
                .saturating_sub(data_start - cas_done);
            counters.bus_wait_sum += data_start - cas_done;
            counters.bank_service_sum += service;
            Some((req.tag, done, done - req.arrival))
        };

        Issued {
            completion,
            next_decision: cas_start.max(now) + cmd_cycle,
        }
    }

    /// Idle-state management: if the rank slept past its idle threshold,
    /// account the sleep span and delay `start` by the exit penalty.
    /// Returns the possibly-delayed start time.
    fn wake_rank(
        &mut self,
        rank: usize,
        start: Ps,
        config: &MemConfig,
        counters: &mut MemCounters,
    ) -> Ps {
        let Some(policy) = config.idle_policy else {
            return start;
        };
        let r = &mut self.ranks[rank];
        let sleep_from = r.last_activity + policy.threshold;
        if start > sleep_from {
            counters.rank_sleep += start - sleep_from;
            counters.sleep_wakeups += 1;
            start + policy.mode.exit_penalty()
        } else {
            start
        }
    }

    /// Records the end of an access on `rank` for idle-state tracking.
    fn touch_rank(&mut self, rank: usize, end: Ps) {
        let r = &mut self.ranks[rank];
        r.last_activity = r.last_activity.max(end);
    }

    fn act_issue_floor(&self, cmd_cycle: Ps) -> Ps {
        match self.last_act_issue {
            Some(last) => last + cmd_cycle,
            None => Ps::ZERO,
        }
    }

    /// Blocks every bank in `rank` for one refresh cycle starting no earlier
    /// than `now` (and no earlier than any in-flight access to the rank).
    pub fn refresh_rank(&mut self, now: Ps, rank: usize, counters: &mut MemCounters) {
        let base = rank * BANKS_PER_RANK;
        let mut start = now;
        for b in 0..BANKS_PER_RANK {
            start = start.max(self.banks[base + b].next_free);
        }
        let end = start + T_RFC;
        for b in 0..BANKS_PER_RANK {
            let bank = &mut self.banks[base + b];
            bank.next_free = end;
            if bank.open_row.take().is_some() {
                counters.page_closes += 1;
                counters.rank_active += self.ranks[rank].row_closed(start);
            }
        }
        counters.refreshes += 1;
    }

    /// Closes every open row at `now` (entering powerdown for a frequency
    /// recalibration implies precharging, §3).
    pub fn close_all_rows(&mut self, now: Ps, counters: &mut MemCounters) {
        for rank in 0..self.ranks.len() {
            for b in 0..BANKS_PER_RANK {
                let bank = &mut self.banks[rank * BANKS_PER_RANK + b];
                if bank.open_row.take().is_some() {
                    counters.page_closes += 1;
                    counters.rank_active += self.ranks[rank].row_closed(now);
                }
            }
        }
    }

    /// Pushes all timing state past a frequency-recalibration stall ending
    /// at `until`.
    pub fn stall_until(&mut self, until: Ps) {
        self.bus_free = self.bus_free.max(until);
        for b in &mut self.banks {
            b.next_free = b.next_free.max(until);
        }
    }
}

#[cfg(test)]
// Tests build counter/config fixtures incrementally from defaults on purpose.
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::addr::LINES_PER_ROW;
    use crate::map_line;
    use crate::LineAddr;
    use crate::CHANNELS;

    fn setup() -> (MemConfig, Channel, MemCounters) {
        let config = MemConfig::default();
        let ch = Channel::new();
        (config, ch, MemCounters::default())
    }

    fn read_to(config: &MemConfig, line: u64, arrival: Ps) -> Request {
        Request {
            tag: line,
            loc: map_line(config, LineAddr(line)),
            arrival,
            is_write: false,
        }
    }

    #[test]
    fn empty_channel_issues_nothing() {
        let (config, mut ch, mut c) = setup();
        assert!(ch
            .issue_next(Ps::ZERO, &config, Freq::from_mhz(800), &mut c)
            .is_none());
    }

    #[test]
    fn single_read_latency_is_unloaded_service_time() {
        let (config, mut ch, mut c) = setup();
        ch.push_read(read_to(&config, 0, Ps::ZERO));
        let issued = ch
            .issue_next(Ps::ZERO, &config, Freq::from_mhz(800), &mut c)
            .unwrap();
        let (tag, done, _lat) = issued.completion.unwrap();
        assert_eq!(tag, 0);
        // tRCD(15) + tCL(15) + burst(5 @ 800MHz) + overhead(5) = 40 ns.
        assert_eq!(done, Ps::from_ns(40));
        assert_eq!(c.reads, 1);
        assert_eq!(c.avg_read_latency(), Ps::from_ns(40));
        assert_eq!(c.bank_wait_sum, Ps::ZERO);
        assert_eq!(c.bus_wait_sum, Ps::ZERO);
    }

    #[test]
    fn lower_frequency_lengthens_burst_only() {
        let (config, mut ch, mut c) = setup();
        ch.push_read(read_to(&config, 0, Ps::ZERO));
        let done = ch
            .issue_next(Ps::ZERO, &config, Freq::from_mhz(200), &mut c)
            .unwrap()
            .completion
            .unwrap()
            .1;
        // Burst grows from 5 ns to 20 ns => 55 ns total.
        assert_eq!(done, Ps::from_ns(55));
    }

    #[test]
    fn same_bank_requests_serialize_on_trc() {
        let (config, mut ch, mut c) = setup();
        // Lines 0 and 64 both map to channel 0; make both hit bank 0 rank 0:
        // line k*4*8*4 advances the row only.
        let stride = (CHANNELS * BANKS_PER_RANK * RANKS_PER_CHANNEL) as u64;
        ch.push_read(read_to(&config, 0, Ps::ZERO));
        ch.push_read(read_to(&config, stride, Ps::ZERO));
        let f = Freq::from_mhz(800);
        let first = ch.issue_next(Ps::ZERO, &config, f, &mut c).unwrap();
        let second = ch
            .issue_next(first.next_decision, &config, f, &mut c)
            .unwrap();
        // Bank is busy until pre_start + tRP; for a read issued at 0:
        // pre = max(tRAS, tRCD+tCL+bus_wait(0)... data_start(30)+tRTP).
        let pre = T_RAS.max(T_RCD + T_CL + T_RTP);
        let bank_free = pre + T_RP;
        let expected_done = bank_free + T_RCD + T_CL + burst_time(f) + MC_OVERHEAD;
        assert_eq!(second.completion.unwrap().1, expected_done);
        // The second read observed a bank wait.
        assert!(c.bank_wait_sum > Ps::ZERO);
    }

    #[test]
    fn different_banks_overlap_but_share_bus() {
        let (config, mut ch, mut c) = setup();
        // Lines 0 and 4 are channel 0, banks 0 and 1.
        ch.push_read(read_to(&config, 0, Ps::ZERO));
        ch.push_read(read_to(&config, 4, Ps::ZERO));
        let f = Freq::from_mhz(800);
        let first = ch.issue_next(Ps::ZERO, &config, f, &mut c).unwrap();
        let second = ch
            .issue_next(first.next_decision, &config, f, &mut c)
            .unwrap();
        let d1 = first.completion.unwrap().1;
        let d2 = second.completion.unwrap().1;
        // Overlapped in the banks: far less than full serialization, but
        // bursts cannot overlap on the bus.
        let burst = burst_time(f);
        assert!(d2 >= d1 + burst - MC_OVERHEAD);
        assert!(d2 < d1 + Ps::from_ns(20));
    }

    #[test]
    fn bus_conflict_is_counted_as_bus_wait() {
        let (config, mut ch, mut c) = setup();
        for k in 0..4u64 {
            ch.push_read(read_to(&config, k * 4, Ps::ZERO)); // banks 0..3
        }
        let f = Freq::from_mhz(200); // long 20ns bursts force bus conflicts
        let mut now = Ps::ZERO;
        for _ in 0..4 {
            let i = ch.issue_next(now, &config, f, &mut c).unwrap();
            now = i.next_decision;
        }
        assert!(c.bus_wait_sum > Ps::ZERO, "expected bus queueing");
    }

    #[test]
    fn writeback_priority_kicks_in_at_threshold() {
        let (config, mut ch, mut c) = setup();
        ch.push_read(read_to(&config, 0, Ps::ZERO));
        for k in 0..WB_PRIORITY_THRESHOLD as u64 {
            ch.push_write(Request {
                tag: 100 + k,
                loc: map_line(&config, LineAddr(4 * k)),
                arrival: Ps::ZERO,
                is_write: true,
            });
        }
        // Threshold reached: the write goes first even though a read waits.
        let first = ch
            .issue_next(Ps::ZERO, &config, Freq::from_mhz(800), &mut c)
            .unwrap();
        assert!(first.completion.is_none());
        assert_eq!(c.writes, 1);
        // Below threshold again: the read goes next.
        let second = ch
            .issue_next(first.next_decision, &config, Freq::from_mhz(800), &mut c)
            .unwrap();
        assert!(second.completion.is_some());
    }

    #[test]
    fn reads_beat_writes_below_threshold() {
        let (config, mut ch, mut c) = setup();
        ch.push_write(Request {
            tag: 1,
            loc: map_line(&config, LineAddr(0)),
            arrival: Ps::ZERO,
            is_write: true,
        });
        ch.push_read(read_to(&config, 4, Ps::ZERO));
        let first = ch
            .issue_next(Ps::ZERO, &config, Freq::from_mhz(800), &mut c)
            .unwrap();
        assert!(first.completion.is_some(), "read should issue first");
    }

    #[test]
    fn tfaw_limits_act_rate() {
        let (config, mut ch, mut c) = setup();
        // Five requests to five different banks of rank 0 (channel 0).
        for k in 0..5u64 {
            ch.push_read(read_to(&config, k * 4, Ps::ZERO));
        }
        let f = Freq::from_mhz(800);
        let mut now = Ps::ZERO;
        let mut acts = Vec::new();
        for _ in 0..5 {
            let i = ch.issue_next(now, &config, f, &mut c).unwrap();
            // next_decision = act + one bus cycle, so recover the ACT time.
            acts.push(i.next_decision - f.period());
            now = i.next_decision;
        }
        // The fifth ACT must start at least tFAW after the first.
        assert!(acts[4] >= acts[0] + T_FAW);
        // And consecutive ACTs obey tRRD.
        for w in acts.windows(2) {
            assert!(w[1] >= w[0] + T_RRD);
        }
    }

    #[test]
    fn refresh_blocks_all_banks_of_rank() {
        let (config, mut ch, mut c) = setup();
        ch.refresh_rank(Ps::from_ns(100), 0, &mut c);
        assert_eq!(c.refreshes, 1);
        ch.push_read(read_to(&config, 0, Ps::from_ns(100)));
        let done = ch
            .issue_next(Ps::from_ns(100), &config, Freq::from_mhz(800), &mut c)
            .unwrap()
            .completion
            .unwrap()
            .1;
        // Can't start until refresh ends at 100 + 110 = 210 ns.
        assert_eq!(done, Ps::from_ns(210 + 40));
    }

    #[test]
    fn stall_pushes_all_timing_state() {
        let (config, mut ch, mut c) = setup();
        ch.stall_until(Ps::from_us(3));
        ch.push_read(read_to(&config, 0, Ps::ZERO));
        let done = ch
            .issue_next(Ps::ZERO, &config, Freq::from_mhz(800), &mut c)
            .unwrap()
            .completion
            .unwrap()
            .1;
        assert!(done >= Ps::from_us(3));
    }

    fn open_config() -> MemConfig {
        let mut c = MemConfig::default();
        c.page_policy = crate::PagePolicy::Open;
        c.addr_map = crate::AddrMap::RowInterleaved;
        c
    }

    #[test]
    fn open_page_row_hit_skips_activation() {
        let config = open_config();
        let mut ch = Channel::new();
        let mut c = MemCounters::default();
        let f = Freq::from_mhz(800);
        // Two consecutive lines share a row under row interleaving.
        ch.push_read(read_to(&config, 0, Ps::ZERO));
        ch.push_read(read_to(&config, 1, Ps::ZERO));
        let first = ch.issue_next(Ps::ZERO, &config, f, &mut c).unwrap();
        let d1 = first.completion.unwrap().1;
        // First access: row empty -> ACT + CAS: 15 + 15 + 5 + 5 = 40 ns.
        assert_eq!(d1, Ps::from_ns(40));
        assert_eq!(c.page_opens, 1);
        assert_eq!(c.row_hits, 0);
        let second = ch
            .issue_next(first.next_decision, &config, f, &mut c)
            .unwrap();
        let d2 = second.completion.unwrap().1;
        assert_eq!(c.row_hits, 1);
        // Hit pays only CAS + burst (+ overhead) once the bus frees up.
        assert!(d2 <= d1 + Ps::from_ns(25), "hit too slow: {d2}");
        // No extra activation happened.
        assert_eq!(c.page_opens, 1);
    }

    #[test]
    fn open_page_conflict_pays_precharge() {
        let config = open_config();
        let mut ch = Channel::new();
        let mut c = MemCounters::default();
        let f = Freq::from_mhz(800);
        // Same channel+bank, different row: lines 0 and LINES_PER_ROW*chunk
        // where chunk advances past all channels/banks/ranks.
        let stride = LINES_PER_ROW * (CHANNELS * BANKS_PER_RANK * RANKS_PER_CHANNEL) as u64;
        ch.push_read(read_to(&config, 0, Ps::ZERO));
        ch.push_read(read_to(&config, stride, Ps::ZERO));
        let first = ch.issue_next(Ps::ZERO, &config, f, &mut c).unwrap();
        let second = ch
            .issue_next(first.next_decision, &config, f, &mut c)
            .unwrap();
        assert_eq!(c.row_conflicts, 1);
        let d1 = first.completion.unwrap().1;
        let d2 = second.completion.unwrap().1;
        // Conflict waits for tRAS (35ns from ACT), precharges (15ns), then
        // re-activates (15+15+5+5).
        assert!(
            d2 >= d1 + Ps::from_ns(40),
            "conflict too fast: {d1} -> {d2}"
        );
    }

    #[test]
    fn frfcfs_promotes_row_hits() {
        let mut config = open_config();
        config.sched = crate::SchedPolicy::FrFcfs;
        let mut ch = Channel::new();
        let mut c = MemCounters::default();
        let f = Freq::from_mhz(800);
        let stride = LINES_PER_ROW * (CHANNELS * BANKS_PER_RANK * RANKS_PER_CHANNEL) as u64;
        // Open row 0 with the first request, then queue a conflicting
        // request followed by a row hit: FR-FCFS services the hit first.
        ch.push_read(read_to(&config, 0, Ps::ZERO));
        let first = ch.issue_next(Ps::ZERO, &config, f, &mut c).unwrap();
        ch.push_read(read_to(&config, stride, Ps::ZERO)); // conflict, older
        ch.push_read(read_to(&config, 1, Ps::ZERO)); // hit, younger
        let second = ch
            .issue_next(first.next_decision, &config, f, &mut c)
            .unwrap();
        assert_eq!(second.completion.unwrap().0, 1, "row hit must go first");
        assert_eq!(c.row_hits, 1);
    }

    #[test]
    fn open_page_refresh_closes_rows() {
        let config = open_config();
        let mut ch = Channel::new();
        let mut c = MemCounters::default();
        let f = Freq::from_mhz(800);
        ch.push_read(read_to(&config, 0, Ps::ZERO));
        let first = ch.issue_next(Ps::ZERO, &config, f, &mut c).unwrap();
        ch.refresh_rank(first.completion.unwrap().1, 0, &mut c);
        assert_eq!(c.page_closes, 1);
        // The next access to the same row must re-activate.
        ch.push_read(read_to(&config, 1, Ps::from_us(1)));
        let _ = ch.issue_next(Ps::from_us(1), &config, f, &mut c).unwrap();
        assert_eq!(c.page_opens, 2);
        assert_eq!(c.row_hits, 0);
    }

    #[test]
    fn open_page_rank_active_tracks_open_rows() {
        let config = open_config();
        let mut ch = Channel::new();
        let mut c = MemCounters::default();
        let f = Freq::from_mhz(800);
        ch.push_read(read_to(&config, 0, Ps::ZERO));
        let first = ch.issue_next(Ps::ZERO, &config, f, &mut c).unwrap();
        // While the row is open, rank_active has not been credited yet.
        assert_eq!(c.rank_active, Ps::ZERO);
        let close_at = Ps::from_us(3);
        ch.close_all_rows(close_at, &mut c);
        // Row was open from ACT (t=0) until the forced close.
        assert_eq!(c.rank_active, close_at);
        let _ = first;
    }

    #[test]
    fn idle_policy_sleeps_and_pays_wake_penalty() {
        let mut config = MemConfig::default();
        config.idle_policy = Some(crate::IdleMemPolicy {
            threshold: Ps::from_us(1),
            mode: crate::IdleMode::SelfRefresh,
        });
        let mut ch = Channel::new();
        let mut c = MemCounters::default();
        let f = Freq::from_mhz(800);
        // Rank idle since t=0; access at t = 10 µs: slept 9 µs, pays exit.
        let at = Ps::from_us(10);
        ch.push_read(read_to(&config, 0, at));
        let done = ch
            .issue_next(at, &config, f, &mut c)
            .unwrap()
            .completion
            .unwrap()
            .1;
        assert_eq!(c.sleep_wakeups, 1);
        assert_eq!(c.rank_sleep, Ps::from_us(9));
        // 640 ns exit penalty + 40 ns unloaded service.
        assert_eq!(done, at + Ps::from_ns(640) + Ps::from_ns(40));
    }

    #[test]
    fn busy_rank_never_sleeps() {
        let mut config = MemConfig::default();
        config.idle_policy = Some(crate::IdleMemPolicy {
            threshold: Ps::from_us(1),
            mode: crate::IdleMode::Powerdown,
        });
        let mut ch = Channel::new();
        let mut c = MemCounters::default();
        let f = Freq::from_mhz(800);
        // Back-to-back accesses to rank 0 (banks 0..8), gaps far under the
        // threshold.
        let mut now = Ps::ZERO;
        for i in 0..8u64 {
            ch.push_read(read_to(&config, i * 4, now));
            let issued = ch.issue_next(now, &config, f, &mut c).unwrap();
            now = issued.completion.unwrap().1 + Ps::from_ns(100);
        }
        // The first access arrives at t=0, before the rank could sleep, and
        // every gap stays under the threshold: no wakeups at all.
        assert_eq!(c.sleep_wakeups, 0);
        assert_eq!(c.rank_sleep, Ps::ZERO);
    }

    #[test]
    fn powerdown_exit_is_cheaper_than_self_refresh() {
        let run = |mode: crate::IdleMode| {
            let mut config = MemConfig::default();
            config.idle_policy = Some(crate::IdleMemPolicy {
                threshold: Ps::from_us(1),
                mode,
            });
            let mut ch = Channel::new();
            let mut c = MemCounters::default();
            let at = Ps::from_us(50);
            ch.push_read(read_to(&config, 0, at));
            ch.issue_next(at, &config, Freq::from_mhz(800), &mut c)
                .unwrap()
                .completion
                .unwrap()
                .1
        };
        assert!(run(crate::IdleMode::Powerdown) < run(crate::IdleMode::SelfRefresh));
    }

    #[test]
    fn rank_active_union_does_not_double_count() {
        let mut r = RankState::new();
        assert_eq!(
            r.extend_active(Ps::from_ns(0), Ps::from_ns(50)),
            Ps::from_ns(50)
        );
        // Fully contained: adds nothing.
        assert_eq!(r.extend_active(Ps::from_ns(10), Ps::from_ns(40)), Ps::ZERO);
        // Partial overlap: only the new tail counts.
        assert_eq!(
            r.extend_active(Ps::from_ns(30), Ps::from_ns(80)),
            Ps::from_ns(30)
        );
        // Disjoint: full span counts.
        assert_eq!(
            r.extend_active(Ps::from_ns(100), Ps::from_ns(120)),
            Ps::from_ns(20)
        );
    }
}
