//! Closed-loop clients: the interactive request → response → think cycle.
//!
//! The open-loop arrival processes in [`crate::arrivals`] keep offering
//! load no matter how slowly the fleet serves — a capped hot server just
//! sheds. Real interactive load is *closed-loop*: a finite population of
//! clients each keeps at most one request outstanding, waits for the
//! response, thinks for an exponentially distributed while, and only then
//! issues again. Offered load therefore self-throttles when servers slow
//! down, and the in-flight request count is bounded by the population —
//! the classic machine-repairman model.
//!
//! Clients interact with the fleet only at round barriers: every response
//! (or shed, or abandonment) is delivered to its client at the barrier
//! closing the round, and the requests that became ready during the next
//! round's window are issued — each balanced onto a server as it streams
//! out — at the barrier opening it. Each client draws think times and request sizes
//! from its own forked RNG stream, so the outcome is independent of the
//! order responses arrive in and of which server served the request:
//! closed-loop runs stay bit-identical for any worker thread count.

use crate::config::ClosedLoopConfig;
use crate::queue::{Caller, Request};
use simkernel::{Ps, SimRng};

/// One client: its private RNG stream and where it is in the cycle.
#[derive(Clone, Debug)]
struct Client {
    rng: SimRng,
    /// `Some(t)` — thinking, ready to issue at `t`. `None` — a request is
    /// in flight (issued but not yet resolved back to the client).
    ready_at: Option<Ps>,
}

/// A seeded population of closed-loop clients.
#[derive(Clone, Debug)]
pub struct ClientPool {
    clients: Vec<Client>,
    mean_think: Ps,
    mean_request_instrs: f64,
    generated: u64,
    responses: u64,
}

impl ClientPool {
    /// A population per `cfg`, every client ready to issue immediately.
    pub fn new(cfg: &ClosedLoopConfig) -> ClientPool {
        let mut root = SimRng::new(cfg.seed);
        let clients = (0..cfg.clients)
            .map(|i| Client {
                rng: root.fork(i as u64),
                ready_at: Some(Ps::ZERO),
            })
            .collect();
        ClientPool {
            clients,
            mean_think: cfg.mean_think,
            mean_request_instrs: cfg.mean_request_instrs,
            generated: 0,
            responses: 0,
        }
    }
}

/// A closed-loop client population as the serving loop sees it: the exact
/// [`ClientPool`] or the aggregated [`crate::FluidPool`], chosen once by
/// [`crate::ClientModel`]. Clients meet the fleet only at barriers:
/// [`ClientPopulation::issue`] opens a round's window and
/// [`ClientPopulation::deliver`] hands each response back.
pub trait ClientPopulation {
    /// Population size.
    fn len(&self) -> usize;

    /// Whether the population is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests issued so far.
    fn generated(&self) -> u64;

    /// Responses (completions, sheds and abandonments) delivered so far.
    fn responses(&self) -> u64;

    /// Clients currently thinking (or ready to issue).
    fn thinking(&self) -> usize;

    /// Clients with a request in flight.
    fn waiting(&self) -> usize;

    /// Delivers the response to `client`'s request at time `at`.
    fn deliver(&mut self, client: u32, at: Ps);

    /// Issues the requests that become ready before `to`, stamping
    /// arrivals into `[from, to)`, and passes each to `sink` in arrival
    /// order. Nothing collects the round's requests: a caller that routes
    /// each one straight to a server's queue never holds the batch.
    fn issue(&mut self, from: Ps, to: Ps, sink: &mut dyn FnMut(Request));
}

impl ClientPopulation for ClientPool {
    fn len(&self) -> usize {
        self.clients.len()
    }

    fn generated(&self) -> u64 {
        self.generated
    }

    fn responses(&self) -> u64 {
        self.responses
    }

    fn thinking(&self) -> usize {
        self.clients.iter().filter(|c| c.ready_at.is_some()).count()
    }

    fn waiting(&self) -> usize {
        self.clients.len() - self.thinking()
    }

    /// The client starts an exponential think and becomes ready at
    /// `at + think`. Shed and abandoned requests are delivered the same
    /// way — the client simply tries again after thinking.
    ///
    /// # Panics
    ///
    /// Panics if the client has no request in flight (a double delivery
    /// would break conservation).
    fn deliver(&mut self, client: u32, at: Ps) {
        let c = &mut self.clients[client as usize];
        assert!(
            c.ready_at.is_none(),
            "client {client}: response delivered while thinking"
        );
        let think = exp_think(&mut c.rng, self.mean_think);
        c.ready_at = Some(at + think);
        self.responses += 1;
    }

    /// A client ready before the window start issues at `from` — it was
    /// waiting for the barrier. Request sizes are uniform in
    /// `[0.5, 1.5] ×` the configured mean, drawn from the issuing client's
    /// stream. Ties go to the lower client index. The exact pool is
    /// small, so it sorts its batch before streaming it.
    fn issue(&mut self, from: Ps, to: Ps, sink: &mut dyn FnMut(Request)) {
        let mut batch = Vec::new();
        for (i, c) in self.clients.iter_mut().enumerate() {
            let Some(at) = c.ready_at else { continue };
            if at >= to {
                continue;
            }
            let size = self.mean_request_instrs * (0.5 + c.rng.f64());
            c.ready_at = None;
            self.generated += 1;
            batch.push((at.max(from), i as u32, size));
        }
        batch.sort_by_key(|&(arrival, client, _)| (arrival, client));
        for (arrival, client, size) in batch {
            sink(Request {
                arrival,
                remaining_instrs: size,
                caller: Some(Caller::Client(client)),
            });
        }
    }
}

/// An exponential think time with the given mean (zero mean → zero think).
fn exp_think(rng: &mut SimRng, mean: Ps) -> Ps {
    if mean == Ps::ZERO {
        return Ps::ZERO;
    }
    // -ln(1-u) with u in [0,1): finite, since 1-u is in (0,1].
    let e = -(1.0 - rng.f64()).ln();
    Ps::from_secs_f64(mean.as_secs_f64() * e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClosedLoopConfig;
    use cluster::BalancePolicy;

    /// Collects one `issue` call's stream.
    fn issued(p: &mut ClientPool, from: Ps, to: Ps) -> Vec<Request> {
        let mut batch = Vec::new();
        p.issue(from, to, &mut |r| batch.push(r));
        batch
    }

    fn pool(clients: usize, think_us: u64) -> ClientPool {
        ClientPool::new(
            &ClosedLoopConfig::new(clients, Ps::from_us(think_us), BalancePolicy::RoundRobin)
                .with_seed(7),
        )
    }

    #[test]
    fn population_bounds_outstanding_requests() {
        let mut p = pool(5, 0);
        let batch = issued(&mut p, Ps::ZERO, Ps::from_ms(1));
        assert_eq!(batch.len(), 5, "everyone starts ready");
        assert_eq!(p.waiting(), 5);
        // Nobody can issue again until a response lands.
        assert!(issued(&mut p, Ps::from_ms(1), Ps::from_ms(2)).is_empty());
        p.deliver(2, Ps::from_ms(1));
        let again = issued(&mut p, Ps::from_ms(1), Ps::from_ms(2));
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].caller, Some(Caller::Client(2)));
        assert_eq!(p.generated(), 6);
        assert_eq!(p.responses(), 1);
    }

    #[test]
    fn zero_think_reissues_at_the_window_start() {
        let mut p = pool(1, 0);
        issued(&mut p, Ps::ZERO, Ps::from_ms(1));
        p.deliver(0, Ps::from_us(300));
        let batch = issued(&mut p, Ps::from_ms(1), Ps::from_ms(2));
        // Became ready at 300 µs, but the barrier holds it until 1 ms.
        assert_eq!(batch[0].arrival, Ps::from_ms(1));
    }

    #[test]
    fn think_times_are_exponential_with_the_configured_mean() {
        let mut rng = SimRng::new(42);
        let mean = Ps::from_us(500);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| exp_think(&mut rng, mean).as_secs_f64())
            .sum();
        let sample_mean_us = total / n as f64 * 1e6;
        assert!(
            (sample_mean_us - 500.0).abs() < 15.0,
            "mean {sample_mean_us} µs"
        );
    }

    #[test]
    fn delivery_order_does_not_change_a_clients_future() {
        // Two pools, same seed; deliver responses to clients 0 and 1 in
        // opposite orders. Each client's next think/size draws must match.
        let mut a = pool(2, 100);
        let mut b = pool(2, 100);
        issued(&mut a, Ps::ZERO, Ps::from_ms(1));
        issued(&mut b, Ps::ZERO, Ps::from_ms(1));
        a.deliver(0, Ps::from_us(10));
        a.deliver(1, Ps::from_us(20));
        b.deliver(1, Ps::from_us(20));
        b.deliver(0, Ps::from_us(10));
        let ba = issued(&mut a, Ps::from_ms(1), Ps::from_ms(2));
        let bb = issued(&mut b, Ps::from_ms(1), Ps::from_ms(2));
        assert_eq!(ba.len(), bb.len());
        for (x, y) in ba.iter().zip(&bb) {
            assert_eq!(x.caller, y.caller);
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.remaining_instrs.to_bits(), y.remaining_instrs.to_bits());
        }
    }

    #[test]
    fn thinking_clients_hold_their_requests_past_the_window() {
        let mut p = pool(1, 0);
        issued(&mut p, Ps::ZERO, Ps::from_ms(1));
        // Response lands late; the client is ready only at 5 ms.
        p.deliver(0, Ps::from_ms(5));
        assert!(issued(&mut p, Ps::from_ms(1), Ps::from_ms(2)).is_empty());
        let batch = issued(&mut p, Ps::from_ms(5), Ps::from_ms(6));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].arrival, Ps::from_ms(5));
    }
}
