use std::collections::VecDeque;
use twig_stats::rng::Rng;

/// FCFS request queue of one service.
///
/// Requests arrive as a Poisson process and are served one at a time by the
/// service's *aggregate* core allocation (the gang/fork-join model described
/// in `DESIGN.md`): the per-request duration passed to
/// [`run_epoch`](Self::run_epoch) already folds in core count, DVFS and
/// interference via [`ServiceSpec::request_duration_ms`]. State (backlog,
/// in-flight request) carries across epochs, so a manager decision that
/// under-provisions one second is still paying for it the next.
///
/// [`ServiceSpec::request_duration_ms`]: crate::ServiceSpec::request_duration_ms
///
/// # Examples
///
/// ```
/// use twig_stats::rng::Xoshiro256;
/// use twig_sim::ServiceQueue;
///
/// let mut q = ServiceQueue::new();
/// let mut rng = Xoshiro256::seed_from_u64(1);
/// // One epoch: 1000 RPS with 0.3 ms requests — lightly loaded.
/// let stats = q.run_epoch(0.0, 1.0, 1000.0, 0.3, 0.5, &mut rng);
/// assert!(stats.completed > 800);
/// assert!(stats.busy_s < 0.6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServiceQueue {
    backlog: VecDeque<f64>,
    free_at: f64,
    in_flight: Option<InFlight>,
    dropped_total: u64,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    arrival: f64,
    completion: f64,
}

/// Maximum queued requests before new arrivals are dropped; sustained
/// overload keeps the queue saturated rather than consuming unbounded
/// memory, and drops are reported so callers can fold them into the tail.
const BACKLOG_CAP: usize = 50_000;

/// Per-epoch results of [`ServiceQueue::run_epoch`]: the completion
/// latencies plus the fields of [`EpochQueueCounts`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochQueueStats {
    /// Latencies (ms) of the requests that *completed* during the epoch, in
    /// completion order.
    pub latencies_ms: Vec<f64>,
    /// Number of completed requests.
    pub completed: usize,
    /// Arrivals dropped because the backlog was saturated.
    pub dropped: u64,
    /// Seconds the (aggregate) server was busy within the epoch.
    pub busy_s: f64,
    /// Requests still queued at the end of the epoch.
    pub queue_len: usize,
    /// Requests that arrived during the epoch.
    pub arrivals: usize,
    /// Requests abandoned by their clients after waiting `timeout_s`.
    pub timed_out: u64,
}

/// Per-epoch counts of [`ServiceQueue::run_epoch_into`], whose latencies go
/// to the caller's buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochQueueCounts {
    /// Number of completed requests (latencies appended to the sink).
    pub completed: usize,
    /// Arrivals dropped because the backlog was saturated.
    pub dropped: u64,
    /// Seconds the (aggregate) server was busy within the epoch.
    pub busy_s: f64,
    /// Requests still queued at the end of the epoch.
    pub queue_len: usize,
    /// Requests that arrived during the epoch.
    pub arrivals: usize,
    /// Requests abandoned by their clients after waiting `timeout_s`.
    pub timed_out: u64,
}

impl ServiceQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all queue state.
    pub fn reset(&mut self) {
        self.backlog.clear();
        self.free_at = 0.0;
        self.in_flight = None;
        self.dropped_total = 0;
    }

    /// Current backlog length.
    pub fn queue_len(&self) -> usize {
        self.backlog.len()
    }

    /// Arrivals dropped due to backlog saturation since creation or the last
    /// [`reset`](Self::reset).
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total
    }

    /// Simulates the interval `[t0, t1)`.
    ///
    /// `arrival_rate` is in requests/second, `mean_duration_ms` is the mean
    /// per-request service time under the *current* resource allocation and
    /// interference, and `cv` the lognormal coefficient of variation of the
    /// per-request work.
    ///
    /// # Panics
    ///
    /// Panics if `t1 <= t0` or any parameter is negative/NaN.
    pub fn run_epoch<R: Rng>(
        &mut self,
        t0: f64,
        t1: f64,
        arrival_rate: f64,
        mean_duration_ms: f64,
        cv: f64,
        rng: &mut R,
    ) -> EpochQueueStats {
        let mut latencies_ms = Vec::new();
        let counts = self.run_epoch_into(
            t0,
            t1,
            arrival_rate,
            mean_duration_ms,
            cv,
            f64::INFINITY,
            rng,
            &mut latencies_ms,
        );
        EpochQueueStats {
            latencies_ms,
            completed: counts.completed,
            dropped: counts.dropped,
            busy_s: counts.busy_s,
            queue_len: counts.queue_len,
            arrivals: counts.arrivals,
            timed_out: counts.timed_out,
        }
    }

    /// [`run_epoch`](Self::run_epoch) with a client timeout, appending the
    /// completion latencies (ms, in completion order) to `latencies_ms`
    /// instead of returning them, so a caller stepping many epochs reuses
    /// one buffer.
    ///
    /// Requests that have waited longer than `timeout_s` are abandoned by
    /// their client: the server skips them and each is counted in
    /// `timed_out` (a guaranteed QoS violation for the caller to fold into
    /// the tail). This bounds how long an under-provisioning mistake can
    /// poison the queue — exactly what a real load generator's client
    /// timeouts do.
    ///
    /// # Panics
    ///
    /// Panics if `t1 <= t0` or any parameter is negative/NaN.
    #[allow(clippy::too_many_arguments)]
    pub fn run_epoch_into<R: Rng>(
        &mut self,
        t0: f64,
        t1: f64,
        arrival_rate: f64,
        mean_duration_ms: f64,
        cv: f64,
        timeout_s: f64,
        rng: &mut R,
        latencies_ms: &mut Vec<f64>,
    ) -> EpochQueueCounts {
        assert!(t1 > t0, "epoch [{t0}, {t1}) is empty");
        assert!(
            arrival_rate >= 0.0 && mean_duration_ms >= 0.0 && cv >= 0.0 && timeout_s > 0.0,
            "negative queue parameters"
        );
        let mut stats = EpochQueueCounts::default();
        let already = latencies_ms.len();

        // Arrivals for this epoch (Poisson process).
        if arrival_rate > 0.0 {
            let mut t = t0 + exponential(arrival_rate, rng);
            while t < t1 {
                if self.backlog.len() < BACKLOG_CAP {
                    self.backlog.push_back(t);
                    stats.arrivals += 1;
                } else {
                    stats.dropped += 1;
                    self.dropped_total += 1;
                }
                t += exponential(arrival_rate, rng);
            }
        }

        // Busy time carried over from a request started in a prior epoch.
        if self.free_at > t0 {
            stats.busy_s += self.free_at.min(t1) - t0;
        }

        // The request left in service at the previous epoch boundary.
        if let Some(inflight) = self.in_flight {
            if inflight.completion <= t1 {
                latencies_ms.push((inflight.completion - inflight.arrival) * 1000.0);
                self.in_flight = None;
            }
        }

        // Serve the backlog in FCFS order.
        if mean_duration_ms.is_finite() && mean_duration_ms > 0.0 {
            while let Some(&arrival) = self.backlog.front() {
                let start = arrival.max(self.free_at);
                if start >= t1 {
                    break;
                }
                // Client gave up: skip the request at no serving cost.
                if start - arrival > timeout_s {
                    self.backlog.pop_front();
                    stats.timed_out += 1;
                    continue;
                }
                let duration_s = lognormal(mean_duration_ms, cv, rng) / 1000.0;
                let completion = start + duration_s;
                self.backlog.pop_front();
                self.free_at = completion;
                stats.busy_s += completion.min(t1) - start;
                if completion <= t1 {
                    latencies_ms.push((completion - arrival) * 1000.0);
                } else {
                    self.in_flight = Some(InFlight {
                        arrival,
                        completion,
                    });
                    break;
                }
            }
        }

        // Clients whose requests are still queued past the timeout abandon
        // them even if the server never reached them.
        while let Some(&arrival) = self.backlog.front() {
            if t1 - arrival > timeout_s {
                self.backlog.pop_front();
                stats.timed_out += 1;
            } else {
                break;
            }
        }

        stats.completed = latencies_ms.len() - already;
        stats.queue_len = self.backlog.len();
        stats.busy_s = stats.busy_s.min(t1 - t0);
        stats
    }
}

/// Samples an exponential inter-arrival gap with the given rate.
fn exponential<R: Rng>(rate: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.range_f64(f64::EPSILON, 1.0);
    -u.ln() / rate
}

/// Samples a lognormal value with the given mean and coefficient of
/// variation (standard Box-Muller under the hood).
fn lognormal<R: Rng>(mean: f64, cv: f64, rng: &mut R) -> f64 {
    if cv == 0.0 {
        return mean;
    }
    let sigma2 = (1.0 + cv * cv).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    let z = standard_normal(rng);
    (mu + sigma2.sqrt() * z).exp()
}

/// Samples a standard normal via Box-Muller.
pub(crate) fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.range_f64(f64::EPSILON, 1.0);
    let u2: f64 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_stats::rng::Xoshiro256;

    fn rng(seed: u64) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(seed)
    }

    #[test]
    fn light_load_latency_close_to_service_time() {
        let mut q = ServiceQueue::new();
        let mut r = rng(7);
        let mut all = Vec::new();
        for e in 0..20 {
            let s = q.run_epoch(e as f64, e as f64 + 1.0, 200.0, 0.5, 0.3, &mut r);
            all.extend(s.latencies_ms);
        }
        let mean = all.iter().sum::<f64>() / all.len() as f64;
        // Utilisation is 10%, so latency is dominated by service time.
        assert!((mean - 0.5).abs() < 0.15, "mean latency {mean}");
    }

    #[test]
    fn heavy_load_builds_queue_and_latency() {
        let mut q = ServiceQueue::new();
        let mut r = rng(8);
        let mut last = EpochQueueStats::default();
        for e in 0..30 {
            // 1.5x overload: 1500 RPS of 1ms requests.
            last = q.run_epoch(e as f64, e as f64 + 1.0, 1500.0, 1.0, 0.3, &mut r);
        }
        assert!(
            last.queue_len > 5000,
            "queue should grow: {}",
            last.queue_len
        );
        let max_latency = last.latencies_ms.iter().cloned().fold(0.0, f64::max);
        assert!(
            max_latency > 1000.0,
            "latency should blow up: {max_latency}"
        );
    }

    #[test]
    fn utilisation_matches_offered_load() {
        let mut q = ServiceQueue::new();
        let mut r = rng(9);
        let mut busy = 0.0;
        let epochs = 50;
        for e in 0..epochs {
            let s = q.run_epoch(e as f64, e as f64 + 1.0, 1000.0, 0.5, 0.5, &mut r);
            busy += s.busy_s;
        }
        let util = busy / epochs as f64;
        assert!((util - 0.5).abs() < 0.05, "util {util}");
    }

    #[test]
    fn zero_rate_produces_nothing() {
        let mut q = ServiceQueue::new();
        let mut r = rng(1);
        let s = q.run_epoch(0.0, 1.0, 0.0, 1.0, 0.5, &mut r);
        assert_eq!(s.arrivals, 0);
        assert_eq!(s.completed, 0);
        assert_eq!(s.busy_s, 0.0);
    }

    #[test]
    fn infinite_duration_starves_queue() {
        let mut q = ServiceQueue::new();
        let mut r = rng(2);
        let s = q.run_epoch(0.0, 1.0, 100.0, f64::INFINITY, 0.5, &mut r);
        assert_eq!(s.completed, 0);
        assert!(s.queue_len > 50);
    }

    #[test]
    fn in_flight_request_completes_next_epoch() {
        let mut q = ServiceQueue::new();
        let mut r = rng(3);
        // One long request (~500 ms) arriving early in epoch 0 at low rate.
        let s0 = q.run_epoch(0.0, 1.0, 3.0, 800.0, 0.0, &mut r);
        let s1 = q.run_epoch(1.0, 2.0, 0.0, 800.0, 0.0, &mut r);
        // Some requests complete across the boundary.
        assert!(s0.completed + s1.completed >= 1);
        assert!(s1.busy_s > 0.0 || s0.busy_s > 0.9);
    }

    #[test]
    fn reset_clears_state() {
        let mut q = ServiceQueue::new();
        let mut r = rng(4);
        // More arrivals in one epoch than the backlog holds.
        q.run_epoch(0.0, 1.0, 60_000.0, 5.0, 0.5, &mut r);
        assert!(q.queue_len() > 0);
        assert!(q.dropped_total() > 0);
        q.reset();
        assert_eq!(q.queue_len(), 0);
        assert_eq!(q.dropped_total(), 0);
        let s = q.run_epoch(5.0, 6.0, 0.0, 1.0, 0.5, &mut r);
        assert_eq!(s.completed, 0);
    }

    #[test]
    fn backlog_cap_drops_arrivals() {
        let mut q = ServiceQueue::new();
        let mut r = rng(5);
        let mut dropped = 0;
        for e in 0..100 {
            let s = q.run_epoch(e as f64, e as f64 + 1.0, 5000.0, 100.0, 0.2, &mut r);
            dropped += s.dropped;
        }
        assert!(dropped > 0, "cap never hit");
        assert_eq!(q.dropped_total(), dropped);
        assert!(q.queue_len() <= BACKLOG_CAP);
    }

    /// What `Server::step` reads off an epoch's latencies, on the real thing:
    /// completion-order samples (long ascending runs under load) with the
    /// drop and time-out fillers appended.
    #[test]
    fn tail_selection_and_mean_on_completion_order_latencies() {
        // (arrival rate, mean duration ms, timeout s): light load, sustained
        // overload that saturates the backlog, overload with client timeouts.
        let regimes = [
            (800.0, 0.5, f64::INFINITY),
            (30_000.0, 0.2, f64::INFINITY),
            (3_000.0, 1.0, 2.0),
        ];
        for (seed, (rate, duration_ms, timeout_s)) in regimes.into_iter().enumerate() {
            let mut q = ServiceQueue::new();
            let mut r = rng(40 + seed as u64);
            let mut latencies = Vec::new();
            let (mut dropped, mut timed_out) = (0, 0);
            for e in 0..12 {
                latencies.clear();
                let (t0, t1) = (e as f64, e as f64 + 1.0);
                let stats = q.run_epoch_into(
                    t0,
                    t1,
                    rate,
                    duration_ms,
                    0.6,
                    timeout_s,
                    &mut r,
                    &mut latencies,
                );
                assert_eq!(stats.completed, latencies.len());
                dropped += stats.dropped;
                timed_out += stats.timed_out;
                latencies.extend(std::iter::repeat_n(139.0, stats.dropped.min(5000) as usize));
                latencies.extend(std::iter::repeat_n(
                    2000.0,
                    stats.timed_out.min(5000) as usize,
                ));
                assert!(latencies.len() > 100, "regime {seed} epoch {e}");

                let mut ascending = latencies.clone();
                ascending.sort_by(f64::total_cmp);
                let in_completion_order = latencies.iter().sum::<f64>();
                let in_ascending_order = ascending.iter().sum::<f64>();
                assert!(
                    (in_completion_order - in_ascending_order).abs()
                        <= 1e-12 * in_ascending_order.abs(),
                    "regime {seed} epoch {e}: {in_completion_order} vs {in_ascending_order}"
                );
                for p in [50.0, 99.0, 99.9] {
                    let mut scratch = latencies.clone();
                    assert_eq!(
                        twig_stats::percentile(&mut scratch, p).unwrap().to_bits(),
                        twig_stats::percentile_sorted(&ascending, p)
                            .unwrap()
                            .to_bits(),
                        "regime {seed} epoch {e} p{p}"
                    );
                }
            }
            assert_eq!(dropped > 0, seed == 1, "regime {seed} dropped {dropped}");
            assert_eq!(
                timed_out > 0,
                seed == 2,
                "regime {seed} timed out {timed_out}"
            );
        }
    }

    #[test]
    fn lognormal_mean_is_calibrated() {
        let mut r = rng(6);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| lognormal(2.0, 0.8, &mut r)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "lognormal mean {mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng(10);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
