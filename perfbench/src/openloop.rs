//! Open-loop accounting: requests are due on a schedule whether or not
//! the system kept up, so each one is timed from when it was *due*,
//! and a stall shows up in every request it delayed.

use crate::workloads::SplitMix;

/// Open-loop arrivals: a seeded Poisson process, so independent senders
/// never fall into step with each other (two fixed-period schedules would
/// alias, and every measurement would depend on their phase).
#[derive(Debug, Clone)]
pub struct Schedule {
    rate: f64,
    rng: SplitMix,
    next: f64,
}

impl Schedule {
    /// Arrivals at `rate` per second on average, drawn from `seed`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Self {
            rate,
            rng: SplitMix::new(seed),
            next: 0.0,
        }
    }

    /// Due time of the next request, in seconds since the phase start.
    pub fn next_due(&mut self) -> f64 {
        let due = self.next;
        // Exponential gap; `1 - unit()` lies in (0, 1], so the log is finite.
        self.next += -(1.0 - self.rng.unit()).ln() / self.rate;
        due
    }
}

/// When one request was due, sent, and answered (seconds since the phase
/// start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Scheduled send time.
    pub due: f64,
    /// Actual send time (never earlier than `due`).
    pub sent: f64,
    /// Time the reply was read.
    pub done: f64,
}

impl Timing {
    /// Open-loop latency: from the scheduled send to the reply, so the
    /// wait a late generator imposed counts against the system.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent this request.
    pub fn lag(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Ingest-to-visible latency per trajectory.
///
/// The `i`-th timed ingest got trajectory id `first_id + i` and was due at
/// `due[i]`. `stats` lists `(received_at, trajectories)` for every `stats`
/// reply in the order received; `trajectories` counts everything the served
/// snapshot has applied, and ids are applied in order, so id `t` is visible
/// from the first reply whose count exceeds `t`. Trajectories no reply
/// counted yield `None`.
pub fn visibility_latencies(due: &[f64], first_id: u64, stats: &[(f64, u64)]) -> Vec<Option<f64>> {
    let mut out = Vec::with_capacity(due.len());
    let mut reply = 0;
    let mut seen = 0u64; // running max: a reply never un-counts a trajectory
    for (i, &due_at) in due.iter().enumerate() {
        let id = first_id + i as u64;
        while seen <= id && reply < stats.len() {
            seen = seen.max(stats[reply].1);
            reply += 1;
        }
        out.push((seen > id).then(|| stats[reply - 1].0 - due_at));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_keeps_its_mean_rate() {
        let mut a = Schedule::new(200.0, 7);
        let mut b = Schedule::new(200.0, 7);
        let due: Vec<f64> = (0..20_000).map(|_| a.next_due()).collect();
        assert_eq!(due[0], 0.0);
        assert!(due.windows(2).all(|w| w[1] > w[0]), "strictly increasing");
        assert!(
            (0..20_000).all(|k| b.next_due() == due[k]),
            "same seed, same arrivals"
        );
        let mean_gap = due[due.len() - 1] / (due.len() - 1) as f64;
        assert!((mean_gap - 0.005).abs() < 0.000_2, "mean gap {mean_gap}");
        let mut other = Schedule::new(200.0, 8);
        other.next_due();
        assert_ne!(other.next_due(), due[1], "another seed, other arrivals");
    }

    #[test]
    fn late_generator_is_charged_from_the_due_time() {
        // Due at 1.0 s, but the generator only got to send it at 1.5 s
        // (a stall on the previous request); the reply came 0.1 s later.
        let t = Timing {
            due: 1.0,
            sent: 1.5,
            done: 1.6,
        };
        assert!(
            (t.latency() - 0.6).abs() < 1e-12,
            "not the 0.1 s service time"
        );
        assert!((t.lag() - 0.5).abs() < 1e-12);
        let on_time = Timing {
            due: 2.0,
            sent: 2.0,
            done: 2.01,
        };
        assert!((on_time.latency() - 0.01).abs() < 1e-12);
        assert_eq!(on_time.lag(), 0.0);
    }

    #[test]
    fn visibility_is_the_first_reply_counting_the_trajectory() {
        // Ids 10, 11, 12 were due at 0.0, 0.1, 0.2 s.
        let due = [0.0, 0.1, 0.2];
        let stats = [
            (0.05, 10), // counts ids < 10: none of ours yet
            (0.15, 12), // ids 10 and 11 visible
            (0.25, 12),
            (0.30, 13), // id 12 visible
        ];
        let v = visibility_latencies(&due, 10, &stats);
        let v: Vec<f64> = v.into_iter().map(Option::unwrap).collect();
        assert!((v[0] - 0.15).abs() < 1e-12);
        assert!((v[1] - 0.05).abs() < 1e-12);
        assert!((v[2] - 0.10).abs() < 1e-12);
    }

    #[test]
    fn uncounted_trajectories_have_no_visibility() {
        let v = visibility_latencies(&[0.0, 1.0], 0, &[(0.5, 1)]);
        assert!(v[0].is_some());
        assert_eq!(v[1], None);
        assert_eq!(visibility_latencies(&[0.0], 0, &[]), vec![None]);
    }

    #[test]
    fn a_stale_reply_never_uncounts() {
        // A count that goes backwards (it cannot with monotone epochs, but
        // the attribution must not depend on that) keeps the running max.
        let v = visibility_latencies(&[0.0, 0.0], 0, &[(0.1, 2), (0.2, 1)]);
        assert_eq!(v, vec![Some(0.1), Some(0.1)]);
    }
}
