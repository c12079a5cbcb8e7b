//! The open-loop send schedule: send `i` is due at `i` periods after the
//! epoch whatever happened to the sends before it, and every latency is
//! timed from the due time, so a stall is charged to the requests it
//! delayed and not hidden by sending them later.

use std::time::{Duration, Instant};

pub struct Schedule {
    epoch: Instant,
    period: Duration,
}

impl Schedule {
    pub fn new(epoch: Instant, per_sec: f64) -> Schedule {
        Schedule {
            epoch,
            period: Duration::from_secs_f64(1.0 / per_sec),
        }
    }

    pub fn period(&self) -> Duration {
        self.period
    }

    pub fn due(&self, i: usize) -> Instant {
        self.epoch + self.period * i as u32
    }

    /// Sleeps until send `i` is due (not at all if it already is) and
    /// returns `(due, started)`.
    pub fn wait(&self, i: usize) -> (Instant, Instant) {
        let due = self.due(i);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        (due, Instant::now())
    }
}

/// How late the generator ran: send start minus due time.
pub fn lateness_ms(due: Instant, started: Instant) -> f64 {
    started.saturating_duration_since(due).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_ignore_earlier_stalls_and_lateness_is_charged() {
        let schedule = Schedule::new(Instant::now(), 100.0);
        let (due0, started0) = schedule.wait(0);
        assert!(started0 >= due0);
        // Stall well past the next two due times.
        std::thread::sleep(Duration::from_millis(35));
        let (due1, started1) = schedule.wait(1);
        let (due2, started2) = schedule.wait(2);
        // The schedule did not slide: both are still whole periods from
        // the epoch, so both sends are late by at least the overrun.
        assert_eq!(due1 - due0, Duration::from_millis(10));
        assert_eq!(due2 - due0, Duration::from_millis(20));
        assert!(lateness_ms(due1, started1) >= 25.0);
        assert!(lateness_ms(due2, started2) >= 15.0);
        // A send that starts on or before its due time is not late.
        assert_eq!(lateness_ms(due2, due1), 0.0);
    }
}
