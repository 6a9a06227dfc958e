//! The benchmark's own arithmetic: percentiles, geometric means, the
//! peak-RSS reader, open-loop due-time accounting and the rate ladder's
//! stop rule. Kept free of the code under test so each rule is unit
//! tested on its own.

use std::time::Duration;

/// The fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// A tail latency read off a sample set: the value, the percentile it
/// really is, and how many samples it was read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The median (mean of the two middle values for an even count).
/// Empty input reads as 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `want`th percentile (nearest rank), lowered to the highest
/// percentile that still has at least [`TAIL_SAMPLES`] samples beyond
/// it. With too few samples for any such percentile the maximum is
/// reported, as percentile 100.
pub fn tail(values: &[f64], want: f64) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: want,
            samples: 0,
        };
    }
    let wanted = ((want / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = if n > TAIL_SAMPLES {
        wanted.min(n - 1 - TAIL_SAMPLES)
    } else {
        n - 1
    };
    let percentile = if n > TAIL_SAMPLES {
        (idx + 1) as f64 / n as f64 * 100.0
    } else {
        100.0
    };
    Tail {
        value: v[idx],
        percentile,
        samples: n,
    }
}

/// Geometric mean of positive values; `None` when empty or when any
/// value is not positive (a zero cost would make the mean meaningless).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Reads the peak resident set size in MiB from the text of a
/// `/proc/<pid>/status` file (its `VmHWM:` line, in kB).
pub fn peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line.split_whitespace().skip(1);
    let kb: f64 = words.next()?.parse().ok()?;
    match words.next() {
        Some("kB") | None => Some(kb / 1024.0),
        Some(_) => None,
    }
}

/// The peak resident set size of this process so far, in MiB.
pub fn own_peak_rss_mb() -> Option<f64> {
    peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its answer arrived — all offsets from the phase
/// start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Sample {
    /// Latency as the user sees it: from when the request was due, so a
    /// stall also charges every request queued behind it.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// A source of time for [`open_loop`]; tests substitute a fake clock.
pub trait Clock {
    /// Time since the phase started.
    fn now(&self) -> Duration;
    /// Waits until `at` (returns at once when already past).
    fn wait_until(&self, at: Duration);
}

/// The wall clock, counting from a given instant.
pub struct WallClock(pub std::time::Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    /// Sleeps until shortly before `at`, then spins, so the generator's
    /// own wake-up delay stays out of the latencies it records.
    fn wait_until(&self, at: Duration) {
        const SPIN: Duration = Duration::from_millis(1);
        let now = self.0.elapsed();
        if at > now + SPIN {
            std::thread::sleep(at - now - SPIN);
        }
        while self.0.elapsed() < at {
            std::hint::spin_loop();
        }
    }
}

/// Drives one generator thread through a fixed-rate schedule: request
/// `i` is due at `i / rate` seconds after the clock's origin. The
/// generator sends each request when it is due, or as soon as the
/// previous one has answered if it is already behind. `send(i)`
/// performs request `i` and returns whether it succeeded, or `None` to
/// end the phase early without sending it.
pub fn open_loop(
    clock: &dyn Clock,
    rate: f64,
    indices: std::ops::Range<usize>,
    mut send: impl FnMut(usize) -> Option<bool>,
) -> Vec<(Sample, bool)> {
    let period = Duration::from_secs_f64(1.0 / rate);
    let mut out = Vec::new();
    for i in indices {
        let due = period.mul_f64(i as f64);
        clock.wait_until(due);
        let sent = clock.now();
        let Some(ok) = send(i) else { break };
        out.push((
            Sample {
                due,
                sent,
                done: clock.now(),
            },
            ok,
        ));
    }
    out
}

/// The latency limit a ladder step's tail must stay within, in ms.
pub const LADDER_LIMIT_MS: f64 = 50.0;

/// Whether the generator's lateness grew over a step: the median
/// lateness of the step's last third exceeds that of its first third by
/// more than `slack_ms`. Lateness that grows means requests arrive
/// faster than they are served, so the backlog is unbounded.
pub fn lateness_grows(samples: &[Sample], slack_ms: f64) -> bool {
    let third = samples.len() / 3;
    if third == 0 {
        return false;
    }
    let late = |s: &[Sample]| median(&s.iter().map(Sample::late_ms).collect::<Vec<_>>());
    late(&samples[samples.len() - third..]) - late(&samples[..third]) > slack_ms
}

/// The verdict on one ladder step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepVerdict {
    pub rate: f64,
    pub tail: Tail,
    pub failed: usize,
    pub growing: bool,
}

impl StepVerdict {
    /// A step passes when nothing failed, its tail latency stays within
    /// [`LADDER_LIMIT_MS`], and the generator did not fall further and
    /// further behind.
    pub fn passes(&self) -> bool {
        self.failed == 0 && self.tail.value <= LADDER_LIMIT_MS && !self.growing
    }
}

/// Judges one ladder step from its samples.
pub fn judge_step(rate: f64, samples: &[(Sample, bool)]) -> StepVerdict {
    let s: Vec<Sample> = samples.iter().map(|(s, _)| *s).collect();
    let lat: Vec<f64> = s.iter().map(Sample::latency_ms).collect();
    StepVerdict {
        rate,
        tail: tail(&lat, 99.0),
        failed: samples.iter().filter(|(_, ok)| !ok).count(),
        growing: lateness_grows(&s, LADDER_LIMIT_MS / 2.0),
    }
}

/// The ladder's stop rule: the highest rate the ladder reached before
/// its first failing step. When that step's tail is over the limit, the
/// rate where the tail crosses the limit is interpolated linearly
/// between the two steps, so the figure moves smoothly with the code
/// instead of jumping a whole step. `None` when the first step fails.
pub fn max_rate(steps: &[StepVerdict]) -> Option<f64> {
    let first_fail = steps.iter().position(|s| !s.passes());
    let last = steps[..first_fail.unwrap_or(steps.len())].last()?;
    let Some(fail) = first_fail.map(|i| steps[i]) else {
        return Some(last.rate);
    };
    if fail.tail.value <= LADDER_LIMIT_MS {
        return Some(last.rate);
    }
    let frac = (LADDER_LIMIT_MS - last.tail.value) / (fail.tail.value - last.tail.value);
    Some(last.rate + frac.clamp(0.0, 1.0) * (fail.rate - last.rate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!((t.value, t.percentile, t.samples), (990.0, 99.0, 1000));
        // 100 samples: p99 would leave one sample beyond; the rule
        // lowers it to p90, which leaves exactly ten.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!((t.value, t.percentile), (90.0, 90.0));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_SAMPLES);
        // too few samples for any tail: the maximum, as p100
        let t = tail(&[3.0, 1.0, 2.0], 99.0);
        assert_eq!((t.value, t.percentile, t.samples), (3.0, 100.0, 3));
        assert_eq!(tail(&[], 99.0).samples, 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_reader() {
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[2.0, 0.0]), None);
    }

    #[test]
    fn peak_rss_reader() {
        let status = "Name:\tperf\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(peak_rss_mb(status), Some(20.0));
        assert_eq!(peak_rss_mb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(peak_rss_mb("VmHWM:\tlots kB\n"), None);
        assert!(own_peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    /// A clock that only moves when the generator waits or a request
    /// "runs".
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn wait_until(&self, at: Duration) {
            if at > self.0.get() {
                self.0.set(at);
            }
        }
    }

    #[test]
    fn a_stall_charges_the_requests_queued_behind_it() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let ms = Duration::from_millis;
        // 100 req/s, 2 ms per request, but request 3 stalls for 55 ms
        let samples = open_loop(&clock, 100.0, 0..10, |i| {
            let cost = if i == 3 { ms(55) } else { ms(2) };
            clock.0.set(clock.0.get() + cost);
            Some(true)
        });
        let lat: Vec<f64> = samples
            .iter()
            .map(|(s, _)| s.latency_ms().round())
            .collect();
        // due at 30 ms, done at 85: 55 ms; request 4 was due at 40 but
        // sent at 85 (45 late) and done at 87: 47 ms; and so on until the
        // backlog drains.
        assert_eq!(
            lat,
            vec![2.0, 2.0, 2.0, 55.0, 47.0, 39.0, 31.0, 23.0, 15.0, 7.0]
        );
        let late: Vec<f64> = samples.iter().map(|(s, _)| s.late_ms().round()).collect();
        assert_eq!(
            late,
            vec![0.0, 0.0, 0.0, 0.0, 45.0, 37.0, 29.0, 21.0, 13.0, 5.0]
        );
    }

    fn step(rate: f64, tail_ms: f64, failed: usize, growing: bool) -> StepVerdict {
        StepVerdict {
            rate,
            tail: Tail {
                value: tail_ms,
                percentile: 99.0,
                samples: 100,
            },
            failed,
            growing,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_failing_step() {
        // interpolates where the tail crosses the limit
        let steps = [
            step(10.0, 10.0, 0, false),
            step(20.0, 30.0, 0, false),
            step(30.0, 70.0, 0, false),
        ];
        assert_eq!(max_rate(&steps), Some(25.0));
        // a failed request or a growing backlog with the tail still
        // within the limit stops at the last pass
        let steps = [step(10.0, 10.0, 0, false), step(20.0, 20.0, 1, false)];
        assert_eq!(max_rate(&steps), Some(10.0));
        let steps = [step(10.0, 10.0, 0, false), step(20.0, 20.0, 0, true)];
        assert_eq!(max_rate(&steps), Some(10.0));
        // a growing backlog that also blew the tail interpolates
        let steps = [step(10.0, 20.0, 0, false), step(20.0, 80.0, 0, true)];
        assert_eq!(max_rate(&steps), Some(15.0));
        // later passing steps do not count once one has failed
        let steps = [
            step(10.0, 10.0, 0, false),
            step(20.0, 20.0, 0, true),
            step(30.0, 5.0, 0, false),
        ];
        assert_eq!(max_rate(&steps), Some(10.0));
        // every step passed: the top rate
        assert_eq!(max_rate(&[step(10.0, 10.0, 0, false)]), Some(10.0));
        assert_eq!(max_rate(&[step(10.0, 60.0, 0, false)]), None);
    }

    #[test]
    fn growing_lateness_is_detected() {
        let s = |late_ms: u64| Sample {
            due: Duration::ZERO,
            sent: Duration::from_millis(late_ms),
            done: Duration::from_millis(late_ms + 1),
        };
        let steady: Vec<Sample> = (0..30).map(|i| s(i % 3)).collect();
        assert!(!lateness_grows(&steady, 25.0));
        let growing: Vec<Sample> = (0..30).map(|i| s(i * 5)).collect();
        assert!(lateness_grows(&growing, 25.0));
    }
}
