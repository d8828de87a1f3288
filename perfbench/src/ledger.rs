//! Timing and reporting helpers shared by the workloads.
//!
//! A [`Ledger`] books nanoseconds and counts under metric names from any
//! thread. Only the traced runs write to one: the untraced runs time whole
//! public calls with [`Instant`] and nothing else.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Thread-safe accumulator of per-layer time (ns) and counts.
#[derive(Debug, Default)]
pub struct Ledger {
    entries: Mutex<BTreeMap<&'static str, u128>>,
}

impl Ledger {
    /// Adds `n` to the entry `name` (nanoseconds for timers, units for counts).
    pub fn add(&self, name: &'static str, n: u128) {
        *self
            .entries
            .lock()
            .expect("ledger lock")
            .entry(name)
            .or_insert(0) += n;
    }

    /// Runs `f`, booking its wall time under `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed().as_nanos());
        out
    }

    /// Books an already measured duration under `name`.
    pub fn add_duration(&self, name: &'static str, d: Duration) {
        self.add(name, d.as_nanos());
    }

    /// Forgets every entry.
    pub fn reset(&self) {
        self.entries.lock().expect("ledger lock").clear();
    }

    /// The raw value of `name` (0 when never booked).
    pub fn get(&self, name: &'static str) -> u128 {
        self.entries
            .lock()
            .expect("ledger lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// The value of timer `name` in microseconds.
    pub fn us(&self, name: &'static str) -> f64 {
        self.get(name) as f64 / 1_000.0
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs `one` until `seconds` have passed (at least once).
pub fn repeat<T>(seconds: f64, mut one: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut reps = vec![one()];
    while started.elapsed().as_secs_f64() < seconds {
        reps.push(one());
    }
    reps
}

/// Runs `a` and `b` alternately, a pair at a time, until `seconds` have
/// passed (at least one pair), so both see the same host conditions.
pub fn alternate<T>(
    seconds: f64,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> T,
) -> (Vec<T>, Vec<T>) {
    let started = Instant::now();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    loop {
        xs.push(a());
        ys.push(b());
        if started.elapsed().as_secs_f64() >= seconds {
            return (xs, ys);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn ledger_accumulates_across_threads() {
        let ledger = Ledger::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| ledger.add("x", 5));
            }
        });
        assert_eq!(ledger.get("x"), 20);
        assert_eq!(ledger.get("missing"), 0);
    }
}
