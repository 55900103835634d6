//! Percentiles and per-operation time accounting.

use std::time::Duration;

/// The `p`-quantile (`0.0..=1.0`) of `values` by linear interpolation between
/// the two nearest ranks; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Width of the windows a measured phase is cut into.
pub const WINDOW: Duration = Duration::from_secs(2);

/// Fewest samples a window needs for its percentile to count.
const MIN_WINDOW_SAMPLES: usize = 10;

fn full_windows(phase: Duration) -> usize {
    ((phase.as_secs_f64() / WINDOW.as_secs_f64()).floor() as usize).max(1)
}

/// A percentile of a whole phase, made steady: cut the phase into
/// [`WINDOW`]-long windows by when each sample's operation started, take the
/// `p`-quantile inside each window, report the median of the windows.
///
/// A stall that spoils one or two windows (a paused VM, a neighbour's burst)
/// does not move the result, while a change that moves every window does.
/// Samples after the last full window are left out; with no window of at
/// least ten samples the plain percentile of all samples is returned.
pub fn windowed_percentile(samples: &[(Duration, f64)], phase: Duration, p: f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); full_windows(phase)];
    for (at, value) in samples {
        let w = (at.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if let Some(window) = windows.get_mut(w) {
            window.push(*value);
        }
    }
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| w.len() >= MIN_WINDOW_SAMPLES)
        .map(|w| percentile(w, p))
        .collect();
    if per_window.is_empty() {
        let all: Vec<f64> = samples.iter().map(|(_, v)| *v).collect();
        percentile(&all, p)
    } else {
        median(&per_window)
    }
}

/// Events per second, made steady the same way: the median over the full
/// windows of the number of `events` that fall in each, per second.
pub fn windowed_rate(events: &[Duration], phase: Duration) -> f64 {
    let n = full_windows(phase);
    let width = if phase < WINDOW { phase } else { WINDOW }.as_secs_f64();
    let mut counts = vec![0.0; n];
    for at in events {
        let w = (at.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if let Some(c) = counts.get_mut(w) {
            *c += 1.0;
        }
    }
    median(&counts) / width
}

/// When one operation was due, sent, first answered and finished, all as
/// offsets from the start of its phase.
///
/// An open loop times from `due`, so a stall that delays later requests is
/// charged to them; a closed loop has `due == sent`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    pub due: Duration,
    pub sent: Duration,
    /// Arrival of the first `event: chunk` frame (streaming requests only).
    pub first_chunk: Option<Duration>,
    pub done: Duration,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl OpTiming {
    pub fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_sub(self.due))
    }

    pub fn ttft_ms(&self) -> Option<f64> {
        self.first_chunk.map(|t| ms(t.saturating_sub(self.due)))
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        ms(self.sent.saturating_sub(self.due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_hand_made_samples() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn windowed_readings_ignore_one_spoilt_window() {
        let ms = Duration::from_millis;
        // 10 s phase, 20 samples per second, all 1.0 — except that every
        // sample of the third window (4–6 s) took 50.
        let samples: Vec<(Duration, f64)> = (0..200)
            .map(|i| {
                let at = ms(i * 50);
                (
                    at,
                    if (4000..6000).contains(&(i * 50)) {
                        50.0
                    } else {
                        1.0
                    },
                )
            })
            .collect();
        let phase = Duration::from_secs(10);
        assert_eq!(windowed_percentile(&samples, phase, 0.9), 1.0);
        assert!(percentile(&samples.iter().map(|s| s.1).collect::<Vec<_>>(), 0.9) > 1.0);
        // A shift of every sample moves it.
        let shifted: Vec<(Duration, f64)> = samples.iter().map(|(at, v)| (*at, v + 2.0)).collect();
        assert_eq!(windowed_percentile(&shifted, phase, 0.5), 3.0);
        // Too few samples per window: falls back to the plain percentile.
        assert_eq!(windowed_percentile(&samples[..5], phase, 0.5), 1.0);
        // Samples past the last full window (an 11 s phase has five) are left out.
        let mut late = samples.clone();
        late.extend((0..20).map(|i| (ms(10_000 + i * 50), 99.0)));
        assert_eq!(
            windowed_percentile(&late, Duration::from_secs(11), 0.9),
            1.0
        );

        let events: Vec<Duration> = samples.iter().map(|s| s.0).collect();
        assert_eq!(windowed_rate(&events, phase), 20.0);
        // One empty window does not move the median rate.
        let gap: Vec<Duration> = events
            .iter()
            .copied()
            .filter(|t| !(ms(4000)..ms(6000)).contains(t))
            .collect();
        assert_eq!(windowed_rate(&gap, phase), 20.0);
        // A phase shorter than a window is one window of its own length.
        assert_eq!(windowed_rate(&events[..20], Duration::from_secs(1)), 20.0);
    }

    #[test]
    fn open_loop_times_from_the_due_instant() {
        let us = Duration::from_micros;
        // Due at 10 ms, but the previous reply held the connection until
        // 12 ms: the 2 ms wait is part of this request's latency and TTFT.
        let t = OpTiming {
            due: us(10_000),
            sent: us(12_000),
            first_chunk: Some(us(12_400)),
            done: us(13_000),
        };
        assert!((t.latency_ms() - 3.0).abs() < 1e-9);
        assert!((t.ttft_ms().unwrap() - 2.4).abs() < 1e-9);
        assert!((t.lag_ms() - 2.0).abs() < 1e-9);
        // A closed loop has due == sent and no lag.
        let c = OpTiming {
            due: us(500),
            sent: us(500),
            first_chunk: None,
            done: us(1_700),
        };
        assert!((c.latency_ms() - 1.2).abs() < 1e-9);
        assert_eq!(c.ttft_ms(), None);
        assert_eq!(c.lag_ms(), 0.0);
    }
}
