//! Load generators and the statistics they report.
//!
//! The open loop models independent users: request `i` is due at
//! `start + i / rate` whether or not earlier requests have finished,
//! and its latency runs from that due instant. When every worker is
//! stuck behind a slow reply, the requests that fall due meanwhile are
//! sent late and carry the wait in their latency. The closed loop
//! models callers that each wait for their reply, and measures
//! capacity.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the prepared request list.
    pub index: usize,
    /// From the due instant (open loop) or the send (closed loop) to the
    /// reply.
    pub latency: Duration,
    /// How late the generator sent it (zero in the closed loop).
    pub late: Duration,
    /// Whether the reply was correct.
    pub ok: bool,
}

/// Runs an open loop at `rate` requests per second for `window`, over
/// one worker per element of `workers` (each typically owning one
/// connection). `send(worker, i)` sends request `i` and reports whether
/// its reply was correct. At most `max` requests are sent.
pub fn open_loop<W: Send>(
    workers: &mut [W],
    rate: f64,
    window: Duration,
    max: usize,
    send: impl Fn(&mut W, usize) -> bool + Sync,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in workers.iter_mut() {
            let (next, samples, send) = (&next, &samples, &send);
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let offset = Duration::from_secs_f64(i as f64 / rate);
                    if i >= max || offset >= window {
                        break;
                    }
                    let due = start + offset;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let ok = send(worker, i);
                    mine.push(Sample {
                        index: i,
                        latency: Instant::now() - due,
                        late: sent.saturating_duration_since(due),
                        ok,
                    });
                }
                samples.lock().expect("samples lock").extend(mine);
            });
        }
    });
    let mut out = samples.into_inner().expect("samples lock");
    out.sort_by_key(|s| s.index);
    out
}

/// Runs a closed loop for `window`: each worker sends its next request
/// only after the previous reply. Returns the samples and the elapsed
/// wall time.
pub fn closed_loop<W: Send>(
    workers: &mut [W],
    window: Duration,
    max: usize,
    send: impl Fn(&mut W, usize) -> bool + Sync,
) -> (Vec<Sample>, Duration) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in workers.iter_mut() {
            let (next, samples, send) = (&next, &samples, &send);
            scope.spawn(move || {
                let mut mine = Vec::new();
                while start.elapsed() < window {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= max {
                        break;
                    }
                    let sent = Instant::now();
                    let ok = send(worker, i);
                    mine.push(Sample {
                        index: i,
                        latency: sent.elapsed(),
                        late: Duration::ZERO,
                        ok,
                    });
                }
                samples.lock().expect("samples lock").extend(mine);
            });
        }
    });
    let elapsed = start.elapsed();
    let mut out = samples.into_inner().expect("samples lock");
    out.sort_by_key(|s| s.index);
    (out, elapsed)
}

/// The `q`-quantile of `values` (nearest rank on the sorted values);
/// `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latency in milliseconds, with a failed request counted as missing
/// any latency limit (infinite).
pub fn latency_ms(s: &Sample) -> f64 {
    if s.ok {
        s.latency.as_secs_f64() * 1e3
    } else {
        f64::INFINITY
    }
}
