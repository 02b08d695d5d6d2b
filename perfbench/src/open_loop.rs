//! The open-loop generator both paths share. Op `i` of a step is due at
//! `start + i/rate`; whenever ops are due, all of them (up to
//! `max_batch`) go out as one frame, as the serving applier batches.
//! Queries fall due at a fixed rate and go out between frames. Every
//! latency runs from the due time.

use crate::stats::Samples;
use crate::{Params, StepOutcome};
use std::time::{Duration, Instant};

/// How long before a due time a spinning target stops sleeping.
const SPIN_MARGIN: Duration = Duration::from_micros(200);

/// Where an open loop sends its frames and queries.
pub trait Target {
    /// Whether the loop sleeps only to `SPIN_MARGIN` before a due time
    /// and busy-waits the rest, so the host's wake-up delay does not land
    /// in latencies of a few microseconds. Only a target that runs on the
    /// generator's own thread may spin; a server sharing the cores must
    /// not lose one to the wait.
    const SPIN: bool;

    /// Sends the next `n` ops as one frame and returns when they were
    /// acked, or `None` when the frame failed and the step must stop.
    fn submit(&mut self, n: usize) -> Option<Instant>;

    /// Issues one query and waits for its answer.
    fn query(&mut self);

    /// Ops sent but not yet visible.
    fn unseen(&self) -> u64 {
        0
    }

    /// Due → visible latency (ms) of the step's ops, and whether every
    /// one of them became visible. By default an op is visible when its
    /// frame is acked.
    fn visible_ms(&mut self, dues: &[Instant], acks: &[Instant]) -> (Samples, bool) {
        (since(dues, acks), true)
    }
}

/// Per-op `at[i] - due[i]`, in ms.
fn since(dues: &[Instant], at: &[Instant]) -> Samples {
    let mut out = Samples::default();
    for (d, a) in dues.iter().zip(at) {
        out.push(a.saturating_duration_since(*d).as_secs_f64() * 1e3);
    }
    out
}

/// Sleeps until `t`; with `spin`, sleeps to `SPIN_MARGIN` before it and
/// busy-waits the rest.
fn wait_until(t: Instant, spin: bool) {
    let left = t.saturating_duration_since(Instant::now());
    if !spin {
        std::thread::sleep(left);
        return;
    }
    if left > SPIN_MARGIN {
        std::thread::sleep(left - SPIN_MARGIN);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// One open-loop step at `rate` ops/s for `dur`.
pub fn run<T: Target>(t: &mut T, p: &Params, rate: f64, dur: Duration) -> StepOutcome {
    let total = (rate * dur.as_secs_f64()).round() as u64;
    let q_total = (p.query_rate * dur.as_secs_f64()).round() as u64;
    let start = Instant::now() + Duration::from_millis(1);
    let due = |i: u64, r: f64| start + Duration::from_secs_f64(i as f64 / r);
    let mut out = StepOutcome::new(rate);
    let (mut next, mut next_q) = (0u64, 0u64);
    let mut acks = Vec::with_capacity(total as usize);
    let mut backlog = Vec::new();
    while next < total {
        let now = Instant::now();
        if next_q < q_total && due(next_q, p.query_rate) <= now {
            t.query();
            out.query_ms
                .push(due(next_q, p.query_rate).elapsed().as_secs_f64() * 1e3);
            next_q += 1;
            continue;
        }
        let reached = if now < start {
            0
        } else {
            ((now - start).as_secs_f64() * rate).floor() as u64 + 1
        };
        let pending = reached.min(total).saturating_sub(next);
        if pending == 0 {
            let mut wake = due(next, rate);
            if next_q < q_total {
                wake = wake.min(due(next_q, p.query_rate));
            }
            wait_until(wake, T::SPIN);
            continue;
        }
        backlog.push((pending + t.unseen()) as f64);
        let n = pending.min(p.max_batch as u64);
        let sent = Instant::now();
        let Some(acked) = t.submit(n as usize) else {
            break;
        };
        for i in next..next + n {
            out.late_ms
                .push(sent.saturating_duration_since(due(i, rate)).as_secs_f64() * 1e3);
            acks.push(acked);
        }
        next += n;
    }
    let dues: Vec<Instant> = (0..next).map(|i| due(i, rate)).collect();
    out.ack_ms = since(&dues, &acks);
    let (visible, all) = t.visible_ms(&dues, &acks);
    out.visible_ms = visible;
    out.backlog_grew = !all || grew(&backlog, rate);
    out
}

/// A backlog (ops due but not yet visible, sampled before every frame)
/// is growing when its mean over the last third of a step exceeds 1.5×
/// the first third's plus 32 ops, and also exceeds 50 ms worth of ops at
/// the step's rate (so one stall late in a short step does not count).
pub fn grew(samples: &[f64], rate: f64) -> bool {
    let third = samples.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&samples[..third]);
    let last = mean(&samples[samples.len() - third..]);
    last > 1.5 * first + 32.0 && last > 0.05 * rate
}
