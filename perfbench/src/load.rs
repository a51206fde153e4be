//! The load generator: open-loop and closed-loop phases over a fixed set of
//! client threads, each owning one connection (or one shard router).

use crate::stack::Client;
use crate::stats::{ms, quantile};
use corgi_datagen::{open_loop_arrivals, ZipfSampler};
use corgi_framework::messages::{MatrixRequest, PrivacyForestResponse};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(privacy_level, δ)` pairs as requests.
pub fn requests(list: &[(u8, usize)]) -> Vec<MatrixRequest> {
    list.iter()
        .map(|&(privacy_level, delta)| MatrixRequest {
            privacy_level,
            delta,
        })
        .collect()
}

/// A Zipf-skewed mix over an explicit list of hot keys (the first is the
/// hottest), plus optional cold keys that take every `cold_every`-th request
/// in turn.
pub struct Mix {
    hot: Vec<MatrixRequest>,
    sampler: ZipfSampler,
    cold: Vec<MatrixRequest>,
    cold_every: usize,
}

impl Mix {
    pub fn zipf(hot: &[(u8, usize)], exponent: f64) -> Self {
        Self::with_cold(hot, exponent, &[], 0)
    }

    pub fn with_cold(
        hot: &[(u8, usize)],
        exponent: f64,
        cold: &[(u8, usize)],
        cold_every: usize,
    ) -> Self {
        Self {
            hot: requests(hot),
            sampler: ZipfSampler::new(hot.len(), exponent),
            cold: requests(cold),
            cold_every,
        }
    }

    /// The key of the `index`-th request of a sequence.
    pub fn key<R: Rng>(&self, index: usize, rng: &mut R) -> MatrixRequest {
        if !self.cold.is_empty() && index % self.cold_every == self.cold_every - 1 {
            self.cold[(index / self.cold_every) % self.cold.len()]
        } else {
            self.hot[self.sampler.sample(rng)]
        }
    }
}

/// What one client thread sends in a phase.
pub enum Schedule {
    /// Open loop: each request fires at its offset from the phase start,
    /// whether or not the previous one has been answered.
    Open(Vec<(Duration, MatrixRequest)>),
    /// Closed loop: the next request fires as soon as the previous response
    /// lands, until the phase ends or the keys run out.
    Closed(Vec<MatrixRequest>),
}

/// An open-loop Poisson schedule at `rate_hz`, dealt round-robin over
/// `threads` client threads.
pub fn open_schedules(
    mix: &Mix,
    rate_hz: f64,
    duration: Duration,
    threads: usize,
    rng: &mut StdRng,
) -> Vec<Schedule> {
    let mut slots: Vec<Vec<(Duration, MatrixRequest)>> = vec![Vec::new(); threads];
    for (index, at) in open_loop_arrivals(rate_hz, duration, rng)
        .into_iter()
        .enumerate()
    {
        slots[index % threads].push((at, mix.key(index, rng)));
    }
    slots.into_iter().map(Schedule::Open).collect()
}

/// Closed-loop key sequences for `threads` client threads, long enough that
/// the phase ends on time, not on keys.
pub fn closed_schedules(
    mix: &Mix,
    duration: Duration,
    threads: usize,
    rng: &mut StdRng,
) -> Vec<Schedule> {
    // Far above any closed-loop rate one connection reaches.
    let per_thread = (duration.as_secs_f64() * 20_000.0).ceil() as usize + 16;
    (0..threads)
        .map(|thread| {
            // The same round-robin deal as the open loop: thread t takes
            // every `threads`-th key of one sequence, starting at t.
            Schedule::Closed(
                (0..per_thread)
                    .map(|i| mix.key(i * threads + thread, rng))
                    .collect(),
            )
        })
        .collect()
}

/// Receives every successful response of a phase, outside the timed
/// section of the op.
pub trait OpSink: Sync {
    /// `op` numbers the ops of one phase uniquely; `sent`/`done` bracket the
    /// roundtrip.
    fn on_response(
        &self,
        op: u64,
        request: MatrixRequest,
        sent: Instant,
        done: Instant,
        response: &Arc<PrivacyForestResponse>,
    );
}

/// Counts and latencies of one phase.
#[derive(Debug, Default)]
pub struct PhaseReport {
    pub name: String,
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    /// Latency of every successful op: from the scheduled send in an open
    /// loop, from the actual send in a closed loop.
    pub latencies_ms: Vec<f64>,
    /// When each successful op completed, in seconds since the phase start.
    pub done_s: Vec<f64>,
    /// How late the generator itself sent each op: the actual send minus the
    /// later of its scheduled time and the moment its connection was free.
    /// Time spent waiting for the server is not lag.
    pub lags_ms: Vec<f64>,
    /// Phase start to the last response.
    pub elapsed: Duration,
    pub first_error: Option<String>,
}

impl PhaseReport {
    pub fn failed(&self) -> u64 {
        self.shed + self.errors
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64()
    }

    pub fn latency_quantile(&self, q: f64) -> f64 {
        quantile(&self.latencies_ms, q).unwrap_or(f64::NAN)
    }

    /// Successful ops per second in each full `window`-long slice of the
    /// phase, by completion time.
    pub fn slice_rates(&self, window: Duration) -> Vec<f64> {
        let width = window.as_secs_f64();
        let mut counts = vec![0u64; (self.elapsed.as_secs_f64() / width).floor() as usize];
        for &done in &self.done_s {
            if let Some(count) = counts.get_mut((done / width) as usize) {
                *count += 1;
            }
        }
        counts.into_iter().map(|c| c as f64 / width).collect()
    }

    pub fn lag_p99_ms(&self) -> f64 {
        quantile(&self.lags_ms, 0.99).unwrap_or(0.0)
    }

    pub fn summary(&self) -> String {
        format!(
            "phase {}: sent {} ok {} failed {} (shed {}, errors {}) in {:.3} s, {:.1} ops/s, p50 {:.3} ms, p99 {:.3} ms, lag p99 {:.3} ms",
            self.name,
            self.sent,
            self.ok,
            self.failed(),
            self.shed,
            self.errors,
            self.elapsed.as_secs_f64(),
            self.ops_per_s(),
            self.latency_quantile(0.5),
            self.latency_quantile(0.99),
            self.lag_p99_ms(),
        )
    }
}

/// Run one phase: client thread `i` drives `clients[i]` through
/// `schedules[i]`; a closed-loop thread stops issuing once `duration` has
/// passed.
pub fn run_phase(
    name: &str,
    clients: &[Client],
    schedules: Vec<Schedule>,
    duration: Duration,
    sink: &dyn OpSink,
) -> PhaseReport {
    assert_eq!(clients.len(), schedules.len(), "one schedule per client");
    let threads = clients.len() as u64;
    let start = Instant::now();
    let parts: Vec<PhaseReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .zip(schedules)
            .enumerate()
            .map(|(index, (client, schedule))| {
                scope.spawn(move || {
                    let mut part = PhaseReport::default();
                    let mut op = index as u64;
                    // When this connection's previous response arrived.
                    let mut ready = start;
                    let mut fire = |request: MatrixRequest,
                                    scheduled: Option<Instant>,
                                    part: &mut PhaseReport| {
                        let sent = Instant::now();
                        let due = scheduled.map_or(ready, |at| at.max(ready));
                        part.lags_ms.push(ms(sent.saturating_duration_since(due)));
                        part.sent += 1;
                        let result = client.request(request);
                        let done = Instant::now();
                        ready = done;
                        match result {
                            Ok(response) => {
                                part.ok += 1;
                                part.latencies_ms.push(ms(done - scheduled.unwrap_or(sent)));
                                part.done_s.push((done - start).as_secs_f64());
                                sink.on_response(op, request, sent, done, &response);
                            }
                            Err(error) => {
                                if error.is_retryable() {
                                    part.shed += 1;
                                } else {
                                    part.errors += 1;
                                }
                                part.first_error.get_or_insert_with(|| error.to_string());
                            }
                        }
                        op += threads;
                    };
                    match schedule {
                        Schedule::Open(slots) => {
                            for (at, request) in slots {
                                let scheduled = start + at;
                                let now = Instant::now();
                                if scheduled > now {
                                    std::thread::sleep(scheduled - now);
                                }
                                fire(request, Some(scheduled), &mut part);
                            }
                        }
                        Schedule::Closed(keys) => {
                            for request in keys {
                                if start.elapsed() >= duration {
                                    break;
                                }
                                fire(request, None, &mut part);
                            }
                        }
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let mut report = PhaseReport {
        name: name.to_string(),
        elapsed: start.elapsed(),
        ..PhaseReport::default()
    };
    for part in parts {
        report.sent += part.sent;
        report.ok += part.ok;
        report.shed += part.shed;
        report.errors += part.errors;
        report.latencies_ms.extend(part.latencies_ms);
        report.done_s.extend(part.done_s);
        report.lags_ms.extend(part.lags_ms);
        if report.first_error.is_none() {
            report.first_error = part.first_error;
        }
    }
    report
}
