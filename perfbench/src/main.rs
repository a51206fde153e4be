//! End-to-end serving benchmark of the keyed CORGI stack.
//!
//! ```text
//! perfbench --workload hit|miss|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Boots the serving stack in its deployed configuration (HMAC-keyed binary
//! protocol on the epoll reactor, the default `ServerConfig`, every thread
//! count pinned), drives one workload through the public client API from
//! this process, verifies every forest it was served, and prints one JSON
//! line last: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`.  Lines before it, prefixed
//! `# `, describe the configuration, every phase and the verification.

mod load;
mod stack;
mod stats;
mod trace;
mod verify;

use corgi_framework::messages::{MatrixRequest, PrivacyForestResponse};
use corgi_framework::{rendezvous_rank, CacheConfig, ClusterKey, TcpTransport};
use load::{
    closed_schedules, open_schedules, requests, run_phase, Mix, OpSink, PhaseReport, Schedule,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use stack::{Client, Shard};
use stats::{median, ms, us, usage};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::Tracer;
use verify::ResponseLog;

/// Stack builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// An open-loop phase is invalid when the generator's own send lag at p99
/// exceeds both this floor and `LAG_LIMIT_SHARE` of the latency p99: the
/// client, not the server, would then be setting the tail.
const LAG_FLOOR_MS: f64 = 5.0;
const LAG_LIMIT_SHARE: f64 = 0.25;

/// `hit`: the warm plan covers the whole mix.
const HIT_KEYS: [(u8, usize); 8] = [
    (1, 0),
    (1, 1),
    (1, 2),
    (1, 3),
    (2, 0),
    (2, 1),
    (2, 2),
    (2, 3),
];
/// Open-loop rate: about a third of the closed-loop rate.  Two synchronous
/// connections queue behind each other's slow ops well before half.
const HIT_OPEN_RATE_HZ: f64 = 500.0;

/// `miss`: δ = 0 of level 2 is warmed; the sweep requests distinct level-2
/// δ values in a seeded order: all of 1..=24 first, then 25..=40.
const MISS_LEVEL: u8 = 2;
const MISS_FIRST_BLOCK: usize = 24;
const MISS_MAX_DELTA: usize = 40;

/// `mixed`: the warm plan, Zipf-skewed, hottest first.  Every
/// `MIXED_COLD_EVERY`-th request asks instead for one of two level-1 keys
/// outside the plan, in turn; the count is even, so the round-robin deal
/// gives every cold request to the same client thread, one after another.
/// The hot keys alternate between the two shards; the first shard owns both
/// cold keys.  Each shard caches `MIXED_CAPACITY` forests: its two hot keys
/// plus one slot.  On the first shard the two cold keys evict each other
/// from that slot, so every cold request misses and solves, whatever the
/// timing of replication, while hot requests keep hitting.  On the second,
/// the slot takes the replicated copies.
///
/// The level-2 key ranks third, so it draws 16 % of the hot requests.  A
/// level-2 hit takes about four times a level-1 one; ranked first, it drew
/// 48 %, the median fell in the gap between the two latency modes, and
/// `p50_ms` jumped with every small shift of the drawn mix.
const MIXED_HOT: [(u8, usize); 4] = [(1, 0), (1, 1), (2, 0), (1, 2)];
const MIXED_COLD: [(u8, usize); 2] = [(1, 4), (1, 5)];
const MIXED_COLD_EVERY: usize = 200;
const MIXED_CAPACITY: usize = 3;
/// Open-loop rate, about a quarter of the `mixed` closed-loop rate.
const MIXED_OPEN_RATE_HZ: f64 = 300.0;
/// Slice length of the per-slice throughput printed for each phase.
const WINDOW: Duration = Duration::from_millis(500);

const ZIPF_EXPONENT: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Hit,
    Miss,
    Mixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "hit" => Some(Self::Hit),
            "miss" => Some(Self::Miss),
            "mixed" => Some(Self::Mixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Mixed => "mixed",
        }
    }

    /// Ops of the traced phase that get an in-process replay: one in N.
    fn replay_every(self) -> u64 {
        match self {
            Self::Miss => 1,
            Self::Hit | Self::Mixed => 16,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A booted cluster with its client threads' handles.
struct Deployment {
    shards: Vec<Shard>,
    clients: Vec<Client>,
    endpoints: Vec<String>,
    codec: String,
}

impl Deployment {
    fn shutdown(self) {
        drop(self.clients);
        for shard in self.shards {
            shard.shutdown();
        }
    }

    /// The shard that owns `request` (rendezvous rank 0).
    fn owner(&self, request: MatrixRequest) -> &Shard {
        let index = rendezvous_rank(&self.endpoints, request.privacy_level, request.delta)[0];
        &self.shards[index]
    }
}

/// Build, bind and warm the workload's cluster and connect its clients.
fn deploy(workload: Workload, key: &ClusterKey) -> Result<Deployment, String> {
    let io = |e: std::io::Error| e.to_string();
    let service_error = |e: corgi_framework::ServiceError| e.to_string();
    let any_port: std::net::SocketAddr = "127.0.0.1:0".parse().expect("literal address");
    let (shards, warm_keys, client_threads) = match workload {
        Workload::Hit | Workload::Miss => {
            let cache = CacheConfig {
                capacity: 64,
                shards: 8,
            };
            let shard = Shard::boot(any_port, cache, false, key).map_err(io)?;
            if workload == Workload::Hit {
                (vec![shard], HIT_KEYS.to_vec(), stack::CLIENT_THREADS)
            } else {
                (vec![shard], vec![(MISS_LEVEL, 0)], 1)
            }
        }
        Workload::Mixed => {
            let cache = CacheConfig {
                capacity: MIXED_CAPACITY,
                shards: 1,
            };
            // Hot keys alternate between the shards; the cold ones are the
            // first shard's.
            let placement: Vec<((u8, usize), usize)> = MIXED_HOT
                .iter()
                .enumerate()
                .map(|(position, &hot)| (hot, position % 2))
                .chain(MIXED_COLD.iter().map(|&cold| (cold, 0)))
                .collect();
            // Some first ports admit no partner with that placement; draw
            // another.
            let mut pair = None;
            for _ in 0..16 {
                let first = Shard::boot(any_port, cache, true, key).map_err(io)?;
                match stack::boot_placed_peer(&first.endpoint(), &placement, cache, key) {
                    Ok(second) => {
                        pair = Some((first, second));
                        break;
                    }
                    Err(_) => first.shutdown(),
                }
            }
            let (first, second) = pair.ok_or("no port pair places the mix")?;
            for (from, to) in [(&first, &second), (&second, &first)] {
                if let Some(replicator) = &from.replicator {
                    replicator.add_peer(to.endpoint());
                }
            }
            (
                vec![first, second],
                MIXED_HOT.to_vec(),
                stack::CLIENT_THREADS,
            )
        }
    };
    let endpoints: Vec<String> = shards.iter().map(Shard::endpoint).collect();
    let clients = (0..client_threads)
        .map(|_| Client::connect(&endpoints, key))
        .collect::<Result<Vec<_>, _>>()
        .map_err(service_error)?;
    if shards.len() == 1 {
        // In-process, the way a server runs a warm plan.
        for request in requests(&warm_keys) {
            shards[0]
                .service
                .privacy_forest(request)
                .map_err(service_error)?;
        }
    } else {
        // Through the router, so each key solves once on its owner and
        // replicates to the peer.  A replicated copy evicts the receiver's
        // least recently used entry; touching every key warmed so far after
        // each copy is inserted keeps that entry a copy, never an owner's
        // own key.  Every key is new, so each one is inserted twice: by its
        // owner's solve and by the peer's push.
        let misses = || -> u64 {
            shards
                .iter()
                .filter_map(|s| s.service.cache_stats())
                .map(|c| c.misses)
                .sum()
        };
        let inserts = || -> u64 { shards.iter().map(|s| s.service.cache_generation()).sum() };
        let start = inserts();
        let warm = requests(&warm_keys);
        for solved in 1..=warm.len() {
            clients[0]
                .request(warm[solved - 1])
                .map_err(service_error)?;
            stack::wait_until(Duration::from_secs(60), || {
                inserts() >= start + 2 * solved as u64
            })?;
            let before = misses();
            for &request in &warm[..solved] {
                clients[0].request(request).map_err(service_error)?;
            }
            if misses() != before {
                return Err("a replicated copy evicted a warmed key".to_string());
            }
        }
    }
    let codec = TcpTransport::connect_with(endpoints[0].as_str(), stack::client_config(key))
        .map_err(service_error)?
        .codec()
        .to_string();
    Ok(Deployment {
        shards,
        clients,
        endpoints,
        codec,
    })
}

/// Counters summed over the cluster, for deltas across the measured phases.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    bytes_out: u64,
    shed: u64,
    backpressure_stalls: u64,
    pushes_sent: u64,
    pushes_dropped: u64,
    warm_started: u64,
    cold: u64,
}

impl Counters {
    fn read(deployment: &Deployment) -> Self {
        let mut c = Self::default();
        for shard in &deployment.shards {
            if let Some(cache) = shard.service.cache_stats() {
                c.hits += cache.hits;
                c.misses += cache.misses;
                c.coalesced += cache.coalesced;
                c.evictions += cache.evictions;
            }
            let transport = shard.server.stats();
            c.bytes_out += transport.bytes_out;
            c.shed += transport.requests_shed;
            c.backpressure_stalls += transport.backpressure_stalls;
            c.pushes_sent += shard.pushes_sent();
            c.pushes_dropped += shard.pushes_dropped();
            let seeds = shard.generator.warm_stats();
            c.warm_started += seeds.warm_started;
            c.cold += seeds.cold;
        }
        c
    }

    fn since(self, before: Self) -> Self {
        Self {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            coalesced: self.coalesced - before.coalesced,
            evictions: self.evictions - before.evictions,
            bytes_out: self.bytes_out - before.bytes_out,
            shed: self.shed - before.shed,
            backpressure_stalls: self.backpressure_stalls - before.backpressure_stalls,
            pushes_sent: self.pushes_sent - before.pushes_sent,
            pushes_dropped: self.pushes_dropped - before.pushes_dropped,
            warm_started: self.warm_started - before.warm_started,
            cold: self.cold - before.cold,
        }
    }
}

/// Records every response for verification and, in the traced phase, a
/// roundtrip span per op plus an in-process replay of every N-th op.
struct Sink<'a> {
    log: &'a ResponseLog,
    trace: Option<Traced<'a>>,
}

struct Traced<'a> {
    tracer: &'a Tracer,
    every: u64,
    deployment: &'a Deployment,
    key: &'a ClusterKey,
    frame_bytes: Mutex<Vec<u64>>,
}

impl OpSink for Sink<'_> {
    fn on_response(
        &self,
        op: u64,
        request: MatrixRequest,
        sent: Instant,
        done: Instant,
        response: &Arc<PrivacyForestResponse>,
    ) {
        self.log.record(request, response);
        let Some(traced) = &self.trace else {
            return;
        };
        let roundtrip = traced
            .tracer
            .record("transport.roundtrip", sent, done, None, op);
        if !op.is_multiple_of(traced.every) {
            return;
        }
        let service = traced.deployment.owner(request).service.as_ref();
        // An op whose key was evicted since it was served would replay a
        // solve, not a lookup.
        if service.resident(request).is_none() {
            return;
        }
        let frame_bytes = trace::replay_hit(
            traced.tracer,
            roundtrip,
            op,
            request,
            service,
            traced.key,
            &traced.deployment.endpoints,
        );
        traced
            .frame_bytes
            .lock()
            .expect("a client thread panicked")
            .push(frame_bytes);
    }
}

/// One named metric value.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!("# {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN; a run with such a metric is already invalid.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Mean duration in ms of the spans called `name`.
fn span_mean_ms(spans: &[trace::Span], name: &str) -> f64 {
    span_mean_us(spans, name) / 1e3
}

/// Mean duration in µs of the spans called `name`.
fn span_mean_us(spans: &[trace::Span], name: &str) -> f64 {
    let values: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| us(s.duration()))
        .collect();
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload hit|miss|mixed --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    stack::pin_environment();
    match run(&args, process_start) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    }
}

/// Run the benchmark; `Ok(false)` when a check failed.
fn run(args: &Args, process_start: Instant) -> Result<bool, String> {
    let key = stack::cluster_key();
    let workload = args.workload;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let (deployment, setups) = set_up(workload, &key, process_start)?;
    print_configuration(args, &deployment, &key);
    println!(
        "# setup: {} builds, {:?} s",
        setups.len(),
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );

    let sweep = miss_sweep(&mut rng);
    let mix = match workload {
        // `miss` sends its sweep; the mix is unused there.
        Workload::Hit | Workload::Miss => Mix::zipf(&HIT_KEYS, ZIPF_EXPONENT),
        Workload::Mixed => Mix::with_cold(&MIXED_HOT, ZIPF_EXPONENT, &MIXED_COLD, MIXED_COLD_EVERY),
    };
    let log = ResponseLog::default();
    let seconds = Duration::from_secs_f64(args.seconds);
    let measured = measure(workload, &deployment, &mix, &sweep, seconds, &mut rng, &log);
    let mut attempted: u64 = measured.phases.iter().map(|p| p.sent).sum();
    let mut failed: u64 = measured.phases.iter().map(|p| p.failed()).sum();

    let mut metrics = if args.trace {
        let (metrics, traced) = traced_run(
            args,
            &deployment,
            &key,
            &log,
            &mix,
            &sweep,
            &mut rng,
            &measured,
            process_start,
        )?;
        attempted += traced.sent;
        failed += traced.failed();
        metrics
    } else {
        let closed = measured.closed();
        vec![
            metric("setup_s", median(&setups).expect("set-ups ran"), "s"),
            metric("p50_ms", closed.latency_quantile(0.5), "ms"),
            metric("cpu_ms_per_op", measured.cpu_ms_per_op, "ms"),
            metric(
                "ok_frac",
                measured.ok as f64 / attempted.max(1) as f64,
                "ratio",
            ),
        ]
    };

    // Verification covers every response of every phase.
    let verdict = verify::verify(
        &log,
        &deployment.shards[0].generator,
        &corgi_core::LocationTree::new(stack::world().0),
        Counters::read(&deployment).since(measured.before).misses,
        args.seed,
    );
    println!("# {}", verdict.summary());
    for failure in verdict.failures.iter().take(10) {
        println!("# verify failure: {failure}");
    }
    let invalid = measured.invalid(workload);
    if let Some(reason) = &invalid {
        println!("# invalid run: {reason}");
    }
    if args.trace {
        metrics.push(metric(
            "verify.prune_violation_pct",
            verdict.prune_violation_pct(),
            "%",
        ));
        metrics.push(metric(
            "verify.forests_checked",
            verdict.forests as f64,
            "count",
        ));
    }
    // A phase without a successful op leaves a metric without a value.
    let missing: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if !missing.is_empty() {
        println!("# invalid run: no value for {}", missing.join(", "));
    }
    let correct = verdict.passed() && invalid.is_none() && missing.is_empty();
    deployment.shutdown();
    print_result(correct, attempted, failed, &metrics);
    Ok(correct)
}

/// Set the cluster up `SETUP_REPS` times; the last deployment is the one
/// measured.  Returns it with every set-up's duration in seconds, the first
/// counted from process start.
fn set_up(
    workload: Workload,
    key: &ClusterKey,
    process_start: Instant,
) -> Result<(Deployment, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut deployment: Option<Deployment> = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        if let Some(previous) = deployment.take() {
            previous.shutdown();
        }
        deployment = Some(deploy(workload, key)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    Ok((deployment.expect("at least one set-up"), setups))
}

fn print_configuration(args: &Args, deployment: &Deployment, key: &ClusterKey) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} | backend={} codec={} keyed={} servers={} reactor_shards={} dispatch_threads={} worker_threads={} lp_threads={} client_threads={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        deployment.shards[0].server.backend().label(),
        deployment.codec,
        stack::client_config(key).cluster_key.is_some(),
        deployment.shards.len(),
        deployment.shards[0].server.shard_count(),
        stack::DISPATCH_THREADS,
        deployment.shards[0].generator.worker_threads(),
        stack::LP_THREADS,
        deployment.clients.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
}

/// The `miss` sweep.  The untraced phase covers almost all of the first
/// block whatever the seed, so every seed measures nearly the same keys;
/// the traced phase continues into the second block.
fn miss_sweep(rng: &mut StdRng) -> Vec<MatrixRequest> {
    [1..=MISS_FIRST_BLOCK, MISS_FIRST_BLOCK + 1..=MISS_MAX_DELTA]
        .into_iter()
        .flat_map(|block| {
            let mut deltas: Vec<usize> = block.collect();
            deltas.shuffle(rng);
            deltas
        })
        .map(|delta| MatrixRequest {
            privacy_level: MISS_LEVEL,
            delta,
        })
        .collect()
}

/// The untraced measured phases and what they cost.
struct Measured {
    /// `hit`, `mixed`: the open loop, then the closed loop; `miss`: the sweep.
    phases: Vec<PhaseReport>,
    /// Cluster counters before the first phase.
    before: Counters,
    /// Counter deltas over the phases.
    counters: Counters,
    /// Successful ops over the phases.
    ok: u64,
    cpu_ms_per_op: f64,
}

impl Measured {
    /// The phase that sets latency with a schedule (the sweep on `miss`).
    fn open(&self) -> &PhaseReport {
        &self.phases[0]
    }

    /// The phase whose latency and throughput are the end-to-end metrics.
    fn closed(&self) -> &PhaseReport {
        self.phases.last().expect("at least one phase")
    }

    /// Why the run is invalid, if the open-loop generator lagged.  A p99
    /// needs at least ten samples beyond it, so a shorter phase is not
    /// judged.
    fn invalid(&self, workload: Workload) -> Option<String> {
        let open = self.open();
        let limit = LAG_FLOOR_MS.max(LAG_LIMIT_SHARE * open.latency_quantile(0.99));
        let judged = workload != Workload::Miss && open.sent >= 1000;
        (judged && open.lag_p99_ms() > limit).then(|| {
            format!(
                "the open-loop generator fell behind its schedule: send lag p99 {:.3} ms > {limit:.3} ms",
                open.lag_p99_ms()
            )
        })
    }
}

fn measure(
    workload: Workload,
    deployment: &Deployment,
    mix: &Mix,
    sweep: &[MatrixRequest],
    seconds: Duration,
    rng: &mut StdRng,
    log: &ResponseLog,
) -> Measured {
    let sink = Sink { log, trace: None };
    let clients = &deployment.clients;
    let threads = clients.len();
    let before = Counters::read(deployment);
    let usage_before = usage();
    let phases = match workload {
        Workload::Hit | Workload::Mixed => {
            let rate = if workload == Workload::Hit {
                HIT_OPEN_RATE_HZ
            } else {
                MIXED_OPEN_RATE_HZ
            };
            let (open_length, closed_length) = (seconds / 3, seconds - seconds / 3);
            let open = open_schedules(mix, rate, open_length, threads, rng);
            let open = run_phase("open", clients, open, open_length, &sink);
            let closed = closed_schedules(mix, closed_length, threads, rng);
            let closed = run_phase("closed", clients, closed, closed_length, &sink);
            vec![open, closed]
        }
        Workload::Miss => {
            let sweep = vec![Schedule::Closed(sweep.to_vec())];
            vec![run_phase("sweep", clients, sweep, seconds, &sink)]
        }
    };
    let cpu = usage().cpu - usage_before.cpu;
    let counters = Counters::read(deployment).since(before);
    for phase in &phases {
        println!("# {}", phase.summary());
        let rates = phase.slice_rates(WINDOW);
        if rates.len() > 1 {
            println!(
                "# phase {}: ops/s per {} ms slice: {:?}",
                phase.name,
                WINDOW.as_millis(),
                rates.iter().map(|r| r.round() as u64).collect::<Vec<_>>()
            );
        }
        if let Some(error) = &phase.first_error {
            println!("# phase {}: first error: {error}", phase.name);
        }
    }
    println!(
        "# cache over the measured phases: {} hits, {} misses ({} coalesced), {} evictions, {} pushes sent ({} dropped), {} subtree solves ({} neighbour-seeded)",
        counters.hits,
        counters.misses,
        counters.coalesced,
        counters.evictions,
        counters.pushes_sent,
        counters.pushes_dropped,
        counters.warm_started + counters.cold,
        counters.warm_started,
    );
    let ok: u64 = phases.iter().map(|p| p.ok).sum();
    Measured {
        phases,
        before,
        counters,
        ok,
        cpu_ms_per_op: ms(cpu) / ok.max(1) as f64,
    }
}

/// The traced run: a closed-loop phase with spans and replays, then the
/// cold path of one key layer by layer.  Returns the per-layer metrics
/// (without the verification figures) and the traced phase.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    args: &Args,
    deployment: &Deployment,
    key: &ClusterKey,
    log: &ResponseLog,
    mix: &Mix,
    sweep: &[MatrixRequest],
    rng: &mut StdRng,
    measured: &Measured,
    process_start: Instant,
) -> Result<(Vec<Metric>, PhaseReport), String> {
    let workload = args.workload;
    let tracer = Tracer::new(process_start);
    let sink = Sink {
        log,
        trace: Some(Traced {
            tracer: &tracer,
            every: workload.replay_every(),
            deployment,
            key,
            frame_bytes: Mutex::new(Vec::new()),
        }),
    };
    let length = Duration::from_secs_f64(args.seconds) / 3;
    let schedules = match workload {
        Workload::Miss => {
            let done = (measured.open().sent as usize).min(sweep.len());
            vec![Schedule::Closed(sweep[done..].to_vec())]
        }
        Workload::Hit | Workload::Mixed => {
            closed_schedules(mix, length, deployment.clients.len(), rng)
        }
    };
    let traced = run_phase("traced", &deployment.clients, schedules, length, &sink);
    println!("# {}", traced.summary());

    let cold_key = match workload {
        Workload::Hit => MatrixRequest {
            privacy_level: 1,
            delta: 3,
        },
        Workload::Mixed => requests(&MIXED_COLD)[0],
        Workload::Miss => sweep[0],
    };
    let (grid, prior) = stack::world();
    let (iters_cold, iters_warm) = trace::replay_cold_path(
        &tracer,
        u64::MAX,
        cold_key,
        corgi_core::LocationTree::new(grid),
        prior,
        stack::server_config(),
    );

    let spans = tracer.spans();
    // Roundtrip and self time over the replayed ops: self time is the
    // roundtrip minus its children.
    let mut roundtrips = Vec::new();
    let mut selves = Vec::new();
    for (id, span) in spans.iter().enumerate() {
        if span.name != "transport.roundtrip" {
            continue;
        }
        let children: Vec<&trace::Span> = spans.iter().filter(|s| s.parent == Some(id)).collect();
        if children.is_empty() {
            continue;
        }
        let covered: f64 = children.iter().map(|c| us(c.duration())).sum();
        roundtrips.push(us(span.duration()));
        selves.push(us(span.duration()) - covered);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let frame_bytes: Vec<f64> = sink
        .trace
        .as_ref()
        .expect("the traced sink traces")
        .frame_bytes
        .lock()
        .expect("a client thread panicked")
        .iter()
        .map(|&b| b as f64)
        .collect();
    let seal_s: f64 = spans
        .iter()
        .filter(|s| s.name == "auth.seal_response")
        .map(|s| s.duration().as_secs_f64())
        .sum();
    let mb_per_s = frame_bytes.iter().sum::<f64>() / 1e6 / seal_s.max(1e-12);
    let overhead_pct =
        (traced.latency_quantile(0.5) / measured.closed().latency_quantile(0.5) - 1.0) * 100.0;
    let (failovers, owner_share_max) = cluster_figures(deployment);
    let counters = &measured.counters;
    let lookups = counters.hits + counters.misses;
    let total = Counters::read(deployment);
    let all_solves = total.warm_started + total.cold;
    println!(
        "# breakdown (mean µs over {} replayed ops): roundtrip {:.1} = self {:.1} + spans {:.1}",
        roundtrips.len(),
        mean(&roundtrips),
        mean(&selves),
        mean(&roundtrips) - mean(&selves)
    );
    let open = measured.open();
    let metrics = vec![
        metric("loadgen.lag_p99_ms", open.lag_p99_ms(), "ms"),
        metric("loadgen.open_p50_ms", open.latency_quantile(0.5), "ms"),
        metric("loadgen.open_p99_ms", open.latency_quantile(0.99), "ms"),
        metric(
            "loadgen.closed_p99_ms",
            measured.closed().latency_quantile(0.99),
            "ms",
        ),
        metric(
            "loadgen.closed_ops_per_s",
            measured.closed().ops_per_s(),
            "1/s",
        ),
        metric("process.peak_rss_mb", usage().peak_rss_mb, "MB"),
        metric(
            "auth.seal_us",
            span_mean_us(&spans, "auth.seal_response"),
            "us",
        ),
        metric(
            "auth.open_us",
            span_mean_us(&spans, "auth.open_response"),
            "us",
        ),
        metric("auth.mb_per_s", mb_per_s, "MB/s"),
        metric(
            "codec.encode_us",
            span_mean_us(&spans, "codec.encode_response"),
            "us",
        ),
        metric(
            "codec.decode_us",
            span_mean_us(&spans, "codec.decode_response"),
            "us",
        ),
        metric("codec.frame_bytes", mean(&frame_bytes), "bytes"),
        metric(
            "service.lookup_us",
            span_mean_us(&spans, "service.lookup"),
            "us",
        ),
        metric(
            "service.hit_ratio",
            counters.hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        metric("service.coalesced", counters.coalesced as f64, "count"),
        metric("service.evictions", counters.evictions as f64, "count"),
        metric("transport.roundtrip_us", mean(&roundtrips), "us"),
        metric("transport.self_us", mean(&selves), "us"),
        metric(
            "transport.bytes_out_per_op",
            counters.bytes_out as f64 / measured.ok.max(1) as f64,
            "bytes",
        ),
        metric("transport.shed", counters.shed as f64, "count"),
        metric(
            "transport.backpressure_stalls",
            counters.backpressure_stalls as f64,
            "count",
        ),
        metric(
            "service.forest_ms",
            span_mean_ms(&spans, "service.forest"),
            "ms",
        ),
        metric(
            "service.warm_seed_ratio",
            total.warm_started as f64 / all_solves.max(1) as f64,
            "ratio",
        ),
        metric(
            "core.build_lp_ms",
            span_mean_ms(&spans, "core.build_lp"),
            "ms",
        ),
        metric("core.chain_ms", span_mean_ms(&spans, "core.chain"), "ms"),
        metric("core.rpb_us", span_mean_us(&spans, "core.rpb"), "us"),
        metric("lp.solve_ms", span_mean_ms(&spans, "lp.solve_cold"), "ms"),
        metric(
            "lp.solve_warm_ms",
            span_mean_ms(&spans, "lp.solve_warm"),
            "ms",
        ),
        metric("lp.iters_cold", iters_cold, "count"),
        metric("lp.iters_warm", iters_warm, "count"),
        metric(
            "cluster.route_us",
            span_mean_us(&spans, "cluster.route"),
            "us",
        ),
        metric("cluster.failovers", failovers as f64, "count"),
        metric("cluster.pushes_sent", counters.pushes_sent as f64, "count"),
        metric(
            "cluster.pushes_dropped",
            counters.pushes_dropped as f64,
            "count",
        ),
        metric("cluster.owner_share_max", owner_share_max, "ratio"),
        metric("trace.overhead_pct", overhead_pct, "%"),
    ];
    let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/traces")).join(format!(
        "{}-seed{}.jsonl",
        workload.name(),
        args.seed
    ));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans: {} written to {}", spans.len(), path.display());
    Ok((metrics, traced))
}

/// Router failovers and the largest share of requests one shard answered.
fn cluster_figures(deployment: &Deployment) -> (u64, f64) {
    let mut failovers = 0;
    let mut per_shard = vec![0u64; deployment.shards.len()];
    for client in &deployment.clients {
        if let Client::Routed(router) = client {
            let stats = router.cluster_stats();
            failovers += stats.failovers;
            for (slot, peer) in per_shard.iter_mut().zip(&stats.peers) {
                *slot += peer.requests;
            }
        }
    }
    let total: u64 = per_shard.iter().sum();
    let share = if total == 0 {
        1.0
    } else {
        *per_shard.iter().max().expect("at least one shard") as f64 / total as f64
    };
    (failovers, share)
}
