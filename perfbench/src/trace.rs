//! The traced run: spans recorded in memory, written out at exit, and the
//! in-process replays that time each layer from outside through its public
//! functions.
//!
//! Server-internal work cannot be wrapped from outside the program, so for a
//! sample of ops the benchmark replays the same op next to its real TCP
//! roundtrip:
//!
//! ```text
//! request encode → seal → open → lookup → response encode → seal → open → decode
//! ```
//!
//! Each replayed step is a child span of the op's roundtrip span, so the
//! roundtrip's self time — span minus children — is what the replay does not
//! cover: reactor, socket and dispatch.

use crate::stats::us;
use corgi_core::robust::reserved_privacy_budget_approx;
use corgi_core::{generate_robust_matrix_warm, LocationTree, RobustConfig, SolverKind};
use corgi_datagen::PriorDistribution;
use corgi_framework::messages::{MatrixRequest, RequestEnvelope, ResponseEnvelope};
use corgi_framework::transport::FRAME_HEADER_LEN;
use corgi_framework::{rendezvous_rank, ClusterKey, ForestGenerator, MatrixService, WireCodec};
use corgi_lp::BlockAngularSolver;
use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// In-memory span store.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Store a span and return its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("a traced thread panicked");
        spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        spans.len() - 1
    }

    /// Run `work` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        work: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = work();
        self.record(name, start, Instant::now(), parent, op);
        value
    }

    /// Close a span opened with `record` at its start.
    pub fn finish(&self, id: usize, end: Instant) {
        self.spans.lock().expect("a traced thread panicked")[id].end = end;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a traced thread panicked").clone()
    }

    /// Write every span as one JSON line: name, start and end in µs since
    /// process start, parent span id and op id.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self
            .spans
            .lock()
            .expect("a traced thread panicked")
            .iter()
            .enumerate()
        {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"op\": {}}}",
                span.name,
                us(span.start - self.origin),
                us(span.end - self.origin),
                span.op
            )?;
        }
        out.flush()
    }
}

/// Replay one served op in-process through the public layer functions, as
/// children of its roundtrip span `parent`.  Returns the size of the sealed
/// response frame.
pub fn replay_hit(
    tracer: &Tracer,
    parent: usize,
    op: u64,
    request: MatrixRequest,
    service: &dyn MatrixService,
    key: &ClusterKey,
    endpoints: &[String],
) -> u64 {
    let codec = WireCodec::Binary;
    let frame = tracer.time("codec.encode_request", Some(parent), op, || {
        codec.encode_frame(&RequestEnvelope::new(op, request))
    });
    let sealed = tracer.time("auth.seal_request", Some(parent), op, || key.seal(frame));
    let payload = tracer
        .time("auth.open_request", Some(parent), op, || {
            key.open(&sealed).map(<[u8]>::to_vec)
        })
        .expect("a frame sealed with the cluster key opens");
    let decoded: RequestEnvelope = tracer
        .time("codec.decode_request", Some(parent), op, || {
            codec.decode_payload(&payload)
        })
        .expect("an encoded request decodes");
    let forest = tracer
        .time("service.lookup", Some(parent), op, || {
            service.privacy_forest(decoded.request)
        })
        .expect("a served key is resident");
    let frame = tracer.time("codec.encode_response", Some(parent), op, || {
        codec.encode_frame(&ResponseEnvelope::forest(op, forest))
    });
    let sealed = tracer.time("auth.seal_response", Some(parent), op, || key.seal(frame));
    let response_frame = sealed.len() as u64;
    let (header, body) = sealed.split_at(FRAME_HEADER_LEN);
    let mut body = body.to_vec();
    tracer
        .time("auth.open_response", Some(parent), op, || {
            key.open_split(header, &mut body)
        })
        .expect("a frame sealed with the cluster key opens");
    let envelope: ResponseEnvelope = tracer
        .time("codec.decode_response", Some(parent), op, || {
            codec.decode_payload(&body)
        })
        .expect("an encoded response decodes");
    envelope
        .into_result()
        .expect("the replayed response carries a forest");
    // Routing is a client-side layer that runs before the roundtrip; it is
    // timed here but kept out of the roundtrip's children.
    tracer.time("cluster.route", None, op, || {
        rendezvous_rank(endpoints, request.privacy_level, request.delta)
    });
    response_frame
}

/// Replay the cold path of `request` layer by layer in a fresh generator,
/// over every subtree of its level.  The generator first solves δ = 0 of
/// the level: the neighbour a served miss seeds from.  Returns the mean
/// interior-point iterations of each subtree's first robust LP, solved cold
/// and seeded with the neighbour's converged iterate.
pub fn replay_cold_path(
    tracer: &Tracer,
    op: u64,
    request: MatrixRequest,
    tree: LocationTree,
    prior: PriorDistribution,
    config: corgi_framework::ServerConfig,
) -> (f64, f64) {
    let subtrees = tree
        .privacy_forest(request.privacy_level)
        .expect("the mix only holds valid levels");
    let generator = ForestGenerator::new(tree, prior, config);
    let neighbour = MatrixRequest {
        privacy_level: request.privacy_level,
        delta: 0,
    };
    let opened = Instant::now();
    let root = tracer.record("replay.cold_path", opened, opened, None, op);
    tracer
        .time("service.forest_neighbour", Some(root), op, || {
            generator.generate(neighbour)
        })
        .expect("the neighbour forest solves");
    tracer
        .time("service.forest", Some(root), op, || {
            generator.generate(request)
        })
        .expect("the replayed forest solves");

    let robust = |delta: usize| RobustConfig {
        delta,
        iterations: config.robust_iterations,
        solver: SolverKind::Auto,
    };
    let (mut cold, mut warm) = (0usize, 0usize);
    for subtree in &subtrees {
        let problem = tracer.time("core.build_lp", Some(root), op, || {
            let problem = generator
                .problem_for_subtree(subtree)
                .expect("every subtree yields an LP");
            problem.build_lp(None).expect("the LP builds");
            problem
        });
        let base = generate_robust_matrix_warm(&problem, &robust(0), None)
            .expect("the neighbour chain solves");
        tracer
            .time("core.chain", Some(root), op, || {
                generate_robust_matrix_warm(&problem, &robust(request.delta), base.warm.as_ref())
            })
            .expect("the chain solves");
        // The first refinement of the chain: the reserved budget of the
        // neighbour's matrix, then the robust LP solved cold and seeded with
        // the neighbour's converged iterate.
        let rpb = tracer.time("core.rpb", Some(root), op, || {
            reserved_privacy_budget_approx(
                &base.matrix,
                problem.distances(),
                problem.epsilon(),
                request.delta,
            )
        });
        let (lp, blocks) = problem.build_lp(Some(&rpb)).expect("the robust LP builds");
        let solver = BlockAngularSolver::new(blocks, problem.solver_options());
        cold += tracer
            .time("lp.solve_cold", Some(root), op, || {
                solver.solve_with_warm(&lp, None)
            })
            .expect("the subtree LP solves")
            .iterations;
        warm += tracer
            .time("lp.solve_warm", Some(root), op, || {
                solver.solve_with_warm(&lp, base.warm.as_ref())
            })
            .expect("the subtree LP solves")
            .iterations;
    }
    tracer.finish(root, Instant::now());
    let count = subtrees.len().max(1) as f64;
    (cold as f64 / count, warm as f64 / count)
}
