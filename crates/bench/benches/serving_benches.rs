//! Serving-stack benchmarks: concurrent vs serial privacy-forest generation,
//! the cached request path, the wire codecs, and warm-cache transport
//! throughput over loopback TCP.
//!
//! The K per-subtree LP solves of Algorithm 3 are independent, so
//! `ForestGenerator` fans them out over a fixed-size thread pool; this bench
//! pins the speed-up against the serial baseline (throughput is reported in
//! subtrees per second, so the two rows are directly comparable), plus the
//! cost of a cache hit through `CachingService` — in-process, per-codec
//! (encode+decode of the warm-hit forest response in binary vs JSON, the
//! ratio the perf gate holds), and across the full event-driven stack
//! (frames, reactor, dispatch pool) under each codec, unkeyed and with HMAC
//! frame authentication on — plus the HMAC itself on each SHA-256 backend.

use corgi_core::LocationTree;
use corgi_datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi_framework::auth::{hmac_sha256, hmac_sha256_with, Sha256Backend};
use corgi_framework::messages::{MatrixRequest, RequestEnvelope, ResponseEnvelope};
use corgi_framework::transport::try_decode_frame;
use corgi_framework::{
    CachingService, ClientConfig, ClusterKey, ForestGenerator, MatrixService, ReactorBackend,
    ServerConfig, TcpServer, TcpTransport, TransportConfig, WarmRequest, WireCodec,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

fn generator(worker_threads: usize) -> ForestGenerator {
    let grid = corgi_hexgrid::HexGrid::new(corgi_hexgrid::HexGridConfig::san_francisco())
        .expect("static grid config is valid");
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    ForestGenerator::new(
        LocationTree::new(grid),
        prior,
        ServerConfig::builder()
            .robust_iterations(2)
            .targets_per_subtree(5)
            .worker_threads(worker_threads)
            .build(),
    )
}

fn bench_forest_generation(c: &mut Criterion) {
    let pooled = generator(0);
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 1,
    };
    let subtrees = 49u64; // level 1 of the height-3 tree

    let mut group = c.benchmark_group("privacy_forest_49_subtrees");
    group.sample_size(10);
    group.throughput(Throughput::Elements(subtrees));
    group.bench_function("serial", |b| {
        b.iter(|| pooled.generate_serial(request).expect("generation"));
    });
    group.bench_function(format!("pooled_{}_threads", pooled.worker_threads()), |b| {
        b.iter(|| pooled.generate(request).expect("generation"));
    });
    group.finish();
}

fn bench_cached_request_path(c: &mut Criterion) {
    let service = CachingService::with_defaults(generator(0));
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    service.privacy_forest(request).expect("warm the cache");

    let mut group = c.benchmark_group("cached_request");
    group.sample_size(30);
    group.throughput(Throughput::Elements(1));
    group.bench_function("hit", |b| {
        b.iter(|| service.privacy_forest(request).expect("cache hit"));
    });
    group.finish();
}

/// Pure codec cost of the warm-hit payload: encode + decode of the ~70 KB
/// level-1 forest `ResponseEnvelope` (and of the tiny request envelope) in
/// each codec.  This is exactly the work PR 5 moved off the hot path, so the
/// perf gate holds the `/binary` vs `/json` ratio: losing the raw-`f64`-run
/// encoding shows up as an order-of-magnitude ratio jump on any hardware.
fn bench_wire_codec(c: &mut Criterion) {
    let service = CachingService::with_defaults(generator(0));
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    let forest = service.privacy_forest(request).expect("warm the cache");
    let response = ResponseEnvelope::forest(1, forest);
    let request_envelope = RequestEnvelope::new(1, request);

    let mut group = c.benchmark_group("wire_codec");
    group.sample_size(40);
    for codec in [WireCodec::Binary, WireCodec::Json] {
        let encoded = codec.encode_frame(&response);
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_function(format!("forest_roundtrip/{codec}"), |b| {
            b.iter(|| {
                let mut frame = codec.encode_frame(&response);
                let (_, payload) = try_decode_frame(&mut frame, usize::MAX)
                    .expect("well-formed frame")
                    .expect("complete frame");
                let decoded: ResponseEnvelope =
                    codec.decode_payload(&payload).expect("decodable payload");
                decoded
            });
        });
        group.throughput(Throughput::Elements(1));
        group.bench_function(format!("request_roundtrip/{codec}"), |b| {
            b.iter(|| {
                let mut frame = codec.encode_frame(&request_envelope);
                let (_, payload) = try_decode_frame(&mut frame, usize::MAX)
                    .expect("well-formed frame")
                    .expect("complete frame");
                let decoded: RequestEnvelope =
                    codec.decode_payload(&payload).expect("decodable payload");
                decoded
            });
        });
    }
    group.finish();
}

/// Warm-cache request/response round trips across the loopback transport:
/// requests per second through frame encode → reactor → dispatch pool → cache
/// hit → frame decode, with zero LP solves on the measured path — under the
/// negotiated binary codec (`warm_hit_roundtrip`), the forced JSON codec
/// (`warm_hit_roundtrip_json`, the perf gate's reference sibling), and with
/// the transport removed entirely (`warm_hit_inprocess`, the floor the
/// transport overhead is measured against).
fn bench_transport_roundtrip(c: &mut Criterion) {
    let service = Arc::new(CachingService::with_defaults(generator(0)));
    let config = TransportConfig {
        warm_on_start: Some(WarmRequest::level(1, 0)),
        codecs: vec![WireCodec::Binary, WireCodec::Json],
        ..TransportConfig::default()
    };
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn MatrixService>,
        config,
    )
    .expect("binding the loopback bench server");
    let binary = TcpTransport::connect_with(
        server.local_addr(),
        ClientConfig {
            codecs: vec![WireCodec::Binary, WireCodec::Json],
            ..ClientConfig::default()
        },
    )
    .expect("connecting to loopback (binary)");
    assert_eq!(binary.codec(), WireCodec::Binary);
    let json = TcpTransport::connect_with(
        server.local_addr(),
        ClientConfig {
            codecs: vec![WireCodec::Json],
            ..ClientConfig::default()
        },
    )
    .expect("connecting to loopback (json)");
    assert_eq!(json.codec(), WireCodec::Json);
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    // Ensure the startup warm has landed before timing (the first request
    // coalesces onto it if it is still in flight).
    binary.privacy_forest(request).expect("warm-up request");

    let mut group = c.benchmark_group("transport_loopback");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));
    group.bench_function("warm_hit_roundtrip", |b| {
        b.iter(|| binary.privacy_forest(request).expect("cache hit over TCP"));
    });
    group.bench_function("warm_hit_roundtrip_json", |b| {
        b.iter(|| json.privacy_forest(request).expect("cache hit over TCP"));
    });
    group.bench_function("warm_hit_inprocess", |b| {
        b.iter(|| service.privacy_forest(request).expect("cache hit"));
    });
    group.finish();
    drop(binary);
    drop(json);
    server.shutdown();
}

/// The same warm-hit round trip under each reactor backend, measured in one
/// run: `warm_hit_roundtrip/epoll` blocks on socket readiness and answers as
/// soon as the request frame lands, while `warm_hit_roundtrip/tick` only
/// discovers it on the next 500 µs poll tick.  The perf gate holds the
/// epoll/tick ratio — losing the readiness path (a broken epoll registration
/// silently falling back to a timer somewhere) shows up as the ratio
/// collapsing toward 1.0, far past the gate on any hardware.
fn bench_reactor_backend(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_loopback");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    for backend in [ReactorBackend::Epoll, ReactorBackend::Tick] {
        let service = Arc::new(CachingService::with_defaults(generator(0)));
        let config = TransportConfig {
            reactor_backend: backend,
            reactor_shards: 1,
            warm_on_start: Some(WarmRequest::level(1, 0)),
            codecs: vec![WireCodec::Binary, WireCodec::Json],
            ..TransportConfig::default()
        };
        let server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service) as Arc<dyn MatrixService>,
            config,
        )
        .expect("binding the loopback bench server");
        let transport = TcpTransport::connect(server.local_addr()).expect("connecting to loopback");
        transport.privacy_forest(request).expect("warm-up request");
        group.bench_function(format!("warm_hit_roundtrip/{}", backend.label()), |b| {
            b.iter(|| {
                transport
                    .privacy_forest(request)
                    .expect("cache hit over TCP")
            });
        });
        drop(transport);
        server.shutdown();
    }
    group.finish();
}

/// The same warm hit with HMAC frame authentication on, the configuration a
/// real cluster runs: every request and reply frame is signed on one side and
/// verified on the other, so this bench moves with the SHA-256 backend.  Its
/// name deliberately avoids the `warm_hit_roundtrip` substring, which the
/// perf gate rewrites to the JSON sibling.
fn bench_keyed_roundtrip(c: &mut Criterion) {
    let key = ClusterKey::from_secret(b"serving-bench-cluster");
    let service = Arc::new(CachingService::with_defaults(generator(0)));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn MatrixService>,
        TransportConfig {
            warm_on_start: Some(WarmRequest::level(1, 0)),
            cluster_key: Some(key.clone()),
            ..TransportConfig::default()
        },
    )
    .expect("binding the keyed loopback bench server");
    let transport = TcpTransport::connect_with(
        server.local_addr(),
        ClientConfig {
            cluster_key: Some(key),
            ..ClientConfig::default()
        },
    )
    .expect("connecting to the keyed loopback server");
    let request = MatrixRequest {
        privacy_level: 1,
        delta: 0,
    };
    transport.privacy_forest(request).expect("warm-up request");

    let mut group = c.benchmark_group("transport_loopback");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));
    group.bench_function("keyed_warm_hit", |b| {
        b.iter(|| {
            transport
                .privacy_forest(request)
                .expect("keyed cache hit over TCP")
        });
    });
    group.finish();
    drop(transport);
    server.shutdown();
}

/// HMAC-SHA-256 over a level-2-sized (137 KB) frame, on the dispatched
/// backend every keyed frame uses (`137k/sha_ni`: SHA-NI wherever the CPU
/// has it) and on the scalar reference (`137k/scalar`), in the same run.  The
/// perf gate holds the ratio and caps it on SHA-NI hosts; elsewhere both
/// sides run the scalar path and the cap relaxes to parity.
fn bench_auth_hmac(c: &mut Criterion) {
    let key = [0x5a_u8; 32];
    let frame: Vec<u8> = (0..137_000u32).map(|i| (i % 251) as u8).collect();
    let mut group = c.benchmark_group("auth_hmac");
    group.sample_size(30);
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("137k/sha_ni", |b| {
        b.iter(|| hmac_sha256(&key, &[&frame]));
    });
    group.bench_function("137k/scalar", |b| {
        b.iter(|| hmac_sha256_with(Sha256Backend::Scalar, &key, &[&frame]));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_forest_generation,
    bench_cached_request_path,
    bench_wire_codec,
    bench_transport_roundtrip,
    bench_reactor_backend,
    bench_keyed_roundtrip,
    bench_auth_hmac
);
criterion_main!(benches);
