//! The measured program: the serving stack in its deployed configuration.
//!
//! Every knob the stack reads is set here — environment variables, every
//! field of `ServerConfig`, `TransportConfig`, `ClientConfig`,
//! `ReplicationConfig`, `RouterConfig` and `CacheConfig` — so the benchmark
//! measures the same program on every machine and under every environment.

use corgi_core::LocationTree;
use corgi_datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi_framework::messages::{MatrixRequest, PrivacyForestResponse, ServiceError};
use corgi_framework::{
    rendezvous_rank, CacheConfig, CachingService, ClientConfig, ClusterKey, ForestGenerator,
    MatrixService, ReactorBackend, ReplicatingService, ReplicationConfig, Replicator, RouterConfig,
    ServerConfig, ShardRouter, TcpServer, TcpTransport, TransportConfig, WireCodec,
};
use corgi_hexgrid::{HexGrid, HexGridConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared secret of the benchmark cluster; every server, peer link and client
/// holds the `ClusterKey` derived from it.
const CLUSTER_SECRET: &[u8] = b"corgi-perfbench-cluster-secret";

/// Reactor threads per server (what `reactor_shards = 0` resolves to on a
/// 2-core host, pinned so a larger host measures the same program).
pub const REACTOR_SHARDS: usize = 2;
/// Dispatch-pool threads per server (the `TransportConfig` default).
pub const DISPATCH_THREADS: usize = 4;
/// Subtree-LP workers per forest generation (what `worker_threads = 0`
/// resolves to on a 2-core host).
pub const WORKER_THREADS: usize = 2;
/// Interior-point kernel threads (`CORGI_LP_THREADS`; 1 is the default serial
/// kernel path).
pub const LP_THREADS: usize = 1;
/// Client threads, each owning one connection (or one router).
pub const CLIENT_THREADS: usize = 2;
/// Per-request client deadline; far above any single level-2 solve.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Set or clear every environment variable the stack reads, before any
/// thread starts.
pub fn pin_environment() {
    std::env::set_var("CORGI_WIRE_CODEC", "binary");
    std::env::set_var("CORGI_REACTOR_BACKEND", "epoll");
    std::env::set_var("CORGI_LP_THREADS", LP_THREADS.to_string());
    std::env::remove_var("CORGI_CLUSTER_KEY");
    std::env::remove_var("CORGI_CLUSTER_KEY_PREVIOUS");
    std::env::remove_var("CORGI_IPM_TRACE");
}

pub fn cluster_key() -> ClusterKey {
    ClusterKey::from_secret(CLUSTER_SECRET)
}

/// The default `ServerConfig`, with the worker count pinned.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        epsilon: 15.0,
        robust_iterations: 10,
        targets_per_subtree: 49,
        graph_approximation: true,
        target_seed: 7,
        worker_threads: WORKER_THREADS,
    }
}

fn transport_config(key: &ClusterKey, replication: Option<Arc<Replicator>>) -> TransportConfig {
    TransportConfig {
        // Raised from the 64 KiB default so peers accept `WarmPush` frames
        // carrying a whole level-2 forest (~137 KB).
        max_inbound_frame: 1024 * 1024,
        write_queue_depth: 64,
        max_inflight_per_connection: 128,
        dispatch_threads: DISPATCH_THREADS,
        max_dispatch_backlog: 64,
        io_poll_interval: Duration::from_micros(500),
        reactor_backend: ReactorBackend::Epoll,
        reactor_shards: REACTOR_SHARDS,
        handshake_timeout: Duration::from_secs(5),
        read_idle_timeout: None,
        max_warm_keys: 1024,
        warm_on_start: None,
        codecs: vec![WireCodec::Binary],
        cluster_key: Some(key.clone()),
        replication,
        fault_plan: None,
    }
}

pub fn client_config(key: &ClusterKey) -> ClientConfig {
    ClientConfig {
        max_frame: 64 * 1024 * 1024,
        read_timeout: Some(REQUEST_TIMEOUT),
        codecs: vec![WireCodec::Binary],
        cluster_key: Some(key.clone()),
        fault_plan: None,
    }
}

fn replication_config(key: &ClusterKey) -> ReplicationConfig {
    ReplicationConfig {
        queue_depth: 64,
        push_payloads: true,
        codecs: vec![WireCodec::Binary],
        cluster_key: Some(key.clone()),
        connect_timeout: Duration::from_secs(5),
        retry_backoff: Duration::from_millis(50),
        max_backoff: Duration::from_secs(2),
        max_frame: 64 * 1024 * 1024,
        health: None,
        fault_plan: None,
    }
}

fn router_config(key: &ClusterKey) -> RouterConfig {
    RouterConfig {
        client: client_config(key),
        retry_rounds: 3,
        retry_backoff: Duration::from_millis(25),
        health: None,
    }
}

/// The public inputs every server is built from: the San Francisco grid and
/// a prior fitted to synthetic check-ins.
pub fn world() -> (HexGrid, PriorDistribution) {
    let grid = HexGrid::new(HexGridConfig::san_francisco()).expect("static grid config is valid");
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::small_test()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    (grid, prior)
}

/// One running server and in-process handles on its layers.
pub struct Shard {
    pub server: TcpServer,
    /// The served stack (the caching layer on top).
    pub service: Arc<dyn MatrixService>,
    /// The forest generator under the cache, shared with the served stack.
    pub generator: Arc<ForestGenerator>,
    pub replicator: Option<Arc<Replicator>>,
}

impl Shard {
    /// Build the stack `CachingService(ForestGenerator)` — with a
    /// `ReplicatingService` between the two when `replicated` — and bind it.
    pub fn boot(
        addr: SocketAddr,
        cache: CacheConfig,
        replicated: bool,
        key: &ClusterKey,
    ) -> std::io::Result<Self> {
        let (grid, prior) = world();
        let generator = Arc::new(ForestGenerator::new(
            LocationTree::new(grid),
            prior,
            server_config(),
        ));
        let replicator = replicated.then(|| Replicator::new(replication_config(key)));
        let service: Arc<dyn MatrixService> = match &replicator {
            Some(replicator) => Arc::new(CachingService::new(
                ReplicatingService::new(Arc::clone(&generator), Arc::clone(replicator)),
                cache,
            )),
            None => Arc::new(CachingService::new(Arc::clone(&generator), cache)),
        };
        let server = TcpServer::bind(
            addr,
            Arc::clone(&service),
            transport_config(key, replicator.clone()),
        )?;
        Ok(Self {
            server,
            service,
            generator,
            replicator,
        })
    }

    pub fn endpoint(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Pushes this shard has sent to its peers so far.
    pub fn pushes_sent(&self) -> u64 {
        self.replicator
            .as_ref()
            .map_or(0, |r| r.peer_stats().iter().map(|p| p.pushes_sent).sum())
    }

    /// Pushes this shard's bounded peer queues have dropped so far.
    pub fn pushes_dropped(&self) -> u64 {
        self.replicator
            .as_ref()
            .map_or(0, |r| r.peer_stats().iter().map(|p| p.pushes_dropped).sum())
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Bind a second shard on a port whose rendezvous ranking makes each key of
/// `placement` owned by the shard named with it: 0 for `first`, 1 for the
/// new one.  Ephemeral ports are random, so without this the split of the
/// mix between the shards — and with it the load each shard sees — would
/// change from run to run.
pub fn boot_placed_peer(
    first: &str,
    placement: &[((u8, usize), usize)],
    cache: CacheConfig,
    key: &ClusterKey,
) -> std::io::Result<Shard> {
    const LOWEST: u32 = 1024;
    let span = u32::from(u16::MAX) + 1 - LOWEST;
    let start: u32 = first
        .rsplit(':')
        .next()
        .and_then(|port| port.parse().ok())
        .unwrap_or(40_000);
    // Walk the unprivileged ports upward from the first shard's; only a port
    // whose ranking matches is bound (and skipped if it is taken).
    let mut last_error = None;
    for step in 1..span {
        let port = LOWEST + (start.saturating_sub(LOWEST) + step) % span;
        let candidate = format!("127.0.0.1:{port}");
        let endpoints = [first.to_string(), candidate];
        let placed = placement
            .iter()
            .all(|&((level, delta), owner)| rendezvous_rank(&endpoints, level, delta)[0] == owner);
        if placed {
            let addr: SocketAddr = endpoints[1].parse().expect("a literal socket address");
            match Shard::boot(addr, cache, true, key) {
                Ok(shard) => return Ok(shard),
                Err(error) => last_error = Some(error),
            }
        }
    }
    Err(last_error.unwrap_or_else(|| std::io::Error::other("no port gives the key placement")))
}

/// A client thread's handle on the cluster: a direct transport to one
/// server, or a router over the shard set.
pub enum Client {
    Direct(TcpTransport),
    // Boxed: the router (endpoints, shard slots, rank memo) dwarfs the
    // direct transport.
    Routed(Box<ShardRouter>),
}

impl Client {
    pub fn connect(endpoints: &[String], key: &ClusterKey) -> Result<Self, ServiceError> {
        if endpoints.len() == 1 {
            TcpTransport::connect_with(endpoints[0].as_str(), client_config(key))
                .map(Client::Direct)
        } else {
            ShardRouter::connect(endpoints.iter().cloned(), router_config(key))
                .map(|router| Client::Routed(Box::new(router)))
        }
    }

    pub fn request(
        &self,
        request: MatrixRequest,
    ) -> Result<Arc<PrivacyForestResponse>, ServiceError> {
        match self {
            Client::Direct(transport) => transport.privacy_forest(request),
            Client::Routed(router) => router.privacy_forest(request),
        }
    }
}

/// Poll until `done` holds, or fail after `limit`.
pub fn wait_until(limit: Duration, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let start = Instant::now();
    while !done() {
        if start.elapsed() > limit {
            return Err(format!("condition not reached within {limit:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}
