//! The cluster harness: a complete CORFU deployment — storage nodes, one
//! sequencer per log and a metalog replica set — for tests, examples and
//! benchmarks, over a pluggable [`Transport`].
//!
//! [`Cluster`] holds one node table keyed by [`NodeId`] and writes the
//! deployment once: the genesis projection, the metalog bootstrap, failure
//! injection (killing any node, which also stops its compactor), spawning
//! replacement storage nodes, sequencers and metalog replicas, clients, and
//! the health verdict. The transport only decides how a node is hosted,
//! where its metrics live, how a client dials, and how a snapshot is read:
//!
//! - [`InProcess`] ([`LocalCluster`]) registers every handler in a shared
//!   [`HandlerRegistry`]. Calls still go through the wire encoding, and every
//!   node and client records into one deployment-wide registry.
//! - [`Tcp`] ([`TcpCluster`]) puts each handler behind a [`TcpServer`] on an
//!   ephemeral localhost port. Each node keeps its *own* registry, as in a
//!   real deployment where processes cannot share an address space, and
//!   exposes it through a per-node [`HttpScrapeServer`].

use std::any::Any;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use tango_flash::{FlashUnit, TieredStore};
use tango_meta::{Dial, MetaClient, MetaNode, ReplicaInfo};
use tango_metrics::{ClusterHealth, ClusterSnapshot, HealthPolicy, Registry};
use tango_rpc::{
    fetch_snapshot, ClientConn, ConnMetrics, HttpScrapeServer, RpcError, RpcHandler, ServerMetrics,
    ServerOptions, TcpConn, TcpServer,
};
use tango_wire::encode_to_vec;

use crate::client::{ClientOptions, ConnFactory, CorfuClient};
use crate::compactor::{Compactor, CompactorConfig};
use crate::layout::LayoutClient;
use crate::projection::{LogLayout, ShardMap};
use crate::sequencer::SequencerServer;
use crate::storage::StorageServer;
use crate::{CorfuError, NodeId, NodeInfo, Projection, Result};

/// Geometry and tuning for a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of independent logs the stream namespace is sharded across,
    /// each with its own sequencer and its own `num_sets` × `replication`
    /// storage nodes. 1 (the default) is the classic single-log deployment.
    pub num_logs: usize,
    /// Number of replica sets each log's address space stripes over.
    pub num_sets: usize,
    /// Replicas per set (chain length).
    pub replication: usize,
    /// Fixed log entry (page) size in bytes.
    pub page_size: usize,
    /// Backpointers maintained per stream (K in §5).
    pub k_backpointers: usize,
    /// Metalog (layout service) replicas. The quorum discipline tolerates
    /// `⌊n/2⌋` fail-stop crashes, so the default of 3 rides through any
    /// single replica failure.
    pub layout_replicas: usize,
    /// Client options handed to [`Cluster::client`], on either transport.
    pub client_options: ClientOptions,
    /// Page store each storage node runs on.
    pub storage: StorageBackend,
    /// When set, every storage node runs a background [`Compactor`] with
    /// this cadence (horizon advance + cold migration + periodic scrub).
    /// The harness owns the handles and stops them on drop.
    pub compaction: Option<CompactorConfig>,
}

/// What a storage node keeps its pages on.
#[derive(Debug, Clone, Default)]
pub enum StorageBackend {
    /// Volatile in-memory pages — the default, and the fastest for unit
    /// tests. No tiering: every page is "hot" forever.
    #[default]
    InMemory,
    /// A [`TieredStore`] per node under `root/node-<id>`: RAM hot tail,
    /// segmented cold files, whole-segment reclamation below the trim
    /// horizon. This is the backend the churn bench runs on.
    Tiered {
        /// Directory under which each node's store lives.
        root: PathBuf,
        /// Cold-tier segment size in pages.
        pages_per_segment: u64,
        /// Target number of hot (RAM) pages per node.
        hot_capacity: usize,
    },
}

impl StorageBackend {
    fn build_unit(&self, node_id: NodeId, page_size: usize) -> Result<FlashUnit> {
        match self {
            StorageBackend::InMemory => Ok(FlashUnit::in_memory(page_size)),
            StorageBackend::Tiered { root, pages_per_segment, hot_capacity } => {
                let dir = root.join(format!("node-{node_id}"));
                let store = TieredStore::open(&dir, page_size, *pages_per_segment, *hot_capacity)
                    .map_err(|e| CorfuError::Storage(e.to_string()))?;
                FlashUnit::open(Box::new(store), page_size)
                    .map_err(|e| CorfuError::Storage(e.to_string()))
            }
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            num_logs: 1,
            num_sets: 3,
            replication: 2,
            page_size: 4096,
            k_backpointers: 4,
            layout_replicas: 3,
            client_options: ClientOptions::default(),
            storage: StorageBackend::InMemory,
            compaction: None,
        }
    }
}

impl ClusterConfig {
    /// A tiny 1x1 cluster for unit tests.
    pub fn tiny() -> Self {
        Self { num_sets: 1, replication: 1, ..Self::default() }
    }

    /// The paper's evaluation deployment: 18 nodes in a 9x2 configuration.
    pub fn paper_testbed() -> Self {
        Self { num_sets: 9, replication: 2, ..Self::default() }
    }

    /// A sharded deployment: `num_logs` logs, each 1x1, streams hash-
    /// partitioned across them.
    pub fn sharded(num_logs: usize) -> Self {
        Self { num_logs, num_sets: 1, replication: 1, ..Self::default() }
    }

    /// Puts every storage node on a [`TieredStore`] under `root` and turns
    /// the background compactor on — the configuration the churn bench and
    /// the reclamation integration tests run.
    pub fn with_tiered_storage(
        mut self,
        root: impl Into<PathBuf>,
        pages_per_segment: u64,
        hot_capacity: usize,
    ) -> Self {
        self.storage =
            StorageBackend::Tiered { root: root.into(), pages_per_segment, hot_capacity };
        self.compaction = Some(CompactorConfig::default());
        self
    }
}

/// Shared registry mapping node addresses to in-process handlers. Removing
/// an address simulates a node crash: subsequent calls fail with
/// `Disconnected`.
#[derive(Clone, Default)]
pub struct HandlerRegistry {
    inner: Arc<RwLock<HashMap<String, Arc<dyn RpcHandler>>>>,
}

impl HandlerRegistry {
    /// Registers (or replaces) the handler at `addr`.
    pub fn register(&self, addr: impl Into<String>, handler: Arc<dyn RpcHandler>) {
        self.inner.write().insert(addr.into(), handler);
    }

    /// Removes the handler at `addr`, simulating a crash.
    pub fn kill(&self, addr: &str) {
        self.inner.write().remove(addr);
    }

    fn lookup(&self, addr: &str) -> Option<Arc<dyn RpcHandler>> {
        self.inner.read().get(addr).cloned()
    }
}

/// A connection that resolves its target in the registry on every call, so
/// kills and restarts take effect immediately.
struct RegistryConn {
    registry: HandlerRegistry,
    addr: String,
}

impl ClientConn for RegistryConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        match self.registry.lookup(&self.addr) {
            Some(handler) => Ok(handler.handle(request)),
            None => Err(RpcError::Disconnected),
        }
    }
}

/// Node id assigned to the first sequencer; replacements count up from it.
pub const SEQUENCER_BASE_ID: NodeId = 10_000;

/// Node id assigned to the first replacement storage node; further
/// replacements count up from it. Kept above the sequencer range so node
/// kind is recoverable from the id.
pub const STORAGE_REPLACEMENT_BASE_ID: NodeId = 20_000;

/// Node id assigned to the first metalog (layout) replica; replacements
/// count up past the initial set. Kept above the storage-replacement range
/// so node kind is recoverable from the id.
pub const LAYOUT_BASE_ID: NodeId = 30_000;

/// Replacement sequencer ids are `SEQUENCER_BASE_ID + generation * 100 +
/// log`, so `(id - SEQUENCER_BASE_ID) % 100` recovers the log.
const SEQUENCER_ID_STRIDE: NodeId = 100;

/// A node's kind, recovered from its id range.
fn kind_of(id: NodeId) -> &'static str {
    if id >= LAYOUT_BASE_ID {
        "layout"
    } else if (SEQUENCER_BASE_ID..STORAGE_REPLACEMENT_BASE_ID).contains(&id) {
        "sequencer"
    } else {
        "storage"
    }
}

/// Node `id`'s monitoring name: its scrape target and its entry in the
/// health verdict, `<kind>-<id>` except for the genesis sequencers, which
/// are `sequencer-<log>` (bare `sequencer` for log 0).
fn node_name(id: NodeId) -> String {
    let log = id.wrapping_sub(SEQUENCER_BASE_ID);
    match kind_of(id) {
        "sequencer" if log == 0 => "sequencer".to_string(),
        "sequencer" if log < SEQUENCER_ID_STRIDE => format!("sequencer-{log}"),
        kind => format!("{kind}-{id}"),
    }
}

/// How a [`Cluster`]'s nodes are hosted and reached.
pub trait Transport: Send + Sync + Sized {
    /// Keeps one hosted node reachable; dropping it takes the node down.
    type Host: Send;

    /// The name the cluster handle's own registry ([`Cluster::metrics`])
    /// carries in a [`ClusterSnapshot`].
    const METRICS_NODE: &'static str;

    /// The registry a new node records into, given the deployment's.
    fn node_registry(&self, deployment: &Registry) -> Registry;

    /// Puts `handler` on the network as node `id`. Returns the address
    /// clients dial and the host keeping it there.
    fn host(
        &self,
        id: NodeId,
        handler: Arc<dyn RpcHandler>,
        registry: &Registry,
    ) -> Result<(String, Self::Host)>;

    /// The HTTP endpoint serving a hosted node's registry, if it has one.
    fn scrape_addr(host: &Self::Host) -> Option<String>;

    /// Dials nodes; connections record transport metrics into `metrics`.
    fn conn_factory(&self, metrics: &Registry) -> Arc<dyn ConnFactory>;
}

/// The in-process transport: handlers live in one [`HandlerRegistry`] and
/// every node records into the deployment-wide registry. Node addresses
/// are `storage-<id>`, `sequencer-<id>` and `meta-<id>`.
#[derive(Clone, Default)]
pub struct InProcess {
    handlers: HandlerRegistry,
}

/// An in-process node's registration; dropping it unregisters the handler.
pub struct LocalHost {
    handlers: HandlerRegistry,
    addr: String,
}

impl Drop for LocalHost {
    fn drop(&mut self) {
        self.handlers.kill(&self.addr);
    }
}

impl Transport for InProcess {
    type Host = LocalHost;
    const METRICS_NODE: &'static str = "local";

    fn node_registry(&self, deployment: &Registry) -> Registry {
        deployment.clone()
    }

    fn host(
        &self,
        id: NodeId,
        handler: Arc<dyn RpcHandler>,
        _registry: &Registry,
    ) -> Result<(String, LocalHost)> {
        let kind = match kind_of(id) {
            "layout" => "meta",
            kind => kind,
        };
        let addr = format!("{kind}-{id}");
        self.handlers.register(addr.clone(), handler);
        Ok((addr.clone(), LocalHost { handlers: self.handlers.clone(), addr }))
    }

    fn scrape_addr(_host: &LocalHost) -> Option<String> {
        None
    }

    fn conn_factory(&self, _metrics: &Registry) -> Arc<dyn ConnFactory> {
        let registry = self.handlers.clone();
        Arc::new(move |node: &NodeInfo| -> Arc<dyn ClientConn> {
            Arc::new(RegistryConn { registry: registry.clone(), addr: node.addr.clone() })
        })
    }
}

/// The TCP transport: each node is a [`TcpServer`] on an ephemeral
/// localhost port with a private registry behind an [`HttpScrapeServer`].
#[derive(Clone, Copy, Default)]
pub struct Tcp;

/// A TCP node's listener and scrape endpoint; dropping it shuts both down
/// and drops open connections.
pub struct TcpHost {
    _server: TcpServer,
    scrape: HttpScrapeServer,
}

impl Transport for Tcp {
    type Host = TcpHost;
    const METRICS_NODE: &'static str = "clients";

    fn node_registry(&self, _deployment: &Registry) -> Registry {
        Registry::new()
    }

    fn host(
        &self,
        _id: NodeId,
        handler: Arc<dyn RpcHandler>,
        registry: &Registry,
    ) -> Result<(String, TcpHost)> {
        // Surface the node's reactor health (connection gauge, dropped
        // accepts) in its own registry so scrapes see transport pressure.
        let options =
            ServerOptions { metrics: ServerMetrics::from_registry(registry), ..Default::default() };
        let server = TcpServer::spawn_with("127.0.0.1:0", handler, options)
            .map_err(|e| CorfuError::Rpc(e.to_string()))?;
        let scrape = HttpScrapeServer::spawn("127.0.0.1:0", registry.clone())
            .map_err(|e| CorfuError::Rpc(e.to_string()))?;
        Ok((server.local_addr().to_string(), TcpHost { _server: server, scrape }))
    }

    fn scrape_addr(host: &TcpHost) -> Option<String> {
        Some(host.scrape.local_addr().to_string())
    }

    fn conn_factory(&self, metrics: &Registry) -> Arc<dyn ConnFactory> {
        let conn_metrics = ConnMetrics::from_registry(metrics);
        Arc::new(move |node: &NodeInfo| -> Arc<dyn ClientConn> {
            Arc::new(TcpConn::new(node.addr.clone()).with_metrics(conn_metrics.clone()))
        })
    }
}

/// One live node of a [`Cluster`].
struct Node<H> {
    /// A storage node's background compactor, when compaction is on.
    /// Declared first so a kill stops it before the node goes off the
    /// network.
    _compactor: Option<Compactor>,
    host: H,
    /// The server behind the handler, for typed lookups.
    server: Arc<dyn Any + Send + Sync>,
    registry: Registry,
}

/// A CORFU deployment over transport `T`.
pub struct Cluster<T: Transport> {
    config: ClusterConfig,
    transport: T,
    /// In-process: every node and client records here. TCP: the clients
    /// only; each node keeps its own registry.
    metrics: Registry,
    /// Every live node. Killing a node removes it.
    nodes: Mutex<HashMap<NodeId, Node<T::Host>>>,
    /// The genesis storage servers, indexed by node id, killed ones included.
    storage: Vec<Arc<StorageServer>>,
    /// The current metalog replica set, in arbitration order.
    layout_replicas: Mutex<Vec<ReplicaInfo>>,
    /// Names of killed nodes still on the monitoring target list; they
    /// count as unreachable in [`Cluster::cluster_health`] until
    /// [`Cluster::retire_scrape_target`] (the "operator updated the target
    /// list" step) removes them.
    dead_targets: Mutex<Vec<String>>,
    sequencer_generation: AtomicU32,
    storage_generation: AtomicU32,
    layout_generation: AtomicU32,
}

/// A cluster on the in-process transport.
pub type LocalCluster = Cluster<InProcess>;

/// A cluster over real TCP sockets on localhost.
pub type TcpCluster = Cluster<Tcp>;

impl LocalCluster {
    /// Builds and wires up an in-process cluster per `config`. Every server
    /// and every [`Cluster::client`] records into one shared metrics
    /// registry ([`Cluster::metrics`]).
    pub fn new(config: ClusterConfig) -> Self {
        Self::with_transport(InProcess::default(), config).expect("build in-process cluster")
    }

    /// The handler registry (for failure injection).
    pub fn registry(&self) -> &HandlerRegistry {
        &self.transport.handlers
    }
}

impl TcpCluster {
    /// Spawns every node on ephemeral localhost ports, each with a private
    /// registry and a scrape endpoint.
    pub fn spawn(config: ClusterConfig) -> Result<Self> {
        Self::with_transport(Tcp, config)
    }
}

impl<T: Transport> Cluster<T> {
    /// Builds the genesis deployment per `config` over `transport`: each
    /// log's storage nodes and sequencer, then the metalog replicas, each
    /// bootstrapped with the genesis projection at position 0.
    fn with_transport(transport: T, config: ClusterConfig) -> Result<Self> {
        let mut cluster = Self {
            config,
            transport,
            metrics: Registry::new(),
            nodes: Mutex::new(HashMap::new()),
            storage: Vec::new(),
            layout_replicas: Mutex::new(Vec::new()),
            dead_targets: Mutex::new(Vec::new()),
            sequencer_generation: AtomicU32::new(1),
            storage_generation: AtomicU32::new(0),
            layout_generation: AtomicU32::new(0),
        };
        let mut logs = Vec::new();
        let mut nodes = Vec::new();
        let mut next_id: NodeId = 0;
        let num_logs = cluster.config.num_logs.max(1);
        for log in 0..num_logs as u32 {
            let mut replica_sets = Vec::new();
            for _ in 0..cluster.config.num_sets {
                let mut set = Vec::new();
                for _ in 0..cluster.config.replication {
                    let (info, server) = cluster.start_storage(next_id, log)?;
                    cluster.storage.push(server);
                    nodes.push(info);
                    set.push(next_id);
                    next_id += 1;
                }
                replica_sets.push(set);
            }
            let (info, _) = cluster.start_sequencer(SEQUENCER_BASE_ID + log, log)?;
            logs.push(LogLayout { epoch: 0, replica_sets, sequencer: info.id });
            nodes.push(info);
        }
        let shard =
            if num_logs == 1 { ShardMap::single() } else { ShardMap::hashed(num_logs as u32) };
        let genesis = Bytes::from(encode_to_vec(&Projection { epoch: 0, logs, shard, nodes }));
        let metas = (0..cluster.config.layout_replicas.max(1) as NodeId)
            .map(|i| cluster.start_layout(LAYOUT_BASE_ID + i))
            .collect::<Result<Vec<_>>>()?;
        let replicas: Vec<ReplicaInfo> = metas.iter().map(|(info, _)| info.clone()).collect();
        for (_, meta) in &metas {
            meta.bootstrap(genesis.clone());
            meta.set_peers(replicas.clone());
        }
        *cluster.layout_replicas.get_mut() = replicas;
        Ok(cluster)
    }

    /// Hosts `server` as node `id` and adds it to the node table.
    fn start<S: RpcHandler + 'static>(
        &self,
        id: NodeId,
        registry: Registry,
        server: Arc<S>,
        compactor: Option<Compactor>,
    ) -> Result<NodeInfo> {
        let (addr, host) = self.transport.host(id, Arc::clone(&server) as _, &registry)?;
        self.nodes.lock().insert(id, Node { _compactor: compactor, host, server, registry });
        Ok(NodeInfo { id, addr })
    }

    fn start_storage(&self, id: NodeId, log: u32) -> Result<(NodeInfo, Arc<StorageServer>)> {
        let registry = self.transport.node_registry(&self.metrics);
        let unit = self.config.storage.build_unit(id, self.config.page_size)?;
        let server = Arc::new(StorageServer::new(unit).with_metrics_for_log(&registry, log as u64));
        let compactor = self
            .config
            .compaction
            .as_ref()
            .map(|c| Compactor::spawn(Arc::clone(&server), c.clone()));
        Ok((self.start(id, registry, Arc::clone(&server), compactor)?, server))
    }

    fn start_sequencer(&self, id: NodeId, log: u32) -> Result<(NodeInfo, Arc<SequencerServer>)> {
        let registry = self.transport.node_registry(&self.metrics);
        let server = Arc::new(
            SequencerServer::new_for_log(self.config.k_backpointers, log).with_metrics(&registry),
        );
        Ok((self.start(id, registry, Arc::clone(&server), None)?, server))
    }

    fn start_layout(&self, id: NodeId) -> Result<(ReplicaInfo, Arc<MetaNode>)> {
        let registry = self.transport.node_registry(&self.metrics);
        let node = Arc::new(MetaNode::new().with_metrics(&registry));
        let info = self.start(id, registry, Arc::clone(&node), None)?;
        Ok((ReplicaInfo { id, addr: info.addr }, node))
    }

    /// Live node `id`'s server, if it is an `S`.
    fn server<S: Send + Sync + 'static>(&self, id: NodeId) -> Option<Arc<S>> {
        Arc::clone(&self.nodes.lock().get(&id)?.server).downcast().ok()
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The cluster handle's registry. In-process, every server and client
    /// records here. Over TCP it holds the clients' `corfu.client.*`,
    /// `stream.*`, `meta.*` and `rpc.*` instruments only; server-side
    /// metrics live in the per-node registries, merged by
    /// [`Cluster::cluster_snapshot`].
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Creates a new client with the configured
    /// [`ClusterConfig::client_options`], recording into
    /// [`Cluster::metrics`].
    pub fn client(&self) -> Result<CorfuClient> {
        self.client_with_metrics(self.metrics.clone())
    }

    /// Creates a client whose instruments record into `metrics` instead of
    /// the cluster handle's registry. Pass [`Registry::disabled()`] to
    /// measure the cost of the no-op instrumentation path.
    pub fn client_with_metrics(&self, metrics: Registry) -> Result<CorfuClient> {
        let factory = self.transport.conn_factory(&metrics);
        self.client_with_factory(factory, self.config.client_options.clone(), metrics)
    }

    /// Creates a client routing node connections through an arbitrary
    /// factory — the hook fault-injection harnesses use to interpose on
    /// every client→server call, layout replicas included.
    pub fn client_with_factory(
        &self,
        factory: Arc<dyn ConnFactory>,
        options: ClientOptions,
        metrics: Registry,
    ) -> Result<CorfuClient> {
        let layout = self.layout_client_with(Arc::clone(&factory), &metrics);
        CorfuClient::with_options_and_metrics(layout, factory, options, metrics)
    }

    /// The cluster's plain connection factory. Test harnesses (e.g. fault
    /// injection) can wrap it and build clients via
    /// [`Cluster::client_with_factory`].
    pub fn conn_factory(&self) -> Arc<dyn ConnFactory> {
        self.transport.conn_factory(&self.metrics)
    }

    /// A layout-service client stub over the metalog replica set.
    pub fn layout_client(&self) -> LayoutClient {
        self.layout_client_with(self.conn_factory(), &self.metrics)
    }

    /// A layout client dialing replicas through `factory` and recording
    /// `meta.*` instruments into `metrics` — the hook fault-injection
    /// harnesses use to interpose on layout traffic too.
    pub fn layout_client_with(
        &self,
        factory: Arc<dyn ConnFactory>,
        metrics: &Registry,
    ) -> LayoutClient {
        let meta = MetaClient::new(self.layout_replicas(), dial(factory)).with_metrics(metrics);
        LayoutClient::replicated(Arc::new(meta))
    }

    /// The genesis storage servers, indexed by node id (killed ones
    /// included), for direct assertions.
    pub fn storage(&self) -> &[Arc<StorageServer>] {
        &self.storage
    }

    /// Log `log`'s genesis sequencer server (for assertions). `None` once
    /// killed.
    pub fn sequencer_of(&self, log: u32) -> Option<Arc<SequencerServer>> {
        self.server(SEQUENCER_BASE_ID + log)
    }

    /// One live storage node's server, replacements included (for
    /// assertions on tier stats or manual compaction). `None` for unknown
    /// or killed nodes.
    pub fn storage_server(&self, id: NodeId) -> Option<Arc<StorageServer>> {
        self.server(id)
    }

    /// One live metalog replica (for assertions). `None` for unknown or
    /// killed replicas.
    pub fn meta_node(&self, id: NodeId) -> Option<Arc<MetaNode>> {
        self.server(id)
    }

    /// The current metalog (layout) replica set, in arbitration order.
    /// Killed replicas stay listed until replaced — a crash does not edit
    /// membership; the quorum client fails over past them.
    pub fn layout_replicas(&self) -> Vec<ReplicaInfo> {
        self.layout_replicas.lock().clone()
    }

    /// The registry live node `id` records into (the shared one
    /// in-process). `None` for unknown or killed nodes.
    pub fn storage_registry(&self, id: NodeId) -> Option<Registry> {
        self.nodes.lock().get(&id).map(|n| n.registry.clone())
    }

    /// Log `log`'s genesis sequencer's registry; a disabled (empty) one
    /// once that sequencer is killed.
    pub fn sequencer_registry_of(&self, log: u32) -> Registry {
        self.storage_registry(SEQUENCER_BASE_ID + log).unwrap_or_default()
    }

    /// One metalog replica's registry (for assertions on `meta.node.*`).
    /// `None` for unknown or killed replicas.
    pub fn layout_registry(&self, id: NodeId) -> Option<Registry> {
        self.storage_registry(id)
    }

    /// Kills node `id`: its compactor stops, it goes off the network, and
    /// every later call to it fails. Membership is untouched. The node
    /// counts as unreachable until [`Cluster::retire_scrape_target`].
    pub fn kill(&self, id: NodeId) {
        let node = self.nodes.lock().remove(&id);
        if node.is_some() {
            self.dead_targets.lock().push(node_name(id));
        }
    }

    /// Kills log `log`'s current sequencer.
    pub fn kill_sequencer_of(&self, log: u32) {
        if let Ok(p) = self.layout_client().get() {
            self.kill(p.sequencer_of(log));
        }
    }

    /// Starts a fresh, empty storage server and returns its node info,
    /// ready for [`crate::reconfig::replace_storage_node`].
    pub fn spawn_replacement_storage(&self) -> Result<(NodeInfo, Arc<StorageServer>)> {
        let gen = self.storage_generation.fetch_add(1, Ordering::SeqCst);
        self.start_storage(STORAGE_REPLACEMENT_BASE_ID + gen, 0)
    }

    /// Starts a fresh, empty sequencer for log `log`, with an id that
    /// encodes the log (see `SEQUENCER_ID_STRIDE`), and returns its node
    /// info, ready for [`crate::reconfig::replace_sequencer`].
    pub fn spawn_replacement_sequencer_for(
        &self,
        log: u32,
    ) -> Result<(NodeInfo, Arc<SequencerServer>)> {
        let gen = self.sequencer_generation.fetch_add(1, Ordering::SeqCst);
        self.start_sequencer(SEQUENCER_BASE_ID + gen * SEQUENCER_ID_STRIDE + log, log)
    }

    /// Replaces the crashed metalog replica `dead`: starts a fresh node,
    /// copies every decided record onto it from the surviving quorum
    /// (catch-up), then installs the new replica set on all members — the
    /// metalog analogue of [`crate::reconfig::replace_storage_node`]'s
    /// chain rebuild. The dead replica leaves the monitoring target list
    /// along with the membership.
    pub fn replace_layout_replica(&self, dead: NodeId) -> Result<ReplicaInfo> {
        let gen = self.layout_generation.fetch_add(1, Ordering::SeqCst);
        let id = LAYOUT_BASE_ID + self.config.layout_replicas.max(1) as NodeId + gen;
        let (info, _node) = self.start_layout(id)?;

        let mut replicas = self.layout_replicas();
        replicas.retain(|r| r.id != dead);
        let factory = self.conn_factory();
        let meta = MetaClient::new(replicas.clone(), dial(Arc::clone(&factory)));
        meta.catch_up(&factory.connect(&NodeInfo { id, addr: info.addr.clone() }))?;

        replicas.push(info.clone());
        meta.install_peers(replicas.clone())?;
        *self.layout_replicas.lock() = replicas;
        self.retire_scrape_target(&node_name(dead));
        Ok(info)
    }

    /// The live HTTP scrape endpoints, as `(node_name, http_addr)` pairs.
    /// In-process nodes have none: they record into the shared registry.
    pub fn scrape_targets(&self) -> Vec<(String, String)> {
        let mut targets: Vec<(String, String)> = self
            .nodes
            .lock()
            .iter()
            .filter_map(|(id, node)| Some((node_name(*id), T::scrape_addr(&node.host)?)))
            .collect();
        targets.sort();
        targets
    }

    /// Scrapes every live target and merges the results with the cluster
    /// handle's registry (named [`Transport::METRICS_NODE`]). Also returns
    /// the targets that failed to answer — a scrape must not wedge on a
    /// dead node.
    fn scrape(&self) -> (ClusterSnapshot, Vec<String>) {
        let mut cluster = ClusterSnapshot::new();
        let mut unreachable = Vec::new();
        for (name, addr) in self.scrape_targets() {
            match fetch_snapshot(&addr, Duration::from_secs(2)) {
                Ok(snap) => cluster.insert(name, snap),
                Err(_) => unreachable.push(name),
            }
        }
        cluster.insert(T::METRICS_NODE, self.metrics.snapshot());
        (cluster, unreachable)
    }

    /// Every registry in the deployment as one [`ClusterSnapshot`]: the
    /// shared one in-process (node `"local"`); over TCP, each live node's
    /// `/snapshot.bin` scraped over HTTP plus the clients' (node
    /// `"clients"`). Nodes that fail to answer are skipped.
    pub fn cluster_snapshot(&self) -> ClusterSnapshot {
        self.scrape().0
    }

    /// Scrapes the cluster and evaluates [`ClusterHealth`]: live targets
    /// that fail to answer and killed-but-not-retired nodes both count as
    /// unreachable, so a fault window reads as `degraded` (or `unhealthy`
    /// once a metalog majority is gone) until repair *and* target-list
    /// cleanup bring it back to `ok`.
    pub fn cluster_health(&self) -> ClusterHealth {
        let (cluster, scrape_failures) = self.scrape();
        let mut unreachable = self.dead_targets.lock().clone();
        unreachable.extend(scrape_failures);
        ClusterHealth::evaluate(&cluster, &unreachable, &HealthPolicy::default())
    }

    /// Drops `name` from the dead-target list after its replacement is in
    /// service — the monitoring analogue of updating the target list.
    pub fn retire_scrape_target(&self, name: &str) {
        self.dead_targets.lock().retain(|n| n != name);
    }
}

/// Dials metalog replicas through a node connection factory.
fn dial(factory: Arc<dyn ConnFactory>) -> Arc<dyn Dial> {
    Arc::new(move |replica: &ReplicaInfo| {
        factory.connect(&NodeInfo { id: replica.id, addr: replica.addr.clone() })
    })
}
