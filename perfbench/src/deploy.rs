//! The two deployments the workloads run on, behind one small interface:
//! clients (plain or traced), one merged metrics snapshot, and the storage
//! nodes with the log each serves.

use std::sync::Arc;

use corfu::cluster::{ClusterConfig, LocalCluster, TcpCluster, LAYOUT_BASE_ID};
use corfu::{ClientOptions, ConnFactory, CorfuClient, LayoutClient, NodeInfo, StorageServer};
use tango_meta::{Dial, MetaClient, ReplicaInfo};
use tango_metrics::{Registry, Sampler, Snapshot};
use tango_rpc::{ClientConn, ConnMetrics, TcpConn};

use crate::trace::{TimedDial, TimedFactory};

pub enum Deployment {
    Local(LocalCluster),
    /// `TcpCluster` keeps its config private, so the copy it was built
    /// from rides along.
    Tcp(Box<TcpCluster>, ClusterConfig),
}

impl Deployment {
    pub fn local(config: ClusterConfig) -> Self {
        Deployment::Local(LocalCluster::new(config))
    }

    pub fn tcp(config: ClusterConfig) -> Self {
        let cluster = TcpCluster::spawn(config.clone()).expect("spawn TCP cluster");
        Deployment::Tcp(Box::new(cluster), config)
    }

    fn config(&self) -> &ClusterConfig {
        match self {
            Deployment::Local(c) => c.config(),
            Deployment::Tcp(_, cfg) => cfg,
        }
    }

    /// A client. A traced client has every call wrapped by the timing
    /// wrapper (metalog calls included) and samples every operation.
    pub fn client(&self, traced: bool) -> CorfuClient {
        let mut client = match (self, traced) {
            (Deployment::Local(c), false) => c.client().expect("local client"),
            (Deployment::Tcp(c, _), false) => c.client().expect("tcp client"),
            (Deployment::Local(c), true) => c
                .client_with_factory(
                    Arc::new(TimedFactory(c.conn_factory())),
                    c.config().client_options.clone(),
                    c.metrics().clone(),
                )
                .expect("traced local client"),
            (Deployment::Tcp(c, _), true) => traced_tcp_client(c),
        };
        if traced {
            client.set_sampling(Sampler::one_in(1));
        }
        client
    }

    /// One snapshot of every registry in the deployment: the shared one on
    /// `LocalCluster`; the client registry plus every node's own on TCP.
    pub fn snapshot(&self) -> Snapshot {
        match self {
            Deployment::Local(c) => c.metrics().snapshot(),
            Deployment::Tcp(c, cfg) => {
                let mut snap = c.metrics().snapshot();
                let mut merge = |r: Registry| snap = snap.merged_with(&r.snapshot());
                for id in 0..storage_node_count(cfg) {
                    if let Some(r) = c.storage_registry(id) {
                        merge(r);
                    }
                }
                for log in 0..cfg.num_logs.max(1) as u32 {
                    merge(c.sequencer_registry_of(log));
                }
                for i in 0..cfg.layout_replicas.max(1) as u32 {
                    if let Some(r) = c.layout_registry(LAYOUT_BASE_ID + i) {
                        merge(r);
                    }
                }
                snap
            }
        }
    }

    /// Every storage node with the log it serves.
    pub fn storage_nodes(&self) -> Vec<(u32, Arc<StorageServer>)> {
        let cfg = self.config();
        let per_log = (cfg.num_sets * cfg.replication) as u32;
        let servers: Vec<Arc<StorageServer>> = match self {
            Deployment::Local(c) => c.storage().to_vec(),
            Deployment::Tcp(c, _) => (0..storage_node_count(cfg))
                .map(|id| c.storage_server(id).expect("storage node alive"))
                .collect(),
        };
        servers.into_iter().enumerate().map(|(i, s)| (i as u32 / per_log, s)).collect()
    }
}

fn storage_node_count(cfg: &ClusterConfig) -> u32 {
    (cfg.num_logs.max(1) * cfg.num_sets * cfg.replication) as u32
}

fn traced_tcp_client(c: &TcpCluster) -> CorfuClient {
    let registry = c.metrics().clone();
    let conn_metrics = ConnMetrics::from_registry(&registry);
    let dial_metrics = conn_metrics.clone();
    let dial: Arc<dyn Dial> = Arc::new(move |r: &ReplicaInfo| -> Arc<dyn ClientConn> {
        Arc::new(TcpConn::new(r.addr.clone()).with_metrics(dial_metrics.clone()))
    });
    let layout = LayoutClient::replicated(Arc::new(
        MetaClient::new(c.layout_replicas(), Arc::new(TimedDial(dial))).with_metrics(&registry),
    ));
    let factory: Arc<dyn ConnFactory> = Arc::new(move |node: &NodeInfo| -> Arc<dyn ClientConn> {
        Arc::new(TcpConn::new(node.addr.clone()).with_metrics(conn_metrics.clone()))
    });
    CorfuClient::with_options_and_metrics(
        layout,
        Arc::new(TimedFactory(factory)),
        ClientOptions::default(),
        registry,
    )
    .expect("traced tcp client")
}
