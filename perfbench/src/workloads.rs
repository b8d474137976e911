//! The four workloads. Each block spawns a fresh deployment, runs a fixed
//! number of closed-loop ops (every op blocks its caller), then a fixed
//! side probe of the op kinds the timed phase does not issue, a cold
//! restore, and the correctness checks.

use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use corfu::cluster::ClusterConfig;
use tango::{TangoRuntime, TxStatus};
use tango_objects::TangoMap;
use workload::{KeyDist, SplitMix64, TxMix};

use crate::deploy::Deployment;
use crate::measure::{Block, TierCounts, Window};
use crate::trace::{self, op, OpKind, SpanTotals};

pub type KvMap = TangoMap<u64, Vec<u8>>;

/// A map's contents, sorted by key.
type Contents = Vec<(u64, Vec<u8>)>;

/// The keys a transaction read and the values it saw.
type Seen = Vec<(u64, Option<Vec<u8>>)>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvLocal,
    TxTcp,
    XlogTcp,
    RestoreTiered,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::KvLocal, Workload::TxTcp, Workload::XlogTcp, Workload::RestoreTiered];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvLocal => "kv-local",
            Workload::TxTcp => "tx-tcp",
            Workload::XlogTcp => "xlog-tcp",
            Workload::RestoreTiered => "restore-tiered",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The fixed input size of one block.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// kv-local: preloaded keys, and put/get ops per client thread.
    pub kv_keys: u64,
    pub kv_ops: usize,
    /// tx-tcp / xlog-tcp: keys per map, and tx attempts per client thread.
    pub tx_keys: u64,
    pub tx_ops: usize,
    pub xlog_ops: usize,
    /// Side-probe ops of each missing kind, per client thread.
    pub probe_ops: usize,
    /// restore-tiered: keys per map (each map's checkpoint must fit one
    /// page), updates between checkpoint_and_trim calls, number of those
    /// calls, the update suffix after the last one, and cold restores.
    pub tier_keys: u64,
    pub tier_trim_every: usize,
    pub tier_trims: usize,
    pub tier_suffix: usize,
    pub tier_restores: usize,
    pub tier_probe_ops: usize,
}

impl Sizes {
    /// Every block issues at least 1,000 ops of each latency kind, so each
    /// block's own p99 has ten samples above it.
    pub fn full() -> Self {
        Sizes {
            kv_keys: 10_000,
            kv_ops: 10_000,
            tx_keys: 1_000,
            tx_ops: 2_000,
            xlog_ops: 500,
            probe_ops: 1_000,
            tier_keys: 24,
            tier_trim_every: 1_000,
            tier_trims: 3,
            tier_suffix: 2_000,
            tier_restores: 3,
            tier_probe_ops: 1_000,
        }
    }

    /// Small enough for the self-test to run every workload in seconds.
    pub fn tiny() -> Self {
        Sizes {
            kv_keys: 500,
            kv_ops: 300,
            tx_keys: 100,
            tx_ops: 100,
            xlog_ops: 30,
            probe_ops: 30,
            tier_keys: 24,
            tier_trim_every: 200,
            tier_trims: 2,
            tier_suffix: 150,
            tier_restores: 2,
            tier_probe_ops: 30,
        }
    }
}

/// What a block needs to know beyond its workload.
pub struct BlockCtx<'a> {
    pub seed: u64,
    pub block: u64,
    pub traced: bool,
    pub sizes: &'a Sizes,
    /// Corrupt the expected restore state, to show the check catches it.
    pub plant_wrong: bool,
    /// Where tiered stores keep their segment files.
    pub work_dir: &'a Path,
}

pub fn run_block(w: Workload, ctx: &BlockCtx) -> Block {
    match w {
        Workload::KvLocal => kv_local(ctx),
        Workload::TxTcp => tx_tcp(ctx, false),
        Workload::XlogTcp => tx_tcp(ctx, true),
        Workload::RestoreTiered => restore_tiered(ctx),
    }
}

// ----------------------------------------------------------------------
// Values: every value names its key and the (writer, seq) that wrote it,
// so a check can tell whether some put that took effect wrote it.
// ----------------------------------------------------------------------

const VALUE_LEN: usize = 100;
const PRELOAD_WRITER: u8 = 255;

fn value(key: u64, writer: u8, seq: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN + 8);
    v.extend_from_slice(&key.to_le_bytes());
    v.push(writer);
    v.extend_from_slice(&seq.to_le_bytes());
    let mut fill = SplitMix64::new(key ^ seq.rotate_left(17) ^ (u64::from(writer) << 56));
    while v.len() < VALUE_LEN {
        v.extend_from_slice(&fill.next_u64().to_le_bytes());
    }
    v.truncate(VALUE_LEN);
    v
}

/// The (writer, seq) a value names, if it is a well-formed value of `key`.
fn value_origin(key: u64, v: &[u8]) -> Option<(u8, u64)> {
    if v.len() != VALUE_LEN {
        return None;
    }
    let k = u64::from_le_bytes(v[0..8].try_into().ok()?);
    let writer = v[8];
    let seq = u64::from_le_bytes(v[9..17].try_into().ok()?);
    (k == key && value(k, writer, seq) == v).then_some((writer, seq))
}

/// One client thread's op generator and its results.
struct Worker {
    id: u8,
    rng: SplitMix64,
    next_seq: u64,
    /// Seqs of this writer's values that took effect: plain puts that
    /// returned `Ok`, and the writes of committed transactions.
    effective: HashSet<u64>,
    update_ns: Vec<u64>,
    query_ns: Vec<u64>,
    tx_ns: Vec<u64>,
    checkpoint_trim_ms: Vec<f64>,
    attempted: u64,
    tx_attempts: u64,
    tx_commits: u64,
    tx_aborts: u64,
    errors: Vec<String>,
    digest: u64,
}

impl Worker {
    fn new(id: u8, ctx: &BlockCtx) -> Self {
        let stream = (ctx.block << 8) | u64::from(id);
        Worker {
            id,
            rng: SplitMix64::new(ctx.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            next_seq: 0,
            effective: HashSet::new(),
            update_ns: Vec::new(),
            query_ns: Vec::new(),
            tx_ns: Vec::new(),
            checkpoint_trim_ms: Vec::new(),
            attempted: 0,
            tx_attempts: 0,
            tx_commits: 0,
            tx_aborts: 0,
            errors: Vec::new(),
            digest: 0,
        }
    }

    fn note(&mut self, tag: u64, key: u64) {
        self.digest = (self.digest.rotate_left(7) ^ tag ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    fn put(&mut self, map: &KvMap, key: u64) {
        self.note(1, key);
        let seq = self.take_seq();
        let v = value(key, self.id, seq);
        self.attempted += 1;
        let (r, ns) = op(OpKind::Update, || map.put(&key, &v));
        match r {
            Ok(()) => {
                self.effective.insert(seq);
                self.update_ns.push(ns);
            }
            Err(e) => self.errors.push(format!("put {key}: {e}")),
        }
    }

    fn get(&mut self, map: &KvMap, key: u64) {
        self.note(2, key);
        self.attempted += 1;
        let (r, ns) = op(OpKind::Query, || map.get(&key));
        match r {
            Ok(v) => {
                self.query_ns.push(ns);
                self.check_read(key, v.as_deref());
            }
            Err(e) => self.errors.push(format!("get {key}: {e}")),
        }
    }

    fn check_read(&mut self, key: u64, v: Option<&[u8]>) {
        if v.is_some_and(|v| value_origin(key, v).is_none()) {
            self.errors.push(format!("read of key {key} returned a value no put wrote"));
        }
    }

    /// One transaction attempt: read `reads`, write `writes`, end it.
    fn tx(&mut self, rt: &TangoRuntime, reads: &[(&KvMap, u64)], writes: &[(&KvMap, u64)]) {
        for &(_, k) in reads {
            self.note(3, k);
        }
        let writes: Vec<(&KvMap, u64, u64, Vec<u8>)> = writes
            .iter()
            .map(|&(m, k)| {
                self.note(4, k);
                let seq = self.take_seq();
                (m, k, seq, value(k, self.id, seq))
            })
            .collect();
        self.attempted += 1;
        self.tx_attempts += 1;
        let (r, ns) = op(OpKind::Tx, || -> tango::Result<(TxStatus, Seen)> {
            rt.begin_tx()?;
            let body = (|| -> tango::Result<Seen> {
                let mut seen = Vec::with_capacity(reads.len());
                for &(m, k) in reads {
                    seen.push((k, m.get(&k)?));
                }
                for (m, k, _, v) in &writes {
                    m.put(k, v)?;
                }
                Ok(seen)
            })();
            match body {
                Ok(seen) => Ok((rt.end_tx()?, seen)),
                Err(e) => {
                    let _ = rt.abort_tx();
                    Err(e)
                }
            }
        });
        match r {
            Ok((status, seen)) => {
                self.tx_ns.push(ns);
                for (k, v) in seen {
                    self.check_read(k, v.as_deref());
                }
                if status.is_committed() {
                    self.tx_commits += 1;
                    self.effective.extend(writes.iter().map(|w| w.2));
                } else {
                    self.tx_aborts += 1;
                }
            }
            Err(e) => self.errors.push(format!("tx: {e}")),
        }
    }

    fn checkpoint_and_trim(&mut self, rt: &TangoRuntime) {
        self.attempted += 1;
        let (r, ns) = op(OpKind::CheckpointTrim, || rt.checkpoint_and_trim());
        match r {
            Ok(_) => self.checkpoint_trim_ms.push(ns as f64 / 1e6),
            Err(e) => self.errors.push(format!("checkpoint_and_trim: {e}")),
        }
    }
}

/// One client: a runtime over its own `CorfuClient`, and its map views.
struct Client {
    rt: Arc<TangoRuntime>,
    maps: Vec<KvMap>,
}

/// Runs `body` on one thread per client, all released together. Returns
/// the wall time from the first start to the last finish, and the span
/// totals of traced threads.
fn phase<F>(
    clients: &[Client],
    workers: &mut [Worker],
    traced: bool,
    label: &str,
    body: F,
) -> (f64, SpanTotals)
where
    F: Fn(&Client, &mut Worker) + Sync,
{
    let barrier = Barrier::new(workers.len());
    let (barrier, body) = (&barrier, &body);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .zip(workers.iter_mut())
            .map(|(client, worker)| {
                s.spawn(move || {
                    trace::set_thread_traced(traced);
                    barrier.wait();
                    let start = Instant::now();
                    body(client, worker);
                    let end = Instant::now();
                    let spans = trace::take_thread_spans();
                    let totals = spans.totals();
                    if traced {
                        trace::keep_spans(format!("{label}/t{}", worker.id), spans);
                    }
                    (start, end, totals)
                })
            })
            .collect();
        let mut first = None::<Instant>;
        let mut last = None::<Instant>;
        let mut totals = SpanTotals::default();
        for h in handles {
            let (start, end, t) = h.join().expect("client thread panicked");
            first = Some(first.map_or(start, |f| f.min(start)));
            last = Some(last.map_or(end, |l| l.max(end)));
            totals.add(&t);
        }
        let secs = match (first, last) {
            (Some(f), Some(l)) => l.duration_since(f).as_secs_f64(),
            _ => 0.0,
        };
        (secs, totals)
    })
}

/// Runs the timed phase: `phase` inside a traced window on traced blocks.
/// Returns its wall time.
fn timed_phase<F>(
    b: &mut Block,
    dep: &Deployment,
    clients: &[Client],
    workers: &mut [Worker],
    label: &str,
    body: F,
) -> f64
where
    F: Fn(&Client, &mut Worker) + Sync,
{
    let count = |ws: &[Worker]| -> (u64, u64, u64) {
        ws.iter()
            .fold((0, 0, 0), |a, w| (a.0 + w.attempted, a.1 + w.tx_attempts, a.2 + w.tx_aborts))
    };
    let before = count(workers);
    let window = b.traced.then(|| Window::open(dep));
    let (secs, spans) = phase(clients, workers, b.traced, label, body);
    if let Some(w) = window {
        let diff = w.close(dep, spans);
        b.layer.add(&diff);
    }
    let after = count(workers);
    b.main_ops += after.0 - before.0;
    b.main_secs += secs;
    if b.traced {
        b.window_tx_attempts += after.1 - before.1;
        b.window_tx_aborts += after.2 - before.2;
    }
    secs
}

/// Runs a phase that issues only transactions (timed or as a side probe),
/// adds its wall time to the block's tx time, and checks that the
/// runtimes' `tango.tx_commit` counter moved by exactly the commits the
/// workers saw.
fn checked_phase<F>(
    b: &mut Block,
    dep: &Deployment,
    clients: &[Client],
    workers: &mut [Worker],
    label: &str,
    timed: bool,
    body: F,
) where
    F: Fn(&Client, &mut Worker) + Sync,
{
    let commits = |ws: &[Worker]| ws.iter().map(|w| w.tx_commits).sum::<u64>();
    let before = (dep.snapshot().counter("tango.tx_commit"), commits(workers));
    b.tx_secs += if timed {
        timed_phase(b, dep, clients, workers, label, body)
    } else {
        phase(clients, workers, false, label, body).0
    };
    let after = (dep.snapshot().counter("tango.tx_commit"), commits(workers));
    let (counted, seen) = (after.0 - before.0, after.1 - before.1);
    b.check(counted == seen, || {
        format!("{label}: tango.tx_commit moved by {counted}, clients saw {seen} commits")
    });
}

/// A map's contents, sorted by key (syncs the view first).
fn contents(map: &KvMap) -> Contents {
    let mut v = map.snapshot().expect("snapshot");
    v.sort_unstable_by_key(|e| e.0);
    v
}

/// Checks that every value in `views` was written by a put that took
/// effect (or by the preload of `preloaded` keys).
fn check_origins(b: &mut Block, views: &[Contents], workers: &[Worker], preloaded: u64) {
    let mut bad = 0u64;
    for (k, v) in views.iter().flatten() {
        let ok = match value_origin(*k, v) {
            Some((PRELOAD_WRITER, seq)) => seq == *k && *k < preloaded,
            Some((w, seq)) => workers.iter().any(|x| x.id == w && x.effective.contains(&seq)),
            None => false,
        };
        if !ok {
            bad += 1;
        }
    }
    b.check(bad == 0, || format!("{bad} values were written by no put that took effect"));
}

/// `count` cold restores: each builds a fresh runtime over a fresh client,
/// opens `names` from their latest checkpoint (a full replay when there is
/// none) and plays to the tail. Returns the restored views. When the
/// restores are part of the workload's timed phase (`timed`), a traced
/// block traces them and takes per-layer diffs around them.
fn restore(
    b: &mut Block,
    dep: &Deployment,
    names: &[String],
    count: usize,
    timed: bool,
) -> Vec<(Arc<TangoRuntime>, Vec<KvMap>)> {
    let clients: Vec<_> = (0..count).map(|_| dep.client(b.traced)).collect();
    let traced = b.traced && timed;
    let window = traced.then(|| Window::open(dep));
    trace::set_thread_traced(traced);
    let mut restored = Vec::new();
    for client in clients {
        b.attempted += 1;
        let (r, ns) = op(OpKind::Restore, || -> tango::Result<_> {
            let rt = TangoRuntime::new(client)?;
            let maps = names
                .iter()
                .map(|n| KvMap::open_from_checkpoint(&rt, n))
                .collect::<Result<_, _>>()?;
            rt.sync()?;
            Ok((rt, maps))
        });
        match r {
            Ok(v) => {
                b.restore_ms.push(ns as f64 / 1e6);
                restored.push(v);
            }
            Err(e) => b.fail(format!("restore: {e}")),
        }
    }
    trace::set_thread_traced(false);
    let spans = trace::take_thread_spans();
    if let Some(w) = window {
        let diff = w.close(dep, spans.totals());
        b.layer.add(&diff);
        trace::keep_spans("restore".into(), spans);
    }
    restored
}

/// Compares every restored view with `expected`, naming the maps that
/// differ.
fn check_restores(
    b: &mut Block,
    restored: &[(Arc<TangoRuntime>, Vec<KvMap>)],
    names: &[String],
    expected: &[Contents],
) {
    for (i, (_, maps)) in restored.iter().enumerate() {
        let differ: Vec<String> = maps
            .iter()
            .zip(names.iter().zip(expected))
            .filter(|(m, (_, want))| contents(m) != **want)
            .map(|(_, (name, want))| format!("{name} ({} keys)", want.len()))
            .collect();
        b.check(differ.is_empty(), || {
            format!("restore {i}: {} differ from the live view", differ.join(", "))
        });
    }
}

/// Plants a wrong expected value (self-test of the checks).
fn plant(ctx: &BlockCtx, expected: &mut [Contents]) {
    if ctx.plant_wrong {
        match expected.iter_mut().flatten().next() {
            Some(entry) => entry.1[VALUE_LEN - 1] ^= 1,
            None => expected[0].push((u64::MAX, Vec::new())),
        }
    }
}

/// Folds the workers' results into the block.
fn finish(b: &mut Block, dep: &Deployment, workers: Vec<Worker>) {
    for mut w in workers {
        b.attempted += w.attempted;
        b.failed += w.errors.len() as u64;
        b.failures.append(&mut w.errors);
        b.update_ns.append(&mut w.update_ns);
        b.query_ns.append(&mut w.query_ns);
        b.tx_ns.append(&mut w.tx_ns);
        b.checkpoint_trim_ms.append(&mut w.checkpoint_trim_ms);
        b.tx_attempts += w.tx_attempts;
        b.tx_commits += w.tx_commits;
        b.digest = b.digest.rotate_left(13) ^ w.digest;
    }
    b.live_pages = dep.storage_nodes().iter().map(|(log, n)| (*log, n.occupancy())).collect();
    b.cold_pages = TierCounts::now(dep).cold_pages;
}

// ----------------------------------------------------------------------
// kv-local
// ----------------------------------------------------------------------

fn kv_local(ctx: &BlockCtx) -> Block {
    let sz = ctx.sizes;
    let mut b = Block { traced: ctx.traced, ..Block::default() };
    let t0 = Instant::now();
    let dep = Deployment::local(ClusterConfig::default());
    b.spawn_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let clients: Vec<Client> = (0..2)
        .map(|_| {
            let rt = TangoRuntime::new(dep.client(ctx.traced)).expect("runtime");
            let map = KvMap::open(&rt, "kv").expect("open kv");
            Client { rt, maps: vec![map] }
        })
        .collect();
    for k in 0..sz.kv_keys {
        clients[0].maps[0].put(&k, &value(k, PRELOAD_WRITER, k)).expect("preload");
    }
    for c in &clients {
        c.rt.sync().expect("sync after preload");
    }
    b.open_s = t1.elapsed().as_secs_f64();

    let mut workers: Vec<Worker> = (0..2).map(|t| Worker::new(t, ctx)).collect();
    let keys = KeyDist::zipf_ycsb(sz.kv_keys);
    timed_phase(&mut b, &dep, &clients, &mut workers, "kv-local", |c, w| {
        for _ in 0..sz.kv_ops {
            let key = keys.sample(&mut w.rng);
            if w.rng.gen_bool(0.5) {
                w.put(&c.maps[0], key);
            } else {
                w.get(&c.maps[0], key);
            }
        }
    });
    let mix = TxMix::paper(KeyDist::zipf_ycsb(sz.kv_keys));
    checked_phase(&mut b, &dep, &clients, &mut workers, "kv-local/probe", false, |c, w| {
        for _ in 0..sz.probe_ops {
            let spec = mix.sample(&mut w.rng);
            let m = &c.maps[0];
            let reads: Vec<_> = spec.reads.iter().map(|&k| (m, k)).collect();
            let writes: Vec<_> = spec.writes.iter().map(|&k| (m, k)).collect();
            w.tx(&c.rt, &reads, &writes);
        }
    });
    check_live_views(&mut b, ctx, &dep, &clients, &workers, &["kv".to_string()], sz.kv_keys);
    finish(&mut b, &dep, workers);
    b
}

/// The shared end of kv-local, tx-tcp and xlog-tcp: after a final sync
/// both clients' views are equal, every value was written by a put that
/// took effect, and a cold restore equals the live views.
fn check_live_views(
    b: &mut Block,
    ctx: &BlockCtx,
    dep: &Deployment,
    clients: &[Client],
    workers: &[Worker],
    names: &[String],
    preloaded: u64,
) {
    let views: Vec<Vec<Contents>> =
        clients.iter().map(|c| c.maps.iter().map(contents).collect()).collect();
    b.check(views.windows(2).all(|w| w[0] == w[1]), || "the clients' views differ".into());
    check_origins(b, &views[0], workers, preloaded);
    let mut expected = views.into_iter().next().expect("two clients");
    plant(ctx, &mut expected);
    let restored = restore(b, dep, names, 1, false);
    check_restores(b, &restored, names, &expected);
}

// ----------------------------------------------------------------------
// tx-tcp and xlog-tcp
// ----------------------------------------------------------------------

/// 2 logs × 1 set × 2 replicas.
fn two_logs() -> ClusterConfig {
    ClusterConfig { num_logs: 2, num_sets: 1, replication: 2, ..ClusterConfig::default() }
}

/// Opens `names` in order and asserts each lands in its log.
fn open_placed(rt: &Arc<TangoRuntime>, names: &[(&str, u32)]) -> Vec<KvMap> {
    let proj = rt.corfu().projection();
    names
        .iter()
        .map(|&(name, log)| {
            let map = KvMap::open(rt, name).expect("open map");
            let got = proj.log_of_stream(map.oid());
            assert_eq!(got, log, "map {name} (oid {}) is homed in log {got}, not {log}", map.oid());
            map
        })
        .collect()
}

fn tx_tcp(ctx: &BlockCtx, cross_log: bool) -> Block {
    let sz = ctx.sizes;
    let label = if cross_log { "xlog-tcp" } else { "tx-tcp" };
    let mut b = Block { traced: ctx.traced, ..Block::default() };
    let t0 = Instant::now();
    let dep = Deployment::tcp(two_logs());
    b.spawn_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    // The directory allocates oids 1, 2, ... in open order and the shard
    // map hashes oid 1 into log 1 and oid 2 into log 0, so `b` opens
    // first. `maps` is [a, b] on every client.
    let clients: Vec<Client> = (0..2)
        .map(|_| {
            let rt = TangoRuntime::new(dep.client(ctx.traced)).expect("runtime");
            let mut maps = open_placed(&rt, &[("b", 1), ("a", 0)]);
            maps.reverse();
            Client { rt, maps }
        })
        .collect();
    b.open_s = t1.elapsed().as_secs_f64();

    let mut workers: Vec<Worker> = (0..2).map(|t| Worker::new(t, ctx)).collect();
    let keys = KeyDist::zipf_ycsb(sz.tx_keys);
    if cross_log {
        // Reads 3 keys of `a`, writes one key of `a` and one of `b`.
        let mix = TxMix::new(keys.clone(), 3, 2);
        checked_phase(&mut b, &dep, &clients, &mut workers, label, true, |c, w| {
            for _ in 0..sz.xlog_ops {
                let spec = mix.sample(&mut w.rng);
                let (a, bm) = (&c.maps[0], &c.maps[1]);
                let reads: Vec<_> = spec.reads.iter().map(|&k| (a, k)).collect();
                w.tx(&c.rt, &reads, &[(a, spec.writes[0]), (bm, spec.writes[1])]);
            }
        });
    } else {
        // The paper's 3-read/3-write tx inside one map, picked uniformly.
        let mix = TxMix::paper(keys.clone());
        checked_phase(&mut b, &dep, &clients, &mut workers, label, true, |c, w| {
            for _ in 0..sz.tx_ops {
                let spec = mix.sample(&mut w.rng);
                let m = &c.maps[w.rng.gen_range(2) as usize];
                let reads: Vec<_> = spec.reads.iter().map(|&k| (m, k)).collect();
                let writes: Vec<_> = spec.writes.iter().map(|&k| (m, k)).collect();
                w.tx(&c.rt, &reads, &writes);
            }
        });
    }
    phase(&clients, &mut workers, false, &format!("{label}/probe"), |c, w| {
        for _ in 0..sz.probe_ops {
            let m = w.rng.gen_range(2) as usize;
            let key = keys.sample(&mut w.rng);
            w.put(&c.maps[m], key);
            let m = w.rng.gen_range(2) as usize;
            let key = keys.sample(&mut w.rng);
            w.get(&c.maps[m], key);
        }
    });
    check_live_views(&mut b, ctx, &dep, &clients, &workers, &["a".into(), "b".into()], 0);
    finish(&mut b, &dep, workers);
    b
}

// ----------------------------------------------------------------------
// restore-tiered
// ----------------------------------------------------------------------

/// Cold-tier segment size and hot (RAM) pages per storage node.
const PAGES_PER_SEGMENT: u64 = 64;
const HOT_CAPACITY: usize = 64;

fn restore_tiered(ctx: &BlockCtx) -> Block {
    let sz = ctx.sizes;
    let mut b = Block { traced: ctx.traced, ..Block::default() };
    let root = ctx.work_dir.join(format!("tier-{}-{}", std::process::id(), ctx.block));
    let _ = std::fs::remove_dir_all(&root);
    let t0 = Instant::now();
    let dep =
        Deployment::tcp(two_logs().with_tiered_storage(&root, PAGES_PER_SEGMENT, HOT_CAPACITY));
    b.spawn_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let rt = TangoRuntime::new(dep.client(ctx.traced)).expect("runtime");
    // oids 1..=4 hash into logs 1, 0, 1, 0: two maps per log.
    let placed = [("m0", 1), ("m1", 0), ("m2", 1), ("m3", 0)];
    let maps = open_placed(&rt, &placed);
    let names: Vec<String> = placed.iter().map(|p| p.0.to_string()).collect();
    let writer = [Client { rt, maps }];
    b.open_s = t1.elapsed().as_secs_f64();

    let mut workers = vec![Worker::new(0, ctx)];
    let updates = sz.tier_trim_every * sz.tier_trims + sz.tier_suffix;
    timed_phase(&mut b, &dep, &writer, &mut workers, "restore-tiered", |c, w| {
        for i in 1..=updates {
            let m = w.rng.gen_range(c.maps.len() as u64) as usize;
            let key = w.rng.gen_range(sz.tier_keys);
            w.put(&c.maps[m], key);
            if i % sz.tier_trim_every == 0 && i <= sz.tier_trim_every * sz.tier_trims {
                w.checkpoint_and_trim(&c.rt);
            }
        }
    });
    let mut expected: Vec<_> = writer[0].maps.iter().map(contents).collect();
    check_origins(&mut b, &expected, &workers, 0);
    plant(ctx, &mut expected);
    let restored = restore(&mut b, &dep, &names, sz.tier_restores, true);
    check_restores(&mut b, &restored, &names, &expected);
    drop(restored);

    phase(&writer, &mut workers, false, "restore-tiered/probe-get", |c, w| {
        for _ in 0..sz.tier_probe_ops {
            let m = &c.maps[w.rng.gen_range(c.maps.len() as u64) as usize];
            let key = w.rng.gen_range(sz.tier_keys);
            w.get(m, key);
        }
    });
    let mix = TxMix::paper(KeyDist::uniform(sz.tier_keys));
    checked_phase(&mut b, &dep, &writer, &mut workers, "restore-tiered/probe-tx", false, |c, w| {
        for _ in 0..sz.tier_probe_ops {
            let spec = mix.sample(&mut w.rng);
            let m = &c.maps[w.rng.gen_range(c.maps.len() as u64) as usize];
            let reads: Vec<_> = spec.reads.iter().map(|&k| (m, k)).collect();
            let writes: Vec<_> = spec.writes.iter().map(|&k| (m, k)).collect();
            w.tx(&c.rt, &reads, &writes);
        }
    });
    // The final trim, then one compaction pass per node so the occupancy
    // read does not depend on when the background compactor last ran.
    b.attempted += 1;
    if let Err(e) = writer[0].rt.checkpoint_and_trim() {
        b.fail(format!("final checkpoint_and_trim: {e}"));
    }
    for (_, node) in dep.storage_nodes() {
        node.compact_once(false);
    }
    finish(&mut b, &dep, workers);
    drop(writer);
    drop(dep);
    let _ = std::fs::remove_dir_all(&root);
    b
}
