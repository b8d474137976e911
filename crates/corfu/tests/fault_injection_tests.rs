//! Fault injection: races between writers and hole-fillers, and flaky
//! transports. The write-once storage must arbitrate every race to exactly
//! one winner, visible identically to all readers.
//!
//! The races here run under the seeded [`support::fault::FaultPlan`]
//! harness: injected delays and drops are a pure function of the seed, so
//! any failure reproduces with the `TANGO_FAULT_SEED` it prints.

mod support;

use std::sync::Arc;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, LocalCluster};
use corfu::{ClientOptions, CorfuError, EntryEnvelope, ReadOutcome};
use support::fault::FaultPlan;
use support::{seed_from_env, SeedGuard};

#[test]
fn concurrent_fill_vs_write_has_one_winner() {
    // Many rounds: a writer and a filler race for the same offset from
    // different threads; afterwards every offset must hold exactly one
    // consistent value at all replicas. Seeded delays on the storage path
    // shake the interleaving from round to round.
    let seed = seed_from_env(0xFA57_0001);
    let _guard = SeedGuard(seed);
    let cluster = LocalCluster::new(ClusterConfig::default());
    let plan = FaultPlan::new(seed);
    plan.delay_calls("storage.write", 40, 200);
    let wrapped = plan.wrap(cluster.conn_factory());
    let writer = cluster
        .client_with_factory(wrapped.clone(), ClientOptions::default(), cluster.metrics().clone())
        .unwrap();
    let filler = cluster
        .client_with_factory(wrapped, ClientOptions::default(), cluster.metrics().clone())
        .unwrap();

    for round in 0..50u64 {
        let token = writer.token(&[]).unwrap();
        let offset = token.offset;
        let body = EntryEnvelope::raw(Bytes::from(format!("round-{round}").into_bytes()))
            .encode(offset)
            .unwrap();
        let w = {
            let writer = writer.clone();
            let body = body.clone();
            std::thread::spawn(move || writer.write_at(offset, &body))
        };
        let f = {
            let filler = filler.clone();
            std::thread::spawn(move || filler.fill(offset))
        };
        let write_result = w.join().unwrap();
        let fill_result = f.join().unwrap().unwrap();

        // Exactly one interpretation must hold, and reads agree with it.
        let read = writer.read(offset).unwrap();
        match (&write_result, &fill_result) {
            (Ok(()), outcome) => {
                // The writer won; the filler must have observed its data.
                assert_eq!(read, ReadOutcome::Data(Bytes::from(body.clone())));
                assert!(
                    matches!(outcome, ReadOutcome::Data(_)),
                    "filler must surface the winner's data, got {outcome:?}"
                );
            }
            (Err(CorfuError::TokenLost { .. }), ReadOutcome::Junk) => {
                assert_eq!(read, ReadOutcome::Junk);
            }
            other => panic!("inconsistent race outcome: {other:?}"),
        }
    }
}

#[test]
fn sequencer_outage_is_retried() {
    // A sequencer that disappears and comes back mid-append: the client's
    // retry path (refresh layout, reconnect, retry) must ride it out.
    let cluster = LocalCluster::new(ClusterConfig::tiny());
    let registry = cluster.registry().clone();
    let base = cluster.client().unwrap();
    // Warm up: a normal append works.
    base.append(Bytes::from_static(b"ok")).unwrap();

    let proj = base.projection();
    let seq_addr = proj.addr_of(proj.sequencer_of(0)).unwrap().to_owned();
    let handler_restore = {
        // Keep a strong reference to restore after the kill.
        cluster.sequencer_of(0).unwrap()
    };
    registry.kill(&seq_addr);
    let appender = {
        let base = base.clone();
        std::thread::spawn(move || base.append(Bytes::from_static(b"during-outage")))
    };
    std::thread::sleep(std::time::Duration::from_millis(20));
    registry.register(seq_addr, handler_restore as Arc<dyn tango_rpc::RpcHandler>);
    // The append must have survived the outage via retries.
    let off = appender.join().unwrap().unwrap();
    assert!(matches!(base.read(off).unwrap(), ReadOutcome::Data(_)));
}

#[test]
fn readers_agree_after_repair_races() {
    // Several readers concurrently read a half-written chain; all must
    // agree on the repaired value.
    let config = ClusterConfig { num_sets: 1, replication: 3, ..ClusterConfig::default() };
    let cluster = LocalCluster::new(config);
    let client = cluster.client().unwrap();
    let token = client.token(&[]).unwrap();
    let body = EntryEnvelope::raw(Bytes::from_static(b"half")).encode(token.offset).unwrap();
    // Write only the head replica directly.
    use corfu::proto::{StorageRequest, WriteKind};
    cluster.storage()[0].process(StorageRequest::Write {
        epoch: 0,
        addr: token.offset,
        kind: WriteKind::Data,
        payload: Bytes::from(body.clone()),
    });

    let mut handles = Vec::new();
    for _ in 0..6 {
        let c = cluster.client().unwrap();
        let off = token.offset;
        handles.push(std::thread::spawn(move || c.read(off).unwrap()));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), ReadOutcome::Data(Bytes::from(body.clone())));
    }
}

#[test]
fn flaky_sequencer_transport_is_retried() {
    // A lossy client→sequencer link: a seeded 30% of sequencer calls time
    // out before reaching the server. Token acquisition must retry through
    // the drops; storage traffic is untouched, so no append may fail.
    let seed = seed_from_env(0xFA57_0002);
    let _guard = SeedGuard(seed);
    let cluster = LocalCluster::new(ClusterConfig::default());
    let plan = FaultPlan::new(seed);
    plan.drop_calls("seq.", 30);
    let client = cluster
        .client_with_factory(
            plan.wrap(cluster.conn_factory()),
            ClientOptions::default(),
            cluster.metrics().clone(),
        )
        .unwrap();

    let mut offsets = Vec::new();
    for i in 0..50u32 {
        let payload = Bytes::from(format!("flaky-{i}").into_bytes());
        let off = client.append(payload.clone()).unwrap();
        offsets.push((off, payload));
    }
    for (off, payload) in &offsets {
        assert_eq!(&client.read_entry(*off).unwrap().payload, payload);
    }
    // The link really was lossy: the plan dropped sequencer calls.
    let drops = plan.trace().iter().filter(|e| e.action == "drop").count();
    assert!(drops > 0, "expected the seeded plan to drop some sequencer calls");
}
