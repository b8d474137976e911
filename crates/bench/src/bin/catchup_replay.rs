//! Cold-client catch-up replay over real TCP sockets.
//!
//! A writer fills one stream with N entries; a cold reader then opens the
//! stream, syncs (backpointer walk over the whole log), and drains it with
//! `readnext`. The walk dominates: with the per-offset read path every
//! entry costs a storage round trip, while the batched path fetches each
//! backpointer window in one `ReadBatch` per replica set, all in flight
//! together as split-phase calls over the pipelined transport. K is set to 16 so the window —
//! and therefore the realizable batch — is meaningfully wide.
//!
//! Honors `TANGO_QUICK=1` (fewer entries) for CI smoke runs.

use std::time::Instant;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, TcpCluster};
use corfu_stream::{StreamClient, StreamConfig};
use tango_bench::FigureOutput;

fn main() {
    let entries: u64 = if tango_bench::quick() { 200 } else { 2000 };
    let config = ClusterConfig {
        num_sets: 2,
        replication: 2,
        k_backpointers: 16,
        ..ClusterConfig::default()
    };
    let cluster = TcpCluster::spawn(config).unwrap();
    let writer = StreamClient::new(cluster.client().unwrap());
    let payload = Bytes::from(vec![7u8; 256]);
    for _ in 0..entries {
        writer.multiappend(&[1], payload.clone()).unwrap();
    }

    let mut out = FigureOutput::new(
        "catchup_replay",
        "mode,read_batch,prefetch_window,entries,secs,entries_per_sec",
    );
    let mut rates = Vec::new();
    let trials = 3;
    for (mode, read_batch, prefetch_window) in
        [("per_offset", 1usize, 0usize), ("batch8", 8, 8), ("batch32", 32, 32)]
    {
        // Best of `trials` cold replays: each trial gets a fresh reader
        // (empty cache, full walk), so the minimum is the least-noisy
        // estimate of the read path itself.
        let mut best_secs = f64::INFINITY;
        for _ in 0..trials {
            let cfg = StreamConfig { read_batch, prefetch_window, ..StreamConfig::default() };
            let reader = StreamClient::with_config(cluster.client().unwrap(), cfg);
            reader.open(1);
            let start = Instant::now();
            reader.sync(&[1]).unwrap();
            let mut drained = 0u64;
            while reader.readnext(1).unwrap().is_some() {
                drained += 1;
            }
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(drained, entries, "replay must deliver the whole stream");
            best_secs = best_secs.min(secs);
        }
        let rate = entries as f64 / best_secs;
        rates.push((mode, rate));
        out.row(format!(
            "{mode},{read_batch},{prefetch_window},{entries},{best_secs:.4},{rate:.0}"
        ));
        eprintln!("catchup_replay: {mode:>10} {entries} entries in {best_secs:.3}s ({rate:.0}/s)");
    }
    out.save();
    let base = rates[0].1;
    let best = rates[rates.len() - 1].1;
    eprintln!("catchup_replay: batch32 is {:.2}x per_offset", best / base);
}
