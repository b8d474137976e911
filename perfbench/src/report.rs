//! Turns the blocks of a run into named metrics, and the result line.

use crate::measure::{median, quantile, Block, LayerDiff};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count behind a percentile.
    pub samples: Option<usize>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value, samples: None }
}

/// A latency's p50 and p99, each the median over blocks of that block's
/// own percentile, so one disturbed block cannot move the run's figure.
/// The sample count printed is the smallest block's.
fn percentiles(
    out: &mut Vec<Metric>,
    p50: &'static str,
    p99: &'static str,
    blocks: &[&Block],
    ns: fn(&Block) -> &Vec<u64>,
) {
    let (mut p50s, mut p99s, mut fewest) = (Vec::new(), Vec::new(), None::<usize>);
    for b in blocks {
        let mut v = ns(b).clone();
        if v.is_empty() {
            continue;
        }
        v.sort_unstable();
        p50s.push(quantile(&v, 0.50) as f64 / 1e3);
        p99s.push(quantile(&v, 0.99) as f64 / 1e3);
        fewest = Some(fewest.map_or(v.len(), |f| f.min(v.len())));
    }
    out.push(Metric { name: p50, unit: "us", value: median(&p50s), samples: fewest });
    out.push(Metric { name: p99, unit: "us", value: median(&p99s), samples: fewest });
}

fn untraced(blocks: &[Block]) -> Vec<&Block> {
    blocks.iter().filter(|b| !b.traced).collect()
}

fn ops_per_s(b: &Block) -> f64 {
    b.main_ops as f64 / b.main_secs.max(f64::MIN_POSITIVE)
}

/// The end-to-end metrics, from untraced blocks.
pub fn end_to_end(blocks: &[Block]) -> Vec<Metric> {
    let bs = untraced(blocks);
    let per_block =
        |f: &dyn Fn(&Block) -> f64| median(&bs.iter().map(|b| f(b)).collect::<Vec<_>>());
    let mut out = vec![
        metric("setup_s", "s", per_block(&|b| b.spawn_s + b.open_s)),
        metric("ops_per_s", "1/s", per_block(&ops_per_s)),
    ];
    percentiles(&mut out, "update_p50_us", "update_p99_us", &bs, |b| &b.update_ns);
    percentiles(&mut out, "query_p50_us", "query_p99_us", &bs, |b| &b.query_ns);
    percentiles(&mut out, "tx_p50_us", "tx_p99_us", &bs, |b| &b.tx_ns);
    out.push(metric(
        "tx_goodput_per_s",
        "1/s",
        per_block(&|b| b.tx_commits as f64 / b.tx_secs.max(f64::MIN_POSITIVE)),
    ));
    let restores: Vec<f64> = bs.iter().flat_map(|b| b.restore_ms.iter().copied()).collect();
    out.push(Metric {
        name: "restore_ms",
        unit: "ms",
        value: median(&restores),
        samples: Some(restores.len()),
    });
    out.push(metric("live_pages_max", "pages", per_block(&|b| b.live_pages_max() as f64)));
    let attempted: u64 = bs.iter().map(|b| b.attempted).sum();
    let failed: u64 = bs.iter().map(|b| b.failed).sum();
    out.push(metric("ok_op_ratio", "ratio", (attempted - failed) as f64 / attempted.max(1) as f64));
    out
}

/// The per-layer metrics, from the traced blocks' windows. "Per op" is per
/// Tango op in the window; "per run" is per block.
pub fn per_layer(blocks: &[Block]) -> Vec<Metric> {
    let traced: Vec<&Block> = blocks.iter().filter(|b| b.traced).collect();
    let mut d = LayerDiff::default();
    for b in &traced {
        d.add(&b.layer);
    }
    let runs = traced.len().max(1) as f64;
    let ops = d.spans.roots.max(1) as f64;
    let per_op = |x: u64| x as f64 / ops;
    let us_per_op = |ns: u64| ns as f64 / 1e3 / ops;
    let per_run = |x: u64| x as f64 / runs;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let traced_median =
        |f: &dyn Fn(&Block) -> f64| median(&traced.iter().map(|b| f(b)).collect::<Vec<_>>());
    let all_median = |f: &dyn Fn(&Block) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());

    let (applies, apply_ns) = d.histogram("tango.apply_latency_ns");
    let (_, conflict_ns) = d.histogram("tango.conflict_check_latency_ns");
    let (syncs, sync_ns) = d.histogram("stream.sync_latency_ns");
    let (batches, batch_entries) = d.histogram("stream.read_batch_size");
    let (round_trips, round_trip_ns) = d.histogram("rpc.round_trip_ns");
    let tx_attempts: u64 = traced.iter().map(|b| b.window_tx_attempts).sum();
    let tx_aborts: u64 = traced.iter().map(|b| b.window_tx_aborts).sum();
    let call_ns: u64 = d.spans.call_ns.iter().sum();
    let residual_ns = d.spans.root_ns.saturating_sub(call_ns + apply_ns);
    let ckpt_ms: Vec<f64> =
        traced.iter().flat_map(|b| b.checkpoint_trim_ms.iter().copied()).collect();
    let traced_ops = traced_median(&ops_per_s);
    let plain_ops = median(&untraced(blocks).iter().map(|b| ops_per_s(b)).collect::<Vec<_>>());
    let (seq, storage, meta) = (0, 1, 2);

    vec![
        metric("tango.apply_us_per_op", "us/op", us_per_op(apply_ns)),
        metric("tango.applies_per_op", "1/op", per_op(applies)),
        metric("tango.conflict_check_us_per_tx", "us/tx", ratio(conflict_ns, tx_attempts) / 1e3),
        metric("tango.abort_ratio", "ratio", ratio(tx_aborts, tx_attempts)),
        metric("tango.checkpoint_and_trim_ms", "ms", median(&ckpt_ms)),
        metric("tango.client_residual_us_per_op", "us/op", us_per_op(residual_ns)),
        metric("stream.sync_us_per_op", "us/op", us_per_op(sync_ns)),
        metric("stream.syncs_per_op", "1/op", per_op(syncs)),
        metric("stream.entries_fetched_per_op", "1/op", per_op(d.counter("stream.cache_misses"))),
        metric("stream.cache_hits_per_op", "1/op", per_op(d.counter("stream.cache_hits"))),
        metric("stream.read_batch_mean", "entries", ratio(batch_entries, batches)),
        metric("corfu.seq_calls_per_op", "1/op", per_op(d.spans.calls[seq])),
        metric("corfu.seq_call_us_per_op", "us/op", us_per_op(d.spans.call_ns[seq])),
        metric("corfu.storage_calls_per_op", "1/op", per_op(d.spans.calls[storage])),
        metric("corfu.storage_call_us_per_op", "us/op", us_per_op(d.spans.call_ns[storage])),
        metric("corfu.tail_queries_per_op", "1/op", per_op(d.counter("corfu.client.tail_queries"))),
        metric("corfu.layout_calls", "1/run", per_run(d.calls.by_role[meta])),
        metric("corfu.unattributed_calls", "1/run", per_run(d.calls.unattributed)),
        metric("corfu.read_batches_per_op", "1/op", per_op(d.counter("corfu.client.read_batches"))),
        metric("corfu.hole_fills", "1/run", per_run(d.counter("corfu.client.hole_fills"))),
        metric("corfu.junk_forced", "1/run", per_run(d.counter("corfu.client.junk_forced"))),
        metric("corfu.hole_polls", "1/run", per_run(d.counter("corfu.hole_polls"))),
        metric("storage.writes_per_op", "1/op", per_op(d.counter("corfu.storage.writes"))),
        metric("storage.reads_per_op", "1/op", per_op(d.counter("corfu.storage.reads"))),
        metric("rpc.round_trip_us_mean", "us", ratio(round_trip_ns, round_trips) / 1e3),
        metric("rpc.round_trips_per_op", "1/op", per_op(round_trips)),
        metric("rpc.bytes_out_per_op", "B/op", per_op(d.counter("rpc.bytes_out"))),
        metric("rpc.bytes_in_per_op", "B/op", per_op(d.counter("rpc.bytes_in"))),
        metric("flash.live_pages_log0", "pages", traced_median(&|b| b.live_pages_of_log(0) as f64)),
        metric("flash.live_pages_log1", "pages", traced_median(&|b| b.live_pages_of_log(1) as f64)),
        metric("flash.cold_pages", "pages", traced_median(&|b| b.cold_pages as f64)),
        metric("flash.migrated_pages", "1/run", per_run(d.migrated_pages)),
        metric("flash.reclaimed_pages", "1/run", per_run(d.reclaimed_pages)),
        metric("meta.reads", "1/run", per_run(d.counter("meta.reads"))),
        metric("setup.spawn_s", "s", all_median(&|b| b.spawn_s)),
        metric("setup.open_s", "s", all_median(&|b| b.open_s)),
        metric("alloc.allocs_per_op", "1/op", per_op(d.allocs)),
        metric("alloc.bytes_per_op", "B/op", per_op(d.alloc_bytes)),
        metric("trace.overhead_pct", "%", (plain_ops - traced_ops) / plain_ops * 100.0),
        metric("trace.residual_share", "ratio", ratio(residual_ns, d.spans.root_ns)),
    ]
}

/// The result line. Non-finite values print as 0 so the line stays JSON.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
