//! Transport ablation: multiplexed pipelining and sequencer token batching.
//!
//! Part 1 measures raw RPC throughput with many threads sharing one
//! connection. The serial baseline emulates the v1 lock-step transport by
//! forcing one call in flight at a time (a mutex around the connection);
//! the pipelined mode is the wire-v2 `TcpConn` as shipped, where every
//! thread's request is in flight concurrently over the same socket.
//!
//! Part 2 measures sequencer pressure under concurrent appends to a TCP
//! cluster: `seq_batch = 1` pays one sequencer round trip per append, while
//! [`ClientOptions::batched`] (batch = 4, §5) amortizes it roughly 4x.
//!
//! Output: `results/rpc_pipeline.csv` with
//! `section,mode,threads,ops,elapsed_ms,ops_per_sec,seq_rpcs_per_op`.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, TcpCluster};
use corfu::ClientOptions;
use parking_lot::Mutex;
use tango_bench::{quick, FigureOutput};
use tango_rpc::{ClientConn, TcpConn, TcpServer};

fn rpc_round(conn: &(dyn Fn(&[u8]) -> Vec<u8> + Sync), threads: usize, per_thread: usize) -> f64 {
    let started = Instant::now();
    thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let msg = format!("payload-from-{t}");
                for _ in 0..per_thread {
                    let reply = conn(msg.as_bytes());
                    assert_eq!(reply, msg.as_bytes());
                }
            });
        }
    });
    started.elapsed().as_secs_f64()
}

fn bench_rpc(
    out: &mut FigureOutput,
    section: &str,
    service: Duration,
    threads: usize,
    per_thread: usize,
) -> (f64, f64) {
    let handler = Arc::new(move |req: &[u8]| {
        if !service.is_zero() {
            // Emulate a storage node's per-request service time.
            thread::sleep(service);
        }
        req.to_vec()
    });
    let server = TcpServer::spawn("127.0.0.1:0", handler).expect("spawn echo server");
    let addr = server.local_addr().to_string();
    let ops = (threads * per_thread) as f64;

    // Serial baseline: the v1 transport allowed one request in flight per
    // connection; a mutex around the shared connection reproduces that.
    let serial_conn = Mutex::new(TcpConn::new(addr.clone()));
    let serial_secs =
        rpc_round(&|req| serial_conn.lock().call(req).expect("serial call"), threads, per_thread);
    let serial_tput = ops / serial_secs;
    out.row(format!(
        "{section},serial,{threads},{},{:.1},{serial_tput:.0},",
        threads * per_thread,
        serial_secs * 1e3
    ));

    // Pipelined: same socket count (one), but calls multiplex by request id.
    let pipelined_conn = TcpConn::new(addr);
    let pipelined_secs =
        rpc_round(&|req| pipelined_conn.call(req).expect("pipelined call"), threads, per_thread);
    let pipelined_tput = ops / pipelined_secs;
    out.row(format!(
        "{section},pipelined,{threads},{},{:.1},{pipelined_tput:.0},",
        threads * per_thread,
        pipelined_secs * 1e3
    ));
    (serial_tput, pipelined_tput)
}

fn bench_appends(
    out: &mut FigureOutput,
    mode: &str,
    opts: ClientOptions,
    threads: usize,
    per_thread: usize,
) -> f64 {
    let config = ClusterConfig { client_options: opts, ..ClusterConfig::default() };
    let cluster = TcpCluster::spawn(config).expect("spawn tcp cluster");
    let client = Arc::new(cluster.client().expect("client"));
    let started = Instant::now();
    thread::scope(|s| {
        for t in 0..threads {
            let client = Arc::clone(&client);
            s.spawn(move || {
                for i in 0..per_thread {
                    client.append(Bytes::from(format!("bench-{t}-{i}"))).expect("append");
                }
            });
        }
    });
    let secs = started.elapsed().as_secs_f64();
    let ops = (threads * per_thread) as f64;
    let snap = cluster.metrics().snapshot();
    // Sequencer round trips actually issued: every token() either paid an
    // RPC (Next or NextBatch) or was served from the client-side pool.
    let seq_rpcs =
        snap.counter("corfu.client.tokens") - snap.counter("corfu.client.token_pool_hits");
    let per_op = seq_rpcs as f64 / ops;
    out.row(format!(
        "append,{mode},{threads},{},{:.1},{:.0},{per_op:.3}",
        threads * per_thread,
        secs * 1e3,
        ops / secs
    ));
    per_op
}

fn main() {
    let (threads, per_thread, appends) = if quick() { (4, 200, 50) } else { (8, 2000, 400) };
    let mut out = FigureOutput::new(
        "rpc_pipeline",
        "section,mode,threads,ops,elapsed_ms,ops_per_sec,seq_rpcs_per_op",
    );

    let (serial, pipelined) = bench_rpc(&mut out, "rpc_0us", Duration::ZERO, threads, per_thread);
    eprintln!(
        "rpc (0us handler): pipelined/serial speedup = {:.2}x ({:.0} vs {:.0} ops/s, \
         {threads} threads)",
        pipelined / serial,
        pipelined,
        serial
    );
    // With a realistic per-request service time (a flash page program is
    // O(100us)), serialized callers stack the service times end to end
    // while the pipelined connection overlaps them across the server's
    // worker pool.
    let svc_per_thread = per_thread / 10;
    let (serial, pipelined) = bench_rpc(
        &mut out,
        "rpc_200us",
        Duration::from_micros(200),
        threads,
        svc_per_thread.max(20),
    );
    eprintln!(
        "rpc (200us handler): pipelined/serial speedup = {:.2}x ({:.0} vs {:.0} ops/s, \
         {threads} threads)",
        pipelined / serial,
        pipelined,
        serial
    );

    let unbatched = bench_appends(&mut out, "batch1", ClientOptions::default(), 4, appends);
    let batched = bench_appends(&mut out, "batch4", ClientOptions::batched(), 4, appends);
    eprintln!(
        "appends: sequencer RPCs per append {unbatched:.3} -> {batched:.3} \
         ({:.2}x amortization)",
        unbatched / batched
    );

    out.save();
}
