//! Thread-budget soak: one reactor server under hundreds of mixed
//! idle/active connections. Asserts (a) responses stay correct under
//! pipelining while idle connections pile up, and (b) the process thread
//! count stays constant as the connection count grows — the property the
//! reactor exists to provide.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tango_metrics::Registry;
use tango_rpc::{ClientConn, RpcHandler, ServerMetrics, ServerOptions, TcpConn, TcpServer};

struct Reverse;
impl RpcHandler for Reverse {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let mut out = request.to_vec();
        out.reverse();
        out
    }
}

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

/// The process's thread count once it has stopped changing. A thread that
/// a traffic round joined can still be counted for a moment while the
/// kernel finishes its exit, so a single read can be one too high; a
/// thread that stays alive keeps the settled count up.
fn settled_threads() -> usize {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let mut last = process_threads();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = process_threads();
        if now == last || std::time::Instant::now() >= deadline {
            return now;
        }
        last = now;
    }
}

/// One round of pipelined traffic: `threads` caller threads share the
/// given connections and verify every response matches its request.
fn traffic_round(conns: &[Arc<TcpConn>], threads: usize, calls_per_thread: usize) {
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let conn = Arc::clone(&conns[t % conns.len()]);
            std::thread::spawn(move || {
                for c in 0..calls_per_thread {
                    let msg = format!("soak-{t}-{c}");
                    let mut expected = msg.clone().into_bytes();
                    expected.reverse();
                    assert_eq!(
                        conn.call(msg.as_bytes()).expect("call failed under soak"),
                        expected,
                        "response routed to the wrong caller"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn hundreds_of_connections_on_a_fixed_thread_budget() {
    let registry = Registry::new();
    let options =
        ServerOptions { metrics: ServerMetrics::from_registry(&registry), ..Default::default() };
    let server = TcpServer::spawn_with("127.0.0.1:0", Arc::new(Reverse), options).unwrap();
    let addr = server.local_addr().to_string();

    // Active connections: a handful of multiplexed clients shared by many
    // caller threads, all routed through the one process-wide client
    // reactor.
    let actives: Vec<Arc<TcpConn>> = (0..4)
        .map(|_| Arc::new(TcpConn::new(addr.clone()).with_timeout(Duration::from_secs(10))))
        .collect();

    // Warm up so every long-lived thread exists (server reactor + worker
    // pool, client reactor, and this test's own caller threads are
    // spawned fresh each round so they don't count).
    traffic_round(&actives, 8, 5);
    let baseline = settled_threads();

    // Grow an idle population in batches; after each batch the thread
    // count must not have moved and pipelined traffic must stay correct.
    let mut idles: Vec<TcpStream> = Vec::new();
    for batch in 0..4 {
        for _ in 0..75 {
            idles.push(TcpStream::connect(&addr).unwrap());
        }
        // Let the reactor register the batch.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let want = (idles.len() + actives.len()) as i64;
        while registry.gauge("rpc.server_conns").get() < want {
            assert!(
                std::time::Instant::now() < deadline,
                "reactor registered {} of {want} connections",
                registry.gauge("rpc.server_conns").get()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        traffic_round(&actives, 8, 10);
        let now = settled_threads();
        assert_eq!(
            now,
            baseline,
            "thread count moved with connection count ({} conns, batch {batch})",
            idles.len()
        );
    }
    assert!(idles.len() >= 300, "soak must cover hundreds of connections");
    assert_eq!(registry.counter("rpc.accepts_dropped").get(), 0);

    // Idle connections come and go without disturbing the budget.
    idles.truncate(50);
    traffic_round(&actives, 8, 10);
    assert_eq!(settled_threads(), baseline);
}
