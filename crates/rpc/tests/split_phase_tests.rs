//! Split-phase calls (`ClientConn::start` + `PendingCall::wait`) over the
//! TCP transport: one thread keeps calls to several servers in flight at
//! once, and each started call keeps the blocking call's guarantees —
//! matched responses, the per-call timeout, a balanced `rpc.in_flight`
//! gauge, and one reconnecting retry.

use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use tango_metrics::Registry;
use tango_rpc::{ClientConn, ConnMetrics, PendingCall, RpcError, TcpConn, TcpServer};

/// Requests look like `"<sleep_ms>:<tag>"`; the handler sleeps, then
/// answers `"<server>/<request>"` so a reply names who produced it.
fn tagged_sleepy_echo(server: &'static str) -> impl Fn(&[u8]) -> Vec<u8> + Send + Sync {
    move |req: &[u8]| {
        let text = std::str::from_utf8(req).expect("test requests are utf-8");
        let (ms, _) = text.split_once(':').expect("test requests are `<ms>:<tag>`");
        thread::sleep(Duration::from_millis(ms.parse().expect("sleep prefix is a number")));
        format!("{server}/{text}").into_bytes()
    }
}

#[test]
fn started_calls_to_two_servers_match_their_replies_in_any_completion_order() {
    let a = TcpServer::spawn("127.0.0.1:0", Arc::new(tagged_sleepy_echo("a"))).unwrap();
    let b = TcpServer::spawn("127.0.0.1:0", Arc::new(tagged_sleepy_echo("b"))).unwrap();
    let conn_a = TcpConn::new(a.local_addr().to_string());
    let conn_b = TcpConn::new(b.local_addr().to_string());

    // Sleeps chosen so replies complete in neither start order nor its
    // reverse.
    let plan: Vec<(&TcpConn, &str, String)> = vec![
        (&conn_a, "a", "120:first".to_string()),
        (&conn_b, "b", "0:second".to_string()),
        (&conn_a, "a", "40:third".to_string()),
        (&conn_b, "b", "80:fourth".to_string()),
        (&conn_a, "a", "0:fifth".to_string()),
    ];
    for reverse in [false, true] {
        let calls: Vec<PendingCall> =
            plan.iter().map(|(conn, _, req)| conn.start(req.as_bytes())).collect();
        let mut waited: Vec<(usize, PendingCall)> = calls.into_iter().enumerate().collect();
        if reverse {
            waited.reverse();
        }
        for (i, call) in waited {
            let (_, server, req) = &plan[i];
            let reply = call.wait().unwrap();
            assert_eq!(reply, format!("{server}/{req}").into_bytes(), "call {i}");
        }
    }

    // The calls overlap: two 300ms calls, one per server, started back to
    // back from one thread, finish together rather than one after the other.
    let started = Instant::now();
    let slow_a = conn_a.start(b"300:x");
    let slow_b = conn_b.start(b"300:y");
    assert_eq!(slow_b.wait().unwrap(), b"b/300:y");
    assert_eq!(slow_a.wait().unwrap(), b"a/300:x");
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_millis(550), "calls ran serially: {elapsed:?}");
}

#[test]
fn started_call_that_times_out_returns_timeout_and_balances_in_flight() {
    let release = Arc::new(AtomicBool::new(false));
    let handler_release = Arc::clone(&release);
    let server = TcpServer::spawn(
        "127.0.0.1:0",
        Arc::new(move |req: &[u8]| {
            if req == b"stall" {
                while !handler_release.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_millis(5));
                }
            }
            req.to_vec()
        }),
    )
    .unwrap();
    let registry = Registry::new();
    let conn = TcpConn::new(server.local_addr().to_string())
        .with_timeout(Duration::from_millis(100))
        .with_metrics(ConnMetrics::from_registry(&registry));
    let in_flight = || registry.snapshot().gauge("rpc.in_flight");

    let call = conn.start(b"stall");
    assert_eq!(in_flight(), 1, "a started call is in flight until collected");
    // The timeout runs from the send: waiting after the deadline returns
    // at once instead of granting a fresh timeout.
    thread::sleep(Duration::from_millis(150));
    let waited = Instant::now();
    let err = call.wait().unwrap_err();
    assert!(matches!(err, RpcError::Timeout), "expected timeout, got {err:?}");
    assert!(waited.elapsed() < Duration::from_millis(80), "deadline restarted at wait");
    assert_eq!(in_flight(), 0, "a timed-out call must give back its in-flight slot");

    // A call dropped without being collected gives its slot back too.
    drop(conn.start(b"stall"));
    assert_eq!(in_flight(), 0);

    // A reply that arrived before the deadline is delivered even when it
    // is collected after the deadline.
    let call = conn.start(b"quick");
    thread::sleep(Duration::from_millis(150));
    assert_eq!(call.wait().unwrap(), b"quick");

    // Late replies are discarded by id and never drive the gauge negative.
    release.store(true, Ordering::SeqCst);
    thread::sleep(Duration::from_millis(100));
    assert_eq!(in_flight(), 0);
    // Only the collected success is a round trip: neither the timeout nor
    // the dropped call is recorded.
    assert_eq!(registry.snapshot().histogram("rpc.round_trip_ns").unwrap().count(), 1);
}

#[test]
fn started_call_to_a_dead_server_errors() {
    let server = TcpServer::spawn("127.0.0.1:0", Arc::new(|req: &[u8]| req.to_vec())).unwrap();
    let addr = server.local_addr().to_string();
    let registry = Registry::new();
    let conn = TcpConn::new(addr).with_metrics(ConnMetrics::from_registry(&registry));
    assert_eq!(conn.call(b"alive").unwrap(), b"alive");
    drop(server);

    let err = conn.start(b"anyone?").wait().unwrap_err();
    assert!(!matches!(err, RpcError::Timeout), "a dead server fails fast: {err:?}");
    assert_eq!(registry.snapshot().gauge("rpc.in_flight"), 0);
}

#[test]
fn started_call_retries_over_a_fresh_connection_when_its_server_dies() {
    // A raw listener plays a server that reads the request and then dies
    // with the reply outstanding. A real server takes over the port before
    // the old socket closes, so the started call's one retry must dial it.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (read_tx, read_rx) = mpsc::channel();
    let (die_tx, die_rx) = mpsc::channel::<()>();
    let doomed = thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        drop(listener);
        let mut buf = [0u8; 64];
        let _ = socket.read(&mut buf);
        read_tx.send(()).unwrap();
        die_rx.recv().unwrap();
        drop(socket);
    });

    let registry = Registry::new();
    let conn = TcpConn::new(addr.clone()).with_metrics(ConnMetrics::from_registry(&registry));
    let call = conn.start(b"survive");
    read_rx.recv().unwrap();
    let _replacement = TcpServer::spawn(&addr, Arc::new(|req: &[u8]| req.to_vec())).unwrap();
    die_tx.send(()).unwrap();

    assert_eq!(call.wait().unwrap(), b"survive");
    doomed.join().unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("rpc.reconnects"), 1);
    assert_eq!(snap.gauge("rpc.in_flight"), 0);
}
