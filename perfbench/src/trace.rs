//! Tracing from outside the program: a timing wrapper around every
//! client→server call, per-op root spans, and a counting allocator.
//!
//! Nothing here reaches into the product crates. The wrapper is a
//! [`ConnFactory`] (and a metalog [`Dial`]) that times each
//! [`ClientConn::call`] by the role of the node it targets. A call made on a
//! thread that is inside a benchmark op becomes a child span of that op; a
//! call made on the CORFU client's fan-out pool threads is only counted,
//! because those threads serve whichever op queued the request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use corfu::cluster::{LAYOUT_BASE_ID, SEQUENCER_BASE_ID, STORAGE_REPLACEMENT_BASE_ID};
use corfu::{ConnFactory, NodeInfo};
use tango_meta::{Dial, ReplicaInfo};
use tango_rpc::ClientConn;

/// The server role a call targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Sequencer = 0,
    Storage = 1,
    Metalog = 2,
}

impl Role {
    /// Node ids encode their kind in both cluster harnesses.
    fn of_node(id: u32) -> Role {
        if id >= LAYOUT_BASE_ID {
            Role::Metalog
        } else if id >= STORAGE_REPLACEMENT_BASE_ID {
            Role::Storage
        } else if id >= SEQUENCER_BASE_ID {
            Role::Sequencer
        } else {
            Role::Storage
        }
    }

    fn name(self) -> &'static str {
        match self {
            Role::Sequencer => "seq",
            Role::Storage => "storage",
            Role::Metalog => "meta",
        }
    }
}

/// The kind of a benchmark op (a root span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Update = 0,
    Query = 1,
    Tx = 2,
    CheckpointTrim = 3,
    Restore = 4,
}

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::Update => "update",
            OpKind::Query => "query",
            OpKind::Tx => "tx",
            OpKind::CheckpointTrim => "checkpoint_and_trim",
            OpKind::Restore => "restore",
        }
    }
}

/// Process-wide call counters by role (every thread), plus calls seen on
/// the fan-out pool threads.
static CALLS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
static UNATTRIBUTED: AtomicU64 = AtomicU64::new(0);

/// Reads of the process-wide call counters, for diffs around a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallCounts {
    pub by_role: [u64; 3],
    pub unattributed: u64,
}

impl CallCounts {
    pub fn now() -> Self {
        Self {
            by_role: [0, 1, 2].map(|i| CALLS[i].load(Ordering::Relaxed)),
            unattributed: UNATTRIBUTED.load(Ordering::Relaxed),
        }
    }

    pub fn since(&self, before: &CallCounts) -> CallCounts {
        CallCounts {
            by_role: [0, 1, 2].map(|i| self.by_role[i] - before.by_role[i]),
            unattributed: self.unattributed - before.unattributed,
        }
    }

    pub fn add(&mut self, other: &CallCounts) {
        for i in 0..3 {
            self.by_role[i] += other.by_role[i];
        }
        self.unattributed += other.unattributed;
    }
}

/// One call made on an op's thread while the op ran.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    role: Role,
    start_ns: u64,
    dur_ns: u64,
}

/// One op: its kind, its interval, and its calls (`calls[first..first+n]`
/// of the same thread's buffer).
#[derive(Debug, Clone, Copy)]
pub struct RootSpan {
    kind: OpKind,
    start_ns: u64,
    dur_ns: u64,
    first_call: usize,
    n_calls: usize,
}

/// The spans one thread recorded.
#[derive(Default)]
pub struct ThreadSpans {
    roots: Vec<RootSpan>,
    calls: Vec<CallSpan>,
}

/// Totals over a set of root spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub roots: u64,
    pub root_ns: u64,
    pub calls: [u64; 3],
    pub call_ns: [u64; 3],
}

impl SpanTotals {
    pub fn add(&mut self, other: &SpanTotals) {
        self.roots += other.roots;
        self.root_ns += other.root_ns;
        for i in 0..3 {
            self.calls[i] += other.calls[i];
            self.call_ns[i] += other.call_ns[i];
        }
    }
}

impl ThreadSpans {
    pub fn totals(&self) -> SpanTotals {
        let mut t = SpanTotals { roots: self.roots.len() as u64, ..SpanTotals::default() };
        for root in &self.roots {
            t.root_ns += root.dur_ns;
        }
        for call in &self.calls {
            t.calls[call.role as usize] += 1;
            t.call_ns[call.role as usize] += call.dur_ns;
        }
        t
    }
}

struct OpState {
    /// Spans are recorded only while this thread is traced.
    traced: bool,
    /// True between an op's start and end.
    in_op: bool,
    spans: ThreadSpans,
}

thread_local! {
    static OP: RefCell<OpState> = const {
        RefCell::new(OpState {
            traced: false,
            in_op: false,
            spans: ThreadSpans { roots: Vec::new(), calls: Vec::new() },
        })
    };
}

/// The instant all span timestamps count from.
fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turns span recording on or off for the calling thread.
pub fn set_thread_traced(traced: bool) {
    OP.with(|op| op.borrow_mut().traced = traced);
}

/// Takes the spans the calling thread recorded so far.
pub fn take_thread_spans() -> ThreadSpans {
    OP.with(|op| std::mem::take(&mut op.borrow_mut().spans))
}

/// Runs one op and returns its result and its latency in nanoseconds. On a
/// traced thread the op becomes a root span and the calls it makes on this
/// thread become its children.
pub fn op<R>(kind: OpKind, f: impl FnOnce() -> R) -> (R, u64) {
    let traced = OP.with(|op| {
        let mut op = op.borrow_mut();
        op.in_op = op.traced;
        op.traced
    });
    let first_call = if traced {
        epoch(); // starts the span clock before the first traced op starts
        OP.with(|op| op.borrow().spans.calls.len())
    } else {
        0
    };
    let start = Instant::now();
    let out = f();
    let dur_ns = start.elapsed().as_nanos() as u64;
    if traced {
        OP.with(|op| {
            let mut op = op.borrow_mut();
            op.in_op = false;
            let n_calls = op.spans.calls.len() - first_call;
            op.spans.roots.push(RootSpan {
                kind,
                start_ns: since_epoch(start),
                dur_ns,
                first_call,
                n_calls,
            });
        });
    }
    (out, dur_ns)
}

fn record_call(role: Role, start: Instant, dur_ns: u64) {
    CALLS[role as usize].fetch_add(1, Ordering::Relaxed);
    let attributed = OP.with(|op| {
        let mut op = op.borrow_mut();
        if op.in_op {
            op.spans.calls.push(CallSpan { role, start_ns: since_epoch(start), dur_ns });
        }
        op.in_op
    });
    if !attributed && std::thread::current().name() == Some("corfu-fanout") {
        UNATTRIBUTED.fetch_add(1, Ordering::Relaxed);
    }
}

/// A connection that times every call.
struct TimedConn {
    inner: Arc<dyn ClientConn>,
    role: Role,
}

impl ClientConn for TimedConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        let start = Instant::now();
        let out = self.inner.call(request);
        record_call(self.role, start, start.elapsed().as_nanos() as u64);
        out
    }
}

/// Wraps a connection factory so every connection it opens is timed.
pub struct TimedFactory(pub Arc<dyn ConnFactory>);

impl ConnFactory for TimedFactory {
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        Arc::new(TimedConn { inner: self.0.connect(node), role: Role::of_node(node.id) })
    }
}

/// Wraps a metalog dialer so every replica connection is timed.
pub struct TimedDial(pub Arc<dyn Dial>);

impl Dial for TimedDial {
    fn dial(&self, replica: &ReplicaInfo) -> Arc<dyn ClientConn> {
        Arc::new(TimedConn { inner: self.0.dial(replica), role: Role::Metalog })
    }
}

/// Spans of finished traced threads, kept in memory until the run ends.
static SPANS: Mutex<Vec<(String, ThreadSpans)>> = Mutex::new(Vec::new());
/// Whether the current block's spans are kept. Only one block's are, so
/// the file's size does not grow with the run's length.
static KEEP: AtomicBool = AtomicBool::new(false);

pub fn set_keep_spans(keep: bool) {
    KEEP.store(keep, Ordering::SeqCst);
}

/// Keeps a traced thread's spans for the end-of-run file, if this block's
/// spans are kept.
pub fn keep_spans(label: String, spans: ThreadSpans) {
    if KEEP.load(Ordering::SeqCst) {
        SPANS.lock().expect("span store poisoned").push((label, spans));
    }
}

/// Writes every kept span to `path` as tab-separated lines: a root line
/// `op <label> <seq> <kind> <start_ns> <dur_ns> <calls>` followed by one
/// `call <role> <start_ns> <dur_ns>` line per child.
pub fn write_spans(path: &Path) -> std::io::Result<()> {
    let kept = SPANS.lock().expect("span store poisoned");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (label, spans) in kept.iter() {
        for (seq, root) in spans.roots.iter().enumerate() {
            writeln!(
                out,
                "op\t{label}\t{seq}\t{}\t{}\t{}\t{}",
                root.kind.name(),
                root.start_ns,
                root.dur_ns,
                root.n_calls
            )?;
            for call in &spans.calls[root.first_call..root.first_call + root.n_calls] {
                writeln!(out, "call\t{}\t{}\t{}", call.role.name(), call.start_ns, call.dur_ns)?;
            }
        }
    }
    out.flush()
}

/// A global allocator that counts allocations while counting is on. The
/// traced run turns it on around its timed windows only.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    pub fn set_counting(on: bool) {
        COUNTING.store(on, Ordering::SeqCst);
    }

    /// (allocations, bytes) counted so far.
    pub fn counts() -> (u64, u64) {
        (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
    }

    fn count(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are atomics
// that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
