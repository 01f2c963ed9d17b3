//! Spans recorded from the benchmark's own code, around the public seams
//! of each layer, plus timing decorators for the program's plug-in traits.
//!
//! A span has a name and a parent (the span open on the same thread when
//! it started, or `-` at the root). Spans are folded in memory per
//! `(name, parent)` into a count, a total and the time their children
//! covered, so a layer's self time is its total minus its children; the
//! table is written to standard error when the benchmark ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use waran_abi::sched::{SchedRequest, SchedResponse};
use waran_abi::CodecError;
use waran_ransim::channel::ChannelModel;
use waran_ransim::sched::{SchedulerFault, SliceScheduler};
use waran_ransim::slicing::{InterSliceScheduler, SliceDemand};
use waran_ransim::traffic::TrafficSource;
use waran_ric::e2::{ControlAction, Indication};
use waran_ric::ric::{XApp, XAppCtx};
use waran_ric::CommCodec;

/// Folded spans of one `(name, parent)` edge.
#[derive(Clone, Copy, Default, Debug)]
pub struct Agg {
    pub count: u64,
    pub total_ns: f64,
    pub child_ns: f64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<BTreeMap<(&str, &str), Agg>> = Mutex::new(BTreeMap::new());
/// Plain counters recorded at the same seams (bytes, sizes).
static COUNTERS: Mutex<BTreeMap<&str, (u64, f64)>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Open spans on this thread: name and the child time seen so far.
    static STACK: RefCell<Vec<(&'static str, f64)>> = const { RefCell::new(Vec::new()) };
}

/// Turn recording on or off (off: `span` is a plain call).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Run `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    STACK.with(|s| s.borrow_mut().push((name, 0.0)));
    let start = Instant::now();
    let out = f();
    let dur = start.elapsed().as_nanos() as f64;
    let (parent, child_ns) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (_, child_ns) = s.pop().expect("span stack underflow");
        let parent = match s.last_mut() {
            Some((parent, parent_child)) => {
                *parent_child += dur;
                *parent
            }
            None => "-",
        };
        (parent, child_ns)
    });
    let mut spans = SPANS.lock().expect("span table poisoned");
    let agg = spans.entry((name, parent)).or_default();
    agg.count += 1;
    agg.total_ns += dur;
    agg.child_ns += child_ns;
    out
}

/// Record one observation `v` of counter `name` (when tracing is on).
pub fn count(name: &'static str, v: f64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let mut counters = COUNTERS.lock().expect("counter table poisoned");
    let c = counters.entry(name).or_default();
    c.0 += 1;
    c.1 += v;
}

/// A span name folded over all its parents.
pub fn get(name: &str) -> Agg {
    let spans = SPANS.lock().expect("span table poisoned");
    let mut out = Agg::default();
    for ((n, _), a) in spans.iter() {
        if *n == name {
            out.count += a.count;
            out.total_ns += a.total_ns;
            out.child_ns += a.child_ns;
        }
    }
    out
}

/// Mean of a span's total duration, ns (NaN when it never ran).
pub fn mean_ns(name: &str) -> f64 {
    let a = get(name);
    a.total_ns / a.count as f64
}

/// Counter observations and their sum.
pub fn counter(name: &str) -> (u64, f64) {
    COUNTERS
        .lock()
        .expect("counter table poisoned")
        .get(name)
        .copied()
        .unwrap_or_default()
}

/// Write the span table (one line per `(name, parent)` edge) to stderr.
pub fn dump() {
    let spans = SPANS.lock().expect("span table poisoned");
    eprintln!("perfbench: spans (name <- parent: count, total ms, self ms)");
    for ((name, parent), a) in spans.iter() {
        eprintln!(
            "  {name} <- {parent}: {} {:.3} {:.3}",
            a.count,
            a.total_ns / 1e6,
            (a.total_ns - a.child_ns) / 1e6
        );
    }
    for (name, (n, sum)) in COUNTERS.lock().expect("counter table poisoned").iter() {
        eprintln!("  counter {name}: {n} obs, sum {sum}");
    }
}

/// [`CommCodec`] decorator: one span per encode/decode, plus the encoded
/// indication size.
pub struct TimedCodec<C>(pub C);

impl<C: CommCodec> CommCodec for TimedCodec<C> {
    fn encode_indication(&self, ind: &Indication) -> Vec<u8> {
        let bytes = span("ric.indication_encode", || self.0.encode_indication(ind));
        count("ric.indication_bytes", bytes.len() as f64);
        bytes
    }

    fn decode_indication(&self, bytes: &[u8]) -> Result<Indication, CodecError> {
        span("ric.indication_decode", || self.0.decode_indication(bytes))
    }

    fn encode_actions(&self, actions: &[ControlAction]) -> Vec<u8> {
        span("ric.actions_encode", || self.0.encode_actions(actions))
    }

    fn decode_actions(&self, bytes: &[u8]) -> Result<(Vec<ControlAction>, usize), CodecError> {
        span("ric.actions_decode", || self.0.decode_actions(bytes))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// [`XApp`] decorator: one span per indication handled.
pub struct TimedXApp(pub Box<dyn XApp>);

impl XApp for TimedXApp {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn on_indication(&mut self, ctx: &mut XAppCtx<'_>, ind: &Indication) -> Vec<ControlAction> {
        span("ric.xapp", || self.0.on_indication(ctx, ind))
    }
}

/// [`SliceScheduler`] decorator for the single-cell gNB probes.
pub struct TimedSched(pub Box<dyn SliceScheduler>);

impl SliceScheduler for TimedSched {
    fn schedule(&mut self, req: &SchedRequest) -> Result<SchedResponse, SchedulerFault> {
        span("ransim.sched", || self.0.schedule(req))
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// [`TrafficSource`] decorator.
pub struct TimedTraffic(pub Box<dyn TrafficSource>);

impl TrafficSource for TimedTraffic {
    fn bytes_for_slot(&mut self, slot: u64, slot_seconds: f64, rng: &mut dyn rand::RngCore) -> u64 {
        span("ransim.traffic", || {
            self.0.bytes_for_slot(slot, slot_seconds, rng)
        })
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// [`ChannelModel`] decorator (geometry calls pass straight through).
pub struct TimedChannel(pub Box<dyn ChannelModel>);

impl ChannelModel for TimedChannel {
    fn sample_cqi(&mut self, slot: u64, rng: &mut dyn rand::RngCore) -> u8 {
        span("ransim.channel", || self.0.sample_cqi(slot, rng))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn position(&self) -> Option<[f64; 2]> {
        self.0.position()
    }

    fn retarget(&mut self, serving_pos: [f64; 2]) {
        self.0.retarget(serving_pos)
    }
}

/// [`InterSliceScheduler`] decorator.
pub struct TimedInter(pub Box<dyn InterSliceScheduler>);

impl InterSliceScheduler for TimedInter {
    fn allocate(&mut self, total_prbs: u32, demands: &[SliceDemand]) -> Vec<u32> {
        span("ransim.slicing", || self.0.allocate(total_prbs, demands))
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}
