//! `plugin-churn`: a stream of distinct plugin versions pushed into one
//! host slot with `install_plugin`, each followed by the slot's first
//! scheduling decision. The versions are the standard PF/RR/MT modules,
//! each tagged with its own custom section so every push misses both the
//! module and the template cache.
//!
//! Pushes run in rounds of [`ROUND`] versions. Neither cache ever lets a
//! version go, so each round starts from a fresh host with both caches
//! emptied; that bounds a run's memory while every round still shows what
//! a push leaves behind.

use std::sync::Arc;
use std::time::Instant;

use waran_abi::sched::{SchedRequest, SchedResponse};
use waran_core::{install_plugin, WasmSliceScheduler};
use waran_host::plugin::{PluginError, SandboxPolicy};
use waran_host::{Linker, ModuleCache, PluginHost, TemplateCache};
use waran_ransim::sched::{SchedulerFault, SliceScheduler};

use crate::common::{self, Rate, Samples, SplitMix, DEADLINE_FAULT, POLICIES, THROUGHPUT};
use crate::{layers, trace, Args, Metrics, Outcome};

/// Push latency samples kept for the percentiles.
const SAMPLE_CAP: usize = 1 << 17;
/// Versions pushed per round.
pub const ROUND: usize = 256;
/// Seeded requests the first decisions cycle through.
const POOL: usize = 64;
/// The slot every version is pushed into.
const SLOT: &str = "sched";
/// Versions in the untimed round that measures what a push retains.
const RETENTION_VERSIONS: usize = 128;

/// Append a custom section named `perfbench.version` carrying `tag` to a
/// module: a distinct, still valid module with identical code.
pub fn tagged(base: &[u8], tag: [u64; 3]) -> Vec<u8> {
    const NAME: &[u8] = b"perfbench.version";
    let mut payload = vec![NAME.len() as u8];
    payload.extend_from_slice(NAME);
    for word in tag {
        payload.extend_from_slice(&word.to_le_bytes());
    }
    let mut out = base.to_vec();
    out.push(0); // custom section id
    let mut len = payload.len();
    loop {
        let byte = (len & 0x7f) as u8;
        len >>= 7;
        if len == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
    out.extend_from_slice(&payload);
    out
}

/// One round's versions: policy `i % 3`, tagged with `(seed tag, round, i)`.
pub fn versions(tag: u64, round: u64, n: usize) -> Vec<(usize, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let p = i % POLICIES.len();
            (p, tagged(POLICIES[p].wasm(), [tag, round, i as u64]))
        })
        .collect()
}

/// A host with one slot bound to a scheduler adapter.
pub struct Slot {
    pub host: Arc<PluginHost<()>>,
    pub sched: WasmSliceScheduler,
}

/// Cold set-up of a round: empty caches, a fresh host with the untagged
/// PF plugin installed and answering once. Returns the slot and the
/// set-up time, seconds.
pub fn set_up(req: &SchedRequest) -> (Slot, f64) {
    common::clear_caches();
    let t = Instant::now();
    let host = Arc::new(PluginHost::new());
    install_plugin(
        &host,
        SLOT,
        POLICIES[0].wasm(),
        SandboxPolicy::slot_budget(),
    )
    .expect("standard plugin installs");
    let mut sched = WasmSliceScheduler::new(Arc::clone(&host), SLOT);
    sched.schedule(req).expect("standard plugin answers");
    (Slot { host, sched }, t.elapsed().as_secs_f64())
}

/// What one push left to check.
pub struct Pushed {
    policy: usize,
    req: usize,
    want_hash: u64,
    got_hash: Option<u64>,
    result: Result<SchedResponse, String>,
}

/// Push through `install_plugin` (the untraced path).
fn push(slot: &mut Slot, bytes: &[u8], req: &SchedRequest) -> Result<SchedResponse, String> {
    install_plugin(&slot.host, SLOT, bytes, SandboxPolicy::slot_budget())
        .map_err(|e| e.to_string())?;
    slot.sched.schedule(req).map_err(fault_text)
}

fn fault_text(f: SchedulerFault) -> String {
    format!("{}: {}", f.code, f.detail)
}

/// Push through the seams `install_plugin` is made of, one span each:
/// module load, template build (module now cached), stamp-out, install,
/// first decision.
pub fn push_traced(
    slot: &mut Slot,
    bytes: &[u8],
    req: &SchedRequest,
) -> Result<SchedResponse, String> {
    trace::span("push", || {
        let policy = SandboxPolicy::slot_budget();
        trace::span("wasm.load", || ModuleCache::global().load(bytes))
            .map_err(|e| e.to_string())?;
        let pre = trace::span("host.template", || {
            TemplateCache::global().get_or_build(&Linker::new(), bytes, policy)
        })
        .map_err(|e: PluginError| e.to_string())?;
        let plugin =
            trace::span("host.instantiate", || pre.instantiate(())).map_err(|e| e.to_string())?;
        trace::span("host.install", || slot.host.install(SLOT, plugin));
        trace::span("host.first_call", || slot.sched.schedule(req)).map_err(fault_text)
    })
}

/// Push a round of versions; returns each push's latency (ns), the round's
/// wall time (s) and what to check.
pub fn round(
    slot: &mut Slot,
    versions: &[(usize, Vec<u8>)],
    reqs: &[SchedRequest],
    traced: bool,
    samples: &mut Samples,
) -> (f64, Vec<Pushed>) {
    let mut out = Vec::with_capacity(versions.len());
    let start = Instant::now();
    for (i, (policy, bytes)) in versions.iter().enumerate() {
        let req = i % reqs.len();
        let t = Instant::now();
        let result = if traced {
            push_traced(slot, bytes, &reqs[req])
        } else {
            push(slot, bytes, &reqs[req])
        };
        samples.push(t.elapsed().as_nanos() as f64);
        out.push(Pushed {
            policy: *policy,
            req,
            want_hash: 0,
            got_hash: slot.host.content_hash(SLOT),
            result,
        });
    }
    let wall = start.elapsed().as_secs_f64();
    if traced {
        trace::count(
            "host.templates_cached",
            TemplateCache::global().len() as f64,
        );
    }
    for (p, (_, bytes)) in out.iter_mut().zip(versions) {
        p.want_hash = common::fnv1a(bytes);
    }
    (wall, out)
}

/// Record `host.retained_kb_per_push`: growth of RSS per version over an
/// untimed round of distinct pushes into a fresh slot. The allocator's
/// free pages go back to the system first, so the round cannot reuse what
/// an emptied cache left behind. Kept apart from the timed rounds, which
/// would otherwise pay the page faults.
pub fn record_retention(tag: u64, reqs: &[SchedRequest]) {
    let (mut slot, _) = set_up(&reqs[0]);
    let batch = versions(tag, u64::MAX - 1, RETENTION_VERSIONS);
    let rss0 = common::rss_kb();
    let (_, pushed) = round(&mut slot, &batch, reqs, false, &mut Samples::new(0));
    let kb = (common::rss_kb() - rss0) / RETENTION_VERSIONS as f64;
    let mut tally = Tally::default();
    tally.check(&pushed, reqs);
    assert!(tally.errors.is_empty(), "retention round pushes check out");
    trace::count("host.retained_kb_per_push", kb);
    drop(slot);
    common::clear_caches();
}

/// Check tallies.
#[derive(Default)]
pub struct Tally {
    pub pushes: u64,
    pub failed: u64,
    pub deadline: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// After each push the slot must report the pushed bytes' hash, and
    /// the first decision must equal a fresh native twin's.
    pub fn check(&mut self, pushed: &[Pushed], reqs: &[SchedRequest]) {
        for p in pushed {
            self.pushes += 1;
            match &p.result {
                Ok(resp) => {
                    if p.got_hash != Some(p.want_hash) {
                        self.errors.push(format!(
                            "slot hash {:?}, pushed bytes hash {:016x}",
                            p.got_hash, p.want_hash
                        ));
                    }
                    let mut twin = POLICIES[p.policy].native();
                    if !common::matches_native(twin.as_mut(), &reqs[p.req], resp) {
                        self.errors
                            .push("first decision differs from the native twin".into());
                    }
                }
                Err(e) if e.starts_with(DEADLINE_FAULT) => self.deadline += 1,
                Err(e) => {
                    self.failed += 1;
                    if self.failed <= 10 {
                        eprintln!("perfbench: plugin-churn: push failed: {e}");
                    }
                }
            }
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut rng = SplitMix::new(args.seed);
    let reqs = common::requests(&mut rng, POOL);
    let tag = rng.next_u64();
    let mut tally = Tally::default();
    let mut metrics = Metrics::new();
    let mut samples = Samples::new(SAMPLE_CAP);
    let mut rate = Rate::default();
    let mut setups = Vec::new();
    let mut round_no = 0u64;
    let mut rounds = |seconds: f64, traced: bool, tally: &mut Tally, samples: &mut Samples| {
        let start = Instant::now();
        while round_no < 3 || start.elapsed().as_secs_f64() < seconds {
            let batch = versions(tag, round_no, ROUND);
            round_no += 1;
            let (mut slot, setup) = set_up(&reqs[0]);
            setups.push(setup);
            let (wall, pushed) = round(&mut slot, &batch, &reqs, traced, samples);
            rate.add(ROUND as f64, wall);
            tally.check(&pushed, &reqs);
        }
    };
    if !args.trace {
        rounds(args.seconds, false, &mut tally, &mut samples);
        common::insert_latency(&mut metrics, "plugin-churn", &mut samples);
        metrics.insert(THROUGHPUT, (rate.per_s(), "1/s"));
        common::insert_setup(&mut metrics, &setups);
        metrics.insert(common::PEAK_RSS, (common::peak_rss_mb(), "MB"));
    } else {
        let mut untraced = Samples::new(SAMPLE_CAP);
        rounds(args.seconds / 2.0, false, &mut tally, &mut untraced);
        trace::set_enabled(true);
        rounds(
            args.seconds / 2.0,
            true,
            &mut tally,
            &mut Samples::new(SAMPLE_CAP),
        );
        record_retention(tag, &reqs);
        let untraced_us = untraced.mean() / 1e3;
        let tail = common::insert_latency(&mut Metrics::new(), "plugin-churn", &mut untraced);
        metrics = layers::all_probes(
            args,
            layers::Skip {
                load_path: true,
                ..layers::Skip::default()
            },
        );
        metrics.insert(common::TAIL, (tail, "us"));
        let breakdown = layers::load_path_breakdown();
        layers::insert_load_path(&mut metrics);
        layers::insert_trace_summary(
            &mut metrics,
            "push",
            trace::mean_ns("push") / 1e3,
            untraced_us,
            &breakdown,
        );
        metrics.insert("host.deadline_faults", (tally.deadline as f64, "count"));
        trace::dump();
    }
    if let Err(e) = common::deadline_share("plugin-churn", tally.deadline, tally.pushes) {
        tally.errors.push(e);
    }
    for e in tally.errors.iter().take(10) {
        eprintln!("perfbench: plugin-churn: check failed: {e}");
    }
    Outcome {
        correct: tally.errors.is_empty(),
        attempted: tally.pushes,
        failed: tally.failed,
        metrics,
    }
}
