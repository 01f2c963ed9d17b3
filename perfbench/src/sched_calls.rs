//! `sched-calls`: the paper's Fig. 5d measurement through the
//! deployment's own call path — a closed loop of
//! `WasmSliceScheduler::schedule` calls through a `PluginHost` slot, PF,
//! RR and MT in turn, 20 UEs per request. Every response is checked
//! against the native `waran_ransim::sched` twin fed the same requests.

use std::sync::Arc;
use std::time::Instant;

use waran_abi::sched::{SchedRequest, SchedResponse};
use waran_core::{install_plugin, WasmSliceScheduler};
use waran_host::plugin::SandboxPolicy;
use waran_host::PluginHost;
use waran_ransim::sched::{SchedulerFault, SliceScheduler};

use crate::common::{self, Rate, Samples, SplitMix, DEADLINE_FAULT, POLICIES, THROUGHPUT};
use crate::{layers, trace, Args, Metrics, Outcome};

/// Distinct requests in the seeded pool (cycled).
const POOL: usize = 512;
/// Rounds (one call per policy) per timed block.
const BLOCK_ROUNDS: usize = 1024;
/// Untimed warm-up before measuring.
const WARMUP_ROUNDS: usize = 2000;
/// Latency samples kept for the percentiles (a uniform reservoir beyond).
const SAMPLE_CAP: usize = 1 << 18;

/// The three host slots and their native twins.
struct CallLoop {
    host: Arc<PluginHost<()>>,
    wasm: Vec<WasmSliceScheduler>,
    native: Vec<Box<dyn SliceScheduler>>,
    reqs: Vec<SchedRequest>,
    /// Next request index (shared by the three policies of a round).
    next: usize,
}

/// Tallies over checked calls.
#[derive(Default)]
struct Tally {
    rounds: u64,
    failed: u64,
    deadline: u64,
    mismatches: u64,
}

fn is_deadline(fault: &SchedulerFault) -> bool {
    fault.code == DEADLINE_FAULT
}

/// Cold set-up: fresh caches, fresh host, the three standard plugins
/// installed under the default slot-budget policy. Returns the host, its
/// slots and the set-up time, seconds.
fn set_up() -> (Arc<PluginHost<()>>, Vec<WasmSliceScheduler>, f64) {
    common::clear_caches();
    let t = Instant::now();
    let host = Arc::new(PluginHost::new());
    let wasm = POLICIES
        .iter()
        .map(|p| {
            WasmSliceScheduler::from_wasm(
                Arc::clone(&host),
                p.label(),
                p.wasm(),
                SandboxPolicy::slot_budget(),
            )
            .expect("standard plugin installs")
        })
        .collect();
    (host, wasm, t.elapsed().as_secs_f64())
}

impl CallLoop {
    fn new(
        host: Arc<PluginHost<()>>,
        wasm: Vec<WasmSliceScheduler>,
        reqs: Vec<SchedRequest>,
    ) -> Self {
        CallLoop {
            host,
            wasm,
            native: POLICIES.iter().map(|p| p.native()).collect(),
            reqs,
            next: 0,
        }
    }

    /// One timed block of whole rounds. Pushes one latency sample (ns)
    /// per call onto `samples`, returns the block's wall time (s) and its
    /// outputs.
    #[allow(clippy::type_complexity)]
    fn block(
        &mut self,
        rounds: usize,
        samples: &mut Vec<f64>,
    ) -> (
        f64,
        Vec<(usize, usize, Result<SchedResponse, SchedulerFault>)>,
    ) {
        let mut outs = Vec::with_capacity(rounds * POLICIES.len());
        let start = Instant::now();
        for _ in 0..rounds {
            let r = self.next % self.reqs.len();
            self.next += 1;
            for (p, sched) in self.wasm.iter_mut().enumerate() {
                let req = &self.reqs[r];
                let t = Instant::now();
                let out = sched.schedule(req);
                samples.push(t.elapsed().as_nanos() as f64);
                if matches!(&out, Err(fault) if is_deadline(fault)) {
                    // The trap may have left the guest's rotation state
                    // anywhere: restart the slot from a fresh instance
                    // (`check` restarts the twin at the same point).
                    let policy = POLICIES[p];
                    install_plugin(
                        &self.host,
                        policy.label(),
                        policy.wasm(),
                        SandboxPolicy::slot_budget(),
                    )
                    .expect("standard plugin reinstalls");
                }
                outs.push((p, r, out));
            }
        }
        (start.elapsed().as_secs_f64(), outs)
    }

    /// Check a block's outputs against the native twins and keep the
    /// latency samples of the calls that answered. A call charged a
    /// wall-clock deadline fault is counted apart and left out of the
    /// samples; its twin restarts from fresh state, as the slot did right
    /// after the fault, so later comparisons stay aligned.
    fn check(
        &mut self,
        outs: Vec<(usize, usize, Result<SchedResponse, SchedulerFault>)>,
        block_ns: &[f64],
        samples: &mut Samples,
        tally: &mut Tally,
    ) {
        for ((p, r, out), &ns) in outs.into_iter().zip(block_ns) {
            let req = &self.reqs[r];
            match out {
                Ok(resp) => {
                    samples.push(ns);
                    if !common::matches_native(self.native[p].as_mut(), req, &resp) {
                        tally.mismatches += 1;
                    }
                }
                Err(fault) if is_deadline(&fault) => {
                    tally.deadline += 1;
                    self.native[p] = POLICIES[p].native();
                }
                Err(_) => {
                    tally.failed += 1;
                    // Keep the twin's rotation in step with the plugin's.
                    let _ = self.native[p].schedule(req);
                }
            }
        }
    }

    /// Closed loop for `seconds`: returns the pooled latency samples, the
    /// pooled call rate and each block's p99 latency (ns). After every
    /// block a cold set-up of a second host is timed into `setups` and
    /// dropped: spread over the run, the set-ups follow the host's speed
    /// as the calls do, where back-to-back ones all caught one state.
    fn measure(
        &mut self,
        seconds: f64,
        tally: &mut Tally,
        setups: &mut Vec<f64>,
    ) -> (Samples, Rate, Vec<f64>) {
        let mut samples = Samples::new(SAMPLE_CAP);
        let mut block_ns = Vec::with_capacity(BLOCK_ROUNDS * POLICIES.len());
        let mut rate = Rate::default();
        let mut p99s = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            block_ns.clear();
            let (wall, outs) = self.block(BLOCK_ROUNDS, &mut block_ns);
            rate.add((BLOCK_ROUNDS * POLICIES.len()) as f64, wall);
            tally.rounds += BLOCK_ROUNDS as u64;
            self.check(outs, &block_ns, &mut samples, tally);
            block_ns.sort_by(f64::total_cmp);
            p99s.push(common::quantile_sorted(&block_ns, 0.99));
            setups.push(set_up().2);
        }
        (samples, rate, p99s)
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut rng = SplitMix::new(args.seed);
    let reqs = common::requests(&mut rng, POOL);
    let (host, wasm, first_setup) = set_up();
    let mut setups = vec![first_setup];
    let mut l = CallLoop::new(host, wasm, reqs);

    // Warm-up rounds are checked too, but neither timed nor counted.
    let mut warm = Tally::default();
    let mut warm_ns = Vec::new();
    let (_, outs) = l.block(WARMUP_ROUNDS, &mut warm_ns);
    l.check(outs, &warm_ns, &mut Samples::new(0), &mut warm);

    let mut tally = Tally::default();
    let mut metrics = Metrics::new();
    if !args.trace {
        let (mut samples, rate, _) = l.measure(args.seconds, &mut tally, &mut setups);
        common::insert_latency(&mut metrics, "sched-calls", &mut samples);
        metrics.insert(THROUGHPUT, (rate.per_s(), "1/s"));
        common::insert_setup(&mut metrics, &setups);
        metrics.insert(common::PEAK_RSS, (common::peak_rss_mb(), "MB"));
    } else {
        // The untraced loop gives the reference time per call; the
        // call-path probe then times the same slot call (traced) next to
        // each seam it is made of, on the same requests.
        let (untraced, _, p99s) = l.measure(args.seconds / 2.0, &mut tally, &mut setups);
        metrics = layers::all_probes(args, layers::Skip::default());
        // The tail as the median block's p99 (30 samples beyond it in each
        // block): a burst of host interference moves a few blocks, not
        // the figure.
        metrics.insert(common::TAIL, (common::median(&p99s) / 1e3, "us"));
        layers::insert_trace_summary(
            &mut metrics,
            "call",
            trace::mean_ns("host.slot_schedule") / 1e3,
            untraced.mean() / 1e3,
            &layers::call_path_breakdown(),
        );
        metrics.insert(
            "host.deadline_faults",
            ((tally.deadline + warm.deadline) as f64, "count"),
        );
        trace::dump();
    }
    let attempted = tally.rounds * POLICIES.len() as u64;
    let mut correct = tally.mismatches == 0 && warm.mismatches == 0 && warm.failed == 0;
    if !correct {
        eprintln!(
            "perfbench: sched-calls: {} responses differ from the native twin",
            tally.mismatches + warm.mismatches
        );
    }
    if let Err(e) = common::deadline_share("sched-calls", tally.deadline, attempted) {
        eprintln!("perfbench: sched-calls: check failed: {e}");
        correct = false;
    }
    Outcome {
        correct,
        attempted,
        failed: tally.failed,
        metrics,
    }
}
