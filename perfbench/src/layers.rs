//! Per-layer metrics for the traced run (`--trace 1`).
//!
//! Every traced run prints the same metric set. Each workload measures
//! the layers it drives itself; the layers it does not drive are measured
//! by the probes here, each a small fixed piece of work at one seam:
//!
//! * call path — encode, raw `Plugin::call`, decode, standalone
//!   `Plugin::call_sched` and the host slot, on seeded 20-UE requests;
//! * load path — one round of distinct-version pushes through the seams
//!   `install_plugin` is made of (skipped on `plugin-churn`, which runs it);
//! * ransim — single-cell gNBs whose traffic sources, channels, inter-slice
//!   and intra-slice schedulers are wrapped in timing decorators, and a
//!   `MassivePlane` driven through `begin_slot`/`serve`;
//! * deployment — a small mobile-ric deployment and its native twin, for
//!   the core and RIC metrics (skipped on `mobile-ric-32`, which runs its
//!   own).

use std::sync::Arc;

use waran_abi::sched::SchedResponse;
use waran_core::MultiCellReport;
use waran_core::WasmSliceScheduler;
use waran_host::plugin::SandboxPolicy;
use waran_host::{Linker, PluginHost, TemplateCache};
use waran_ransim::channel::{MarkovFadingChannel, StaticChannel};
use waran_ransim::massive::{BackgroundSliceSpec, MassiveConfig, MassivePlane};
use waran_ransim::sched::SliceScheduler;
use waran_ransim::slicing::TargetRate;
use waran_ransim::traffic::{FullBuffer, PoissonPackets, TrafficSource};
use waran_ransim::{Gnb, GnbConfig, SliceConfig};

use crate::common::{self, SplitMix, POLICIES};
use crate::deploy::{self, Shape};
use crate::trace::{self, TimedChannel, TimedInter, TimedSched, TimedTraffic};
use crate::{churn, Args, Metrics};

/// Named rows of a self-time table, µs per unit of work.
pub type Breakdown = Vec<(&'static str, f64)>;

/// Probes a workload replaces with its own measurement.
#[derive(Default)]
pub struct Skip {
    pub deployment: bool,
    pub load_path: bool,
}

const CALL_PATH_ROUNDS: usize = 1500;
const LOAD_PATH_VERSIONS: usize = 128;
const GNB_SLOTS: u64 = 1000;
const MASSIVE_SLOTS: u64 = 5000;

/// Run every probe not in `skip` and return the per-layer metric table.
pub fn all_probes(args: &Args, skip: Skip) -> Metrics {
    trace::set_enabled(true);
    let mut m = Metrics::new();
    m.insert("plugc.compile_us", (common::plugc_compile_us(), "us"));
    call_path(args.seed, &mut m);
    if !skip.load_path {
        load_path_probe(args.seed);
        insert_load_path(&mut m);
    }
    ransim_probe(args.seed, &mut m);
    massive_probe(args.seed, &mut m);
    if !skip.deployment {
        deployment_probe(args.seed, &mut m);
    }
    insert_ric(&mut m);
    m
}

fn us(name: &str) -> f64 {
    trace::mean_ns(name) / 1e3
}

fn counter_mean(name: &str) -> f64 {
    let (n, sum) = trace::counter(name);
    sum / n as f64
}

/// Encode, raw call, decode, standalone typed call and host-slot call on
/// the same requests, one standalone instance per seam.
fn call_path(seed: u64, m: &mut Metrics) {
    let reqs = common::requests(&mut SplitMix::new(seed ^ 0xca11), 256);
    let policy = SandboxPolicy::slot_budget();
    let host = Arc::new(PluginHost::new());
    let mut raw = Vec::new();
    let mut typed = Vec::new();
    let mut slot = Vec::new();
    for p in POLICIES {
        let pre = TemplateCache::global()
            .get_or_build(&Linker::new(), p.wasm(), policy)
            .expect("standard plugin template builds");
        raw.push(pre.instantiate(()).expect("plugin instantiates"));
        typed.push(pre.instantiate(()).expect("plugin instantiates"));
        slot.push(
            WasmSliceScheduler::from_wasm(Arc::clone(&host), p.label(), p.wasm(), policy)
                .expect("plugin installs"),
        );
    }
    let mut buf = Vec::new();
    for round in 0..CALL_PATH_ROUNDS {
        let req = &reqs[round % reqs.len()];
        for p in 0..POLICIES.len() {
            buf.clear();
            trace::span("abi.encode", || req.encode_into(&mut buf));
            trace::count("abi.request_bytes", buf.len() as f64);
            // A call can be charged a wall-clock deadline fault when the
            // host preempts it; the probe times it and moves on.
            let out = trace::span("host.raw_call", || raw[p].call("schedule", &buf));
            if let Ok(out) = out {
                let decoded = trace::span("abi.decode", || {
                    SchedResponse::decode(&out, req.ues.len() + 8)
                });
                std::hint::black_box(decoded.expect("response decodes"));
            }
            let typed_out = trace::span("host.call_sched", || typed[p].call_sched(req));
            if std::hint::black_box(typed_out).is_ok() {
                let fuel = typed[p].instance().fuel_consumed().unwrap_or(0);
                trace::count("wasm.fuel", fuel as f64);
            }
            let slot_out = trace::span("host.slot_schedule", || slot[p].schedule(req));
            std::hint::black_box(slot_out).ok();
        }
    }
    let fuel = counter_mean("wasm.fuel");
    m.insert("abi.sched_encode_ns", (trace::mean_ns("abi.encode"), "ns"));
    m.insert("abi.sched_decode_ns", (trace::mean_ns("abi.decode"), "ns"));
    m.insert(
        "abi.request_bytes",
        (counter_mean("abi.request_bytes"), "bytes"),
    );
    m.insert("host.raw_call_us", (us("host.raw_call"), "us"));
    m.insert(
        "host.slot_overhead_ns",
        (
            trace::mean_ns("host.slot_schedule") - trace::mean_ns("host.call_sched"),
            "ns",
        ),
    );
    m.insert("wasm.fuel_per_call", (fuel, "fuel"));
    m.insert(
        "wasm.ns_per_fuel",
        (trace::mean_ns("host.call_sched") / fuel, "ns/fuel"),
    );
}

/// Per-call attribution from the call-path seams, µs.
pub fn call_path_breakdown() -> Breakdown {
    vec![
        (
            "abi: request encode + response decode",
            us("abi.encode") + us("abi.decode"),
        ),
        (
            "host+wasm: raw call (copy in, guest, copy out)",
            us("host.raw_call"),
        ),
        (
            "host: slot (schedule via slot - standalone call_sched)",
            us("host.slot_schedule") - us("host.call_sched"),
        ),
    ]
}

/// One traced round of distinct-version pushes from a cold host.
fn load_path_probe(seed: u64) {
    let reqs = common::requests(&mut SplitMix::new(seed ^ 0x10ad), 8);
    let (mut slot, _) = churn::set_up(&reqs[0]);
    let batch = churn::versions(seed, u64::MAX, LOAD_PATH_VERSIONS);
    let (_, pushed) = churn::round(&mut slot, &batch, &reqs, true, &mut common::Samples::new(0));
    let mut tally = churn::Tally::default();
    tally.check(&pushed, &reqs);
    assert!(tally.errors.is_empty(), "load-path probe pushes check out");
    drop(slot);
    churn::record_retention(seed, &reqs);
}

/// Load-path metrics from the `push` spans and the round counters.
pub fn insert_load_path(m: &mut Metrics) {
    m.insert("wasm.load_us", (us("wasm.load"), "us"));
    m.insert("host.template_us", (us("host.template"), "us"));
    m.insert("host.instantiate_us", (us("host.instantiate"), "us"));
    m.insert("host.install_us", (us("host.install"), "us"));
    m.insert("host.first_call_us", (us("host.first_call"), "us"));
    m.insert(
        "host.retained_kb_per_push",
        (counter_mean("host.retained_kb_per_push"), "KB"),
    );
    m.insert(
        "host.templates_cached",
        (counter_mean("host.templates_cached"), "count"),
    );
}

/// Per-push attribution from the load-path seams, µs.
pub fn load_path_breakdown() -> Breakdown {
    vec![
        (
            "wasm: module load (decode, validate, lower)",
            us("wasm.load"),
        ),
        ("host: template build (module cached)", us("host.template")),
        ("host: instantiate", us("host.instantiate")),
        ("host: install", us("host.install")),
        ("host+wasm+abi: first decision", us("host.first_call")),
    ]
}

/// Single-cell gNBs (one per standard policy on the eMBB slice, RR on the
/// IoT slice) with every plug-in seam wrapped in a timing decorator.
fn ransim_probe(seed: u64, m: &mut Metrics) {
    let policy = SandboxPolicy::slot_budget();
    for (k, p) in POLICIES.iter().enumerate() {
        let host = Arc::new(PluginHost::new());
        let config = GnbConfig {
            seed: seed.wrapping_add(k as u64),
            ..GnbConfig::default()
        };
        let mut gnb =
            Gnb::with_inter_scheduler(config, Box::new(TimedInter(Box::new(TargetRate::new()))));
        let wasm = |name: &str, bytes: &[u8]| {
            Box::new(TimedSched(Box::new(
                WasmSliceScheduler::from_wasm(Arc::clone(&host), name, bytes, policy)
                    .expect("plugin installs"),
            )))
        };
        let embb = gnb.add_slice(
            SliceConfig::with_target_mbps("embb", 8.0),
            wasm("embb", p.wasm()),
        );
        let iot = gnb.add_slice(
            SliceConfig::with_target_mbps("iot", 2.0),
            wasm("iot", POLICIES[1].wasm()),
        );
        for u in 0..12 {
            let traffic: Box<dyn TrafficSource> = if u % 2 == 0 {
                Box::new(FullBuffer)
            } else {
                Box::new(PoissonPackets::new(200.0, 1200))
            };
            gnb.add_ue(
                embb,
                Box::new(TimedChannel(Box::new(MarkovFadingChannel::good()))),
                Box::new(TimedTraffic(traffic)),
            );
        }
        for _ in 0..2 {
            gnb.add_ue(
                iot,
                Box::new(TimedChannel(Box::new(StaticChannel::new(13)))),
                Box::new(TimedTraffic(Box::new(PoissonPackets::new(150.0, 900)))),
            );
        }
        for _ in 0..GNB_SLOTS {
            trace::span("gnb.step", || gnb.step());
        }
    }
    let steps = trace::get("gnb.step");
    let per_step = |name: &str| trace::get(name).total_ns / steps.count as f64;
    m.insert(
        "ransim.traffic_ns_per_ue_slot",
        (trace::mean_ns("ransim.traffic"), "ns"),
    );
    m.insert(
        "ransim.channel_ns_per_ue_slot",
        (trace::mean_ns("ransim.channel"), "ns"),
    );
    m.insert(
        "ransim.slicing_ns_per_slot",
        (per_step("ransim.slicing"), "ns"),
    );
    m.insert(
        "ransim.sched_us_per_slot",
        (per_step("ransim.sched") / 1e3, "us"),
    );
    m.insert(
        "ransim.mac_self_us_per_slot",
        (
            (steps.total_ns - steps.child_ns) / steps.count as f64 / 1e3,
            "us",
        ),
    );
}

/// A 2000-UE background plane driven slot by slot.
fn massive_probe(seed: u64, m: &mut Metrics) {
    let mut plane = MassivePlane::new(
        MassiveConfig {
            seed,
            ..MassiveConfig::default()
        },
        &[BackgroundSliceSpec {
            slice_id: 0,
            population: 2000,
            per_ue_rate_bps: 4000.0,
            burst_bytes: 0.0,
        }],
    );
    for slot in 0..MASSIVE_SLOTS {
        let served = trace::span("ransim.massive", || {
            plane.begin_slot(slot, 1e-3);
            plane.serve(0, 20)
        });
        std::hint::black_box(served);
    }
    m.insert("ransim.massive_us_per_slot", (us("ransim.massive"), "us"));
}

/// Core metrics of a small mobile-ric deployment and its native twin.
fn deployment_probe(seed: u64, m: &mut Metrics) {
    let shape = Shape::probe(seed);
    let twin = deploy::run_once(&shape, true, false);
    let twin_digest = deploy::twin_digests(&shape, &twin);
    let untraced = deploy::run_once(&shape, false, false);
    let traced = deploy::run_once(&shape, false, true);
    let mut tally = deploy::Tally::default();
    tally.check(&shape, &untraced.report, &twin_digest);
    tally.check(&shape, &traced.report, &twin_digest);
    assert!(
        tally.errors.is_empty(),
        "probe deployment checks out: {:?}",
        tally.errors
    );
    let per_cs = |seconds: f64, rep: &deploy::Rep| seconds * 1e6 / rep.report.total_slots as f64;
    let native = per_cs(twin.run_s, &twin);
    m.insert("core.native_us_per_cell_slot", (native, "us"));
    m.insert(
        "core.plugin_path_us_per_cell_slot",
        (per_cs(untraced.run_s, &untraced) - native, "us"),
    );
    m.insert(
        "core.wait_us_per_cell_slot",
        (per_cs(traced.run_s - traced.cpu_s, &traced), "us"),
    );
    m.insert(
        "core.build_us_per_cell",
        (untraced.build_s * 1e6 / deploy::PROBE_CELLS as f64, "us"),
    );
    m.insert(
        "core.sched_calls_per_cell_slot",
        (
            traced.report.total_sched_calls as f64 / traced.report.total_slots as f64,
            "count",
        ),
    );
    insert_deployment_counts(m, &traced.report);
}

/// Mobility and RIC counts of one repetition.
pub fn insert_deployment_counts(m: &mut Metrics, report: &MultiCellReport) {
    let mobility = report.mobility.clone().unwrap_or_default();
    let ric = report.ric.clone().unwrap_or_default();
    m.insert(
        "core.handovers",
        (mobility.cross_cell_handovers as f64, "count"),
    );
    m.insert(
        "core.dropped_departures",
        (mobility.dropped_departures as f64, "count"),
    );
    m.insert("ric.indications", (ric.indications_sent as f64, "count"));
    m.insert(
        "ric.rejected_actions",
        (ric.rejected_actions as f64, "count"),
    );
}

/// RIC metrics from the timing codec and xApp spans.
fn insert_ric(m: &mut Metrics) {
    m.insert(
        "ric.indication_encode_us",
        (us("ric.indication_encode"), "us"),
    );
    m.insert(
        "ric.indication_decode_us",
        (us("ric.indication_decode"), "us"),
    );
    m.insert("ric.actions_encode_us", (us("ric.actions_encode"), "us"));
    m.insert("ric.actions_decode_us", (us("ric.actions_decode"), "us"));
    let indications = trace::get("ric.indication_decode").count as f64;
    m.insert(
        "ric.xapp_us_per_indication",
        (trace::get("ric.xapp").total_ns / indications / 1e3, "us"),
    );
    m.insert(
        "ric.indication_bytes",
        (counter_mean("ric.indication_bytes"), "bytes"),
    );
}

/// Print the self-time table (µs per `unit`) and add the summary metrics:
/// traced and untraced end-to-end time per unit, the tracing overhead,
/// and the attributed and unattributed parts.
pub fn insert_trace_summary(
    m: &mut Metrics,
    unit: &str,
    e2e_us: f64,
    untraced_us: f64,
    rows: &Breakdown,
) {
    let attributed: f64 = rows.iter().map(|(_, v)| v).sum();
    eprintln!("perfbench: self time per {unit} (traced end to end {e2e_us:.3} us, untraced {untraced_us:.3} us)");
    for (name, v) in rows {
        eprintln!("  {name:<58} {v:>10.3} us  {:>5.1}%", 100.0 * v / e2e_us);
    }
    eprintln!(
        "  {:<58} {:>10.3} us  {:>5.1}%",
        "unattributed",
        e2e_us - attributed,
        100.0 * (e2e_us - attributed) / e2e_us
    );
    m.insert("trace.e2e_us_per_op", (e2e_us, "us"));
    m.insert("trace.untraced_us_per_op", (untraced_us, "us"));
    m.insert(
        "trace.overhead_pct",
        (100.0 * (e2e_us / untraced_us - 1.0), "%"),
    );
    m.insert("trace.attributed_us_per_op", (attributed, "us"));
    m.insert("trace.unattributed_us_per_op", (e2e_us - attributed, "us"));
}
