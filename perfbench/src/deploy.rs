//! The two deployment workloads, run with `MultiCellScenario::run` on one
//! worker, each checked cell by cell against a native-scheduler twin.
//!
//! * `mobile-ric-32`: 32 cells; per cell a Wasm eMBB slice of 12 mobile
//!   UEs (full-buffer and Poisson) under PF, RR or MT by cell, and a Wasm
//!   RR IoT slice. Handovers ride the lockstep exchange; a deterministic
//!   RIC with the TLV codec runs steering and slice-SLA xApps.
//! * `massive-500`: 500 cells × 2000 background UEs (1M) under
//!   `PopulationModel::TwoTier`, a 2-UE RR foreground quota per cell.

use std::collections::BTreeSet;
use std::time::Instant;

use waran_core::{
    CellSpec, ChannelSpec, MobilityAttachment, MultiCellReport, MultiCellScenarioBuilder,
    PopulationModel, RicAttachment, SchedKind, SliceSpec, TrafficSpec,
};
use waran_ric::ric::{NearRtRic, SliceSlaAssurance, TrafficSteering, XApp};
use waran_ric::{DeliveryMode, TlvCodec};

use crate::common::{self, Rate, LATENCY, PEAK_RSS, TAIL, THROUGHPUT};
use crate::layers::{self, Breakdown};
use crate::{trace, Args, Metrics, Outcome};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MobileRic32,
    Massive500,
}

// ---- mobile-ric shape ----
const MOBILE_CELLS: usize = 32;
const EMBB_UES: usize = 12;
const IOT_UES: usize = 2;
/// Simulated seconds per repetition.
const MOBILE_SECONDS: f64 = 1.0;
const EXCHANGE_PERIOD_SLOTS: u64 = 20;
const EMBB_TARGET_MBPS: f64 = 8.0;
const IOT_TARGET_MBPS: f64 = 2.0;

// ---- massive shape ----
const MASSIVE_CELLS: usize = 500;
const BG_UES_PER_CELL: u32 = 2000;
const BG_PER_UE_KBPS: f64 = 4.0;
const MASSIVE_SECONDS: f64 = 0.5;
const FOREGROUND_QUOTA: u32 = 2;
const ROTATION_PERIOD_SLOTS: u64 = 100;

/// Cells of the small mobile-ric deployment the traced runs of the other
/// workloads use to fill the core and RIC metrics.
pub const PROBE_CELLS: usize = 4;
const PROBE_SECONDS: f64 = 0.5;

/// Check-only repetitions a run may add when every measured repetition
/// was left out of the twin comparison.
const CHECK_ONLY_REPS: usize = 12;

const POLICIES: [SchedKind; 3] = [
    SchedKind::ProportionalFair,
    SchedKind::RoundRobin,
    SchedKind::MaxThroughput,
];

/// One deployment: its shape, the seed, and which backend the slices use.
#[derive(Clone, Copy)]
pub struct Shape {
    pub kind: Kind,
    pub cells: usize,
    pub seconds: f64,
    pub seed: u64,
}

impl Shape {
    pub fn of(kind: Kind, seed: u64) -> Self {
        match kind {
            Kind::MobileRic32 => Shape {
                kind,
                cells: MOBILE_CELLS,
                seconds: MOBILE_SECONDS,
                seed,
            },
            Kind::Massive500 => Shape {
                kind,
                cells: MASSIVE_CELLS,
                seconds: MASSIVE_SECONDS,
                seed,
            },
        }
    }

    pub fn probe(seed: u64) -> Self {
        Shape {
            kind: Kind::MobileRic32,
            cells: PROBE_CELLS,
            seconds: PROBE_SECONDS,
            seed,
        }
    }

    fn slots(&self) -> u64 {
        (self.seconds * 1000.0).round() as u64
    }

    /// The deployment with every slice on the Wasm backend, or (`native`)
    /// its twin with every slice on `SliceSpec::native()`.
    pub fn builder(&self, native: bool, traced: bool) -> MultiCellScenarioBuilder {
        let b = MultiCellScenarioBuilder::new()
            .seconds(self.seconds)
            .base_seed(self.seed);
        match self.kind {
            Kind::MobileRic32 => self.mobile(b, native, traced),
            Kind::Massive500 => self.massive(b, native),
        }
    }

    fn mobile(
        &self,
        mut b: MultiCellScenarioBuilder,
        native: bool,
        traced: bool,
    ) -> MultiCellScenarioBuilder {
        b = b.mobility(
            MobilityAttachment::new()
                .isd_m(60.0)
                .exchange_period_slots(EXCHANGE_PERIOD_SLOTS)
                .ttt_windows(1)
                .hold_windows(2),
        );
        for i in 0..self.cells {
            let mut embb =
                SliceSpec::new("embb", POLICIES[i % POLICIES.len()]).target_mbps(EMBB_TARGET_MBPS);
            for u in 0..EMBB_UES {
                let speed_mps = [10.0, 25.0, 50.0][u % 3];
                let traffic = if u % 2 == 0 {
                    TrafficSpec::FullBuffer
                } else {
                    TrafficSpec::Poisson {
                        pps: 200.0,
                        bytes: 1200,
                    }
                };
                embb = embb.ue(ChannelSpec::Mobile { speed_mps }, traffic);
            }
            let mut iot = SliceSpec::new("iot", SchedKind::RoundRobin).target_mbps(IOT_TARGET_MBPS);
            for _ in 0..IOT_UES {
                iot = iot.ue(
                    ChannelSpec::Static(13),
                    TrafficSpec::Poisson {
                        pps: 150.0,
                        bytes: 900,
                    },
                );
            }
            if native {
                embb = embb.native();
                iot = iot.native();
            }
            b = b.cell(CellSpec::new(&format!("cell{i:02}")).slice(embb).slice(iot));
        }
        b.ric(ric_attachment(self.cells, traced))
    }

    fn massive(&self, mut b: MultiCellScenarioBuilder, native: bool) -> MultiCellScenarioBuilder {
        b = b.population(PopulationModel::TwoTier {
            foreground_per_slice: FOREGROUND_QUOTA,
            rotation_period_slots: ROTATION_PERIOD_SLOTS,
        });
        for i in 0..self.cells {
            let mut miot = SliceSpec::new("miot", SchedKind::RoundRobin)
                .background(BG_UES_PER_CELL, BG_PER_UE_KBPS);
            if native {
                miot = miot.native();
            }
            b = b.cell(CellSpec::new(&format!("cell{i:03}")).slice(miot));
        }
        b
    }

    /// Checks on one run that need no twin: census and mobility for
    /// mobile-ric, ledger, rotation schedule and bytes for massive.
    fn invariants(&self, report: &MultiCellReport) -> Result<(), String> {
        if report.faulted_cells() != 0 {
            return Err(format!("{} cells faulted", report.faulted_cells()));
        }
        match self.kind {
            Kind::MobileRic32 => {
                let mut ids = BTreeSet::new();
                let mut n = 0usize;
                for cell in &report.cells {
                    for slice in &cell.report.slices {
                        for ue in &slice.ues {
                            ids.insert(ue.ue_id);
                            n += 1;
                        }
                    }
                }
                let want = self.cells * (EMBB_UES + IOT_UES);
                if n != want || ids.len() != want {
                    return Err(format!(
                        "UE census {n} ({} distinct), want {want}",
                        ids.len()
                    ));
                }
                let m = report.mobility.as_ref().ok_or("mobility report missing")?;
                if m.cross_cell_handovers == 0 {
                    return Err("no handover happened".into());
                }
                if m.dropped_departures != 0 {
                    return Err(format!("{} departures dropped", m.dropped_departures));
                }
                Ok(())
            }
            Kind::Massive500 => {
                let bg = report.background.ok_or("massive plane did not run")?;
                let population = self.cells as u64 * u64::from(BG_UES_PER_CELL);
                if bg.population != population || bg.active + bg.promoted != population {
                    return Err(format!(
                        "ledger: population {} active {} promoted {}, want {population}",
                        bg.population, bg.active, bg.promoted
                    ));
                }
                if bg.departed != 0 {
                    return Err(format!("{} rows departed without mobility", bg.departed));
                }
                let rotations = (self.slots() - 1) / ROTATION_PERIOD_SLOTS;
                let quota = u64::from(FOREGROUND_QUOTA);
                let cells = self.cells as u64;
                if bg.promotions != cells * (quota + rotations * quota)
                    || bg.demotions != cells * rotations * quota
                {
                    return Err(format!(
                        "rotation: {} promotions, {} demotions",
                        bg.promotions, bg.demotions
                    ));
                }
                let accounted = bg.scheduled_bytes + bg.dropped_bytes + bg.buffered_bytes;
                // The promoted tier holds bytes in flight; 1% covers it.
                if bg.scheduled_bytes == 0
                    || bg.offered_bytes.abs_diff(accounted) > bg.offered_bytes / 100
                {
                    return Err(format!(
                        "bytes: offered {} accounted {accounted}",
                        bg.offered_bytes
                    ));
                }
                Ok(())
            }
        }
    }
}

/// The RIC attachment: TLV codec, steering towards the next cell and
/// slice-SLA assurance, deterministic delivery. Traced runs wrap the codec
/// and the xApps in timing decorators.
fn ric_attachment(cells: usize, traced: bool) -> RicAttachment {
    let period = 2 * EXCHANGE_PERIOD_SLOTS;
    RicAttachment::new(
        if traced {
            Box::new(|| Box::new(trace::TimedCodec(TlvCodec)))
        } else {
            Box::new(|| Box::new(TlvCodec))
        },
        Box::new(move |cell| {
            let mut ric = NearRtRic::new();
            let xapps: [Box<dyn XApp>; 2] = [
                Box::new(TrafficSteering::new(12, 2, (cell + 1) % cells as u32)),
                Box::new(SliceSlaAssurance::new(&[
                    (0, EMBB_TARGET_MBPS * 1e6),
                    (1, IOT_TARGET_MBPS * 1e6),
                ])),
            ];
            for xapp in xapps {
                if traced {
                    ric.add_xapp(Box::new(trace::TimedXApp(xapp)));
                } else {
                    ric.add_xapp(xapp);
                }
            }
            ric
        }),
    )
    .report_period_slots(period)
    .mode(DeliveryMode::Deterministic)
}

/// One repetition's figures.
pub struct Rep {
    pub report: MultiCellReport,
    pub build_s: f64,
    /// Wall time of `MultiCellScenario::run`, timed here, seconds.
    pub run_s: f64,
    /// CPU time of the worker (the calling thread) in that run, seconds.
    pub cpu_s: f64,
}

/// Build (from empty module and template caches) and run once on one
/// worker, the calling thread.
pub fn run_once(shape: &Shape, native: bool, traced: bool) -> Rep {
    common::clear_caches();
    let t = Instant::now();
    let mut scenario = shape
        .builder(native, traced)
        .build()
        .expect("deployment builds");
    let build_s = t.elapsed().as_secs_f64();
    let cpu0 = common::thread_cpu_ns();
    let t = Instant::now();
    let report = if traced {
        trace::span("core.run", || scenario.run(1))
    } else {
        scenario.run(1)
    };
    let run_s = t.elapsed().as_secs_f64();
    let cpu_s = (common::thread_cpu_ns() - cpu0) / 1e9;
    Rep {
        report,
        build_s,
        run_s,
        cpu_s,
    }
}

/// Operation counts and check results over the repetitions.
#[derive(Default)]
pub struct Tally {
    /// Wasm scheduler calls, deadline-faulted ones included.
    pub calls: u64,
    /// Calls that faulted other than on the wall-clock deadline.
    pub failed: u64,
    /// Calls charged a wall-clock deadline fault.
    pub deadline: u64,
    /// Cell runs compared with the twin.
    pub compared_cells: u64,
    /// Cell runs left out of the comparison after a plugin fault.
    pub excluded_cells: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one Wasm run's calls and compare its cells with the twin's.
    /// A cell charged a plugin fault left the twin's trajectory (the slot
    /// fell back to native RR for that slot), so it is left out of the
    /// comparison; with mobility its UEs carry the change to other cells,
    /// so the whole repetition is.
    pub fn check(&mut self, shape: &Shape, rep: &MultiCellReport, twin: &[u64]) {
        if let Err(e) = shape.invariants(rep) {
            self.errors.push(e);
        }
        let gov = rep.governance();
        self.calls += rep.total_sched_calls;
        self.deadline += gov.strikes.deadline;
        self.failed += gov.strikes.trap + gov.strikes.fuel_exhausted + gov.strikes.other;
        let spreads = shape.kind == Kind::MobileRic32 && gov.strikes.total() > 0;
        for (cell, want) in rep.cells.iter().zip(twin) {
            if spreads || cell.governance.strikes.total() > 0 {
                self.excluded_cells += 1;
                continue;
            }
            self.compared_cells += 1;
            if cell.report.digest() != *want {
                self.errors.push(format!(
                    "{}: digest differs from the native twin",
                    cell.name
                ));
            }
        }
    }
}

/// The native twin's per-cell digests, after checking its invariants.
pub fn twin_digests(shape: &Shape, rep: &Rep) -> Vec<u64> {
    if let Err(e) = shape.invariants(&rep.report) {
        panic!("native twin fails its own invariants: {e}");
    }
    rep.report.cells.iter().map(|c| c.report.digest()).collect()
}

fn cell_slots(rep: &Rep) -> f64 {
    rep.report.total_slots as f64
}

pub fn run(args: &Args, kind: Kind) -> Outcome {
    let shape = Shape::of(kind, args.seed);
    let start = Instant::now();
    let twin = run_once(&shape, true, false);
    let twin_digest = twin_digests(&shape, &twin);
    let twin_us_per_cs = twin.run_s * 1e6 / cell_slots(&twin);
    drop(twin);

    let mut tally = Tally::default();
    let mut metrics = Metrics::new();
    // Repetitions until the window is spent; at least three.
    let reps_in = |seconds: f64, traced: bool, tally: &mut Tally| {
        let mut out = Vec::new();
        let t = Instant::now();
        while out.len() < 3 || t.elapsed().as_secs_f64() < seconds {
            let rep = run_once(&shape, false, traced);
            tally.check(&shape, &rep.report, &twin_digest);
            out.push(rep);
        }
        out
    };
    let window = args.seconds - start.elapsed().as_secs_f64();
    if !args.trace {
        let reps = reps_in(window, false, &mut tally);
        let builds: Vec<f64> = reps.iter().map(|r| r.build_s).collect();
        // Pooled over the repetitions: cell-slots over run wall time, and
        // the host timer's total over its call count. Its P² p50 sits on
        // the boundary between the fast IoT and the slower eMBB calls and
        // jumps between them, so the mean is reported.
        let mut rate = Rate::default();
        let (mut calls, mut call_us) = (0.0, 0.0);
        for r in &reps {
            rate.add(cell_slots(r), r.run_s);
            let n = r.report.exec.count() as f64;
            calls += n;
            call_us += r.report.exec.mean_us() * n;
        }
        metrics.insert(THROUGHPUT, (rate.per_s(), "1/s"));
        metrics.insert(LATENCY, (call_us / calls, "us"));
        common::insert_setup(&mut metrics, &builds);
        metrics.insert(PEAK_RSS, (common::peak_rss_mb(), "MB"));
        eprintln!(
            "perfbench: {}: {} repetitions of {} Wasm scheduler calls each behind the latency",
            args.workload,
            reps.len(),
            reps[0].report.exec.count()
        );
    } else {
        let untraced = reps_in(window / 2.0, false, &mut tally);
        trace::set_enabled(true);
        let traced = reps_in(window / 2.0, true, &mut tally);
        let per_cs = |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| {
            common::median(
                &reps
                    .iter()
                    .map(|r| f(r) * 1e6 / cell_slots(r))
                    .collect::<Vec<_>>(),
            )
        };
        let untraced_us = per_cs(&untraced, &|r| r.run_s);
        let traced_us = per_cs(&traced, &|r| r.run_s);
        let cpu_us = per_cs(&traced, &|r| r.cpu_s);
        let plugin_exec_us = per_cs(&traced, &|r| {
            r.report.exec.mean_us() * r.report.total_sched_calls as f64 / 1e6
        });
        let skip = layers::Skip {
            deployment: kind == Kind::MobileRic32,
            ..layers::Skip::default()
        };
        metrics = layers::all_probes(args, skip);
        let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
        let build_us_per_cell = common::median(&all.iter().map(|r| r.build_s).collect::<Vec<_>>())
            * 1e6
            / shape.cells as f64;
        let p99s: Vec<f64> = untraced.iter().map(|r| r.report.exec.p99_us()).collect();
        metrics.insert(TAIL, (common::median(&p99s), "us"));
        metrics.insert("core.native_us_per_cell_slot", (twin_us_per_cs, "us"));
        metrics.insert(
            "core.plugin_path_us_per_cell_slot",
            (untraced_us - twin_us_per_cs, "us"),
        );
        metrics.insert("core.wait_us_per_cell_slot", (traced_us - cpu_us, "us"));
        metrics.insert("core.build_us_per_cell", (build_us_per_cell, "us"));
        let last = &traced
            .last()
            .expect("at least one traced repetition")
            .report;
        metrics.insert(
            "core.sched_calls_per_cell_slot",
            (
                last.total_sched_calls as f64 / last.total_slots as f64,
                "count",
            ),
        );
        if kind == Kind::MobileRic32 {
            layers::insert_deployment_counts(&mut metrics, last);
        }
        metrics.insert("host.deadline_faults", (tally.deadline as f64, "count"));
        // Per cell-slot: the native twin carries the MAC, the engine and
        // the cell-side RIC work; the host's own call timer carries the
        // plugin path; the rest of the wall time is waiting.
        let breakdown: Breakdown = vec![
            ("ransim+core (native twin)", twin_us_per_cs),
            ("host+wasm+abi (plugin calls, host timer)", plugin_exec_us),
            ("wait (wall - worker cpu)", traced_us - cpu_us),
        ];
        layers::insert_trace_summary(
            &mut metrics,
            "cell-slot",
            traced_us,
            untraced_us,
            &breakdown,
        );
        trace::dump();
    }
    // A faulted repetition of mobile-ric-32 is left out of the twin
    // comparison whole, so a run can end with none compared. Then
    // check-only repetitions, neither timed nor counted, run until one
    // compares; a run that compares nothing is not correct.
    let mut extra = 0;
    while tally.compared_cells == 0 && extra < CHECK_ONLY_REPS {
        let rep = run_once(&shape, false, false);
        let mut side = Tally::default();
        side.check(&shape, &rep.report, &twin_digest);
        tally.compared_cells += side.compared_cells;
        tally.excluded_cells += side.excluded_cells;
        tally.errors.extend(side.errors);
        extra += 1;
    }
    eprintln!(
        "perfbench: {}: {} cell runs compared with the native twin, {} left out after a plugin fault ({extra} check-only repetitions)",
        args.workload, tally.compared_cells, tally.excluded_cells
    );
    if tally.compared_cells == 0 {
        tally
            .errors
            .push("no repetition free of plugin faults to compare with the twin".into());
    }
    if let Err(e) = common::deadline_share(&args.workload, tally.deadline, tally.calls) {
        tally.errors.push(e);
    }
    for e in tally.errors.iter().take(10) {
        eprintln!("perfbench: {}: check failed: {e}", args.workload);
    }
    Outcome {
        correct: tally.errors.is_empty(),
        attempted: tally.calls,
        failed: tally.failed,
        metrics,
    }
}
