//! Helpers shared by the workloads: seeded input generation, order
//! statistics, process memory and thread CPU time, cache reset.

use std::sync::OnceLock;
use std::time::Instant;

use waran_abi::sched::{SchedRequest, SchedResponse, UeInfo};
use waran_host::{ModuleCache, TemplateCache};
use waran_ransim::phy::{bits_per_prb, cqi_to_mcs};
use waran_ransim::sched::{MaxThroughput, ProportionalFair, RoundRobin, SliceScheduler};

use crate::Metrics;

/// End-to-end metric names, printed by every workload with `--trace 0`.
/// Typical latency of one operation: the p50 where the benchmark times
/// every operation itself, the host's own mean call time on the
/// deployments (see README).
pub const LATENCY: &str = "latency_us";
pub const THROUGHPUT: &str = "throughput_per_s";
pub const SETUP: &str = "setup_s";
pub const PEAK_RSS: &str = "peak_rss_mb";
/// The latency tail, a per-layer metric taken from the untraced half of a
/// traced run (see README: too unsteady on the deployments to bound).
pub const TAIL: &str = "tail.latency_p99_us";

/// The fault code `WasmSliceScheduler` gives a wall-clock deadline trap.
pub const DEADLINE_FAULT: &str = "trap:deadline-exceeded";
/// The largest share of a run's calls that may be charged a wall-clock
/// deadline fault. Host preemption alone stays one to two orders of
/// magnitude below it (see README); a run above it is not correct.
pub const DEADLINE_SHARE_LIMIT: f64 = 1e-3;

/// UEs per scheduler request: the largest point of the paper's Fig. 5d.
pub const UES_PER_REQUEST: usize = 20;
/// Of those, this many have an empty buffer (fixed count, seeded places),
/// so every request makes RR's guest loop do the same amount of work.
pub const EMPTY_PER_REQUEST: usize = 4;
/// PRBs granted per request: the 10 MHz paper testbed carrier.
pub const PRBS_GRANTED: u32 = 52;

/// SplitMix64: the benchmark's own input generator, so the inputs are a
/// pure function of `--seed` and independent of the program's RNGs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` seeded scheduler requests of [`UES_PER_REQUEST`] UEs each: CQI,
/// buffer (a fixed number empty), long-term average rate and per-PRB
/// capacity all drawn from `rng`.
pub fn requests(rng: &mut SplitMix, n: usize) -> Vec<SchedRequest> {
    (0..n)
        .map(|slot| {
            let mut empty = [false; UES_PER_REQUEST];
            let mut placed = 0;
            while placed < EMPTY_PER_REQUEST {
                let i = rng.range(0, UES_PER_REQUEST as u64) as usize;
                if !empty[i] {
                    empty[i] = true;
                    placed += 1;
                }
            }
            let ues = (0..UES_PER_REQUEST)
                .map(|i| {
                    let cqi = rng.range(3, 16) as u8;
                    let mcs = cqi_to_mcs(cqi);
                    UeInfo {
                        ue_id: 100 + i as u32,
                        cqi,
                        mcs,
                        flags: 0,
                        buffer_bytes: if empty[i] {
                            0
                        } else {
                            rng.range(200, 200_000) as u32
                        },
                        avg_tput_bps: 1e5 + rng.unit() * 2e7,
                        prb_capacity_bits: f64::from(bits_per_prb(mcs)),
                    }
                })
                .collect();
            SchedRequest {
                slot: slot as u64,
                prbs_granted: PRBS_GRANTED,
                slice_id: 0,
                ues,
            }
        })
        .collect()
}

/// The three standard policies, in the order the workloads rotate them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    Pf,
    Rr,
    Mt,
}

pub const POLICIES: [Policy; 3] = [Policy::Pf, Policy::Rr, Policy::Mt];

impl Policy {
    pub fn label(self) -> &'static str {
        match self {
            Policy::Pf => "pf",
            Policy::Rr => "rr",
            Policy::Mt => "mt",
        }
    }

    /// The standard plugin's module bytes.
    pub fn wasm(self) -> &'static [u8] {
        match self {
            Policy::Pf => waran_core::plugins::pf_wasm(),
            Policy::Rr => waran_core::plugins::rr_wasm(),
            Policy::Mt => waran_core::plugins::mt_wasm(),
        }
    }

    /// A fresh native twin (`waran_ransim::sched`), the correctness oracle.
    pub fn native(self) -> Box<dyn SliceScheduler> {
        match self {
            Policy::Pf => Box::new(ProportionalFair::new()),
            Policy::Rr => Box::new(RoundRobin::new()),
            Policy::Mt => Box::new(MaxThroughput::new()),
        }
    }
}

/// True when the native twin answers `req` exactly as the plugin did.
pub fn matches_native(
    native: &mut dyn SliceScheduler,
    req: &SchedRequest,
    got: &SchedResponse,
) -> bool {
    match native.schedule(req) {
        Ok(want) => want == *got,
        Err(_) => false,
    }
}

/// Mean time of the first call of each standard-plugin accessor, which
/// compiles the plugin from PlugC source, µs. The first call of this
/// function pays the compiles; `main` makes it before any workload.
pub fn plugc_compile_us() -> f64 {
    static MEAN: OnceLock<f64> = OnceLock::new();
    *MEAN.get_or_init(|| {
        let t = Instant::now();
        for p in POLICIES {
            std::hint::black_box(p.wasm());
        }
        t.elapsed().as_secs_f64() * 1e6 / POLICIES.len() as f64
    })
}

/// Empty the process-wide module and template caches, so the next set-up
/// decodes, validates, lowers and snapshots every module again.
pub fn clear_caches() {
    ModuleCache::global().clear();
    TemplateCache::global().clear();
}

/// FNV-1a 64 over `bytes`, written here rather than taken from the
/// program so the content-hash check does not trust the code it checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Report a run's wall-clock deadline faults on standard error; an error
/// when they pass [`DEADLINE_SHARE_LIMIT`] of its `calls`.
pub fn deadline_share(workload: &str, deadline: u64, calls: u64) -> Result<(), String> {
    let share = deadline as f64 / calls.max(1) as f64;
    eprintln!(
        "perfbench: {workload}: {deadline} of {calls} plugin calls charged a wall-clock deadline fault (in attempted, not in failed; limit {DEADLINE_SHARE_LIMIT})"
    );
    if share > DEADLINE_SHARE_LIMIT {
        return Err(format!(
            "{deadline} wall-clock deadline faults in {calls} calls, above the limit {DEADLINE_SHARE_LIMIT}"
        ));
    }
    Ok(())
}

/// Resident set of this process (VmRSS), KB, after handing the
/// allocator's free pages back to the system where the C library can, so
/// growth between two readings is memory the process still holds.
pub fn rss_kb() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a byte count, touches only the
        // allocator's own free lists, and may be called at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    status_kb("VmRSS:")
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// CPU time of the calling thread, ns: a raw
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` syscall on x86_64 Linux (the
/// standard library has no thread CPU clock), else the tick-granular
/// `/proc/thread-self/schedstat`.
pub fn thread_cpu_ns() -> f64 {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const CLOCK_THREAD_CPUTIME_ID: i64 = 3;
        const SYS_CLOCK_GETTIME: i64 = 228;
        let mut ts = [0i64; 2];
        let ret: i64;
        // SAFETY: syscall 228 (clock_gettime) writes one `struct timespec`
        // (two i64 on x86_64) to the pointer, which points at `ts`, live and
        // writable for the call; rcx and r11 are clobbered by `syscall`.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_CLOCK_GETTIME => ret,
                in("rdi") CLOCK_THREAD_CPUTIME_ID,
                in("rsi") ts.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        if ret == 0 {
            return ts[0] as f64 * 1e9 + ts[1] as f64;
        }
    }
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Latency samples, ns: every sample up to a fixed capacity, then a
/// uniform reservoir (Algorithm R) over all of them. The buffer is
/// allocated and touched up front so the process's memory does not depend
/// on how many operations a run completes.
pub struct Samples {
    buf: Vec<f64>,
    cap: usize,
    seen: u64,
    rng: SplitMix,
}

impl Samples {
    pub fn new(cap: usize) -> Self {
        // `resize` writes every element (a zeroed allocation would leave
        // the pages untouched until first use).
        let mut buf = Vec::with_capacity(cap);
        buf.resize(cap, 0.0);
        buf.clear();
        Samples {
            buf,
            cap,
            seen: 0,
            rng: SplitMix::new(cap as u64),
        }
    }

    pub fn push(&mut self, ns: f64) {
        self.seen += 1;
        if self.buf.len() < self.cap {
            self.buf.push(ns);
        } else {
            let j = self.rng.range(0, self.seen) as usize;
            if j < self.cap {
                self.buf[j] = ns;
            }
        }
    }

    pub fn mean(&self) -> f64 {
        self.buf.iter().sum::<f64>() / self.buf.len() as f64
    }
}

/// Operations over the wall time they took, pooled over a run. A pooled
/// rate moves smoothly with the share of the run the host spends in a
/// faster or slower state, where the median block would flip between the
/// two.
#[derive(Default)]
pub struct Rate {
    ops: f64,
    secs: f64,
}

impl Rate {
    pub fn add(&mut self, ops: f64, secs: f64) {
        self.ops += ops;
        self.secs += secs;
    }

    pub fn per_s(&self) -> f64 {
        self.ops / self.secs
    }
}

/// Median of the set-up samples, seconds.
pub fn insert_setup(metrics: &mut Metrics, setup_samples_s: &[f64]) {
    metrics.insert(SETUP, (median(setup_samples_s), "s"));
}

/// p50 of pooled latency samples into the metric table, in µs, the sample
/// counts to standard error; returns the pooled p99, µs.
pub fn insert_latency(metrics: &mut Metrics, what: &str, samples: &mut Samples) -> f64 {
    let sorted = &mut samples.buf;
    sorted.sort_by(f64::total_cmp);
    metrics.insert(LATENCY, (quantile_sorted(sorted, 0.50) / 1e3, "us"));
    eprintln!(
        "perfbench: {what}: {} operations timed, p50 over {} of them",
        samples.seen,
        sorted.len()
    );
    quantile_sorted(sorted, 0.99) / 1e3
}
