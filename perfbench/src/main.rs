//! End-to-end and per-layer benchmark of the droidracer detector.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload direct|served|stream --seed N --seconds S --trace 0|1
//! ```
//!
//! Set-up generates the seeded input pool (and starts the server on
//! `served`) three times and reports the median. With `--trace 0` the
//! workload then runs untraced for at least `S` seconds and 1,000 jobs and
//! the end-to-end metrics are printed. With `--trace 1` every job also runs
//! with spans around each call into a layer, the spans are written to
//! `perfbench/out/`, and the per-layer metrics are printed. Every job's
//! output is checked; the last line of standard output is one JSON object,
//! and the exit status is 1 when a check failed. `perfbench/README.md` says
//! what each workload is for, how each metric is defined and why times on
//! `direct` and `stream` are scaled by the host's speed.

mod chain;
mod check;
mod direct;
mod host;
mod inputs;
mod layers;
mod served;
mod spans;
mod stats;
mod stream;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use droidracer_obs::SpanRecord;

use check::{Outcome, Tally};
use layers::{Layers, Notes, PER_LAYER};

/// Pool variants per app: 22 apps × 4 = 88 input traces.
const VARIANTS: u64 = 4;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Calibration passes before each set-up, for its host speed.
const SETUP_PASSES: usize = 4;
/// Jobs a measured window runs at least: a p99 needs 1,000 samples to have
/// 10 beyond it, so every run reads the same quantile.
pub const MIN_JOBS: usize = 1000;

/// The measured window: at least `span` long and at least `min_jobs`
/// jobs.
#[derive(Clone, Copy)]
pub struct Window {
    /// The least wall time measured.
    pub span: Duration,
    /// The fewest jobs run.
    pub min_jobs: usize,
}

impl Window {
    /// Resets the peak resident set to the current one and starts the
    /// clock: `peak_rss_mb` covers the window only, not set-up or the
    /// reference analyses.
    pub fn open(&self) -> Instant {
        // Writing 5 to clear_refs resets VmHWM (Linux ≥ 4.0).
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        Instant::now()
    }

    /// Whether a window opened at `start` is over once `jobs` have run.
    pub fn closed(&self, start: Instant, jobs: usize) -> bool {
        jobs >= self.min_jobs && start.elapsed() >= self.span
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct RunOut {
    /// Every job attempted, traced passes included.
    pub tally: Tally,
    /// Latency of each untraced job in ms; failed jobs read infinity.
    pub job_ms: Vec<f64>,
    /// Wall time of the measured window in seconds, calibration passes
    /// excluded.
    pub elapsed_s: f64,
    /// Host speed over the window (`host::Calibration::speed_since`), when
    /// the workload's times are scaled to the reference host.
    pub speed: Option<f64>,
    /// Per-layer values (traced runs).
    pub layers: Layers,
    /// Per-layer p99s without enough samples.
    pub notes: Notes,
    /// The traced pass's root spans.
    pub spans: Vec<SpanRecord>,
}

impl RunOut {
    /// Counts one untraced job and its latency.
    pub fn timed(&mut self, ms: f64, outcome: Outcome) {
        self.tally.record(outcome);
        self.job_ms.push(if outcome == Outcome::Ok {
            ms
        } else {
            f64::INFINITY
        });
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Where run artifacts (span files, server caches) go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Direct,
    Served,
    Stream,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "direct" => Workload::Direct,
                    "served" => Workload::Served,
                    "stream" => Workload::Stream,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host clocks around a workload: wall time, this process's CPU time and
/// the host's steal time, to tell a slower program from a slower host.
struct HostClock {
    at: Instant,
    cpu_ticks: u64,
    steal: u64,
    total: u64,
}

/// What [`HostClock::since`] measured.
struct HostUse {
    wall_s: f64,
    cpu_s: f64,
    steal_pct: f64,
}

impl HostClock {
    /// User + system ticks of this process (`/proc/self/stat` fields 14
    /// and 15, after the parenthesised command name).
    fn cpu_ticks() -> u64 {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        rest.split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|v| v.parse::<u64>().ok())
            .sum()
    }

    /// The host's steal and total ticks (first line of `/proc/stat`).
    fn host_ticks() -> (u64, u64) {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
    }

    fn read() -> Self {
        let (steal, total) = Self::host_ticks();
        HostClock {
            at: Instant::now(),
            cpu_ticks: Self::cpu_ticks(),
            steal,
            total,
        }
    }

    /// Use since `self` was read, at 100 ticks per second.
    fn since(&self) -> HostUse {
        let (steal, total) = Self::host_ticks();
        HostUse {
            wall_s: self.at.elapsed().as_secs_f64(),
            cpu_s: Self::cpu_ticks().saturating_sub(self.cpu_ticks) as f64 / 100.0,
            steal_pct: 100.0 * steal.saturating_sub(self.steal) as f64
                / total.saturating_sub(self.total).max(1) as f64,
        }
    }
}

/// A JSON number: all digits of a finite value, the largest finite value
/// for an infinite latency (a failed job's).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// Runs the workload and prints its report; `Ok(false)` when a check
/// failed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let wname = format!("{w:?}").to_lowercase();
    println!(
        "perfbench workload={wname} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );

    // Set-up, repeated; the last pool (and server) is the one measured.
    // Each set-up's time is scaled by the host speed just before it.
    let mut cal = host::Calibration::new();
    let mut setups = Vec::new();
    let (mut generate, mut render, mut server_start) = (Vec::new(), Vec::new(), Vec::new());
    let mut ready = None;
    for rep in 0..SETUP_REPEATS {
        drop(ready.take());
        let first_pass = cal.pass_ms.len();
        for _ in 0..SETUP_PASSES {
            cal.pass();
        }
        let speed = cal.speed_since(first_pass);
        let t = Instant::now();
        let pool = inputs::build(args.seed, VARIANTS, w == Workload::Stream)?;
        let server = if w == Workload::Served {
            let s = served::ServerHandle::start(
                &out_dir().join(format!("wal-{}-{rep}", std::process::id())),
            )?;
            server_start.push(s.start_ms);
            Some(s)
        } else {
            None
        };
        setups.push(t.elapsed().as_secs_f64() * speed);
        generate.push(pool.generate_ms);
        render.push(pool.render_ms);
        if rep + 1 < SETUP_REPEATS {
            if let Some(s) = server {
                s.stop()?;
            }
        } else {
            ready = Some((pool, server));
        }
    }
    let (pool, server) = ready.expect("at least one set-up");
    let setup_s = stats::median(&setups);

    let window = Window {
        span: Duration::from_secs(args.seconds),
        min_jobs: MIN_JOBS,
    };
    let host = HostClock::read();
    let mut out = match (w, server) {
        (Workload::Direct, _) => {
            direct::run(&pool.traces, args.seed, window, args.trace, &mut cal)?
        }
        (Workload::Stream, _) => {
            stream::run(&pool.traces, args.seed, window, args.trace, &mut cal)?
        }
        (Workload::Served, Some(s)) => served::run(s, &pool.traces, args.seed, window, args.trace)?,
        (Workload::Served, None) => unreachable!("served set-up starts a server"),
    };
    let rss = peak_rss_mb();
    let host = host.since();

    let failed_share = out.tally.failed_share();
    let t = &out.tally;
    println!(
        "jobs: attempted={} ok={} errored={} shed={} rejected={} mismatched={} in a {:.3} s window",
        t.attempted, t.ok, t.errored, t.shed, t.rejected, t.mismatched, out.elapsed_s
    );
    println!(
        "host: {:.3} s wall, {:.3} s process CPU, steal {:.2}% of all CPU time",
        host.wall_s, host.cpu_s, host.steal_pct
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        out.layers
            .insert("setup.generate_ms", stats::median(&generate));
        out.layers.insert("setup.render_ms", stats::median(&render));
        if !server_start.is_empty() {
            out.layers
                .insert("setup.server_start_ms", stats::median(&server_start));
        }
        out.layers.insert("failed_share", failed_share);
        if let Some(u) = out.layers.get("job.unattributed_share") {
            println!(
                "self times of parse, prepare, graph, closure, detect and classify: {:.3}% of traced batch job time",
                (1.0 - u) * 100.0
            );
        }
        for (name, n) in &out.notes {
            println!("note: {name} has {n} samples, too few for a p99; reads 0");
        }
        let path = out_dir().join(format!("spans-{wname}-seed{}.json", args.seed));
        spans::write_chrome(&path, &out.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "spans: {} job trees written to {}",
            out.spans.len(),
            path.display()
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, out.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let n = out.job_ms.len();
        let (Some(p50), Some(p99)) = (
            stats::percentile(&out.job_ms, 0.5),
            stats::percentile(&out.job_ms, 0.99),
        ) else {
            return Err(format!("{n} untraced jobs: too few for a p99"));
        };
        let jobs_per_s = out.tally.ok as f64 / out.elapsed_s;
        // Times scale by the host speed, rates by its inverse.
        let speed = out.speed.unwrap_or(1.0);
        if let Some(s) = out.speed {
            println!(
                "host speed {s:.4} of the reference; unscaled: jobs_per_s {jobs_per_s:.4}, job_p50_ms {p50:.4}, job_p99_ms {p99:.4}"
            );
        }
        vec![
            ("setup_s", setup_s, "s"),
            ("jobs_per_s", jobs_per_s / speed, "1/s"),
            ("job_p50_ms", p50 * speed, "ms"),
            ("job_p99_ms", p99 * speed, "ms"),
            ("ok_share", 1.0 - failed_share, "share"),
            ("peak_rss_mb", rss, "MB"),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<26} {value:>14.4} {unit}");
    }
    if !args.trace {
        println!("  {:<26} {:>14.4} share", "failed_share", failed_share);
    }

    let correct = out.tally.failed() == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted,
        out.tally.failed(),
        body.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload direct|served|stream --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
