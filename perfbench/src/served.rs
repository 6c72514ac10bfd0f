//! `served`: two clients on two tenants submit to an in-process `Server`
//! with 2 shards and a WAL-backed cache, closed loop.
//!
//! Each client draws its next step from its own seeded stream: with
//! probability 1/2 it resubmits a trace it already had answered (a cache
//! hit: transport, admission and store lookup only), otherwise it submits
//! a trace not yet submitted in this pass (a miss: full analysis plus a
//! WAL append with fsync). A miss is a pool trace with one comment line,
//! `# perfbench pass P item K`, after the header: the parser skips it, the
//! analysis is that of the pool trace, and the content-addressed cache key
//! is new.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use droidracer_core::JobSpec;
use droidracer_obs::SpanRecord;
use droidracer_server::{status_counter, Client, ClientStats, Server, ServerConfig, Submission};

use crate::chain::{self, Done};
use crate::check::Outcome;
use crate::inputs::{PoolTrace, Rng};
use crate::layers::{census_counts, core_times};
use crate::spans::Tracer;
use crate::stats::percentile;
use crate::{ms_since, RunOut, Window};

/// Load threads, one client and one tenant each.
const CLIENTS: u64 = 2;
/// One step in this many resubmits an answered trace. Round trips cluster
/// near 44 ms (hits and small misses) and 84 ms (larger misses); with a
/// quarter repeating, the median sat on the gap between the clusters and
/// jumped by a third from run to run. With half, it lies inside the first.
const REPEAT_ONE_IN: u64 = 2;
/// Jobs the untraced pass of a traced run runs at least.
const TRACED_MIN_JOBS: usize = 500;

/// A running in-process server and its cache directory.
pub struct ServerHandle {
    addr: String,
    thread: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
    /// Bind, WAL open and the first status round trip, in ms.
    pub start_ms: f64,
}

impl ServerHandle {
    /// Binds a server on an ephemeral port with its WAL cache in a fresh
    /// `dir`, and waits until it answers.
    ///
    /// # Errors
    ///
    /// Bind, directory or first-contact failures.
    pub fn start(dir: &Path) -> Result<Self, String> {
        let t = Instant::now();
        let fail = |e: std::io::Error| format!("server start in {}: {e}", dir.display());
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(fail)?;
        }
        std::fs::create_dir_all(dir).map_err(fail)?;
        let config = ServerConfig {
            shards: 2,
            cache_path: Some(dir.join("cache")),
            ..ServerConfig::default()
        };
        let server = Server::bind_tcp("127.0.0.1:0", config).map_err(fail)?;
        let addr = server
            .local_addr()
            .ok_or("server has no TCP address")?
            .to_string();
        let thread = std::thread::spawn(move || server.run());
        // `run` opens the WAL before it accepts, so an answer means ready.
        Client::connect_tcp(&addr, "setup")
            .and_then(|mut c| c.status())
            .map_err(fail)?;
        Ok(ServerHandle {
            addr,
            thread,
            dir: dir.to_owned(),
            start_ms: ms_since(t),
        })
    }

    /// Fetches the status text, shuts the server down, joins it and
    /// removes its directory.
    ///
    /// # Errors
    ///
    /// Transport, server or clean-up failures.
    pub fn stop(self) -> Result<String, String> {
        let mut c = Client::connect_tcp(&self.addr, "setup").map_err(|e| e.to_string())?;
        let status = c.status().map_err(|e| e.to_string())?;
        c.shutdown().map_err(|e| e.to_string())?;
        drop(c);
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| format!("server run: {e}"))?;
        std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())?;
        Ok(status)
    }
}

/// A client's step: submit item `item`, fresh or as a repeat.
#[derive(Clone, Copy)]
struct Step {
    item: u64,
    repeat: bool,
}

/// One submission, judged.
struct Served {
    step: Step,
    ms: f64,
    hit: bool,
    outcome: Outcome,
}

/// The trace text of `item` in pass `pass`.
fn tagged(text: &str, pass: u32, item: u64) -> String {
    let (header, rest) = text.split_at(text.find('\n').map_or(text.len(), |i| i + 1));
    format!("{header}# perfbench pass {pass} item {item}\n{rest}")
}

/// What the clients of one pass share.
struct Target<'a> {
    addr: &'a str,
    seed: u64,
    pass: u32,
    pool: &'a [PoolTrace],
    /// The reference of each pool trace.
    refs: &'a [Done],
    /// Item `k` is pool trace `order[k % order.len()]`.
    order: &'a [usize],
}

impl Target<'_> {
    fn pool_index(&self, item: u64) -> usize {
        self.order[(item % self.order.len() as u64) as usize]
    }
}

/// How a client picks its steps.
#[derive(Clone, Copy)]
enum Plan<'a> {
    /// Draw steps until the window, opened at the instant, closes after
    /// the jobs counted by both clients.
    Until(Instant, Window, &'a AtomicUsize),
    /// Replay these steps.
    Replay(&'a [Step]),
}

/// One client's closed loop.
fn client_loop(
    t: &Target,
    c: u64,
    plan: Plan,
    tracer: &mut Tracer,
) -> Result<(Vec<Served>, ClientStats), String> {
    let mut client =
        Client::connect_tcp(t.addr, format!("tenant{c}")).map_err(|e| format!("connect: {e}"))?;
    let spec = JobSpec::default();
    let mut rng = Rng::new(t.seed ^ (c + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut next_fresh = c;
    let mut answered: Vec<u64> = Vec::new();
    let mut done = Vec::new();
    for i in 0.. {
        let step = match plan {
            Plan::Until(start, window, jobs) => {
                if window.closed(start, jobs.load(Ordering::Relaxed)) {
                    break;
                }
                if !answered.is_empty() && rng.next().is_multiple_of(REPEAT_ONE_IN) {
                    Step {
                        item: answered[rng.below(answered.len())],
                        repeat: true,
                    }
                } else {
                    next_fresh += CLIENTS;
                    Step {
                        item: next_fresh - CLIENTS,
                        repeat: false,
                    }
                }
            }
            Plan::Replay(steps) => match steps.get(i) {
                Some(s) => *s,
                None => break,
            },
        };
        let idx = t.pool_index(step.item);
        let text = tagged(&t.pool[idx].text, t.pass, step.item);
        tracer.start("submit");
        tracer.counter("item", step.item);
        let start = Instant::now();
        let result = client.submit_trace(&spec, &text).map_err(|e| e.to_string());
        let ms = ms_since(start);
        let hit = matches!(result, Ok(ref s) if s.cache_hit());
        tracer.counter("hit", u64::from(hit));
        tracer.end();
        if let Plan::Until(_, _, jobs) = plan {
            jobs.fetch_add(1, Ordering::Relaxed);
        }
        if matches!(result, Ok(Submission::Done { .. })) && !step.repeat {
            answered.push(step.item);
        }
        done.push(Served {
            step,
            ms,
            hit,
            outcome: judge(&result, &t.pool[idx], &t.refs[idx]),
        });
    }
    Ok((done, client.stats()))
}

/// What one pass of both clients produced.
struct PassOut {
    /// Each client's jobs, in order.
    jobs: Vec<Vec<Served>>,
    /// Wall time of the pass in seconds.
    elapsed_s: f64,
    /// Both clients' counters, summed.
    stats: ClientStats,
    /// Both clients' spans (when traced).
    spans: Vec<SpanRecord>,
}

/// Both clients, concurrently: for `window` when `replay` is `None`,
/// otherwise replaying each client's steps from an earlier pass.
fn pass(
    t: &Target,
    window: Window,
    replay: Option<&[Vec<Served>]>,
    traced: bool,
) -> Result<PassOut, String> {
    let jobs = AtomicUsize::new(0);
    let start = if replay.is_none() {
        window.open()
    } else {
        Instant::now()
    };
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let steps: Option<Vec<Step>> =
                    replay.map(|prev| prev[c as usize].iter().map(|j| j.step).collect());
                let jobs = &jobs;
                s.spawn(move || {
                    let mut tracer = if traced {
                        Tracer::on(start)
                    } else {
                        Tracer::off()
                    };
                    let plan = match &steps {
                        Some(steps) => Plan::Replay(steps),
                        None => Plan::Until(start, window, jobs),
                    };
                    let r = client_loop(t, c, plan, &mut tracer);
                    r.map(|(jobs, stats)| (jobs, stats, tracer.finish()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect()
    });
    let mut out = PassOut {
        jobs: Vec::new(),
        elapsed_s: start.elapsed().as_secs_f64(),
        stats: ClientStats::default(),
        spans: Vec::new(),
    };
    for r in results {
        let (jobs, stats, spans) = r?;
        out.jobs.push(jobs);
        out.stats.retries += stats.retries;
        out.stats.gave_up += stats.gave_up;
        out.spans.extend(spans);
    }
    Ok(out)
}

fn judge(result: &Result<Submission, String>, p: &PoolTrace, r: &Done) -> Outcome {
    match result {
        Err(_) => Outcome::Errored,
        Ok(Submission::Overloaded { .. }) => Outcome::Shed,
        Ok(Submission::Rejected { .. }) => Outcome::Rejected,
        Ok(Submission::Done { report, .. }) => {
            // The reference's verdict is read through the trace's name
            // table, so an equal report carries the same verdict.
            if *report == r.report && r.verdict == p.planted {
                Outcome::Ok
            } else {
                Outcome::Mismatched
            }
        }
    }
}

/// Runs the workload against `server` (an untraced pass, then a traced
/// replay of the same steps when `traced`), then stops it. Every reply is
/// checked as it arrives against references computed before the window.
///
/// # Errors
///
/// Transport failures outside a job, server failures, or a pool trace the
/// census could not analyze.
pub fn run(
    server: ServerHandle,
    pool: &[PoolTrace],
    seed: u64,
    window: Window,
    traced: bool,
) -> Result<RunOut, String> {
    let (refs, batch) = chain::census(pool, traced)?;
    let mut out = RunOut::default();
    let order = Rng::new(seed).permutation(pool.len());
    // A traced run reports no end-to-end metric, so its untraced pass needs
    // no p99; the replay's hits (half) need 100 for their p90.
    let window = if traced {
        Window {
            span: window.span / 2,
            min_jobs: TRACED_MIN_JOBS,
        }
    } else {
        window
    };
    let addr = server.addr.clone();
    let mut target = Target {
        addr: &addr,
        seed,
        pass: 0,
        pool,
        refs: &refs,
        order: &order,
    };
    let first = pass(&target, window, None, false)?;
    out.elapsed_s = first.elapsed_s;
    let mut stats = first.stats;
    for job in first.jobs.iter().flatten() {
        out.timed(job.ms, job.outcome);
    }
    if !traced {
        server.stop()?;
        return Ok(out);
    }
    // Fresh item tags, so the replay's misses are misses again.
    target.pass = 1;
    let again = pass(&target, window, Some(&first.jobs), true)?;
    let status = server.stop()?;
    stats.retries += again.stats.retries;
    stats.gave_up += again.stats.gave_up;
    out.layers.insert(
        "trace_overhead_share",
        again.elapsed_s / first.elapsed_s - 1.0,
    );
    out.spans = again.spans;
    let replay: Vec<&Served> = again.jobs.iter().flatten().collect();
    for job in &replay {
        out.tally.record(job.outcome);
    }

    let l = &mut out.layers;
    for key in [
        "srv.jobs",
        "srv.cache_hits",
        "srv.cache_stores",
        "srv.overloaded",
    ] {
        l.insert(key, status_counter(&status, key).unwrap_or(0) as f64);
    }
    l.insert("client.retries", stats.retries as f64);
    l.insert("client.gave_up", stats.gave_up as f64);

    let hits: Vec<f64> = replay.iter().filter(|j| j.hit).map(|j| j.ms).collect();
    let misses: Vec<&&Served> = replay.iter().filter(|j| !j.hit).collect();
    let miss_ms: Vec<f64> = misses.iter().map(|j| j.ms).collect();
    if let Some(v) = percentile(&hits, 0.5) {
        l.insert("served.hit_rtt_p50_ms", v);
    }
    match percentile(&hits, 0.9) {
        Some(v) => {
            l.insert("served.hit_rtt_p90_ms", v);
        }
        None => out.notes.push(("served.hit_rtt_p90_ms", hits.len())),
    }
    if let Some(v) = percentile(&miss_ms, 0.5) {
        l.insert("served.miss_rtt_p50_ms", v);
    }

    // This process's traced batch job on each miss's trace (from the
    // census), for the overhead a round trip adds.
    let direct_ms: Vec<f64> = misses
        .iter()
        .map(|j| batch[target.pool_index(j.step.item)].dur_ns as f64 / 1e6)
        .collect();
    let overhead: Vec<f64> = miss_ms.iter().zip(&direct_ms).map(|(m, d)| m - d).collect();
    if let Some(v) = percentile(&overhead, 0.5) {
        l.insert("served.overhead_p50_ms", v);
    }
    let miss_total: f64 = miss_ms.iter().sum();
    if miss_total > 0.0 {
        l.insert(
            "served.efficiency",
            direct_ms.iter().sum::<f64>() / miss_total,
        );
    }
    core_times(&batch, &mut out.layers, &mut out.notes);
    census_counts(&refs, &mut out.layers);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Tally;
    use droidracer_core::{ExitClass, JobReport};

    #[test]
    fn shed_rejected_and_mismatched_submissions_count_in_failed_share() {
        let want = JobReport::aborted(ExitClass::Clean, "reference");
        let reference = Done {
            verdict: Default::default(),
            races: Vec::new(),
            report: want.clone(),
            word_ops: 0,
            nodes: 0,
        };
        let pool_trace = PoolTrace {
            app: "test",
            planted: Default::default(),
            text: String::new(),
            trace: None,
        };
        let done = |report| Submission::Done {
            cache_hit: false,
            report,
        };
        let mut tally = Tally::default();
        for result in [
            Ok(done(want.clone())),
            Ok(done(JobReport::aborted(ExitClass::Races, "other"))),
            Ok(Submission::Overloaded { retry_after_ms: 5 }),
            Ok(Submission::Rejected {
                reason: "quota".to_owned(),
            }),
            Err("connection reset".to_owned()),
        ] {
            tally.record(judge(&result, &pool_trace, &reference));
        }
        assert_eq!(
            (
                tally.ok,
                tally.mismatched,
                tally.shed,
                tally.rejected,
                tally.errored
            ),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(tally.failed_share(), 0.8);
    }

    #[test]
    fn miss_text_differs_only_by_a_comment_after_the_header() {
        let text = "droidracer-trace v1\nthread t0 main initial \"main\"\n";
        let tagged = tagged(text, 1, 42);
        assert_eq!(
            tagged,
            "droidracer-trace v1\n# perfbench pass 1 item 42\nthread t0 main initial \"main\"\n"
        );
        assert_eq!(
            droidracer_trace::from_text(&tagged).expect("parses"),
            droidracer_trace::from_text(text).expect("parses")
        );
    }
}
