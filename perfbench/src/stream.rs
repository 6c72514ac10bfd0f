//! `stream`: one `StreamingAnalysis` session per trace, fed 64-op chunks
//! with the windowed summarizer — the incremental column engine, without
//! text parsing.

use std::time::{Duration, Instant};

use droidracer_core::{
    CategoryCounts, ClassifiedRace, HbConfig, StreamOptions, StreamStats, StreamingAnalysis,
};
use droidracer_trace::Trace;

use crate::chain::{self, Done};
use crate::check::{verdict_of, Outcome};
use crate::host::Calibration;
use crate::inputs::{Order, PoolTrace};
use crate::layers::{census_counts, core_times, put_p99};
use crate::spans::{all_durations, LayerTimes, Tracer};
use crate::{ms_since, RunOut, Window};

/// Ops per `push_chunk`.
const CHUNK_OPS: usize = 64;

/// What a session produced.
struct Streamed {
    races: Vec<ClassifiedRace>,
    counts: CategoryCounts,
    stats: StreamStats,
}

fn session(trace: &Trace, tr: &mut Tracer) -> Result<Streamed, String> {
    let options = StreamOptions {
        summarize: true,
        ..StreamOptions::default()
    };
    let mut s = StreamingAnalysis::new(HbConfig::default(), options);
    for chunk in trace.ops().chunks(CHUNK_OPS) {
        tr.start("push");
        let pushed = s.push_chunk(chunk);
        tr.end();
        pushed.map_err(|e| format!("{e:?}"))?;
    }
    tr.start("finish");
    let finished = s.finish(trace.names());
    tr.end();
    let o = finished.map_err(|e| format!("{e:?}"))?;
    Ok(Streamed {
        races: o.races,
        counts: o.counts,
        stats: o.stats,
    })
}

fn job(trace: &Trace, tr: &mut Tracer, id: u64) -> Result<Streamed, String> {
    tr.start("job");
    tr.counter("id", id);
    let out = session(trace, tr);
    tr.end();
    out
}

/// Streamed races and counts equal batch, and the verdict equals the
/// planted truth.
fn judge(res: &Result<Streamed, String>, p: &PoolTrace, r: &Done) -> Outcome {
    let Ok(s) = res else {
        return Outcome::Errored;
    };
    let mut counts = CategoryCounts::default();
    for cr in &r.races {
        counts.add(cr.category, 1);
    }
    let names = p.trace.as_ref().expect("stream pools keep traces").names();
    if s.races == r.races && s.counts == counts && verdict_of(&s.races, names) == p.planted {
        Outcome::Ok
    } else {
        Outcome::Mismatched
    }
}

/// Runs the workload for `window`, each job checked as it ends against the
/// batch references computed before the window, timing `cal` between
/// jobs. When `traced`, each job
/// is run twice in a row, untraced and with spans around every chunk, and
/// only the per-layer metrics are kept.
///
/// # Errors
///
/// A pool trace the census could not analyze.
pub fn run(
    pool: &[PoolTrace],
    seed: u64,
    window: Window,
    traced: bool,
    cal: &mut Calibration,
) -> Result<RunOut, String> {
    let trace = |idx: usize| pool[idx].trace.as_ref().expect("stream pools keep traces");
    let (refs, batch) = chain::census(pool, traced)?;
    let mut out = RunOut::default();
    // Work counts of the first session of each pool trace.
    let mut stats: Vec<Option<StreamStats>> = vec![None; pool.len()];
    let (mut off, mut on) = (Tracer::off(), Tracer::on(Instant::now()));
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    let (first_pass, mut paused) = (cal.pass_ms.len(), Duration::ZERO);
    let start = window.open();
    for (i, idx) in Order::new(seed, pool.len()).enumerate() {
        if window.closed(start, i) {
            break;
        }
        let check = |res: &Result<Streamed, String>| judge(res, &pool[idx], &refs[idx]);
        // Alternate which twin runs first (see `direct::run`).
        let traced_first = traced && i % 2 == 1;
        if traced_first {
            let t = Instant::now();
            let res = job(trace(idx), &mut on, i as u64);
            traced_ms += ms_since(t);
            out.tally.record(check(&res));
        }
        let t = Instant::now();
        let res = job(trace(idx), &mut off, i as u64);
        let ms = ms_since(t);
        plain_ms += ms;
        if traced {
            out.tally.record(check(&res));
        } else {
            out.timed(ms, check(&res));
            paused += cal.tick();
        }
        if let (Ok(s), None) = (&res, stats[idx]) {
            stats[idx] = Some(s.stats);
        }
        if traced && !traced_first {
            let t = Instant::now();
            let res = job(trace(idx), &mut on, i as u64);
            traced_ms += ms_since(t);
            out.tally.record(check(&res));
        }
    }
    out.elapsed_s = (start.elapsed() - paused).as_secs_f64();
    if !traced {
        out.speed = Some(cal.speed_since(first_pass));
        return Ok(out);
    }
    out.layers
        .insert("trace_overhead_share", traced_ms / plain_ms - 1.0);
    out.spans = on.finish();
    let t = LayerTimes::of(&out.spans);
    out.layers.insert("stream.push_ms", t.per_root_ms("push"));
    out.layers
        .insert("stream.finish_ms", t.per_root_ms("finish"));
    let chunks = all_durations(&out.spans, "push");
    put_p99(
        &mut out.layers,
        &mut out.notes,
        "stream.chunk_p99_ms",
        &chunks,
    );

    // Work counts over the pool, one session per trace.
    let (mut word_ops, mut peak) = (0, 0);
    for (idx, s) in stats.iter().enumerate() {
        let s = match s {
            Some(s) => *s,
            None => session(trace(idx), &mut Tracer::off())?.stats,
        };
        word_ops += s.word_ops;
        peak = peak.max(s.peak_matrix_bits);
    }
    let batch_ops: u64 = refs.iter().map(|r| r.word_ops).sum();
    out.layers.insert("stream.word_ops", word_ops as f64);
    out.layers.insert(
        "stream.word_ops_ratio",
        word_ops as f64 / batch_ops.max(1) as f64,
    );
    out.layers.insert("stream.peak_matrix_bits", peak as f64);

    // The batch pipeline on the same traces, for the parse and core layers.
    core_times(&batch, &mut out.layers, &mut out.notes);
    census_counts(&refs, &mut out.layers);
    Ok(out)
}
