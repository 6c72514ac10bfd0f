//! `direct`: one caller runs `from_text` then `AnalysisBuilder::analyze` on
//! each trace in turn — the paper's offline detector and the CLI path.

use std::time::{Duration, Instant};

use crate::chain::{self, Done};
use crate::check::Outcome;
use crate::host::Calibration;
use crate::inputs::{Order, PoolTrace};
use crate::layers::{census_counts, core_times};
use crate::spans::Tracer;
use crate::{ms_since, RunOut, Window};

fn judge(done: &Result<Done, String>, p: &PoolTrace) -> Outcome {
    match done {
        Ok(d) if d.verdict == p.planted => Outcome::Ok,
        Ok(_) => Outcome::Mismatched,
        Err(_) => Outcome::Errored,
    }
}

/// Runs the workload for `window`, timing `cal` between jobs. When
/// `traced`, each job runs twice in a row, untraced and with spans,
/// alternating which runs first, and only the per-layer metrics are kept.
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
    let mut out = RunOut::default();
    let (first_pass, mut paused) = (cal.pass_ms.len(), Duration::ZERO);
    let (mut off, mut on) = (Tracer::off(), Tracer::on(Instant::now()));
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    let start = window.open();
    for (i, idx) in Order::new(seed, pool.len()).enumerate() {
        if window.closed(start, i) {
            break;
        }
        let p = &pool[idx];
        if !traced {
            let t = Instant::now();
            let done = chain::job(&mut off, i as u64, &p.text);
            out.timed(ms_since(t), judge(&done, p));
            paused += cal.tick();
            continue;
        }
        // The second run of a trace is faster (warm caches), which would
        // otherwise bias the overhead.
        let mut twins = [(&mut off, &mut plain_ms), (&mut on, &mut traced_ms)];
        if i % 2 == 1 {
            twins.reverse();
        }
        for (tracer, total) in twins {
            let t = Instant::now();
            let done = chain::job(tracer, i as u64, &p.text);
            *total += ms_since(t);
            out.tally.record(judge(&done, p));
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
    core_times(&out.spans, &mut out.layers, &mut out.notes);
    let (refs, _) = chain::census(pool, false)?;
    census_counts(&refs, &mut out.layers);
    Ok(out)
}
