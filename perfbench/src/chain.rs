//! The batch job — `from_text`, then `AnalysisBuilder::analyze` — and the
//! per-pool reference every workload's verdicts are checked against.

use droidracer_core::{AnalysisBuilder, ClassifiedRace, JobReport};
use droidracer_obs::SpanRecord;
use droidracer_trace::from_text;

use crate::check::{verdict_of, Verdict};
use crate::inputs::PoolTrace;
use crate::spans::Tracer;

/// Counter the benchmark adds to `analyze`'s `detect` span: the part of it
/// spent in classification (`AnalysisTiming::classify`), in ns.
pub const CLASSIFY_NS: &str = "classify_ns";

/// One batch job: a `job` root carrying `id`, a `parse` span around
/// `from_text`, then `analyze`, whose own span tree (`analysis` with
/// `prepare`, `graph`, `closure` and `detect`) is adopted under the root.
/// Returns the verdict and the analysis's races and report inputs.
///
/// # Errors
///
/// The parse or analysis error; the spans stay balanced.
pub fn job(tr: &mut Tracer, id: u64, text: &str) -> Result<Done, String> {
    tr.start("job");
    tr.counter("id", id);
    let out = parse_and_analyze(tr, text);
    tr.end();
    out
}

fn parse_and_analyze(tr: &mut Tracer, text: &str) -> Result<Done, String> {
    tr.start("parse");
    let parsed = from_text(text);
    tr.counter("bytes", text.len() as u64);
    tr.end();
    let trace = parsed.map_err(|e| e.to_string())?;
    let builder = match tr.origin() {
        Some(origin) => AnalysisBuilder::new().clock_origin(origin),
        None => AnalysisBuilder::new(),
    };
    let analysis = builder.analyze(&trace).map_err(|e| e.to_string())?;
    if tr.is_on() {
        let mut spans = analysis.spans().clone();
        if let Some(detect) = spans.children.iter_mut().find(|s| s.name == "detect") {
            let ns = analysis.timing().classify.as_nanos() as u64;
            detect.counters.push((CLASSIFY_NS.to_owned(), ns));
        }
        tr.adopt(spans);
    }
    Ok(Done {
        verdict: verdict_of(analysis.races(), analysis.trace().names()),
        races: analysis.races().to_vec(),
        report: JobReport::from_analysis(&analysis, Vec::new()),
        word_ops: analysis.hb().stats().word_ops,
        nodes: analysis.hb().graph().node_count() as u64,
    })
}

/// What a batch job produced.
pub struct Done {
    /// The verdict of the classified races.
    pub verdict: Verdict,
    /// All classified races.
    pub races: Vec<ClassifiedRace>,
    /// The report a server must answer with.
    pub report: JobReport,
    /// Closure word-ops.
    pub word_ops: u64,
    /// Graph nodes after access merging.
    pub nodes: u64,
}

/// The reference outputs of each pool trace, one batch job each, and the
/// traced jobs' spans (none when `traced` is false).
///
/// # Errors
///
/// The first trace that fails to parse or analyze.
pub fn census(pool: &[PoolTrace], traced: bool) -> Result<(Vec<Done>, Vec<SpanRecord>), String> {
    let mut tracer = if traced {
        Tracer::on(std::time::Instant::now())
    } else {
        Tracer::off()
    };
    let refs = pool
        .iter()
        .enumerate()
        .map(|(i, p)| {
            job(&mut tracer, i as u64, &p.text).map_err(|e| format!("{} #{i}: {e}", p.app))
        })
        .collect::<Result<_, _>>()?;
    Ok((refs, tracer.finish()))
}
