//! Seeded inputs: the corpus apps re-simulated under seeds derived from the
//! workload seed, rendered to trace text during set-up.
//!
//! The pool holds `variants` runs of each of the 15 paper apps and the 7
//! component apps. Each run replaces the entry's scheduler seed with a hash
//! of (workload seed, app, variant), so the same `--seed` always yields the
//! same traces and a new seed yields new interleavings of the same apps.
//! The program under test only ever sees the rendered text (or, on the
//! streamed path, the ops of the same trace).

use std::time::Instant;

use droidracer_apps::{component_corpus, corpus};
use droidracer_trace::{to_text, Trace};

use crate::check::{planted, Verdict};

/// One input trace and what it must produce.
pub struct PoolTrace {
    /// The corpus app it came from.
    pub app: &'static str,
    /// The planted (field, category) verdict.
    pub planted: Verdict,
    /// The rendered trace.
    pub text: String,
    /// The trace itself, kept only for the streamed path.
    pub trace: Option<Trace>,
}

/// The pool and the time set-up took.
pub struct Pool {
    /// Input traces in generation order.
    pub traces: Vec<PoolTrace>,
    /// Time in `generate_trace` (app compile + simulation).
    pub generate_ms: f64,
    /// Time in `to_text`.
    pub render_ms: f64,
}

/// Generates and renders the pool for `seed`.
///
/// # Errors
///
/// Names the app and variant whose simulation failed.
pub fn build(seed: u64, variants: u64, keep_traces: bool) -> Result<Pool, String> {
    let start = Instant::now();
    let mut entries = corpus();
    entries.extend(component_corpus());
    let mut generate_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut render_ms = 0.0;
    let mut traces = Vec::with_capacity(entries.len() * variants as usize);
    for variant in 0..variants {
        for entry in &mut entries {
            entry.seed = variant_seed(seed, entry.name, variant);
            let t = Instant::now();
            let trace = entry
                .generate_trace()
                .map_err(|e| format!("{} variant {variant}: {e:?}", entry.name))?;
            generate_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let text = to_text(&trace);
            render_ms += t.elapsed().as_secs_f64() * 1e3;
            traces.push(PoolTrace {
                app: entry.name,
                planted: planted(&entry.truth),
                text,
                trace: keep_traces.then_some(trace),
            });
        }
    }
    Ok(Pool {
        traces,
        generate_ms,
        render_ms,
    })
}

/// The scheduler seed of one (app, variant) under the workload seed.
pub fn variant_seed(seed: u64, app: &str, variant: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in app.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    Rng::new(seed ^ h ^ variant.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next()
}

/// SplitMix64: the benchmark's own deterministic stream for job orders.
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next value.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// An endless job order over a pool of `n` traces: back-to-back seeded
/// permutations, so every trace runs equally often.
pub struct Order {
    rng: Rng,
    n: usize,
    current: Vec<usize>,
}

impl Order {
    /// The order for a pool of `n` traces under `seed`.
    pub fn new(seed: u64, n: usize) -> Self {
        Order {
            rng: Rng::new(seed),
            n,
            current: Vec::new(),
        }
    }
}

impl Iterator for Order {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.current.is_empty() {
            self.current = self.rng.permutation(self.n);
        }
        self.current.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_are_seeded_permutations() {
        let a: Vec<usize> = Order::new(7, 5).take(10).collect();
        let b: Vec<usize> = Order::new(7, 5).take(10).collect();
        assert_eq!(a, b);
        for block in a.chunks(5) {
            let mut s = block.to_vec();
            s.sort_unstable();
            assert_eq!(s, vec![0, 1, 2, 3, 4]);
        }
        assert_ne!(
            variant_seed(1, "K-9 Mail", 0),
            variant_seed(1, "K-9 Mail", 1)
        );
        assert_ne!(
            variant_seed(1, "K-9 Mail", 0),
            variant_seed(2, "K-9 Mail", 0)
        );
    }
}
