//! Host speed, measured with a fixed calibration kernel that is the
//! benchmark's own code.
//!
//! On a shared 2-vCPU host the same detector work takes anywhere from 1× to
//! 2× as long, in phases lasting tens of seconds, with steal time under 6 %
//! and CPU time over 99 % of wall time: the co-tenants slow the caches and
//! memory, not the scheduler. A 40-s run cannot average that out. So
//! `direct` and `stream` time a short kernel between jobs (every
//! [`SLICE_EVERY`]) and during set-up, and scale their times to a host on
//! which one kernel pass takes [`REFERENCE_MS`]: each time is multiplied by
//! `speed = REFERENCE_MS / mean kernel time`. The kernel tokenizes a fixed
//! trace-like text into a hash map, [`ROUNDS`] times in a row. On that host,
//! timed side by side with the 22 corpus traces over 7 minutes, the ratio
//! of the detector's time to the kernel's moved 3–7 % (interquartile over
//! median, 10- to 30-s spans) for batch and streaming analysis alike while
//! their own times moved 19–30 %; dependent loads over a large buffer,
//! streaming reads, bit-matrix passes and page faults each tracked worse.
//! It runs no code of the program under test, so a change to the program
//! cannot change it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time in ms on the reference host (a quiet phase of the 2-vCPU
/// host the bounds were set on).
pub const REFERENCE_MS: f64 = 20.0;
/// Wall time between two kernel passes inside a window.
pub const SLICE_EVERY: Duration = Duration::from_millis(500);

/// Lines of the synthetic trace-like text.
const LINES: usize = 4_000;
/// Times one pass tokenizes the text.
const ROUNDS: usize = 10;

/// The kernel's inputs and the passes timed so far.
pub struct Calibration {
    text: String,
    /// Duration of each pass, in ms.
    pub pass_ms: Vec<f64>,
    due: Instant,
}

impl Calibration {
    /// Builds the kernel's fixed inputs (the same on every run).
    pub fn new() -> Self {
        let mut state: u64 = 0x5eed_ca11_b8a7_e000;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut text = String::new();
        for i in 0..LINES {
            let r = rand();
            text.push_str(&format!(
                "op {i} {} t{} f{} o{} k{}\n",
                ["read", "write", "post", "begin", "end"][(r % 5) as usize],
                r >> 8 & 7,
                r >> 16 & 255,
                r >> 24 & 1023,
                r >> 40 & 4095,
            ));
        }
        Calibration {
            text,
            pass_ms: Vec::new(),
            due: Instant::now(),
        }
    }

    /// Times one kernel pass.
    pub fn pass(&mut self) {
        let t = Instant::now();
        for _ in 0..ROUNDS {
            let mut counts: HashMap<String, u64> = HashMap::new();
            for (i, line) in self.text.lines().enumerate() {
                for word in line.split_whitespace() {
                    *counts.entry(word.to_owned()).or_default() += i as u64;
                }
            }
            black_box(counts.len());
        }
        self.pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.due = Instant::now() + SLICE_EVERY;
    }

    /// Runs a pass if [`SLICE_EVERY`] has passed since the last one, and
    /// returns the time it took (zero when none was due).
    pub fn tick(&mut self) -> Duration {
        if Instant::now() < self.due {
            return Duration::ZERO;
        }
        let t = Instant::now();
        self.pass();
        t.elapsed()
    }

    /// `REFERENCE_MS` over the mean pass time since pass `from`: below 1
    /// on a host slower than the reference.
    pub fn speed_since(&self, from: usize) -> f64 {
        let passes = &self.pass_ms[from.min(self.pass_ms.len())..];
        if passes.is_empty() {
            return 1.0;
        }
        REFERENCE_MS * passes.len() as f64 / passes.iter().sum::<f64>()
    }
}
