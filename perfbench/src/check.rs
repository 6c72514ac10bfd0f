//! The correctness oracle and failure accounting.
//!
//! Every job's verdict is compared with its app's planted ground truth,
//! which is hand-written in the corpus and never derived from the engine.
//! A job that errors, is shed or rejected by the server, or fails a check
//! counts as failed.

use std::collections::BTreeSet;

use droidracer_apps::GroundTruth;
use droidracer_core::{ClassifiedRace, RaceCategory};
use droidracer_trace::Names;

/// The reported races of one job as a set of (field, category) pairs.
pub type Verdict = BTreeSet<(String, RaceCategory)>;

/// The verdict the planted truth demands.
pub fn planted(truth: &GroundTruth) -> Verdict {
    truth
        .iter()
        .map(|(field, t)| (field.clone(), t.category))
        .collect()
}

/// The verdict of an analysis's races (all of them, or representatives:
/// both give the same set).
pub fn verdict_of(races: &[ClassifiedRace], names: &Names) -> Verdict {
    races
        .iter()
        .map(|cr| (names.field_name(cr.race.loc.field), cr.category))
        .collect()
}

/// How one attempted job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A verdict that passed every check.
    Ok,
    /// The call failed (transport, parse or analysis error).
    Errored,
    /// The server shed the job (`Overloaded`).
    Shed,
    /// The server refused the job.
    Rejected,
    /// A verdict that failed a correctness check.
    Mismatched,
}

/// Counts of job outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that passed.
    pub ok: u64,
    /// Jobs whose call failed.
    pub errored: u64,
    /// Jobs shed by the server.
    pub shed: u64,
    /// Jobs rejected by the server.
    pub rejected: u64,
    /// Jobs that failed a check.
    pub mismatched: u64,
}

impl Tally {
    /// Counts one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Errored => self.errored += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Rejected => self.rejected += 1,
            Outcome::Mismatched => self.mismatched += 1,
        }
    }

    /// Jobs that did not pass.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// Failed jobs as a share of those attempted (0 when none were).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}
