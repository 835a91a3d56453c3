//! The three closed-loop, single-client workloads.

pub mod fleet_dense;
pub mod ingest_ooc;
pub mod refine_sparse;

use crate::run::Runner;
use std::path::PathBuf;

/// What a workload run needs besides the runner.
pub struct Ctx {
    pub seed: u64,
    pub cycles: u32,
    pub setup_reps: u32,
    /// Traced run: every other cycle (or group of cycles) is traced.
    pub trace: bool,
    /// Scratch directory inside the checkout, removed after the run.
    pub work: PathBuf,
}

/// Dataset sizes, budgets and thread counts, printed with the metrics.
pub type Info = Vec<(String, String)>;

pub struct Workload {
    pub name: &'static str,
    pub nominal_cycle_s: f64,
    /// Cycle counts are rounded up to a multiple of this, so families
    /// and traced/untraced cycles stay balanced.
    pub cycle_multiple: u32,
    pub run: fn(&mut Runner, &Ctx) -> Result<Info, String>,
}

pub const ALL: [Workload; 3] = [
    Workload {
        name: "refine-sparse",
        nominal_cycle_s: refine_sparse::NOMINAL_CYCLE_S,
        cycle_multiple: 8,
        run: refine_sparse::run,
    },
    Workload {
        name: "fleet-dense",
        nominal_cycle_s: fleet_dense::NOMINAL_CYCLE_S,
        cycle_multiple: 2,
        run: fleet_dense::run,
    },
    Workload {
        name: "ingest-ooc",
        nominal_cycle_s: ingest_ooc::NOMINAL_CYCLE_S,
        cycle_multiple: 2,
        run: ingest_ooc::run,
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<&'static Workload> {
        ALL.iter().find(|w| w.name == name)
    }

    /// A fixed cycle count for a run of `seconds`: derived from the
    /// nominal cycle time, never from how fast this run goes, so every
    /// run of the same length has the same number of rounds.
    pub fn cycles(&self, seconds: u32) -> u32 {
        let c = (f64::from(seconds) / self.nominal_cycle_s).round() as u32;
        c.div_ceil(self.cycle_multiple).max(1) * self.cycle_multiple
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_counts_are_fixed_by_the_run_length() {
        for w in &ALL {
            let c = w.cycles(25);
            assert_eq!(c, w.cycles(25));
            assert_eq!(c % w.cycle_multiple, 0);
            assert!(c >= w.cycle_multiple);
            assert!(w.cycles(50) > c);
        }
        assert!(Workload::named("fleet-dense").is_some());
        assert!(Workload::named("nope").is_none());
    }
}
