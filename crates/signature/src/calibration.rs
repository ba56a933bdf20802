//! Matching-depth calibration (§5.5 of the paper).
//!
//! A signature's matching depth trades generality against false positives:
//! too shallow a suffix flags executions that would never deadlock, too deep
//! a suffix misses re-manifestations of the same bug. Dimmunix can calibrate
//! the depth online: starting at depth 1, it performs `NA` avoidances per
//! depth while the monitor's retrospective analysis classifies each avoidance
//! as a true or false positive, then fixes the **smallest depth whose false
//! positive rate equals the minimum observed** (`FPmin` may be non-zero when
//! the pattern is input-dependent). After `NT` further avoidances — or after
//! a program upgrade — the signature is recalibrated.

use std::fmt;

/// Tunables for the calibration state machine.
#[derive(Clone, Copy, Debug)]
pub struct CalibrationConfig {
    /// Avoidances observed per candidate depth before moving on (paper
    /// default: 20).
    pub na: u32,
    /// Avoidances after calibration completes before recalibrating (paper
    /// default: 10⁴).
    pub nt: u64,
    /// Maximum candidate matching depth (the microbenchmark uses D = 10).
    pub max_depth: u8,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            na: 20,
            nt: 10_000,
            max_depth: 10,
        }
    }
}

/// Per-depth tally kept while calibrating.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct DepthStats {
    /// Avoidances attributed to this depth (directly or by fast-forward).
    pub avoidances: u32,
    /// How many of those were classified as false positives.
    pub false_positives: u32,
}

impl DepthStats {
    /// False-positive rate at this depth (0 when no avoidances recorded).
    pub fn fp_rate(&self) -> f64 {
        if self.avoidances == 0 {
            0.0
        } else {
            f64::from(self.false_positives) / f64::from(self.avoidances)
        }
    }
}

/// Which stage of its life cycle a signature's calibration is in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Calibration switched off; the signature keeps a fixed depth.
    Disabled,
    /// Walking candidate depths, collecting FP verdicts.
    Calibrating,
    /// A depth has been chosen; counting avoidances until recalibration.
    Stable,
}

/// Action the caller must take after feeding an observation into the state
/// machine.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum CalibrationUpdate {
    /// Nothing to do.
    None,
    /// Switch the signature's matching depth to the given value (moving to
    /// the next candidate depth, or restarting calibration at depth 1).
    SetDepth(u8),
    /// Calibration finished: use this depth; `fp_rate` is the rate observed
    /// at the chosen depth (`FPmin`).
    Finished {
        /// The chosen (smallest minimal-FP-rate) depth.
        depth: u8,
        /// The false-positive rate at that depth. At 1.0 *every* avoidance
        /// there was a false positive — the §8 signal that the signature is
        /// obsolete (e.g. the bug was fixed by an upgrade) and can be
        /// discarded.
        fp_rate: f64,
    },
}

/// The per-signature calibration state machine.
///
/// Owned by the signature (behind a mutex) and driven exclusively by the
/// monitor thread, which is the only component that learns true/false
/// positive verdicts from the retrospective lock-inversion analysis.
#[derive(Clone, Debug)]
pub struct CalibrationState {
    phase: Phase,
    /// Candidate depth currently being evaluated (valid while calibrating).
    current: u8,
    /// `stats[d - 1]` tallies depth `d`.
    stats: Vec<DepthStats>,
    /// Avoidances since entering [`Phase::Stable`].
    avoided_since_stable: u64,
    /// Depth chosen by the most recent completed calibration.
    chosen: Option<(u8, f64)>,
    /// Number of calibrations completed over this signature's lifetime;
    /// ≥ 2 means the latest result came from a *re*-calibration.
    completed: u32,
}

impl CalibrationState {
    /// A state machine that never does anything (calibration off).
    pub fn disabled() -> Self {
        Self {
            phase: Phase::Disabled,
            current: 0,
            stats: Vec::new(),
            avoided_since_stable: 0,
            chosen: None,
            completed: 0,
        }
    }

    /// Begins (or restarts) calibration. The caller must set the signature's
    /// matching depth to the returned starting depth (always 1).
    pub fn start(&mut self, cfg: &CalibrationConfig) -> u8 {
        self.phase = Phase::Calibrating;
        self.current = 1;
        self.stats = vec![DepthStats::default(); cfg.max_depth as usize];
        self.avoided_since_stable = 0;
        1
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Depth currently under evaluation (meaningful while calibrating).
    pub fn current_depth(&self) -> u8 {
        self.current
    }

    /// Result of the last completed calibration, if any.
    pub fn chosen(&self) -> Option<(u8, f64)> {
        self.chosen
    }

    /// How many calibrations have completed over this signature's lifetime.
    /// A value ≥ 2 means the latest verdict came from a recalibration —
    /// which is when a 100%-false-positive signature may be discarded as
    /// obsolete (§8).
    pub fn completed_calibrations(&self) -> u32 {
        self.completed
    }

    /// Stats observed for `depth` during the current/most recent calibration.
    pub fn stats_for(&self, depth: u8) -> DepthStats {
        self.stats
            .get(depth as usize - 1)
            .copied()
            .unwrap_or_default()
    }

    /// Feeds one avoidance outcome into the machine.
    ///
    /// * `depth_used` — the matching depth in force when the avoidance was
    ///   performed (verdicts arrive asynchronously, so it may differ from
    ///   [`Self::current_depth`]).
    /// * `was_fp` — the retrospective analysis' verdict.
    /// * `deeper_would_match(d)` — whether this same execution would also
    ///   have triggered avoidance had the depth been `d`; used for the
    ///   paper's fast-forward that credits deeper depths without waiting for
    ///   `NA` fresh avoidances at each. Because suffix matching is strictly
    ///   harder at greater depths, implementations may assume calls come with
    ///   increasing `d` and stop being consulted after the first `false`.
    pub fn record_outcome(
        &mut self,
        cfg: &CalibrationConfig,
        depth_used: u8,
        was_fp: bool,
        mut deeper_would_match: impl FnMut(u8) -> bool,
    ) -> CalibrationUpdate {
        match self.phase {
            Phase::Disabled => CalibrationUpdate::None,
            Phase::Stable => {
                self.avoided_since_stable += 1;
                if self.avoided_since_stable >= cfg.nt {
                    let d = self.start(cfg);
                    CalibrationUpdate::SetDepth(d)
                } else {
                    CalibrationUpdate::None
                }
            }
            Phase::Calibrating => {
                let idx = usize::from(depth_used.clamp(1, cfg.max_depth)) - 1;
                self.stats[idx].avoidances += 1;
                if was_fp {
                    self.stats[idx].false_positives += 1;
                    // Fast-forward: the same (non-deadlocking) execution
                    // would also have been avoided — hence also been an FP —
                    // at every deeper depth that still matches.
                    for d in depth_used + 1..=cfg.max_depth {
                        if !deeper_would_match(d) {
                            break;
                        }
                        let di = usize::from(d) - 1;
                        self.stats[di].avoidances += 1;
                        self.stats[di].false_positives += 1;
                    }
                }
                // Advance past every depth that has gathered enough samples.
                let before = self.current;
                while self.current <= cfg.max_depth
                    && self.stats[usize::from(self.current) - 1].avoidances >= cfg.na
                {
                    self.current += 1;
                }
                if self.current > cfg.max_depth {
                    // Done: smallest depth attaining the minimum FP rate.
                    let min_rate = self
                        .stats
                        .iter()
                        .map(DepthStats::fp_rate)
                        .fold(f64::INFINITY, f64::min);
                    let depth = self
                        .stats
                        .iter()
                        .position(|s| s.fp_rate() <= min_rate)
                        .map(|i| i as u8 + 1)
                        .unwrap_or(1);
                    self.phase = Phase::Stable;
                    self.avoided_since_stable = 0;
                    let fp_rate = self.stats[usize::from(depth) - 1].fp_rate();
                    self.chosen = Some((depth, fp_rate));
                    self.completed += 1;
                    CalibrationUpdate::Finished { depth, fp_rate }
                } else if self.current != before {
                    CalibrationUpdate::SetDepth(self.current)
                } else {
                    CalibrationUpdate::None
                }
            }
        }
    }
}

impl fmt::Display for CalibrationState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.phase {
            Phase::Disabled => write!(f, "calibration disabled"),
            Phase::Calibrating => write!(f, "calibrating (depth {})", self.current),
            Phase::Stable => match self.chosen {
                Some((d, r)) => write!(f, "stable at depth {d} (FP rate {r:.2})"),
                None => write!(f, "stable"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(na: u32, nt: u64, max_depth: u8) -> CalibrationConfig {
        CalibrationConfig { na, nt, max_depth }
    }

    /// Drives a full calibration where depths < `clean_from` always produce
    /// FPs and deeper depths never do. Consistently, an FP execution only
    /// matches at depths below `clean_from` (otherwise those depths would
    /// have been FPs too).
    fn calibrate_with_fp_below(
        c: &CalibrationConfig,
        clean_from: u8,
    ) -> (CalibrationState, u8, f64) {
        let mut st = CalibrationState::disabled();
        st.start(c);
        loop {
            let d = st.current_depth();
            let was_fp = d < clean_from;
            match st.record_outcome(c, d, was_fp, |d2| d2 < clean_from) {
                CalibrationUpdate::Finished { depth, fp_rate } => return (st, depth, fp_rate),
                _ => continue,
            }
        }
    }

    #[test]
    fn disabled_state_is_inert() {
        let c = cfg(2, 10, 4);
        let mut st = CalibrationState::disabled();
        assert_eq!(st.phase(), Phase::Disabled);
        assert_eq!(
            st.record_outcome(&c, 4, true, |_| true),
            CalibrationUpdate::None
        );
    }

    #[test]
    fn chooses_smallest_clean_depth() {
        let c = cfg(3, 100, 6);
        let (_, depth, rate) = calibrate_with_fp_below(&c, 4);
        assert_eq!(depth, 4);
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn all_clean_chooses_depth_one() {
        let c = cfg(2, 100, 5);
        let (_, depth, rate) = calibrate_with_fp_below(&c, 1);
        assert_eq!(depth, 1, "smallest depth is the most general pattern");
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn input_dependent_fp_keeps_nonzero_min() {
        // Every depth is an FP: FPmin = 1.0 and the smallest depth wins.
        let c = cfg(2, 100, 3);
        let (_, depth, rate) = calibrate_with_fp_below(&c, 10);
        assert_eq!(depth, 1);
        assert_eq!(rate, 1.0);
    }

    #[test]
    fn fast_forward_credits_deeper_depths() {
        let c = cfg(2, 100, 3);
        let mut st = CalibrationState::disabled();
        st.start(&c);
        // One FP at depth 1 that also matches at depths 2 and 3.
        st.record_outcome(&c, 1, true, |_| true);
        assert_eq!(st.stats_for(2).avoidances, 1);
        assert_eq!(st.stats_for(2).false_positives, 1);
        assert_eq!(st.stats_for(3).avoidances, 1);
    }

    #[test]
    fn fast_forward_stops_at_first_non_match() {
        let c = cfg(5, 100, 4);
        let mut st = CalibrationState::disabled();
        st.start(&c);
        st.record_outcome(&c, 1, true, |d| d <= 2);
        assert_eq!(st.stats_for(2).false_positives, 1);
        assert_eq!(st.stats_for(3).false_positives, 0);
        assert_eq!(st.stats_for(4).false_positives, 0);
    }

    #[test]
    fn fast_forward_lets_later_depths_finish_early() {
        let c = cfg(2, 100, 2);
        let mut st = CalibrationState::disabled();
        st.start(&c);
        // Two FPs at depth 1 that also match at depth 2: depth 2 already has
        // NA samples when we get there, so calibration finishes immediately.
        assert_eq!(
            st.record_outcome(&c, 1, true, |_| true),
            CalibrationUpdate::None
        );
        let upd = st.record_outcome(&c, 1, true, |_| true);
        assert!(
            matches!(upd, CalibrationUpdate::Finished { .. }),
            "expected Finished, got {upd:?}"
        );
    }

    #[test]
    fn recalibrates_after_nt_avoidances() {
        let c = cfg(1, 3, 2);
        let (mut st, depth, _) = calibrate_with_fp_below(&c, 1);
        assert_eq!(depth, 1);
        assert_eq!(st.phase(), Phase::Stable);
        assert_eq!(
            st.record_outcome(&c, depth, false, |_| true),
            CalibrationUpdate::None
        );
        assert_eq!(
            st.record_outcome(&c, depth, false, |_| true),
            CalibrationUpdate::None
        );
        // Third avoidance reaches NT: restart at depth 1.
        assert_eq!(
            st.record_outcome(&c, depth, false, |_| true),
            CalibrationUpdate::SetDepth(1)
        );
        assert_eq!(st.phase(), Phase::Calibrating);
    }

    #[test]
    fn verdict_for_stale_depth_is_tolerated() {
        let c = cfg(2, 100, 4);
        let mut st = CalibrationState::disabled();
        st.start(&c);
        // A verdict arrives late, tagged with a depth we are no longer at.
        st.record_outcome(&c, 3, false, |_| false);
        assert_eq!(st.stats_for(3).avoidances, 1);
        assert_eq!(st.current_depth(), 1);
    }
}
