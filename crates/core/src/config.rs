//! Runtime configuration.

use dimmunix_predict::PredictionConfig;
use dimmunix_signature::CalibrationConfig;
use std::path::PathBuf;
use std::time::Duration;

/// Immunity level (§5.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Immunity {
    /// Induced starvation is automatically broken (after saving its
    /// signature) and the program continues. Least intrusive; some deadlock
    /// patterns may reoccur, bounded by the maximum lock-nesting depth.
    #[default]
    Weak,
    /// Every detected starvation asks the embedding application to restart
    /// (via the restart hook). Guarantees no deadlock or starvation pattern
    /// ever reoccurs.
    Strong,
}

/// How much of the runtime is active — used to reproduce Figure 8's overhead
/// breakdown (instrumentation / + data-structure updates / + avoidance).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RuntimeMode {
    /// Hooks run and events are enqueued, but no avoidance data structure is
    /// touched and every decision is GO.
    InstrumentationOnly,
    /// Hooks maintain the RAG cache (held-lock stacks, `Allowed` sets) but skip
    /// signature matching; every decision is GO.
    UpdatesOnly,
    /// Full Dimmunix.
    #[default]
    Full,
}

/// Configuration of a [`crate::runtime::Runtime`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Monitor wakeup period τ (§5.2). The delay between a deadlock and its
    /// detection is bounded by this. Default 100 ms.
    pub monitor_period: Duration,
    /// Matching depth given to newly captured signatures when calibration is
    /// off (paper default: 4).
    pub default_depth: u8,
    /// Weak or strong immunity.
    pub immunity: Immunity,
    /// Upper bound on how long a thread may be kept yielding to avoid a
    /// pattern; reaching it aborts the yield and lets the thread proceed
    /// (§5.7's escape hatch against starvation-based functionality loss).
    /// Default 200 ms.
    pub max_yield_duration: Option<Duration>,
    /// After this many yield-timeout aborts a signature is automatically
    /// disabled as "too risky to avoid" (§5.7). `None` keeps counting but
    /// never disables.
    pub abort_disable_threshold: Option<u64>,
    /// Online matching-depth calibration (§5.5); `None` keeps the fixed
    /// [`Config::default_depth`].
    pub calibration: Option<CalibrationConfig>,
    /// Proactive deadlock prediction: when set, the monitor runs a
    /// lock-order-graph analysis over the drained event stream and
    /// synthesizes `predicted`-provenance signatures into the history
    /// *before* any cycle manifests (first-run immunity). Entirely
    /// monitor-side — the request fast path is untouched. `None` (default)
    /// keeps the paper's suffer-first behavior.
    ///
    /// The predictor maintains an incremental SCC condensation of the
    /// lock-order graph, so its per-pass cost scales with *new* edges and
    /// affected components, not graph size. Two knobs govern that
    /// machinery: `PredictionConfig::scc_rebuild_budget` caps the
    /// component visits one incremental restructure may spend before
    /// falling back to a full (always-correct) Tarjan rebuild, and
    /// `PredictionConfig::lock_retire_after` ages release-quiescent locks
    /// out of the graph after that many passes (0 disables aging), keeping
    /// long-running processes' graphs bounded by the *live* lock set.
    pub prediction: Option<PredictionConfig>,
    /// Where the persistent history lives. `None` keeps it in memory only.
    pub history_path: Option<PathBuf>,
    /// Maximum concurrently registered threads: the number of per-thread
    /// slots pre-allocated by the engine, which every rebuild visits (the
    /// paper evaluates up to 1024).
    pub max_threads: usize,
    /// Overhead-breakdown stage (Figure 8); [`RuntimeMode::Full`] for real
    /// use.
    pub mode: RuntimeMode,
    /// When `false`, yield decisions are computed but ignored — the
    /// "instrumented, but ignore all yield decisions" configuration used to
    /// validate the Table 1 exploits.
    pub enforce_yields: bool,
    /// Structural false-positive accounting for the Figure 9 experiment:
    /// when set to the program's full stack depth `D`, every yield is
    /// classified immediately — a *true* positive if all instance bindings
    /// also match at depth `D`, a *false* positive otherwise — into
    /// [`crate::stats::Stats::structural_true_positives`] /
    /// `structural_false_positives`. Independent of the retrospective
    /// lock-inversion analysis.
    pub structural_fp_reference_depth: Option<u8>,
    /// How many monitor-pass panics the supervisor absorbs by restarting
    /// the monitor (tracker state rebuilt from the last good RAG snapshot)
    /// before giving up and switching the runtime into degraded
    /// pass-through mode. Default 3.
    pub monitor_restart_budget: u32,
    /// Upper bound applied to every yield park while in degraded mode (no
    /// live monitor means nobody will ever break a stuck yield), replacing
    /// [`Config::max_yield_duration`] when that is `None` or larger.
    /// Default 50 ms.
    pub degraded_yield_wait: Duration,
    /// Attempt to salvage the valid prefix of a torn/corrupt history file
    /// at load time instead of failing `Runtime::start`. The recovery is
    /// reported via `Runtime::history_recovery` and counted in
    /// [`crate::stats::Stats::history_salvaged`]. Default `true`.
    pub history_salvage: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            monitor_period: Duration::from_millis(100),
            default_depth: 4,
            immunity: Immunity::Weak,
            max_yield_duration: Some(Duration::from_millis(200)),
            abort_disable_threshold: None,
            calibration: None,
            prediction: None,
            history_path: None,
            max_threads: 4096,
            mode: RuntimeMode::Full,
            enforce_yields: true,
            structural_fp_reference_depth: None,
            monitor_restart_budget: 3,
            degraded_yield_wait: Duration::from_millis(50),
            history_salvage: true,
        }
    }
}

impl Config {
    /// Paper-default configuration for the §7 experiments: strong immunity,
    /// τ = 100 ms, fixed matching depth 4.
    pub fn paper_evaluation() -> Self {
        Self {
            immunity: Immunity::Strong,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = Config::default();
        assert_eq!(c.monitor_period, Duration::from_millis(100));
        assert_eq!(c.default_depth, 4);
        assert_eq!(c.immunity, Immunity::Weak);
        assert_eq!(c.max_yield_duration, Some(Duration::from_millis(200)));
        assert!(c.calibration.is_none());
        assert!(c.prediction.is_none(), "prediction is opt-in");
        assert!(c.enforce_yields);
    }

    #[test]
    fn paper_evaluation_uses_strong_immunity() {
        assert_eq!(Config::paper_evaluation().immunity, Immunity::Strong);
    }
}
