//! The generative label model: denoise labeling-function votes into
//! probabilistic labels (Snorkel/Panda-style, abstain-aware).
//!
//! Model: a latent true label `y ∈ {match, non-match}` with prior
//! `π = P(y = match)`; each LF `j` votes independently given `y`, with
//! propensity `β_j = P(λ_j ≠ abstain)` and accuracy
//! `a_j = P(λ_j agrees with y | λ_j ≠ abstain)`. Abstains carry no signal
//! (the propensity factor cancels in the posterior), so the per-pair
//! posterior over the non-abstain votes is
//!
//! ```text
//! P(y = match | λ) ∝ π · ∏_{j: λ_j ≠ 0} (a_j if λ_j = +1 else 1 − a_j)
//! ```
//!
//! and symmetrically for non-match. [`LabelModel::fit`] runs EM: the
//! E-step computes posteriors for all pairs in parallel on the `em-rt`
//! pool (each pair's posterior depends only on its own votes, and
//! [`em_rt::parallel_map`] returns them in pair order), and the M-step
//! re-estimates `a_j` in one serial fixed-order pass — so a fit is
//! bit-identical at any `EM_THREADS`.
//!
//! Three identifiability guards (all standard in Snorkel-family models):
//! the class prior is a fixed input (`class_balance`, default 0.5), never
//! re-estimated — matching is heavily class-imbalanced, and letting EM
//! shrink `π` lets it explain every Match vote away as LF error, the
//! classic collapse to a single-class labeling; and accuracies are floored
//! at 0.5 (LFs are assumed better than chance, which anchors the vote
//! polarity), so a bad LF saturates into a no-op instead of being flipped
//! against its author's intent; and the accuracy M-step is a MAP update
//! with a few pseudo-votes at the init center, because an LF that mostly
//! votes alone is circularly self-defined under plain EM and would
//! otherwise drift on a handful of conflicting overlap votes. Accuracies
//! are clamped to `[0.5, 1 − ε]` every step, which also keeps degenerate
//! LF sets (all-abstain, a single LF, perfectly correlated duplicates) at
//! finite fixed points instead of diverging.
//!
//! [`majority_vote`] is the closed-form fallback: the unweighted vote sign,
//! which equals the model's thresholded output when every LF is perfectly
//! accurate (see the crate tests).

use crate::lf::VoteMatrix;
use em_rt::{Json, StdRng};

/// Label-model fits completed.
static LABEL_MODEL_FITS: em_obs::Counter = em_obs::Counter::new("weak.label_model_fits");
/// EM iterations executed across all fits.
static LABEL_MODEL_ITERS: em_obs::Counter = em_obs::Counter::new("weak.label_model_iters");

/// Hyper-parameters of [`LabelModel::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct LabelModelOptions {
    /// EM iteration cap.
    pub max_iterations: usize,
    /// Convergence tolerance on the max parameter delta per iteration.
    pub tolerance: f64,
    /// Seed for the accuracy initialization jitter.
    pub seed: u64,
    /// Accuracies are clamped to `[max(0.5, clamp), 1 - clamp]`.
    pub clamp: f64,
    /// Center of the initial per-LF accuracy (better-than-chance prior).
    pub init_accuracy: f64,
    /// Fixed class prior `π = P(match)`. An input, not a learned
    /// parameter: EM-estimating the prior of a rare class collapses it to
    /// zero (see the module docs). 0.5 is the uninformative default.
    pub class_balance: f64,
    /// MAP pseudo-votes anchoring each accuracy to `init_accuracy`. An LF
    /// that mostly votes alone is circular under plain EM (its posteriors
    /// are defined by its own accuracy), so a handful of conflicting
    /// overlap votes can walk it arbitrarily far; the pseudo-counts make
    /// that walk cost evidence.
    pub accuracy_prior_strength: f64,
}

impl Default for LabelModelOptions {
    fn default() -> Self {
        LabelModelOptions {
            max_iterations: 100,
            tolerance: 1e-7,
            seed: 0,
            clamp: 1e-3,
            init_accuracy: 0.7,
            class_balance: 0.5,
            accuracy_prior_strength: 8.0,
        }
    }
}

/// A fitted generative label model.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelModel {
    /// Learned per-LF accuracy `a_j` (agreement with the latent label when
    /// voting).
    pub accuracies: Vec<f64>,
    /// Per-LF propensity `β_j` (fraction of pairs voted on; closed form).
    pub propensities: Vec<f64>,
    /// The fixed class prior `π = P(match)` the model was fit under.
    pub prior: f64,
    /// EM iterations executed.
    pub iterations: usize,
    /// Whether the parameter deltas fell below tolerance before the cap.
    pub converged: bool,
}

/// Closed-form majority-vote labels: `1.0` when the vote sum is positive,
/// `0.0` when negative, `0.5` on ties and all-abstain rows.
pub fn majority_vote(votes: &VoteMatrix) -> Vec<f64> {
    (0..votes.n_pairs())
        .map(|i| {
            let sum: i32 = votes.row(i).iter().map(|&v| v as i32).sum();
            match sum.cmp(&0) {
                std::cmp::Ordering::Greater => 1.0,
                std::cmp::Ordering::Less => 0.0,
                std::cmp::Ordering::Equal => 0.5,
            }
        })
        .collect()
}

impl LabelModel {
    /// Fit by EM on the vote matrix. Deterministic for a fixed seed at any
    /// `EM_THREADS` (seeded init, parallel E-step in pair order, serial
    /// fixed-order M-step).
    pub fn fit(votes: &VoteMatrix, opts: &LabelModelOptions) -> LabelModel {
        let _span = em_obs::span!("weak.label_model_fit");
        let n = votes.n_pairs();
        let m = votes.n_lfs();
        // Better-than-chance floor: a hopeless LF degrades to a no-op
        // (a = 0.5 contributes equally to both classes) instead of having
        // its polarity flipped, which anchors the vote signs.
        let clamp = |v: f64| v.clamp(opts.clamp.max(0.5), 1.0 - opts.clamp);

        // Propensities are closed-form (coverage) — no EM needed.
        let mut vote_counts = vec![0usize; m];
        for i in 0..n {
            for (j, &v) in votes.row(i).iter().enumerate() {
                vote_counts[j] += (v != 0) as usize;
            }
        }
        let propensities: Vec<f64> = vote_counts
            .iter()
            .map(|&c| if n == 0 { 0.0 } else { c as f64 / n as f64 })
            .collect();
        let total_votes: usize = vote_counts.iter().sum();

        // Seeded init: accuracies jittered around the better-than-chance
        // center (breaks the a_j = 0.5 symmetric fixed point). The prior
        // is a fixed input, clamped away from the degenerate endpoints.
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut accuracies: Vec<f64> = (0..m)
            .map(|_| clamp(opts.init_accuracy + 0.02 * (rng.unit_f64() - 0.5)))
            .collect();
        let prior = opts.class_balance.clamp(opts.clamp, 1.0 - opts.clamp);

        let mut iterations = 0;
        let mut converged = true;
        if n > 0 && total_votes > 0 {
            converged = false;
            for _ in 0..opts.max_iterations {
                iterations += 1;
                let posteriors = e_step(votes, &accuracies, prior);
                // M-step: one serial pass over pairs in index order.
                let mut agree = vec![0.0f64; m];
                for (i, &p) in posteriors.iter().enumerate() {
                    for (j, &v) in votes.row(i).iter().enumerate() {
                        match v.cmp(&0) {
                            std::cmp::Ordering::Greater => agree[j] += p,
                            std::cmp::Ordering::Less => agree[j] += 1.0 - p,
                            std::cmp::Ordering::Equal => {}
                        }
                    }
                }
                let mut delta = 0.0f64;
                let strength = opts.accuracy_prior_strength.max(0.0);
                for j in 0..m {
                    // An LF that never votes keeps its current accuracy
                    // (no evidence either way; prevents 0/0).
                    if vote_counts[j] > 0 {
                        // MAP update: real agreement mass plus
                        // `strength` pseudo-votes at the init center.
                        let next = clamp(
                            (agree[j] + strength * opts.init_accuracy)
                                / (vote_counts[j] as f64 + strength),
                        );
                        delta = delta.max((next - accuracies[j]).abs());
                        accuracies[j] = next;
                    }
                }
                if delta < opts.tolerance {
                    converged = true;
                    break;
                }
            }
        }

        LABEL_MODEL_FITS.add(1);
        LABEL_MODEL_ITERS.add(iterations as u64);
        em_obs::event("weak.label_model", || {
            vec![
                ("n_pairs", Json::from(n)),
                ("n_lfs", Json::from(m)),
                ("iterations", Json::from(iterations)),
                ("converged", Json::Bool(converged)),
                ("prior", Json::from(prior)),
            ]
        });
        LabelModel {
            accuracies,
            propensities,
            prior,
            iterations,
            converged,
        }
    }

    /// Posterior `P(match | λ_i)` for every pair under the fitted
    /// parameters. Pairs with no votes get exactly the prior.
    pub fn posteriors(&self, votes: &VoteMatrix) -> Vec<f64> {
        assert_eq!(votes.n_lfs(), self.accuracies.len(), "LF count mismatch");
        e_step(votes, &self.accuracies, self.prior)
    }
}

/// E-step: per-pair posteriors in log space, parallel over pairs (each
/// posterior depends only on its own row, so the result is bit-identical at
/// any thread count).
fn e_step(votes: &VoteMatrix, accuracies: &[f64], prior: f64) -> Vec<f64> {
    em_rt::parallel_map(votes.n_pairs(), 0, |i| {
        let mut lp1 = prior.ln();
        let mut lp0 = (1.0 - prior).ln();
        for (j, &v) in votes.row(i).iter().enumerate() {
            let a = accuracies[j];
            match v.cmp(&0) {
                std::cmp::Ordering::Greater => {
                    lp1 += a.ln();
                    lp0 += (1.0 - a).ln();
                }
                std::cmp::Ordering::Less => {
                    lp1 += (1.0 - a).ln();
                    lp0 += a.ln();
                }
                std::cmp::Ordering::Equal => {}
            }
        }
        1.0 / (1.0 + (lp0 - lp1).exp())
    })
}
