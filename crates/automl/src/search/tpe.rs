//! Tree-structured Parzen Estimator (TPE, Bergstra et al. — reference \[7\]
//! of the paper): model the density of "good" and "bad" configurations and
//! suggest candidates maximizing the density ratio `l(x) / g(x)`.
//!
//! This implementation follows the classic recipe with per-dimension
//! factorized densities: Gaussian kernels around good observations for
//! numeric parameters (bandwidth from the observation spread) and smoothed
//! categorical counts, handling conditional parameters by scoring only the
//! dimensions active in a candidate.

use crate::config::Configuration;
use crate::runner::{SearchAlgorithm, SearchHistory};
use crate::space::{ConfigSpace, Domain};
use em_rt::StdRng;

/// TPE hyperparameters.
#[derive(Debug, Clone)]
pub struct TpeParams {
    /// Random configurations before the density model switches on.
    pub n_init: usize,
    /// Fraction of observations treated as "good" (γ).
    pub gamma: f64,
    /// Candidates sampled from the good density per suggestion.
    pub n_candidates: usize,
}

impl Default for TpeParams {
    fn default() -> Self {
        TpeParams {
            n_init: 10,
            gamma: 0.25,
            n_candidates: 32,
        }
    }
}

/// The TPE searcher.
#[derive(Debug, Clone, Default)]
pub struct TpeSearch {
    /// Hyperparameters.
    pub params: TpeParams,
}

impl TpeSearch {
    /// Create with custom hyperparameters.
    pub fn new(params: TpeParams) -> Self {
        TpeSearch { params }
    }
}

impl SearchAlgorithm for TpeSearch {
    fn suggest(
        &mut self,
        space: &ConfigSpace,
        history: &SearchHistory,
        rng: &mut StdRng,
    ) -> Configuration {
        let n = history.len();
        if n < self.params.n_init {
            return space.sample(rng);
        }
        let _span = em_obs::span!("tpe.suggest");
        // Split observations into good/bad by score quantile.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            history.trials()[b]
                .score
                .partial_cmp(&history.trials()[a].score)
                .unwrap()
        });
        let n_good = ((self.params.gamma * n as f64).ceil() as usize).clamp(1, n - 1);
        let good: Vec<&Configuration> = order[..n_good]
            .iter()
            .map(|&i| &history.trials()[i].config)
            .collect();
        let bad: Vec<&Configuration> = order[n_good..]
            .iter()
            .map(|&i| &history.trials()[i].config)
            .collect();
        // Sample candidates around good observations and rank by the
        // density ratio l(x)/g(x).
        let mut best: Option<(f64, Configuration)> = None;
        for _ in 0..self.params.n_candidates {
            let seed_conf = good[rng.random_range(0..good.len())];
            let candidate = perturb_around(space, seed_conf, rng);
            let score =
                log_density(space, &candidate, &good) - log_density(space, &candidate, &bad);
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, candidate));
            }
        }
        best.map_or_else(|| space.sample(rng), |(_, c)| c)
    }

    fn name(&self) -> &'static str {
        "tpe"
    }
}

/// Sample a candidate "near" a good configuration: numeric parameters get
/// truncated Gaussian jitter (20% of the domain width), categoricals resample
/// with probability 0.2, and conditional re-activation is repaired by the
/// space's neighbor machinery.
fn perturb_around(space: &ConfigSpace, base: &Configuration, rng: &mut StdRng) -> Configuration {
    use crate::config::ParamValue;
    let mut values = std::collections::HashMap::new();
    for p in space.params() {
        // Activation check against what we've assigned so far.
        let active = match &p.condition {
            None => true,
            Some(cond) => values
                .get(&cond.parent)
                .and_then(|v: &ParamValue| v.as_str().map(str::to_owned))
                .is_some_and(|v| cond.values.contains(&v)),
        };
        if !active {
            continue;
        }
        let v = match (base.get(&p.name), &p.domain) {
            (Some(ParamValue::Float(f)), Domain::Float { lo, hi, .. }) => {
                let width = (hi - lo) * 0.2;
                let jitter = gaussian(rng) * width;
                ParamValue::Float((f + jitter).clamp(*lo, *hi))
            }
            (Some(ParamValue::Int(i)), Domain::Int { lo, hi, .. }) => {
                let width = ((hi - lo) as f64 * 0.2).max(1.0);
                let jitter = (gaussian(rng) * width).round() as i64;
                ParamValue::Int((i + jitter).clamp(*lo, *hi))
            }
            (Some(ParamValue::Cat(s)), Domain::Categorical(choices)) => {
                if rng.random_range(0.0..1.0) < 0.2 {
                    ParamValue::Cat(choices[rng.random_range(0..choices.len())].clone())
                } else {
                    ParamValue::Cat(s.clone())
                }
            }
            // Parameter inactive in the base (or type mismatch): fresh draw.
            _ => sample_one(&p.domain, rng),
        };
        values.insert(p.name.clone(), v);
    }
    Configuration::from_map(values)
}

fn sample_one(domain: &Domain, rng: &mut StdRng) -> crate::config::ParamValue {
    use crate::config::ParamValue;
    match domain {
        Domain::Categorical(choices) => {
            ParamValue::Cat(choices[rng.random_range(0..choices.len())].clone())
        }
        Domain::Int { lo, hi, .. } => ParamValue::Int(if lo == hi {
            *lo
        } else {
            rng.random_range(*lo..=*hi)
        }),
        Domain::Float { lo, hi, .. } => ParamValue::Float(if lo >= hi {
            *lo
        } else {
            rng.random_range(*lo..*hi)
        }),
    }
}

/// Standard normal draw via Box-Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(1e-12..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Factorized log-density of `candidate` under the observation set `obs`:
/// Gaussian KDE per numeric dimension, Laplace-smoothed counts per
/// categorical dimension. Only dimensions active in the candidate count.
fn log_density(space: &ConfigSpace, candidate: &Configuration, obs: &[&Configuration]) -> f64 {
    use crate::config::ParamValue;
    let mut total = 0.0;
    for p in space.params() {
        let Some(cv) = candidate.get(&p.name) else {
            continue;
        };
        match (&p.domain, cv) {
            (Domain::Categorical(choices), ParamValue::Cat(s)) => {
                let k = choices.len() as f64;
                let count = obs
                    .iter()
                    .filter(|o| o.get_str(&p.name) == Some(s.as_str()))
                    .count() as f64;
                let active = obs.iter().filter(|o| o.contains(&p.name)).count() as f64;
                total += ((count + 1.0) / (active + k)).ln();
            }
            (
                Domain::Float { .. } | Domain::Int { .. },
                ParamValue::Float(_) | ParamValue::Int(_),
            ) => {
                let x = cv.as_float().unwrap();
                let values: Vec<f64> = obs.iter().filter_map(|o| o.get_float(&p.name)).collect();
                if values.is_empty() {
                    continue;
                }
                // Silverman-flavored bandwidth with a domain-scaled floor.
                let width = match &p.domain {
                    Domain::Float { lo: l, hi: h, .. } => h - l,
                    Domain::Int { lo: l, hi: h, .. } => (*h - *l) as f64,
                    Domain::Categorical(_) => unreachable!(),
                };
                let sd = em_ml::stats::variance(&values).sqrt();
                let bw = (sd * (values.len() as f64).powf(-0.2)).max(width * 0.05 + 1e-12);
                let mut dens = 0.0;
                for &v in &values {
                    let z = (x - v) / bw;
                    dens += (-0.5 * z * z).exp();
                }
                dens /= values.len() as f64 * bw * (2.0 * std::f64::consts::PI).sqrt();
                total += dens.max(1e-300).ln();
            }
            _ => {}
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_search, Budget};
    use crate::search::RandomSearch;

    fn space_1d() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.add(
            "x",
            Domain::Float {
                lo: 0.0,
                hi: 1.0,
                log: false,
            },
        );
        s
    }

    fn peak_objective(c: &Configuration) -> f64 {
        let x = c.get_float("x").unwrap();
        -(x - 0.8).abs()
    }

    #[test]
    fn tpe_concentrates_near_the_peak() {
        let space = space_1d();
        let h = run_search(
            &space,
            &mut TpeSearch::default(),
            &peak_objective,
            Budget::Evaluations(60),
            0,
        );
        // Later suggestions should cluster near 0.8.
        let late: Vec<f64> = h.trials()[40..]
            .iter()
            .map(|t| t.config.get_float("x").unwrap())
            .collect();
        let near = late.iter().filter(|&&x| (x - 0.8).abs() < 0.2).count();
        assert!(
            near > late.len() / 2,
            "only {near}/{} near the peak",
            late.len()
        );
    }

    #[test]
    fn tpe_beats_or_matches_random() {
        let space = space_1d();
        let budget = Budget::Evaluations(40);
        let mut wins = 0;
        for seed in 0..5 {
            let ht = run_search(
                &space,
                &mut TpeSearch::default(),
                &peak_objective,
                budget,
                seed,
            );
            let hr = run_search(&space, &mut RandomSearch, &peak_objective, budget, seed);
            if ht.best_score() >= hr.best_score() - 1e-9 {
                wins += 1;
            }
        }
        assert!(wins >= 3, "TPE won only {wins}/5 seeds");
    }

    #[test]
    fn tpe_handles_conditional_spaces() {
        let mut space = ConfigSpace::new();
        space.add("algo", Domain::Categorical(vec!["a".into(), "b".into()]));
        space.add_conditional(
            "a:x",
            Domain::Float {
                lo: 0.0,
                hi: 1.0,
                log: false,
            },
            "algo",
            ["a"],
        );
        let objective = |c: &Configuration| {
            if c.get_str("algo") == Some("a") {
                1.0 - (c.get_float("a:x").unwrap() - 0.5).abs()
            } else {
                0.1
            }
        };
        let h = run_search(
            &space,
            &mut TpeSearch::default(),
            &objective,
            Budget::Evaluations(50),
            1,
        );
        for t in h.trials() {
            space.validate(&t.config).unwrap();
        }
        // TPE should discover that algo=a dominates.
        assert_eq!(h.incumbent().unwrap().config.get_str("algo"), Some("a"));
        assert!(h.best_score() > 0.85);
    }
}
