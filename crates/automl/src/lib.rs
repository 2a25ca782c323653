//! # em-automl — AutoML search engine
//!
//! Replaces auto-sklearn for the AutoML-EM reproduction: hierarchical
//! configuration spaces with conditional parameters (paper Figs. 4/5),
//! deterministic seeded sampling, and three search algorithms — random
//! search, SMAC-style SMBO with a random-forest surrogate and expected
//! improvement, and TPE — running under evaluation-count or wall-clock
//! budgets (paper §III-A).
//!
//! ```
//! use em_automl::{Budget, ConfigSpace, Domain, RandomSearch, run_search};
//!
//! let mut space = ConfigSpace::new();
//! space.add("x", Domain::Float { lo: 0.0, hi: 1.0, log: false });
//! let objective = |c: &em_automl::Configuration| -(c.get_float("x").unwrap() - 0.3f64).abs();
//! let history = run_search(&space, &mut RandomSearch, &objective, Budget::Evaluations(50), 0);
//! assert!((history.incumbent().unwrap().config.get_float("x").unwrap() - 0.3).abs() < 0.2);
//! ```

#![forbid(unsafe_code)]

mod config;
mod runner;
pub mod search;
mod space;

pub use config::{Configuration, ParamValue};
pub use runner::{
    run_search, run_search_async, run_search_with_initial, Budget, SearchAlgorithm, SearchHistory,
    Trial,
};
pub use search::{RandomSearch, SmacParams, SmacSearch, TpeParams, TpeSearch};
pub use space::{Condition, ConfigSpace, Domain, Param};
