//! `em-ledger`: the repository's end-to-end benchmark.
//!
//! One command runs one workload through the public entry points with
//! tracing off, checks the outputs, and prints every end-to-end metric;
//! `--trace 1` instead replays the workload layer by layer under em-obs
//! spans and prints the per-layer metrics. See `README.md` for the
//! workloads, the metrics and the layer → metric map.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload serve_store --seed 1 --seconds 10 --trace 0
//! ```

mod churn;
mod layers;
mod report;
mod serve;
mod stats;
mod train;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["train_abt", "serve_store", "index_churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; known: {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The em-rt pool width a workload runs at; `None` keeps em-rt's own
/// choice (`EM_THREADS`, else `available_parallelism`).
///
/// `serve_store` and `index_churn` each drive one stream through one
/// coordinating thread. On a shared 2-core host a second pool worker
/// made them depend on both cores staying free at once: the churn
/// probe's pool hand-off alone put a scheduler wake-up into every probe,
/// and in back-to-back five-seed sets the run-to-run spread of churn's
/// `ops_per_s` and `p50_ms` fell from ~25% to ~10% at width 1.
/// `train_abt` fits whole forests per task and keeps the machine's width.
fn pool_width(workload: &str) -> Option<usize> {
    match workload {
        "serve_store" | "index_churn" => Some(1),
        _ => None,
    }
}

/// Host facts recorded with every result. Refuses a pool wider than the
/// machine: thread-dependent numbers from an oversubscribed pool measure
/// the scheduler, not the code.
fn host_line() -> Result<String, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = em_rt::threads();
    let env = std::env::var("EM_THREADS").unwrap_or_else(|_| "unset".into());
    if pool > cores {
        return Err(format!(
            "em-rt pool width {pool} (EM_THREADS={env}) exceeds available_parallelism {cores}; \
             refusing to measure an oversubscribed pool"
        ));
    }
    Ok(format!(
        "host: available_parallelism={cores} em_rt_threads={pool} EM_THREADS={env} commit={}",
        git_commit(Path::new("."))
    ))
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` for an exported tree.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(git.join(reference)) {
        return id.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// RunDir space for files a run writes (stores, WALs, artifacts, trace),
/// inside the working directory and removed when the run ends.
pub struct RunDir(PathBuf);

impl RunDir {
    fn new(workload: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".ledger_tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let run_dir = RunDir::new(&args.workload)?;
    match (args.workload.as_str(), args.trace) {
        ("train_abt", false) => train::run(&train::Config::full(), args.seconds, &run_dir),
        ("train_abt", true) => train::traced(&train::Config::full(), &run_dir),
        ("serve_store", false) => {
            serve::run(&serve::Config::full(), args.seed, args.seconds, &run_dir)
        }
        ("serve_store", true) => {
            serve::traced(&serve::Config::full(), args.seed, args.seconds, &run_dir)
        }
        ("index_churn", false) => {
            churn::run(&churn::Config::full(), args.seed, args.seconds, &run_dir)
        }
        ("index_churn", true) => {
            churn::traced(&churn::Config::full(), args.seed, args.seconds, &run_dir)
        }
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("em-ledger: {e}");
            eprintln!(
                "usage: em-ledger --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(width) = pool_width(&args.workload) {
        // Before the pool's first use, so it is built at this width.
        em_rt::set_threads(width);
    }
    let host = match host_line() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("em-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    // End-to-end numbers are measured with tracing off whatever EM_TRACE
    // says; traced runs open their own trace window.
    em_obs::set_mode(em_obs::TraceMode::Off);
    println!("{host}");
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("em-ledger: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let (summary, line, ok) = outcome.finish();
    print!("{summary}");
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cli_accepts_the_documented_flags_and_rejects_the_rest() {
        let a = args(&[
            "--workload",
            "index_churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("index_churn", 7, 10.0, true)
        );
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "train_abt", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "train_abt", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&[
            "--workload",
            "train_abt",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    fn passes(workload: &str, out: Result<Outcome, String>) {
        let (summary, line, ok) = out.unwrap_or_else(|e| panic!("{workload}: {e}")).finish();
        assert!(ok, "{workload}:\n{summary}{line}");
    }

    /// Every workload, untraced and traced, at tiny scale: `finish` fails
    /// a run that misses a metric of its catalogue, and a traced run whose
    /// replay is not bit-identical to the entry point. One test, so the
    /// traced runs never share the process-wide trace sink.
    #[test]
    fn every_workload_reports_its_metrics_and_replays_bit_identically() {
        let run_dir = |name: &str| RunDir::new(name).unwrap();
        let (t, s, c) = (
            train::Config::tiny(),
            serve::Config::tiny(),
            churn::Config::tiny(),
        );
        passes("train_abt", train::run(&t, 0.01, &run_dir("t-train")));
        passes(
            "train_abt traced",
            train::traced(&t, &run_dir("t-train-traced")),
        );
        passes("serve_store", serve::run(&s, 5, 0.2, &run_dir("t-serve")));
        passes(
            "serve_store traced",
            serve::traced(&s, 5, 0.2, &run_dir("t-serve-traced")),
        );
        passes("index_churn", churn::run(&c, 5, 0.2, &run_dir("t-churn")));
        passes(
            "index_churn traced",
            churn::traced(&c, 5, 0.2, &run_dir("t-churn-traced")),
        );
    }

    #[test]
    fn commit_is_unknown_outside_a_git_checkout() {
        let dir = std::env::temp_dir().join(format!("em-ledger-git-{}", std::process::id()));
        std::fs::create_dir_all(dir.join(".git/refs/heads")).unwrap();
        assert_eq!(git_commit(&dir.join("missing")), "unknown");
        std::fs::write(dir.join(".git/HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join(".git/packed-refs"), "abc123 refs/heads/main\n").unwrap();
        assert_eq!(git_commit(&dir), "abc123");
        std::fs::write(dir.join(".git/refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_commit(&dir), "def456");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
