//! The ccsim benchmark: campaign throughput end to end, and per-layer
//! host costs from a separate traced run. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <gap_full|fig3_quick|champsim_stores> --seed <n> \
//!     --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod e2e;
mod layers;
mod spans;
mod sys;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ccsim_campaign::CampaignSpec;

use workload::Workload;

/// Replay threads of every campaign run.
pub const THREADS: usize = 2;

/// Root of the benchmark's scratch files, relative to the working
/// directory (the repository root).
const WORK_ROOT: &str = ".bench_work";

/// Everything one benchmark run is parameterised by.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// Measured-phase length in seconds.
    pub seconds: f64,
    /// This run's scratch directory (removed when the run ends).
    pub dir: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_path: PathBuf,
    pub spec: CampaignSpec,
    /// Committed per-cell digests, loaded at the default seed.
    pub expected: Option<BTreeMap<String, u64>>,
    /// Write the digests instead of checking them.
    pub bless: bool,
}

/// A reported metric: name, value, unit, and whether the workload
/// exercises what it measures (`false` prints as n/a and reports 0).
pub type Metric = (String, f64, &'static str, bool);

/// Cells attempted and failed (errored or output check failed).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-th percentile of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bless) =
        (None, check::DEFAULT_SEED, 20, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--bless" => bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if bless && (trace || seed != check::DEFAULT_SEED) {
        return Err(format!(
            "--bless needs --trace 0 and the default seed {}",
            check::DEFAULT_SEED
        ));
    }
    Ok(Args { workload, seed, seconds, trace, bless })
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let name = args.workload.name();
    let dir = Path::new(WORK_ROOT).join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let _scratch = ScratchDir(dir.clone());
    let spec = args.workload.prepare(args.seed, &dir)?;
    let expected = if args.seed == check::DEFAULT_SEED && !args.bless {
        Some(check::load_expected(name)?)
    } else {
        None
    };
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds as f64,
        spans_path: Path::new(WORK_ROOT).join(format!("spans-{name}-seed{}.jsonl", args.seed)),
        dir,
        spec,
        expected,
        bless: args.bless,
    };
    let mut tally = Tally::default();
    let metrics =
        if args.trace { layers::run(&ctx, &mut tally)? } else { e2e::run(&ctx, &mut tally)? };
    Ok((tally, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "ccsim benchmark: workload {} seed {} seconds {} trace {} threads {THREADS} \
         (available parallelism {parallelism})",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let (tally, metrics) = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, unit, applies) in &metrics {
        if *applies {
            println!("{name:<36} {value:>16.4} {unit}");
        } else {
            println!("{name:<36} {:>16} {unit}", "n/a");
        }
    }
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{:<36} {error_rate:>16.4} ratio ({} failed / {} attempted)",
        "cell_error_rate", tally.failed, tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
