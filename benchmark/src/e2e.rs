//! The untraced run: set-up time, warm-cache campaign throughput, CPU
//! time and peak memory, with every cell's output checked.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ccsim_campaign::{Campaign, CampaignOutcome, CampaignSpec, TraceCache};

use crate::check;
use crate::sys;
use crate::{median, Ctx, Metric, Tally, THREADS};

/// Fills an empty trace cache at `cache_dir` with every trace of the
/// spec through [`Campaign::acquire`]. Returns the wall seconds it took
/// and each workload's record count.
pub fn setup_once(
    spec: &CampaignSpec,
    cache_dir: &Path,
) -> Result<(f64, BTreeMap<String, u64>), String> {
    let _ = std::fs::remove_dir_all(cache_dir);
    let start = Instant::now();
    let cache = TraceCache::new(cache_dir)
        .map_err(|e| format!("creating cache {}: {e}", cache_dir.display()))?;
    let campaign = Campaign::new(spec.clone()).cache(cache);
    let mut records = BTreeMap::new();
    for workload in campaign.grid()?.workloads {
        let trace = campaign.acquire(&workload)?;
        records.insert(workload, trace.records());
    }
    Ok((start.elapsed().as_secs_f64(), records))
}

/// Σ (trace records × cells) over the grid: the cell-records one full
/// campaign run replays.
pub fn cell_records(spec: &CampaignSpec, records: &BTreeMap<String, u64>) -> Result<u64, String> {
    let grid = Campaign::new(spec.clone()).grid()?;
    Ok(grid.cells.iter().map(|c| records[&c.workload]).sum())
}

/// One warm-cache campaign run through the public entry point, with a
/// fresh journal and telemetry directory. Returns (wall s, CPU s, outcome).
pub fn warm_run(
    spec: &CampaignSpec,
    cache_dir: &Path,
    scratch: &Path,
) -> Result<(f64, f64, CampaignOutcome), String> {
    let journal = scratch.join("journal.jsonl");
    let obs = scratch.join("obs");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_dir_all(&obs);
    let cpu_start = sys::cpu_seconds();
    let start = Instant::now();
    let cache = TraceCache::new(cache_dir)
        .map_err(|e| format!("opening cache {}: {e}", cache_dir.display()))?;
    let outcome = Campaign::new(spec.clone())
        .threads(THREADS)
        .cache(cache)
        .journal(&journal)
        .obs_dir(&obs)
        .run()?;
    let wall = start.elapsed().as_secs_f64();
    let cpu = sys::cpu_seconds() - cpu_start;
    if outcome.cache_misses != 0 || outcome.cells_resumed != 0 {
        return Err(format!(
            "warm run was not warm: {} cache miss(es), {} resumed cell(s)",
            outcome.cache_misses, outcome.cells_resumed
        ));
    }
    Ok((wall, cpu, outcome))
}

/// Checks a run's per-cell digests against the first run of this process
/// and, at the default seed, against the committed digests. Counts every
/// cell as attempted and every disagreeing cell as failed.
pub fn check_run(
    ctx: &Ctx,
    digests: &BTreeMap<String, u64>,
    first: &BTreeMap<String, u64>,
    tally: &mut Tally,
) {
    tally.attempted += digests.len() as u64;
    let mut bad = check::mismatches(first, digests);
    if ctx.seed == check::DEFAULT_SEED && !ctx.bless {
        match &ctx.expected {
            Some(expected) => bad.extend(check::mismatches(expected, digests)),
            None => bad.extend(digests.keys().cloned()),
        }
    }
    bad.sort();
    bad.dedup();
    for key in &bad {
        eprintln!("output check failed: {key}");
    }
    tally.failed += bad.len() as u64;
}

/// Re-simulates one cell per band through the independent per-cell path
/// ([`ccsim_campaign::AcquiredTrace::simulate_cell`]) and requires the
/// result the campaign reported for it.
pub fn cross_check(
    ctx: &Ctx,
    cache_dir: &Path,
    outcome: &CampaignOutcome,
    tally: &mut Tally,
) -> Result<(), String> {
    let cache = TraceCache::new(cache_dir)
        .map_err(|e| format!("opening cache {}: {e}", cache_dir.display()))?;
    let campaign = Campaign::new(ctx.spec.clone()).cache(cache);
    let grid = campaign.grid()?;
    for (band, workload) in grid.workloads.iter().enumerate() {
        let cells: Vec<_> = grid.cells_of(workload).collect();
        let cell = cells[(ctx.seed as usize).wrapping_add(band) % cells.len()];
        let trace = campaign.acquire(workload)?;
        let result = trace.simulate_cell(&grid.configs[cell.config_index].1, cell.policy)?;
        let reported = outcome
            .report
            .cells
            .iter()
            .find(|c| {
                c.workload == cell.workload
                    && c.config == grid.configs[cell.config_index].0
                    && c.policy == cell.policy.name()
            })
            .map(|c| &c.result);
        tally.attempted += 1;
        if reported != Some(&result) {
            eprintln!("per-cell re-simulation disagrees with the campaign: {}", cell.id);
            tally.failed += 1;
        }
    }
    Ok(())
}

/// The untraced run. Returns the end-to-end metrics.
pub fn run(ctx: &Ctx, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let cache_dir = ctx.dir.join("cache");

    // Set-up: several fills of an empty cache; the last one stays as the
    // warm cache of the measured runs.
    let setup_budget = ctx.seconds * 0.4;
    let setup_start = Instant::now();
    let mut setups = Vec::new();
    let mut records = BTreeMap::new();
    while setups.len() < 3
        || (setups.len() < 7 && setup_start.elapsed().as_secs_f64() < setup_budget)
    {
        let (secs, recs) = setup_once(&ctx.spec, &cache_dir)?;
        setups.push(secs);
        records = recs;
    }
    let cell_records = cell_records(&ctx.spec, &records)?;
    let setup_rss = sys::peak_rss_mib();

    // Measured warm runs: at least two, then until `seconds` have passed.
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut first: Option<BTreeMap<String, u64>> = None;
    let mut last = None;
    let measure_start = Instant::now();
    while walls.len() < 2 || measure_start.elapsed().as_secs_f64() < ctx.seconds {
        let (wall, cpu, outcome) = warm_run(&ctx.spec, &cache_dir, &ctx.dir)?;
        walls.push(wall);
        cpus.push(cpu);
        let digests = check::report_digests(&outcome.report);
        let reference = first.get_or_insert_with(|| digests.clone());
        check_run(ctx, &digests, reference, tally);
        last = Some(outcome);
    }
    let last = last.expect("at least one measured run");
    cross_check(ctx, &cache_dir, &last, tally)?;
    if ctx.bless && tally.failed == 0 {
        let path = check::bless(ctx.workload.name(), &check::report_digests(&last.report))?;
        println!("wrote {}", path.display());
    }

    let rates: Vec<f64> = walls.iter().map(|w| cell_records as f64 / w).collect();
    println!(
        "setup: {} fill(s) of an empty trace cache, s = {} (peak RSS {setup_rss:.1} MiB)",
        setups.len(),
        fmt_list(&setups)
    );
    println!(
        "runs: {} warm campaign run(s) of {cell_records} cell-records on {THREADS} threads, \
         wall s = {}, cpu s = {}",
        walls.len(),
        fmt_list(&walls),
        fmt_list(&cpus)
    );
    Ok(vec![
        ("cell_records_per_s".into(), median(&rates), "records/s", true),
        ("setup_s".into(), median(&setups), "s", true),
        ("cpu_s".into(), median(&cpus), "s", true),
        ("peak_rss_mib".into(), sys::peak_rss_mib(), "MiB", true),
    ])
}

fn fmt_list(values: &[f64]) -> String {
    values.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(" ")
}
