//! The campaign engine: grid expansion, cached trace acquisition,
//! pipelined band execution and journaled checkpointing.

use std::collections::VecDeque;
use std::fs::File;
use std::io::BufReader;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use ccsim_core::experiment::run_jobs;
use ccsim_core::{
    simulate, simulate_grid, simulate_grid_stream, simulate_stream, SimConfig, SimResult,
};
use ccsim_ingest::{ingest_file, IngestOptions};
use ccsim_policies::PolicyKind;
use ccsim_trace::{read_trace_header, Trace, TraceReader};
use ccsim_workloads::{build_workload_seeded, SuiteScale};

use crate::cache::TraceCache;
use crate::journal::Journal;
use crate::report::{CampaignReport, RawCell};
use crate::spec::CampaignSpec;

/// The ingest options every `trace:` selector resolves with: strict
/// decoding, auto-detected format, the full selector as the workload
/// name (so cells, journals and reports all key consistently).
fn ingest_options_for(selector: &str) -> IngestOptions {
    IngestOptions { format: None, lossy: false, name: Some(selector.to_owned()) }
}

/// The acquired trace of one workload, ready to simulate cells against.
///
/// Synthetic workloads are generated (or cache-read) into memory — they
/// are bounded by construction. External `trace:` selectors stay **on
/// disk**: every replay job streams the converted `CCTR` file, so a
/// multi-gigabyte ingested trace never materializes no matter how many
/// (policy × config) cells replay it.
///
/// This is the workload-band granularity the campaign runner and the
/// distributed worker (`ccsim-dist`) build on: acquire a workload once
/// via [`Campaign::acquire`], then run all its pending (config × policy)
/// cells with [`AcquiredTrace::simulate_cells`] — each cell is still
/// journaled individually, so kill/resume and lease semantics are per
/// cell. [`AcquiredTrace::simulate_cell`] is the independent per-cell
/// replay that cross-checks the grid driver.
///
/// The internals stay private: one-shot conversions delete their file
/// when the handle drops, a contract callers must not be able to point
/// at arbitrary paths.
#[derive(Debug)]
pub struct AcquiredTrace(Acquired);

#[derive(Debug)]
enum Acquired {
    /// Resident trace, replayed from memory.
    InMemory(Trace),
    /// On-disk `CCTR` file, streamed once per replay job. `temp` marks a
    /// one-shot conversion (no cache attached) deleted when the handle
    /// drops.
    Streamed { path: PathBuf, records: u64, temp: bool },
}

impl AcquiredTrace {
    /// Memory-access records per replay (for progress lines).
    pub fn records(&self) -> u64 {
        match &self.0 {
            Acquired::InMemory(trace) => trace.len() as u64,
            Acquired::Streamed { records, .. } => *records,
        }
    }

    /// `true` when cells stream from disk instead of replaying memory.
    pub fn is_streamed(&self) -> bool {
        matches!(self.0, Acquired::Streamed { .. })
    }

    /// Runs one grid cell over this trace with the independent per-cell
    /// replay ([`simulate`] / [`simulate_stream`]), outside the lockstep
    /// grid driver.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O or decode failures of streamed traces.
    pub fn simulate_cell(
        &self,
        config: &SimConfig,
        policy: PolicyKind,
    ) -> Result<SimResult, String> {
        match &self.0 {
            Acquired::InMemory(trace) => Ok(simulate(trace, config, policy)),
            Acquired::Streamed { path, .. } => simulate_stream(open_cctr(path)?, config, policy)
                .map_err(|e| format!("streaming trace {}: {e}", path.display())),
        }
    }

    /// Runs a whole band of grid cells over this trace and returns the
    /// results in `cells` order, bit-identical to
    /// [`AcquiredTrace::simulate_cell`] per cell (each cell's engine is
    /// independent, so the job split never affects results).
    ///
    /// The band is split into jobs, each one [`ccsim_core::GridReplay`]
    /// pass, claimed by `threads` workers:
    /// - an **in-memory** trace gives one job per cell, so no worker
    ///   idles at the tail of an uneven split;
    /// - a **streamed** trace gives `min(threads, cells)` lockstep
    ///   shards, so a multi-gigabyte file is read and decoded once per
    ///   shard instead of once per cell.
    ///
    /// Jobs take cells in descending LLC capacity (the dominant cost
    /// proxy: a scaled-up LLC means proportionally more tag state and
    /// victim work), so the costliest cells start first and shards are
    /// dealt round-robin from that order. This is the same split
    /// [`Campaign::run`] pipelines across bands.
    ///
    /// `chunk_records` is the lockstep chunk length per job; `0`
    /// autotunes it against the job's combined tag-state footprint
    /// ([`ccsim_core::autotune_chunk_records`]).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O or decode failures of streamed traces
    /// (the whole band fails; nothing partial is returned).
    pub fn simulate_cells(
        &self,
        cells: &[(SimConfig, PolicyKind)],
        threads: usize,
        chunk_records: usize,
    ) -> Result<Vec<SimResult>, String> {
        let jobs = self.band_jobs(cells, threads, false);
        let outs =
            run_jobs(jobs.len(), threads.max(1), |j| self.run_job(cells, &jobs[j], chunk_records));
        Ok(scatter(&jobs, outs.into_iter().collect::<Result<Vec<_>, _>>()?))
    }

    /// Trace passes [`AcquiredTrace::simulate_cells`] makes for a band
    /// of `cells` at the given parallelism (for progress lines): one per
    /// cell in memory, one per lockstep shard when streamed.
    pub fn passes_for(&self, cells: usize, threads: usize) -> usize {
        self.job_count(cells, threads, false)
    }

    /// How many jobs a band of `cells` splits into; `per_cell` forces one
    /// job per cell for streamed traces too (`ccsim campaign --per-cell`).
    fn job_count(&self, cells: usize, threads: usize, per_cell: bool) -> usize {
        if self.is_streamed() && !per_cell {
            threads.max(1).min(cells)
        } else {
            cells
        }
    }

    /// The band's jobs as cell indices: cells in descending LLC capacity,
    /// dealt round-robin across [`AcquiredTrace::job_count`] jobs (with
    /// one job per cell, job order is simply that cost order).
    fn band_jobs(
        &self,
        cells: &[(SimConfig, PolicyKind)],
        threads: usize,
        per_cell: bool,
    ) -> Vec<Vec<usize>> {
        let jobs = self.job_count(cells.len(), threads, per_cell);
        let mut order: Vec<usize> = (0..cells.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(cells[i].0.llc.capacity_bytes()));
        (0..jobs).map(|j| order[j..].iter().step_by(jobs).copied().collect()).collect()
    }

    /// Replays one job (the `job` cells of `cells`) in one lockstep pass;
    /// results in `job` order.
    fn run_job(
        &self,
        cells: &[(SimConfig, PolicyKind)],
        job: &[usize],
        chunk_records: usize,
    ) -> Result<Vec<SimResult>, String> {
        let shard: Vec<(SimConfig, PolicyKind)> = job.iter().map(|&i| cells[i]).collect();
        match &self.0 {
            Acquired::InMemory(trace) => Ok(simulate_grid(trace, &shard, chunk_records)),
            Acquired::Streamed { path, .. } => {
                simulate_grid_stream(open_cctr(path)?, &shard, chunk_records)
                    .map_err(|e| format!("streaming trace {}: {e}", path.display()))
            }
        }
    }
}

/// Puts per-job results back into cell order.
fn scatter(jobs: &[Vec<usize>], outs: Vec<Vec<SimResult>>) -> Vec<SimResult> {
    let mut results: Vec<Option<SimResult>> = vec![None; jobs.iter().map(Vec::len).sum()];
    for (job, out) in jobs.iter().zip(outs) {
        for (&cell, result) in job.iter().zip(out) {
            results[cell] = Some(result);
        }
    }
    results.into_iter().map(|r| r.expect("every cell lands in exactly one job")).collect()
}

/// Opens a `CCTR` file for streaming.
fn open_cctr(path: &Path) -> Result<TraceReader<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("opening trace {}: {e}", path.display()))?;
    TraceReader::new(BufReader::new(file))
        .map_err(|e| format!("decoding trace {}: {e}", path.display()))
}

impl Drop for AcquiredTrace {
    fn drop(&mut self) {
        if let Acquired::Streamed { path, temp: true, .. } = &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Probes the header of a `CCTR` file for its record count.
fn cctr_record_count(path: &Path) -> Result<u64, String> {
    let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    read_trace_header(BufReader::new(file))
        .map(|h| h.count)
        .map_err(|e| format!("reading header of {}: {e}", path.display()))
}

/// Acquires the trace for one workload selector: external `trace:` files
/// go through the ingest pipeline onto disk (the trace cache when one is
/// attached, a temporary file otherwise) and are streamed per cell;
/// synthetic workloads come from the per-name builders (cached when a
/// cache is attached).
fn acquire_trace(
    cache: Option<&TraceCache>,
    workload: &str,
    scale: SuiteScale,
    seed: u64,
) -> Result<AcquiredTrace, String> {
    if let Some(source) = workload.strip_prefix("trace:") {
        let opts = ingest_options_for(workload);
        let (path, temp) = match cache {
            Some(cache) => (cache.ensure_ingested(Path::new(source), &opts)?, false),
            None => {
                // One-shot conversion: still streamed (bounded memory),
                // just not kept. pid + a process-wide counter keep the
                // name unique even across concurrent campaigns in one
                // process replaying the same selector.
                static TEMP_SEQ: std::sync::atomic::AtomicU64 =
                    std::sync::atomic::AtomicU64::new(0);
                let tmp = std::env::temp_dir().join(format!(
                    "ccsim-stream-{}-{}-{:016x}.cctr",
                    std::process::id(),
                    TEMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                    crate::spec::fnv1a64(workload.as_bytes()),
                ));
                ingest_file(Path::new(source), &tmp, &opts)
                    .map_err(|e| format!("ingesting {source}: {e}"))?;
                (tmp, true)
            }
        };
        let records = cctr_record_count(&path)?;
        return Ok(AcquiredTrace(Acquired::Streamed { path, records, temp }));
    }
    let trace = match cache {
        Some(cache) => cache.get_or_generate(workload, scale, seed, || {
            build_workload_seeded(workload, scale, seed)
        })?,
        None => build_workload_seeded(workload, scale, seed)?,
    };
    Ok(AcquiredTrace(Acquired::InMemory(trace)))
}

/// Accounts one simulated workload band in the global metric catalog:
/// band/cell/record counters, the band wall-clock histogram, and the
/// per-cell wall estimate (band ÷ cells). Shared by [`Campaign::run`]
/// and the distributed worker loop so solo and dist runs manifest the
/// same metrics.
pub fn record_band_metrics(cells: u64, records_simulated: u64, band_ns: u64) {
    let m = ccsim_obs::metrics();
    m.campaign_bands.inc();
    m.campaign_cells.add(cells);
    m.campaign_records.add(records_simulated);
    m.campaign_band_sim_ns.record(band_ns);
    if let Some(per_cell) = band_ns.checked_div(cells) {
        m.campaign_cell_sim_ns.record(per_cell);
    }
}

/// A configured, runnable campaign.
///
/// Traces are acquired per workload (via the [`TraceCache`] when one is
/// attached, regenerated otherwise) on the calling thread, in grid
/// order, while worker threads replay the band before it: at most two
/// traces are alive at a time, and each is dropped as soon as its band
/// is committed. Every band is split into replay jobs as in
/// [`AcquiredTrace::simulate_cells`] (one per cell in memory, one per
/// lockstep shard when streamed); [`Campaign::per_cell`] gives streamed
/// bands one job per cell too. Bands are journaled in grid order, so
/// reports and journals are byte-identical at any thread count and in
/// either mode.
///
/// # Examples
///
/// ```no_run
/// use ccsim_campaign::{Campaign, CampaignSpec};
///
/// let spec = CampaignSpec::from_json_str(
///     r#"{"name": "demo", "workloads": ["xsbench.small"],
///         "policies": ["lru", "srrip"], "base_config": "tiny"}"#,
/// ).unwrap();
/// let outcome = Campaign::new(spec).threads(4).run().unwrap();
/// println!("{}", outcome.report.cells_table().render());
/// ```
#[derive(Debug)]
pub struct Campaign {
    spec: CampaignSpec,
    threads: usize,
    cache: Option<TraceCache>,
    journal_path: Option<PathBuf>,
    obs_dir: Option<PathBuf>,
    leases: std::collections::BTreeMap<String, LeaseView>,
    extra_completed: std::collections::BTreeSet<String>,
    verbose: bool,
    per_cell: bool,
    chunk_records: usize,
}

/// A cell lease as seen by [`Campaign::plan`] — who holds it and whether
/// the hold has outlived its TTL. Produced by `ccsim-dist`'s lease
/// scanner and overlaid on dry-run predictions via [`Campaign::leases`];
/// the campaign crate itself never reads or writes lease files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseView {
    /// Worker id holding the lease.
    pub worker: String,
    /// Lease epoch (bumped on every reclaim of the cell).
    pub epoch: u64,
    /// The lease outlived its TTL: the holder is presumed dead and the
    /// cell reclaimable.
    pub stale: bool,
}

/// The predicted fate of one grid cell, as reported by
/// [`Campaign::plan`] (the engine behind `ccsim campaign --dry-run`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Already completed in the journal — a run replays it for free.
    Journaled,
    /// Pending, and its workload's trace is a valid cache entry — a run
    /// simulates it without generating or ingesting anything.
    CachedTrace,
    /// Pending, and its workload's trace must first be generated (or
    /// ingested, for `trace:` selectors).
    NeedsTrace,
    /// A `trace:` selector whose source file does not exist — the run
    /// would fail at this workload.
    MissingSource,
    /// Claimed by a live distributed worker (see [`PlanCell::lease`]) —
    /// that worker is expected to complete it.
    Leased,
    /// Claimed, but the lease outlived its TTL — the holder is presumed
    /// crashed and any worker may reclaim the cell.
    StaleLease,
}

impl CellStatus {
    /// Stable display label.
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Journaled => "journaled",
            CellStatus::CachedTrace => "cached-trace",
            CellStatus::NeedsTrace => "needs-trace",
            CellStatus::MissingSource => "missing-source!",
            CellStatus::Leased => "leased",
            CellStatus::StaleLease => "stale-lease",
        }
    }
}

/// One grid cell of a [`CampaignPlan`].
#[derive(Debug, Clone)]
pub struct PlanCell {
    /// Canonical workload selector.
    pub workload: String,
    /// Config-variant label (`llc_x<scale>`).
    pub config: String,
    /// Policy name.
    pub policy: String,
    /// What a run would do with this cell.
    pub status: CellStatus,
    /// The live or stale lease on this cell, when a lease overlay was
    /// provided ([`Campaign::leases`]) and the cell is not journaled.
    pub lease: Option<LeaseView>,
}

/// The resolved grid of a campaign, with per-cell predictions — what
/// `--dry-run` prints so a big spec can be inspected before committing
/// hours of simulation. Computing a plan simulates nothing and writes
/// nothing (journals are peeked read-only; caches are only probed).
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Every grid cell in spec order (workload-major, config-middle,
    /// policy-minor).
    pub cells: Vec<PlanCell>,
}

impl CampaignPlan {
    /// Cell count with each [`CellStatus`], in enum order:
    /// `(journaled, cached_trace, needs_trace, missing_source, leased,
    /// stale_lease)`.
    pub fn counts(&self) -> (usize, usize, usize, usize, usize, usize) {
        let of = |s: CellStatus| self.cells.iter().filter(|c| c.status == s).count();
        (
            of(CellStatus::Journaled),
            of(CellStatus::CachedTrace),
            of(CellStatus::NeedsTrace),
            of(CellStatus::MissingSource),
            of(CellStatus::Leased),
            of(CellStatus::StaleLease),
        )
    }

    /// The plan as a printable table, one row per cell. Leased cells name
    /// their holder: `leased(worker-a)` / `stale-lease(worker-a)`.
    pub fn table(&self) -> ccsim_core::experiment::Table {
        let mut t = ccsim_core::experiment::Table::new(
            ["workload", "config", "policy", "status"].iter().map(|s| (*s).to_owned()).collect(),
        );
        for c in &self.cells {
            let status = match (&c.status, &c.lease) {
                (CellStatus::Leased | CellStatus::StaleLease, Some(l)) => {
                    format!("{}({})", c.status.name(), l.worker)
                }
                _ => c.status.name().to_owned(),
            };
            t.row(vec![c.workload.clone(), c.config.clone(), c.policy.clone(), status]);
        }
        t
    }
}

/// One cell of a resolved campaign grid, in spec order — the unit of
/// work a distributed worker claims, simulates and journals.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Canonical workload selector.
    pub workload: String,
    /// Index into [`CampaignGrid::configs`].
    pub config_index: usize,
    /// LLC capacity multiplier of the config variant.
    pub llc_scale: u32,
    /// Policy of this cell.
    pub policy: PolicyKind,
    /// Journal/lease identity: `<workload>|<config>|<policy>`.
    pub id: String,
}

/// The fully resolved grid of a campaign: expanded workloads, config
/// variants and every cell in spec order (workload-major, config-middle,
/// policy-minor) — the order reports render in.
#[derive(Debug, Clone)]
pub struct CampaignGrid {
    /// Expanded workload selectors, in declaration order.
    pub workloads: Vec<String>,
    /// `(label, config)` variants, one per LLC scale.
    pub configs: Vec<(String, SimConfig)>,
    /// Every grid cell, in spec order.
    pub cells: Vec<GridCell>,
}

impl CampaignGrid {
    /// The cells of `workload`, in grid order.
    pub fn cells_of<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a GridCell> + 'a {
        self.cells.iter().filter(move |c| c.workload == workload)
    }
}

/// What a campaign run produced, beyond the report itself.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The deterministic report.
    pub report: CampaignReport,
    /// Total grid cells.
    pub cells_total: usize,
    /// Cells replayed from the journal instead of simulated.
    pub cells_resumed: usize,
    /// Trace-cache reads served from disk (0 without a cache).
    pub cache_hits: u64,
    /// Trace-cache misses that triggered generation (0 without a cache).
    pub cache_misses: u64,
}

impl Campaign {
    /// Wraps a spec with default execution settings: one worker thread,
    /// no trace cache, no journal, quiet.
    pub fn new(spec: CampaignSpec) -> Campaign {
        Campaign {
            spec,
            threads: 1,
            cache: None,
            journal_path: None,
            obs_dir: None,
            leases: Default::default(),
            extra_completed: Default::default(),
            verbose: false,
            per_cell: false,
            chunk_records: 0,
        }
    }

    /// The spec this campaign will run.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Campaign {
        self.threads = threads.max(1);
        self
    }

    /// Attaches an on-disk trace cache.
    pub fn cache(mut self, cache: TraceCache) -> Campaign {
        self.cache = Some(cache);
        self
    }

    /// Attaches a checkpoint journal at `path`; an existing journal for
    /// the same spec is resumed.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.journal_path = Some(path.into());
        self
    }

    /// Writes run telemetry into `dir`: a `run.obs.jsonl` event log and
    /// an end-of-run `manifest.json` (schema
    /// [`ccsim_obs::OBS_SCHEMA_VERSION`]), the same documents
    /// distributed workers publish per worker into the shared dir.
    pub fn obs_dir(mut self, dir: impl Into<PathBuf>) -> Campaign {
        self.obs_dir = Some(dir.into());
        self
    }

    /// Enables per-workload progress lines on stderr.
    pub fn verbose(mut self, verbose: bool) -> Campaign {
        self.verbose = verbose;
        self
    }

    /// Replays each pending cell with its own pass over the trace
    /// (`ccsim campaign --per-cell`) instead of one pass per lockstep
    /// shard. Only streamed bands change shape (in-memory bands already
    /// run one job per cell); reports are bit-identical either way.
    pub fn per_cell(mut self, per_cell: bool) -> Campaign {
        self.per_cell = per_cell;
        self
    }

    /// Fixes the lockstep chunk length of the one-pass grid driver
    /// (`ccsim campaign --chunk-records`). `0` — the default — autotunes
    /// it per band against the combined engines' tag-state footprint
    /// ([`ccsim_core::autotune_chunk_records`]). Chunking never affects
    /// report bytes, only wall-clock.
    pub fn chunk_records(mut self, chunk_records: usize) -> Campaign {
        self.chunk_records = chunk_records;
        self
    }

    /// Overlays live lease state (cell id → [`LeaseView`]) onto
    /// [`Campaign::plan`] predictions, so a dry run against a shared
    /// distributed-campaign directory reports claimed cells as
    /// `leased(<worker>)` / `stale-lease(<worker>)` instead of plainly
    /// pending. Ignored by [`Campaign::run`].
    pub fn leases(mut self, leases: std::collections::BTreeMap<String, LeaseView>) -> Campaign {
        self.leases = leases;
        self
    }

    /// Marks additional cell ids as already completed for
    /// [`Campaign::plan`] — used by distributed dry runs, where the
    /// completed set comes from merging every worker's journal segment
    /// ([`crate::journal::merge_dir`]) rather than from one journal file.
    /// Ignored by [`Campaign::run`] (which needs results, not just ids).
    pub fn mark_completed(mut self, cells: impl IntoIterator<Item = String>) -> Campaign {
        self.extra_completed.extend(cells);
        self
    }

    /// Predicts what [`Campaign::run`] would do, cell by cell, without
    /// simulating, generating or writing anything: which cells the
    /// journal already holds, which workload traces are valid cache
    /// entries, and which `trace:` sources are missing outright.
    ///
    /// # Errors
    ///
    /// Returns a message on invalid workload selectors.
    pub fn plan(&self) -> Result<CampaignPlan, String> {
        let workloads = self.spec.expand_workloads()?;
        let configs = self.spec.configs();
        let journaled = match &self.journal_path {
            Some(path) => Journal::peek_completed(path, &self.spec.name, &self.spec.digest()),
            None => Default::default(),
        };
        let mut cells = Vec::new();
        for workload in &workloads {
            let workload_status = self.plan_workload_status(workload);
            for (label, _) in &configs {
                for policy in &self.spec.policies {
                    let id = format!("{workload}|{label}|{}", policy.name());
                    let mut lease = None;
                    let status =
                        if journaled.contains_key(&id) || self.extra_completed.contains(&id) {
                            CellStatus::Journaled
                        } else if workload_status == CellStatus::MissingSource {
                            // A lease can't fix a missing trace: source —
                            // every (re)claim of this cell will fail at
                            // acquisition, so the operator warning must
                            // not be masked by claim state.
                            lease = self.leases.get(&id).cloned();
                            CellStatus::MissingSource
                        } else if let Some(l) = self.leases.get(&id) {
                            lease = Some(l.clone());
                            if l.stale {
                                CellStatus::StaleLease
                            } else {
                                CellStatus::Leased
                            }
                        } else {
                            workload_status
                        };
                    cells.push(PlanCell {
                        workload: workload.clone(),
                        config: label.clone(),
                        policy: policy.name().to_owned(),
                        status,
                        lease,
                    });
                }
            }
        }
        Ok(CampaignPlan { cells })
    }

    /// The non-journaled status every cell of `workload` shares: is its
    /// trace a valid cache entry, absent, or (for `trace:` selectors) is
    /// the source file itself missing?
    fn plan_workload_status(&self, workload: &str) -> CellStatus {
        if let Some(path) = workload.strip_prefix("trace:") {
            if !Path::new(path).exists() {
                return CellStatus::MissingSource;
            }
            let cached = self.cache.as_ref().is_some_and(|cache| {
                cache
                    .path_for_ingested(Path::new(path), &ingest_options_for(workload))
                    .is_ok_and(|entry| TraceCache::entry_is_valid(&entry))
            });
            return if cached { CellStatus::CachedTrace } else { CellStatus::NeedsTrace };
        }
        let cached = self.cache.as_ref().is_some_and(|cache| {
            TraceCache::entry_is_valid(&cache.path_for(workload, self.spec.scale, self.spec.seed))
        });
        if cached {
            CellStatus::CachedTrace
        } else {
            CellStatus::NeedsTrace
        }
    }

    /// Resolves the full grid: expanded workloads, config variants, and
    /// every cell (with its journal/lease id) in spec order.
    ///
    /// # Errors
    ///
    /// Returns a message on invalid workload selectors.
    pub fn grid(&self) -> Result<CampaignGrid, String> {
        let workloads = self.spec.expand_workloads()?;
        let configs = self.spec.configs();
        let cells = workloads
            .iter()
            .flat_map(|workload| {
                configs.iter().enumerate().flat_map(move |(ci, (label, _))| {
                    self.spec.policies.iter().map(move |&policy| GridCell {
                        workload: workload.clone(),
                        config_index: ci,
                        llc_scale: self.spec.llc_scales[ci],
                        policy,
                        id: format!("{workload}|{label}|{}", policy.name()),
                    })
                })
            })
            .collect();
        Ok(CampaignGrid { workloads, configs, cells })
    }

    /// Acquires the trace of one workload — the cache-aware entry point
    /// behind [`Campaign::run`], exposed so distributed workers can
    /// simulate a claimed band of a workload's cells in one pass
    /// ([`AcquiredTrace::simulate_cells`]) without running the whole
    /// grid.
    ///
    /// # Errors
    ///
    /// Returns a message on invalid selectors, generation/ingest failures
    /// and cache I/O errors.
    pub fn acquire(&self, workload: &str) -> Result<AcquiredTrace, String> {
        acquire_trace(self.cache.as_ref(), workload, self.spec.scale, self.spec.seed)
    }

    /// Assembles the deterministic report from a complete cell-result
    /// map (cell id → result), in spec order — the same construction
    /// [`Campaign::run`] uses, so any source of results (one process, a
    /// resumed journal, or merged distributed journal segments) yields
    /// byte-identical reports.
    ///
    /// # Errors
    ///
    /// Returns a message naming missing cells — a partial map means the
    /// campaign has not finished and no report must be written.
    pub fn report_from_completed(
        &self,
        completed: &std::collections::BTreeMap<String, SimResult>,
    ) -> Result<CampaignReport, String> {
        let grid = self.grid()?;
        let missing: Vec<&str> = grid
            .cells
            .iter()
            .filter(|c| !completed.contains_key(&c.id))
            .map(|c| c.id.as_str())
            .collect();
        if !missing.is_empty() {
            let shown = missing.iter().take(5).cloned().collect::<Vec<_>>().join(", ");
            return Err(format!(
                "{} of {} cells have no journaled result yet (e.g. {shown}) — run more workers \
                 or wait for the campaign to finish",
                missing.len(),
                grid.cells.len()
            ));
        }
        let raw = grid
            .cells
            .iter()
            .map(|c| RawCell {
                config: grid.configs[c.config_index].0.clone(),
                llc_scale: c.llc_scale,
                result: completed[&c.id].clone(),
            })
            .collect();
        Ok(CampaignReport::build(&self.spec, raw))
    }

    /// Runs every pending cell of the grid and assembles the report.
    ///
    /// # Errors
    ///
    /// Returns a message on invalid workload selectors, trace generation
    /// failures, or cache/journal I/O errors.
    pub fn run(self) -> Result<CampaignOutcome, String> {
        let grid = self.grid()?;
        let mut journal = match &self.journal_path {
            Some(path) => Some(
                Journal::open(path, &self.spec.name, &self.spec.digest())
                    .map_err(|e| format!("opening journal {}: {e}", path.display()))?,
            ),
            None => None,
        };
        let mut obs = match &self.obs_dir {
            Some(dir) => {
                let meta = ccsim_obs::RunMeta {
                    campaign: self.spec.name.clone(),
                    spec_digest: self.spec.digest(),
                    worker: ccsim_obs::SOLO_WORKER.to_owned(),
                };
                Some(
                    ccsim_obs::RunObs::begin(dir, meta, "run.obs.jsonl", "manifest.json")
                        .map_err(|e| format!("opening obs sink in {}: {e}", dir.display()))?,
                )
            }
            None => None,
        };
        if let Some(o) = obs.as_mut() {
            o.event(
                "run_start",
                &[
                    ("cells_total", ccsim_obs::Field::U64(grid.cells.len() as u64)),
                    ("workloads", ccsim_obs::Field::U64(grid.workloads.len() as u64)),
                ],
            );
        }

        let mut completed: std::collections::BTreeMap<String, SimResult> =
            journal.as_ref().map(|j| j.completed().clone()).unwrap_or_default();
        // Every workload is a band of the pipeline, fully journaled ones
        // too (no trace, no jobs), so all band events keep grid order.
        let bands: Vec<(&str, usize, Vec<&GridCell>)> = grid
            .workloads
            .iter()
            .map(|w| {
                let pending = grid.cells_of(w).filter(|c| !completed.contains_key(&c.id));
                (w.as_str(), grid.cells_of(w).count(), pending.collect())
            })
            .collect();
        let cells_resumed = bands.iter().map(|(_, total, pending)| total - pending.len()).sum();

        run_pipelined(
            bands.len(),
            self.threads,
            |b| {
                let (workload, _, pending) = &bands[b];
                let cells: Vec<(SimConfig, PolicyKind)> =
                    pending.iter().map(|c| (grid.configs[c.config_index].1, c.policy)).collect();
                // Acquire the trace only when at least one cell needs it:
                // a fully-journaled workload costs no generation at all.
                let trace = if cells.is_empty() { None } else { Some(self.acquire(workload)?) };
                let jobs = trace
                    .as_ref()
                    .map_or_else(Vec::new, |t| t.band_jobs(&cells, self.threads, self.per_cell));
                let count = jobs.len();
                Ok((Band { trace, cells, jobs }, count))
            },
            |band, j| {
                let trace = band.trace.as_ref().expect("a band with jobs holds its trace");
                trace.run_job(&band.cells, &band.jobs[j], self.chunk_records)
            },
            |b, band, outs, band_ns| {
                let (workload, total, pending) = &bands[b];
                let progress = format!("[{}/{}] {workload:<16}", b + 1, bands.len());
                let Some(trace) = &band.trace else {
                    if let Some(o) = obs.as_mut() {
                        o.event(
                            "band_resumed",
                            &[
                                ("workload", ccsim_obs::Field::Str(workload)),
                                ("cells", ccsim_obs::Field::U64(*total as u64)),
                            ],
                        );
                    }
                    if self.verbose {
                        eprintln!("{progress} resumed from journal");
                    }
                    return Ok(());
                };
                let cells = pending.len() as u64;
                let records_simulated = trace.records() * cells;
                record_band_metrics(cells, records_simulated, band_ns);
                if let Some(o) = obs.as_mut() {
                    let band_fields = [
                        ("workload", ccsim_obs::Field::Str(workload)),
                        ("cells", ccsim_obs::Field::U64(cells)),
                    ];
                    o.event("band_start", &band_fields);
                    o.add_band(cells, records_simulated, band_ns);
                    o.event(
                        "band_done",
                        &[
                            band_fields[0],
                            band_fields[1],
                            ("trace_records", ccsim_obs::Field::U64(trace.records())),
                            ("sim_ns", ccsim_obs::Field::U64(band_ns)),
                            ("streamed", ccsim_obs::Field::Bool(trace.is_streamed())),
                        ],
                    );
                    let _ = o.write_manifest();
                }
                if self.verbose {
                    eprintln!(
                        "{progress} {} records, {cells} cells in {} pass(es){}",
                        trace.records(),
                        band.jobs.len(),
                        if trace.is_streamed() { " (streamed)" } else { "" }
                    );
                }
                for (cell, result) in pending.iter().zip(scatter(&band.jobs, outs)) {
                    if let Some(j) = journal.as_mut() {
                        j.record(&cell.id, &result).map_err(|e| format!("writing journal: {e}"))?;
                    }
                    completed.insert(cell.id.clone(), result);
                }
                Ok(())
            },
        )?;

        ccsim_obs::metrics().campaign_runs.inc();
        if let Some(o) = obs.take() {
            // Best-effort: a failed manifest write must not fail the
            // campaign the telemetry merely observes.
            let _ = o.finish();
        }
        let cells_total = grid.cells.len();
        Ok(CampaignOutcome {
            report: self.report_from_completed(&completed)?,
            cells_total,
            cells_resumed,
            cache_hits: self.cache.as_ref().map_or(0, TraceCache::hits),
            cache_misses: self.cache.as_ref().map_or(0, TraceCache::misses),
        })
    }
}

/// One band of [`Campaign::run`]'s pipeline: a workload's pending cells,
/// its trace and its replay jobs (no trace and no jobs when the journal
/// already holds every cell).
struct Band {
    trace: Option<AcquiredTrace>,
    cells: Vec<(SimConfig, PolicyKind)>,
    jobs: Vec<Vec<usize>>,
}

/// Bands [`run_pipelined`] keeps acquired at once: the oldest unfinished
/// band and the next one.
const LIVE_BANDS: usize = 2;

/// An acquired, uncommitted band inside [`run_pipelined`].
struct LiveBand<B, R> {
    index: usize,
    band: Arc<B>,
    claimed: usize,
    finished: usize,
    /// One slot per job.
    results: Vec<Option<R>>,
    ready: Instant,
    sim_ns: u64,
}

/// State the committing thread and the workers of [`run_pipelined`] share.
struct Pipeline<B, R> {
    live: VecDeque<LiveBand<B, R>>,
    /// No job of this band or a later one starts: the lowest-indexed band
    /// that failed (`usize::MAX` while none has).
    stop: usize,
    error: Option<String>,
    /// No band will be added: every band is acquired, or the committing
    /// thread has returned. A worker that then finds nothing to claim
    /// exits at once, as [`run_jobs`] workers do, instead of waiting for
    /// the run to end; with workers spawned at the first job, this keeps
    /// each job on the same malloc arena from run to run.
    closed: bool,
}

impl<B, R> Pipeline<B, R> {
    fn fail(&mut self, band: usize, error: String) {
        if band < self.stop {
            self.stop = band;
            self.error = Some(error);
        }
    }

    /// Claims the next job of the oldest live band that has one.
    fn claim(&mut self) -> Option<(usize, Arc<B>, usize)> {
        let stop = self.stop;
        let live = self
            .live
            .iter_mut()
            .take_while(|l| l.index < stop)
            .find(|l| l.claimed < l.results.len())?;
        live.claimed += 1;
        Some((live.index, Arc::clone(&live.band), live.claimed - 1))
    }

    /// Records the outcome of job `job` of band `index`.
    fn finish(&mut self, index: usize, job: usize, out: Result<R, String>) {
        let live = self
            .live
            .iter_mut()
            .find(|l| l.index == index)
            .expect("a band stays live until its jobs finish");
        live.finished += 1;
        if live.finished == live.results.len() {
            live.sim_ns = live.ready.elapsed().as_nanos() as u64;
        }
        match out {
            Ok(result) => live.results[job] = Some(result),
            Err(error) => self.fail(index, error),
        }
    }
}

/// Closes the pipeline however the committing thread leaves
/// [`run_pipelined`]: no further job starts and no worker waits forever.
struct CloseOnDrop<'a, B, R>(&'a (Mutex<Pipeline<B, R>>, Condvar));

impl<B, R> Drop for CloseOnDrop<'_, B, R> {
    fn drop(&mut self) {
        let (state, wake) = self.0;
        let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        st.stop = 0;
        drop(st);
        wake.notify_all();
    }
}

/// The pipelined band executor behind [`Campaign::run`].
///
/// The calling thread acquires bands `0..bands` in order with `acquire`,
/// which returns the band and its job count, and keeps at most
/// [`LIVE_BANDS`] bands acquired and uncommitted: it acquires the next
/// band while the workers replay this one. Acquisition stays on the
/// calling thread so trace buffers are allocated and freed by one thread
/// (on glibc, worker-side acquisition grew peak RSS through per-thread
/// malloc arenas). `threads` workers claim jobs, oldest live band first,
/// and run them with `run_job`. The calling thread commits each finished
/// band in order with `commit`, passing the job results in job order and
/// the nanoseconds from the band being acquired to its last job
/// finishing.
///
/// On the first failure no further band is acquired and no job of the
/// failing band or a later one starts; the bands before it still finish
/// and are committed, then the failing band's error is returned. A commit
/// error is returned at once. A panicking job fails its band and the
/// panic propagates once the pipeline has stopped.
fn run_pipelined<B, R>(
    bands: usize,
    threads: usize,
    mut acquire: impl FnMut(usize) -> Result<(B, usize), String>,
    run_job: impl Fn(&B, usize) -> Result<R, String> + Sync,
    mut commit: impl FnMut(usize, &B, Vec<R>, u64) -> Result<(), String>,
) -> Result<(), String>
where
    B: Send + Sync,
    R: Send,
{
    let shared = (
        Mutex::new(Pipeline {
            live: VecDeque::new(),
            stop: usize::MAX,
            error: None,
            closed: false,
        }),
        Condvar::new(),
    );
    let (state, wake) = &shared;
    let lock = || state.lock().expect("pipeline lock");
    let run_job = &run_job;
    let worker = move || {
        let mut st = lock();
        loop {
            let Some((index, band, job)) = st.claim() else {
                if st.closed {
                    return;
                }
                st = wake.wait(st).expect("pipeline lock");
                continue;
            };
            drop(st);
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| run_job(&band, job)));
            // The committing thread holds the last reference, so it is
            // the one that frees the band.
            drop(band);
            st = lock();
            match out {
                Ok(out) => st.finish(index, job, out),
                Err(panic) => {
                    st.finish(index, job, Err("a replay job panicked".to_owned()));
                    wake.notify_all();
                    drop(st);
                    std::panic::resume_unwind(panic);
                }
            }
            wake.notify_all();
        }
    };
    std::thread::scope(|scope| {
        let _close = CloseOnDrop(&shared);
        let (mut acquired, mut committed, mut spawned) = (0, 0, false);
        loop {
            let mut st = lock();
            if acquired < bands.min(st.stop) && acquired - committed < LIVE_BANDS {
                drop(st);
                let out = acquire(acquired);
                let mut st = lock();
                let has_jobs = match out {
                    Ok((band, jobs)) => {
                        st.live.push_back(LiveBand {
                            index: acquired,
                            band: Arc::new(band),
                            claimed: 0,
                            finished: 0,
                            results: (0..jobs).map(|_| None).collect(),
                            ready: Instant::now(),
                            sim_ns: 0,
                        });
                        jobs > 0
                    }
                    Err(error) => {
                        st.fail(acquired, error);
                        false
                    }
                };
                acquired += 1;
                st.closed = acquired == bands;
                drop(st);
                wake.notify_all();
                // Workers start with the first job, so the first one
                // spawned claims it, as with `run_jobs`: each job then
                // meets the same malloc arena run after run, which keeps
                // peak RSS from drifting.
                if has_jobs && !spawned {
                    (0..threads.max(1)).for_each(|_| drop(scope.spawn(worker)));
                    spawned = true;
                }
                continue;
            }
            // Wait for the oldest band to finish or be cut off by a failure.
            while st.live.front().is_some_and(|l| l.index < st.stop && l.finished < l.results.len())
            {
                st = wake.wait(st).expect("pipeline lock");
            }
            if st.live.front().is_none_or(|l| l.index >= st.stop) {
                return st.error.take().map_or(Ok(()), Err);
            }
            let live = st.live.pop_front().expect("checked above");
            drop(st);
            let results =
                live.results.into_iter().map(|r| r.expect("a finished job left its result"));
            commit(live.index, &live.band, results.collect(), live.sim_ns)?;
            committed += 1;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::from_json_str(
            r#"{"name": "unit", "base_config": "tiny",
                "workloads": ["xsbench.small"],
                "policies": ["lru", "srrip"], "llc_scales": [1, 2]}"#,
        )
        .unwrap()
    }

    #[test]
    fn grid_covers_workloads_times_policies_times_configs() {
        let outcome = Campaign::new(tiny_spec()).threads(4).run().unwrap();
        assert_eq!(outcome.cells_total, 4);
        assert_eq!(outcome.report.cells.len(), 4);
        assert_eq!(outcome.cells_resumed, 0);
        assert_eq!(outcome.cache_hits + outcome.cache_misses, 0);
        // Spec order: config-major within the workload, policy-minor.
        let ids: Vec<String> = outcome
            .report
            .cells
            .iter()
            .map(|c| format!("{}|{}|{}", c.workload, c.config, c.policy))
            .collect();
        assert_eq!(
            ids,
            [
                "xsbench.small|llc_x1|lru",
                "xsbench.small|llc_x1|srrip",
                "xsbench.small|llc_x2|lru",
                "xsbench.small|llc_x2|srrip"
            ]
        );
    }

    /// Writes a ChampSim trace of `pairs` (non-memory, load) instruction
    /// pairs over 32 blocks to `path`.
    fn write_champsim(path: &Path, pairs: u64) {
        use ccsim_ingest::champsim::{ChampSimRecord, ChampSimWriter};
        let mut w = ChampSimWriter::new(std::fs::File::create(path).unwrap());
        for i in 0..pairs {
            w.write(&ChampSimRecord::nonmem(0x400 + 4 * i)).unwrap();
            w.write(&ChampSimRecord::load(0x600 + 4 * i, 0x10000 + 64 * (i % 32))).unwrap();
        }
    }

    /// A band mixing LLC scales 1/2/4 across two policies.
    fn heterogeneous_band() -> Vec<(SimConfig, PolicyKind)> {
        let mut band = Vec::new();
        for scale in [4u32, 1, 2, 1, 4, 2, 1] {
            for policy in [PolicyKind::Lru, PolicyKind::Mpppb] {
                band.push((SimConfig::tiny().with_llc_scale(scale), policy));
            }
        }
        band
    }

    #[test]
    fn simulate_cells_matches_simulate_cell_for_both_job_shapes() {
        // In memory: one job per cell. Streamed: min(threads, cells)
        // lockstep shards dealt round-robin in descending LLC capacity.
        // Either way the scatter must restore results to `cells` order
        // exactly, bit-identical to the independent per-cell replay.
        let dir = temp_dir("job_shapes");
        let source = dir.join("mini.champsim");
        write_champsim(&source, 300);
        let campaign = Campaign::new(tiny_spec());
        let band = heterogeneous_band();
        for workload in ["xsbench.small".to_owned(), format!("trace:{}", source.display())] {
            let trace = campaign.acquire(&workload).unwrap();
            let reference: Vec<SimResult> = band
                .iter()
                .map(|(cfg, policy)| trace.simulate_cell(cfg, *policy).unwrap())
                .collect();
            for threads in [1, 2, 3, 5, 14, 100] {
                let results = trace.simulate_cells(&band, threads, 0).unwrap();
                assert_eq!(results, reference, "{workload} at {threads} threads");
                let passes = if trace.is_streamed() { threads.min(band.len()) } else { band.len() };
                assert_eq!(trace.passes_for(band.len(), threads), passes, "{workload}");
            }
            assert!(trace.simulate_cells(&[], 4, 0).unwrap().is_empty());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A three-band spec: in memory, streamed, in memory.
    fn three_band_spec(source: &Path) -> CampaignSpec {
        CampaignSpec::from_json_str(&format!(
            r#"{{"name": "pipe", "base_config": "tiny",
                 "workloads": ["xsbench.small", "trace:{}", "spec.hotcold"],
                 "policies": ["lru", "srrip", "ship"], "llc_scales": [1, 2]}}"#,
            source.display()
        ))
        .unwrap()
    }

    #[test]
    fn reports_and_journals_are_byte_identical_at_any_thread_count_and_job_shape() {
        let dir = temp_dir("byte_identical");
        let source = dir.join("mini.champsim");
        write_champsim(&source, 300);
        let spec = three_band_spec(&source);
        let run = |tag: &str, campaign: Campaign| {
            let journal = dir.join(format!("{tag}.jsonl"));
            let outcome = campaign.journal(&journal).run().unwrap();
            (outcome.report.to_json_string(), std::fs::read_to_string(&journal).unwrap())
        };
        let (report, journal) = run("t1", Campaign::new(spec.clone()).threads(1));
        // The journal holds every cell once, in grid order.
        let grid = Campaign::new(spec.clone()).grid().unwrap();
        let ids: Vec<String> =
            grid.cells.iter().map(|c| format!("{{\"cell\":\"{}\",", c.id)).collect();
        let lines: Vec<&str> = journal.lines().skip(1).collect();
        assert_eq!(lines.len(), ids.len(), "{journal}");
        for (line, id) in lines.iter().zip(&ids) {
            assert!(line.starts_with(id.as_str()), "{line} is not {id}");
        }
        for threads in [2, 3, 8] {
            let out = run(&format!("t{threads}"), Campaign::new(spec.clone()).threads(threads));
            assert!(out == (report.clone(), journal.clone()), "{threads} threads");
        }
        let per_cell = run("per_cell", Campaign::new(spec.clone()).threads(3).per_cell(true));
        assert!(per_cell == (report.clone(), journal.clone()), "--per-cell");
        // An explicit chunk length changes batching mechanics only.
        let chunked = run("chunked", Campaign::new(spec).threads(3).chunk_records(17));
        assert!(chunked == (report, journal), "--chunk-records 17");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failing_band_keeps_earlier_bands_journaled_and_resume_runs_the_rest() {
        let dir = temp_dir("fail_resume");
        let source = dir.join("late.champsim");
        let spec = CampaignSpec::from_json_str(&format!(
            r#"{{"name": "fail", "base_config": "tiny",
                 "workloads": ["xsbench.small", "trace:{}"],
                 "policies": ["lru", "srrip"], "llc_scales": [1, 2]}}"#,
            source.display()
        ))
        .unwrap();
        let journal = dir.join("journal.jsonl");
        let err = Campaign::new(spec.clone()).threads(2).journal(&journal).run().unwrap_err();
        assert!(err.contains(&source.display().to_string()), "{err}");
        let journaled = Journal::peek_completed(&journal, &spec.name, &spec.digest());
        let first: Vec<&str> = journaled.keys().map(String::as_str).collect();
        assert_eq!(
            first,
            [
                "xsbench.small|llc_x1|lru",
                "xsbench.small|llc_x1|srrip",
                "xsbench.small|llc_x2|lru",
                "xsbench.small|llc_x2|srrip"
            ]
        );

        write_champsim(&source, 100);
        let resumed = Campaign::new(spec.clone()).threads(2).journal(&journal).run().unwrap();
        assert_eq!((resumed.cells_total, resumed.cells_resumed), (8, 4));
        let fresh = Campaign::new(spec).threads(2).run().unwrap();
        assert_eq!(resumed.report.to_json_string(), fresh.report.to_json_string());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_pipeline_holds_two_bands_and_commits_in_grid_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// A fake band that counts how many are alive.
        struct Fake<'a> {
            index: usize,
            alive: &'a AtomicUsize,
        }
        impl Drop for Fake<'_> {
            fn drop(&mut self) {
                self.alive.fetch_sub(1, Ordering::SeqCst);
            }
        }

        // Band 0's only job waits until all three jobs of band 1 have
        // finished, so the later band finishes first; band 3 is fully
        // journaled (no jobs).
        let jobs = [1, 3, 2, 0, 4, 1, 2];
        let (alive, most_alive) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let (band1_done, wait_band1) = std::sync::mpsc::channel();
        let wait_band1 = Mutex::new(wait_band1);
        let finished = Mutex::new(Vec::new());
        let mut commits = Vec::new();
        run_pipelined(
            jobs.len(),
            3,
            |b| {
                let now = alive.fetch_add(1, Ordering::SeqCst) + 1;
                most_alive.fetch_max(now, Ordering::SeqCst);
                Ok((Fake { index: b, alive: &alive }, jobs[b]))
            },
            |band, j| {
                if band.index == 0 {
                    let wait = wait_band1.lock().unwrap();
                    (0..jobs[1]).for_each(|_| wait.recv().unwrap());
                }
                finished.lock().unwrap().push(band.index);
                if band.index == 1 {
                    band1_done.send(()).unwrap();
                }
                Ok((band.index, j))
            },
            |b, band, results, _| {
                assert_eq!(band.index, b);
                assert_eq!(results, (0..jobs[b]).map(|j| (b, j)).collect::<Vec<_>>());
                commits.push(b);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(commits, [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(most_alive.load(Ordering::SeqCst), LIVE_BANDS);
        assert_eq!(alive.load(Ordering::SeqCst), 0);
        assert_eq!(finished.into_inner().unwrap()[..4], [1, 1, 1, 0]);
    }

    #[test]
    fn the_pipeline_commits_only_the_bands_before_a_failure() {
        let mut commits = Vec::new();
        let err = run_pipelined(
            6,
            2,
            |b| Ok((b, 2)),
            // Band 3 may fail first; the lowest-indexed failure wins.
            |&b, j| if (b, j) == (2, 1) || b == 3 { Err(format!("job {b}.{j}")) } else { Ok(()) },
            |b, _, _, _| {
                commits.push(b);
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!((err.as_str(), commits.as_slice()), ("job 2.1", [0, 1].as_slice()));
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_job_propagates_instead_of_hanging() {
        let _ = run_pipelined(
            3,
            2,
            |b| Ok((b, 1)),
            |&b, _| if b == 1 { panic!("job panicked") } else { Ok(()) },
            |_, _, _, _| Ok(()),
        );
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccsim_runner_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn plan_predicts_journal_and_cache_state() {
        let dir = temp_dir("plan");
        let journal = dir.join("journal.jsonl");
        let cache_dir = dir.join("cache");

        let fresh = Campaign::new(tiny_spec())
            .cache(TraceCache::new(&cache_dir).unwrap())
            .journal(&journal)
            .plan()
            .unwrap();
        assert_eq!(fresh.cells.len(), 4);
        assert_eq!(fresh.counts(), (0, 0, 4, 0, 0, 0), "nothing exists yet");
        assert!(!journal.exists(), "planning must not create the journal");

        Campaign::new(tiny_spec())
            .cache(TraceCache::new(&cache_dir).unwrap())
            .journal(&journal)
            .run()
            .unwrap();
        let done = Campaign::new(tiny_spec())
            .cache(TraceCache::new(&cache_dir).unwrap())
            .journal(&journal)
            .plan()
            .unwrap();
        assert_eq!(done.counts(), (4, 0, 0, 0, 0, 0), "everything journaled after a run");

        // Journal gone, cache intact: cells pend but the trace is cached.
        std::fs::remove_file(&journal).unwrap();
        let cached = Campaign::new(tiny_spec())
            .cache(TraceCache::new(&cache_dir).unwrap())
            .journal(&journal)
            .plan()
            .unwrap();
        assert_eq!(cached.counts(), (0, 4, 0, 0, 0, 0));
        let table = cached.table().to_csv();
        assert!(table.contains("xsbench.small,llc_x1,lru,cached-trace"), "{table}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_trace_source_is_flagged_in_the_plan_and_fails_the_run() {
        let spec = CampaignSpec::from_json_str(
            r#"{"name": "ext", "base_config": "tiny",
                "workloads": ["trace:/nonexistent/foo.champsim"],
                "policies": ["lru"]}"#,
        )
        .unwrap();
        let plan = Campaign::new(spec.clone()).plan().unwrap();
        assert_eq!(plan.counts(), (0, 0, 0, 1, 0, 0));
        assert_eq!(plan.cells[0].status.name(), "missing-source!");

        // A lease on the cell must not mask the missing source: every
        // (re)claim of it would fail at acquisition anyway.
        let mut leases = std::collections::BTreeMap::new();
        leases.insert(
            "trace:/nonexistent/foo.champsim|llc_x1|lru".to_owned(),
            LeaseView { worker: "w".into(), epoch: 1, stale: false },
        );
        let leased_plan = Campaign::new(spec.clone()).leases(leases).plan().unwrap();
        assert_eq!(leased_plan.counts(), (0, 0, 0, 1, 0, 0), "missing-source wins over leased");
        assert_eq!(leased_plan.cells[0].lease.as_ref().unwrap().worker, "w");
        let err = Campaign::new(spec).run().unwrap_err();
        assert!(err.contains("/nonexistent/foo.champsim"), "{err}");
    }

    #[test]
    fn plan_overlays_leases_and_merged_completion() {
        use std::collections::BTreeMap;
        let mut leases = BTreeMap::new();
        leases.insert(
            "xsbench.small|llc_x1|lru".to_owned(),
            LeaseView { worker: "w-alive".into(), epoch: 1, stale: false },
        );
        leases.insert(
            "xsbench.small|llc_x1|srrip".to_owned(),
            LeaseView { worker: "w-dead".into(), epoch: 2, stale: true },
        );
        // A lease on an already-completed cell must not demote it.
        leases.insert(
            "xsbench.small|llc_x2|lru".to_owned(),
            LeaseView { worker: "w-late".into(), epoch: 1, stale: false },
        );
        let plan = Campaign::new(tiny_spec())
            .leases(leases)
            .mark_completed(["xsbench.small|llc_x2|lru".to_owned()])
            .plan()
            .unwrap();
        assert_eq!(plan.counts(), (1, 0, 1, 0, 1, 1));
        let csv = plan.table().to_csv();
        assert!(csv.contains("xsbench.small,llc_x1,lru,leased(w-alive)"), "{csv}");
        assert!(csv.contains("xsbench.small,llc_x1,srrip,stale-lease(w-dead)"), "{csv}");
        assert!(csv.contains("xsbench.small,llc_x2,lru,journaled"), "{csv}");
    }

    #[test]
    fn grid_and_report_from_completed_match_a_full_run() {
        let campaign = Campaign::new(tiny_spec());
        let grid = campaign.grid().unwrap();
        assert_eq!(grid.cells.len(), 4);
        assert_eq!(grid.cells[0].id, "xsbench.small|llc_x1|lru");
        assert_eq!(grid.cells[3].id, "xsbench.small|llc_x2|srrip");

        // Simulate every cell through the claim-one-cell API and
        // assemble: byte-identical to the monolithic run.
        let mut completed = std::collections::BTreeMap::new();
        for workload in &grid.workloads {
            let trace = campaign.acquire(workload).unwrap();
            for cell in grid.cells_of(workload) {
                let result =
                    trace.simulate_cell(&grid.configs[cell.config_index].1, cell.policy).unwrap();
                completed.insert(cell.id.clone(), result);
            }
        }
        let assembled = campaign.report_from_completed(&completed).unwrap();
        let monolithic = Campaign::new(tiny_spec()).threads(4).run().unwrap();
        assert_eq!(assembled.to_json_string(), monolithic.report.to_json_string());

        // A partial map refuses to assemble, naming what's missing.
        completed.remove("xsbench.small|llc_x2|srrip");
        let err = campaign.report_from_completed(&completed).unwrap_err();
        assert!(err.contains("1 of 4 cells"), "{err}");
        assert!(err.contains("xsbench.small|llc_x2|srrip"), "{err}");
    }

    #[test]
    fn external_trace_workload_runs_without_a_cache() {
        let dir = temp_dir("ext_nocache");
        let source = dir.join("mini.champsim");
        write_champsim(&source, 200);
        let selector = format!("trace:{}", source.display());
        let spec = CampaignSpec::from_json_str(&format!(
            r#"{{"name": "ext", "base_config": "tiny",
                 "workloads": ["{selector}"], "policies": ["lru", "srrip"]}}"#
        ))
        .unwrap();
        let outcome = Campaign::new(spec).threads(2).run().unwrap();
        assert_eq!(outcome.cells_total, 2);
        assert_eq!(outcome.report.cells[0].workload, selector);
        assert_eq!(outcome.report.cells[0].suite, "external");
        assert_eq!(outcome.report.cells[0].result.instructions, 400);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
