//! The traced run: per-layer host costs from the benchmark's own spans.
//!
//! Spans wrap calls into each layer's public functions; nothing inside
//! the simulator is instrumented for this. The run has four parts:
//!
//! 1. a traced fill of an empty trace cache (generation, cache write,
//!    ingest);
//! 2. an untraced warm [`Campaign::run`] and a traced replica of the
//!    same loop built from the public per-band functions
//!    ([`Campaign::acquire`], [`ccsim_campaign::AcquiredTrace::simulate_cells`],
//!    [`Journal::record`], [`Campaign::report_from_completed`]); their
//!    throughputs give the tracing overhead and their reports must match;
//! 3. per band, single-cell replays of every cell (and of the seven
//!    policies at LLC x1) through [`simulate_grid`];
//! 4. per band, component isolation: one untimed pass through standalone
//!    L1D, L2 and LRU LLC [`Cache`]s captures each component's input
//!    stream, then each component is rebuilt and re-driven from its
//!    stream alone. MSHR banks and DRAM are driven with synthetic
//!    timestamps, so they give host cost only.

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ccsim_campaign::{record_band_metrics, Campaign, CampaignReport, Journal, TraceCache};
use ccsim_core::cache::{MshrBank, MshrGrant};
use ccsim_core::{
    simulate, simulate_grid, simulate_with_llc_log, Cache, CacheConfig, Core, Dram, FillOutcome,
    SimConfig, SimResult,
};
use ccsim_ingest::{ingest_file, IngestOptions};
use ccsim_policies::{AccessInfo, AccessType, PolicyKind};
use ccsim_trace::{read_trace, Trace, TraceReader};
use ccsim_workloads::build_workload_seeded;

use crate::e2e;
use crate::spans::Tracer;
use crate::workload::SEVEN_POLICIES;
use crate::{percentile, Ctx, Metric, Tally, THREADS};

/// One access of a captured cache-level stream, packed: the block in
/// the low 62 bits, the access type in the top two.
#[derive(Clone, Copy)]
struct Access {
    pc: u64,
    packed: u64,
}

impl Access {
    const BLOCK_MASK: u64 = (1 << 62) - 1;

    fn new(pc: u64, block: u64, kind: AccessType) -> Access {
        let tag = match kind {
            AccessType::Load => 0,
            AccessType::Rfo => 1,
            AccessType::Writeback => 2,
        };
        Access { pc, packed: (block & Access::BLOCK_MASK) | (tag << 62) }
    }

    fn info(self, cache: &Cache) -> AccessInfo {
        let block = self.packed & Access::BLOCK_MASK;
        let kind = match self.packed >> 62 {
            0 => AccessType::Load,
            1 => AccessType::Rfo,
            _ => AccessType::Writeback,
        };
        AccessInfo { pc: self.pc, block, set: cache.set_of(block), kind }
    }
}

/// Component input streams captured by one pass through standalone
/// L1D, L2 and LRU LLC caches.
#[derive(Default)]
struct Streams {
    /// Accesses reaching L2: L1D demand misses and L1D dirty victims.
    l2: Vec<Access>,
    /// Accesses reaching the LLC: L2 demand misses and L2 dirty victims.
    llc: Vec<Access>,
    /// Demand outcomes per level for the MSHR banks: block, with bit 63
    /// set on a tag hit.
    mshr: [Vec<u64>; 3],
    /// DRAM requests of the LRU LLC: block, with bit 63 set on writes.
    dram: Vec<u64>,
    /// LLC demand accesses and misses of the standalone LRU LLC.
    llc_demand: u64,
    llc_demand_misses: u64,
}

const HIT_BIT: u64 = 1 << 63;

/// Runs `f` for a fill's dirty victim, if any.
fn on_victim(outcome: FillOutcome, f: impl FnOnce(u64)) {
    if let FillOutcome::Filled { writeback: Some(victim) } = outcome {
        f(victim);
    }
}

fn lru_cache(name: &'static str, config: CacheConfig) -> Cache {
    Cache::new(name, config, PolicyKind::Lru.build_dispatch(config.sets, config.ways))
}

/// The untimed capture pass. It follows the hierarchy's order of
/// operations (a miss walks down before the level fills; dirty victims
/// are posted to the level below) without MSHRs, so it departs from the
/// engine only where the engine merges a miss into an outstanding one.
fn capture(trace: &Trace, config: &SimConfig) -> Streams {
    let mut l1 = lru_cache("L1D", config.l1d);
    let mut l2 = lru_cache("L2", config.l2);
    let mut llc = lru_cache("LLC", config.llc);
    let mut s = Streams::default();

    fn llc_access(llc: &mut Cache, s: &mut Streams, access: Access) {
        s.llc.push(access);
        let info = access.info(llc);
        let demand = info.kind != AccessType::Writeback;
        let hit = llc.lookup(&info).is_some();
        if demand {
            s.llc_demand += 1;
            s.mshr[2].push(info.block | if hit { HIT_BIT } else { 0 });
        }
        if hit {
            return;
        }
        if demand {
            s.llc_demand_misses += 1;
            s.dram.push(info.block);
        }
        on_victim(llc.fill(&info), |v| s.dram.push(v | HIT_BIT));
    }

    fn l2_access(l2: &mut Cache, llc: &mut Cache, s: &mut Streams, access: Access) {
        s.l2.push(access);
        let info = access.info(l2);
        let demand = info.kind != AccessType::Writeback;
        let hit = l2.lookup(&info).is_some();
        if demand {
            s.mshr[1].push(info.block | if hit { HIT_BIT } else { 0 });
        }
        if hit {
            return;
        }
        if demand {
            llc_access(llc, s, access);
        }
        on_victim(l2.fill(&info), |v| llc_access(llc, s, Access::new(0, v, AccessType::Writeback)));
    }

    for rec in trace {
        let kind = if rec.kind.is_store() { AccessType::Rfo } else { AccessType::Load };
        let access = Access::new(rec.pc, rec.block(), kind);
        let info = access.info(&l1);
        let hit = l1.lookup(&info).is_some();
        s.mshr[0].push(info.block | if hit { HIT_BIT } else { 0 });
        if hit {
            continue;
        }
        l2_access(&mut l2, &mut llc, &mut s, access);
        on_victim(l1.fill(&info), |v| {
            l2_access(&mut l2, &mut llc, &mut s, Access::new(0, v, AccessType::Writeback))
        });
    }
    s
}

/// Re-drives a fresh cache from a captured stream: lookup, fill on miss.
fn replay_cache(cache: &mut Cache, stream: &[Access]) {
    for &access in stream {
        let info = access.info(cache);
        if cache.lookup(&info).is_none() {
            black_box(cache.fill(&info));
        }
    }
}

/// Re-drives fresh MSHR banks from the captured per-level demand
/// outcomes: `pending` on a tag hit, `acquire` + `complete` on a miss.
/// Timestamps are synthetic: a requester clock advancing two cycles per
/// access that waits for a register when the bank is full, and a fixed
/// fill latency per level. The result is host cost only.
fn replay_mshrs(config: &SimConfig, streams: &[Vec<u64>; 3]) -> u64 {
    let levels = [(config.l1d.mshrs, 40), (config.l2.mshrs, 100), (config.llc.mshrs, 250)];
    let mut merges = 0;
    for ((count, latency), stream) in levels.into_iter().zip(streams) {
        let mut bank = MshrBank::new(count);
        let mut clock = 0u64;
        for &entry in stream {
            let block = entry & !HIT_BIT;
            clock += 2;
            if entry & HIT_BIT != 0 {
                black_box(bank.pending(block));
                continue;
            }
            match bank.acquire(block, clock) {
                MshrGrant::Issue { slot, start_at } => {
                    clock = start_at;
                    bank.complete(slot, block, start_at + latency);
                }
                MshrGrant::Merged { .. } => merges += 1,
            }
        }
    }
    merges
}

/// Re-drives a fresh DRAM model with the LRU LLC's misses and dirty
/// victims at synthetic timestamps (20 cycles apart).
fn replay_dram(config: &SimConfig, stream: &[u64]) -> u64 {
    let mut dram = Dram::new(config.dram);
    let mut last = 0;
    for (i, &entry) in stream.iter().enumerate() {
        last = dram.access(entry & !HIT_BIT, 20 * i as u64, entry & HIT_BIT != 0);
    }
    black_box(dram.stats());
    last
}

/// Re-drives a fresh core over every record with a fixed-latency memory
/// closure (L1D hit latency for loads; stores retire next cycle).
fn replay_core(config: &SimConfig, trace: &Trace) -> (u64, u64) {
    let mut core = Core::new(config.core);
    let latency = config.l1d.latency;
    for rec in trace {
        if rec.nonmem_before > 0 {
            core.dispatch_nonmem(rec.nonmem_before as u64);
        }
        let store = rec.kind.is_store();
        core.dispatch_mem(|at| if store { at + 1 } else { at + latency });
    }
    core.finish()
}

/// Sums of simulated statistics across bands (LRU at LLC x1).
#[derive(Default)]
struct SimTotals {
    records: u64,
    instructions: u64,
    cycles: u64,
    levels: [(u64, u64); 3],
    llc_writebacks_out: u64,
    mshr_merges: u64,
    row_hits: u64,
    dram_accesses: u64,
}

impl SimTotals {
    fn add(&mut self, records: u64, r: &SimResult) {
        self.records += records;
        self.instructions += r.instructions;
        self.cycles += r.cycles;
        for (slot, s) in self.levels.iter_mut().zip([&r.l1d, &r.l2, &r.llc]) {
            slot.0 += s.demand_accesses;
            slot.1 += s.demand_misses;
        }
        self.llc_writebacks_out += r.llc.writebacks_out;
        self.mshr_merges += r.l1d.mshr_merges + r.l2.mshr_merges + r.llc.mshr_merges;
        self.row_hits += r.dram.row_hits;
        self.dram_accesses += r.dram.row_hits + r.dram.row_empty + r.dram.row_conflicts;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything the band loop accumulates besides spans.
#[derive(Default)]
struct BandTotals {
    sim: SimTotals,
    engine_llc_misses: u64,
    engine_llc_demand: u64,
    standalone_llc_misses: u64,
    standalone_llc_demand: u64,
    /// Σ single-cell wall ns over the campaign's own cells.
    in_grid_cell_ns: u64,
    obs_off_rps: f64,
    obs_on_rps: f64,
}

/// Telemetry off vs on around a single-cell LRU replay, interleaved
/// (off, on, off, on, …); best of each state. The flag is toggled only
/// outside the timed spans.
fn obs_overhead(t: &mut Tracer, trace: &Trace, config: &SimConfig, pairs: usize) -> (f64, f64) {
    let was_enabled = ccsim_obs::enabled();
    let records = trace.len() as u64;
    let (mut off, mut on) = (0.0f64, 0.0f64);
    for _ in 0..pairs {
        for (enabled, best) in [(false, &mut off), (true, &mut on)] {
            ccsim_obs::set_enabled(enabled);
            let name = if enabled { "obs.on" } else { "obs.off" };
            let start = Instant::now();
            t.span(name, records, |_| black_box(simulate(trace, config, PolicyKind::Lru)));
            *best = best.max(records as f64 / start.elapsed().as_secs_f64());
        }
    }
    ccsim_obs::set_enabled(was_enabled);
    (off, on)
}

/// One grid cell of a band: config label, config, policy.
type BandCell = (String, SimConfig, PolicyKind);

/// Single-cell replays, the engine reference, stream capture and
/// component re-drives for one band whose trace is resident.
fn analyse_band(
    t: &mut Tracer,
    base: &SimConfig,
    trace: &Trace,
    cells: &[BandCell],
    reference: &CampaignReport,
    totals: &mut BandTotals,
    tally: &mut Tally,
) {
    let records = trace.len() as u64;

    // Single-cell replays of every cell of the band, then of those of
    // the seven policies the band does not run at LLC x1.
    let mut runs: Vec<(&BandCell, bool)> = cells.iter().map(|c| (c, true)).collect();
    let extra: Vec<BandCell> = SEVEN_POLICIES
        .into_iter()
        .filter(|&p| !cells.iter().any(|(_, cfg, q)| *q == p && cfg == base))
        .map(|p| ("llc_x1".to_owned(), *base, p))
        .collect();
    runs.extend(extra.iter().map(|c| (c, false)));
    for ((label, cfg, policy), in_grid) in runs {
        let name = format!("grid.cell.{}@x{}", policy.name(), cfg.llc.sets / base.llc.sets);
        let start = Instant::now();
        let result = t.span(&name, records, |_| simulate_grid(trace, &[(*cfg, *policy)], 0));
        if in_grid {
            totals.in_grid_cell_ns += start.elapsed().as_nanos() as u64;
            let reported = reference.cells.iter().find(|c| {
                c.workload == trace.name() && &c.config == label && c.policy == policy.name()
            });
            tally.attempted += 1;
            if reported.map(|c| &c.result) != result.first() {
                eprintln!("single-cell replay disagrees with the campaign: {label} {policy}");
                tally.failed += 1;
            }
        }
        if *policy == PolicyKind::Lru && cfg == base {
            totals.sim.add(records, &result[0]);
        }
    }

    // The engine's own LLC demand stream, to compare the capture with.
    let (engine, log) = t.span("engine.lru_with_llc_log", records, |_| {
        simulate_with_llc_log(trace, base, PolicyKind::Lru)
    });
    totals.engine_llc_misses += engine.llc.demand_misses;
    totals.engine_llc_demand += log.len() as u64;
    drop(log);

    let streams = t.span("capture", records, |_| capture(trace, base));
    totals.standalone_llc_misses += streams.llc_demand_misses;
    totals.standalone_llc_demand += streams.llc_demand;

    t.span("l1d.replay", records, |_| {
        let mut l1 = lru_cache("L1D", base.l1d);
        for rec in trace {
            let kind = if rec.kind.is_store() { AccessType::Rfo } else { AccessType::Load };
            let info = Access::new(rec.pc, rec.block(), kind).info(&l1);
            if l1.lookup(&info).is_none() {
                black_box(l1.fill(&info));
            }
        }
        black_box(l1.stats());
    });
    t.span("l2.replay", streams.l2.len() as u64, |_| {
        let mut l2 = lru_cache("L2", base.l2);
        replay_cache(&mut l2, &streams.l2);
        black_box(l2.stats());
    });
    for policy in SEVEN_POLICIES {
        let mut llc =
            Cache::new("LLC", base.llc, policy.build_dispatch(base.llc.sets, base.llc.ways));
        let name = format!("llc.replay.{}", policy.name());
        t.span(&name, streams.llc.len() as u64, |_| replay_cache(&mut llc, &streams.llc));
        if policy == PolicyKind::Lru && llc.stats().demand_misses != streams.llc_demand_misses {
            eprintln!("standalone LRU LLC re-drive did not reproduce its capture");
            tally.failed += 1;
        }
    }
    let mshr_ops = streams.mshr.iter().map(|s| s.len() as u64).sum();
    t.span("mshr.replay", mshr_ops, |_| black_box(replay_mshrs(base, &streams.mshr)));
    t.span("dram.replay", streams.dram.len() as u64, |_| {
        black_box(replay_dram(base, &streams.dram))
    });
    t.span("core.replay", records, |_| black_box(replay_core(base, trace)));
}

fn ingest_options(selector: &str) -> IngestOptions {
    // What `Campaign::acquire` resolves every `trace:` selector with.
    IngestOptions { format: None, lossy: false, name: Some(selector.to_owned()) }
}

fn header_records(path: &Path) -> Result<u64, String> {
    let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    ccsim_trace::read_trace_header(BufReader::new(file))
        .map(|h| h.count)
        .map_err(|e| format!("reading header of {}: {e}", path.display()))
}

/// Drains a `CCTR` file record by record; returns the record count.
fn drain(path: &Path) -> Result<u64, String> {
    let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let mut reader = TraceReader::new(BufReader::new(file))
        .map_err(|e| format!("decoding {}: {e}", path.display()))?;
    let mut n = 0u64;
    while reader.next_record().map_err(|e| format!("decoding {}: {e}", path.display()))?.is_some() {
        n += 1;
    }
    Ok(n)
}

/// The cache entry a workload's trace lives in.
fn cache_entry(cache: &TraceCache, ctx: &Ctx, workload: &str) -> Result<PathBuf, String> {
    match workload.strip_prefix("trace:") {
        Some(source) => cache.path_for_ingested(Path::new(source), &ingest_options(workload)),
        None => Ok(cache.path_for(workload, ctx.spec.scale, ctx.spec.seed)),
    }
}

/// The traced run. Returns every per-layer metric.
pub fn run(ctx: &Ctx, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let mut t = Tracer::new();
    let spec = &ctx.spec;
    let cache_dir = ctx.dir.join("cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = TraceCache::new(&cache_dir)
        .map_err(|e| format!("creating cache {}: {e}", cache_dir.display()))?;
    let grid = Campaign::new(spec.clone()).grid()?;
    let streamed = grid.workloads.iter().any(|w| w.starts_with("trace:"));

    // 1. Traced fill of an empty trace cache.
    let mut records: BTreeMap<String, u64> = BTreeMap::new();
    t.span("setup", 0, |t| -> Result<(), String> {
        for w in &grid.workloads {
            let n = match w.strip_prefix("trace:") {
                Some(source) => {
                    let path = t.span("cache.ensure_ingested.miss", 0, |_| {
                        cache.ensure_ingested(Path::new(source), &ingest_options(w))
                    })?;
                    header_records(&path)?
                }
                None => {
                    let trace = t.span("cache.get_or_generate.miss", 0, |t| {
                        cache.get_or_generate(w, spec.scale, spec.seed, || {
                            t.span("workloads.gen", 0, |_| {
                                build_workload_seeded(w, spec.scale, spec.seed)
                            })
                        })
                    })?;
                    t.set_last_work("workloads.gen", trace.len() as u64);
                    t.set_last_work("cache.get_or_generate.miss", trace.len() as u64);
                    trace.len() as u64
                }
            };
            records.insert(w.clone(), n);
        }
        Ok(())
    })?;
    if cache.misses() != grid.workloads.len() as u64 {
        return Err("the traced set-up did not start from an empty cache".into());
    }
    // `ingest_file` alone, into a scratch file, for the ingest layer.
    for w in grid.workloads.iter().filter(|w| w.starts_with("trace:")) {
        let source = Path::new(&w["trace:".len()..]);
        let probe = ctx.dir.join("ingest-probe.cctr");
        t.span("ingest.ingest_file", records[w], |_| {
            ingest_file(source, &probe, &ingest_options(w))
        })
        .map_err(|e| format!("ingesting {}: {e}", source.display()))?;
        let _ = std::fs::remove_file(&probe);
    }

    // 2. Untraced reference run, then the traced replica of its loop.
    let cell_records = e2e::cell_records(spec, &records)?;
    let (untraced_wall, _, outcome) = e2e::warm_run(spec, &cache_dir, &ctx.dir)?;
    let digests = crate::check::report_digests(&outcome.report);
    e2e::check_run(ctx, &digests, &digests, tally);
    let reference = outcome.report;

    let journal_path = ctx.dir.join("journal-traced.jsonl");
    let _ = std::fs::remove_file(&journal_path);
    let replica_start = Instant::now();
    let replica = t.span("campaign.run", cell_records, |t| -> Result<CampaignReport, String> {
        let campaign = Campaign::new(spec.clone())
            .threads(THREADS)
            .cache(TraceCache::new(&cache_dir).map_err(|e| format!("opening cache: {e}"))?);
        let mut journal = Journal::open(&journal_path, &spec.name, &spec.digest())
            .map_err(|e| format!("opening journal: {e}"))?;
        let mut completed = BTreeMap::new();
        for w in &grid.workloads {
            let trace = t.span("campaign.acquire", records[w], |_| campaign.acquire(w))?;
            let cells: Vec<_> = grid.cells_of(w).collect();
            let band: Vec<(SimConfig, PolicyKind)> =
                cells.iter().map(|c| (grid.configs[c.config_index].1, c.policy)).collect();
            let band_records = trace.records() * cells.len() as u64;
            let start = Instant::now();
            let results =
                t.span("campaign.band", band_records, |_| trace.simulate_cells(&band, THREADS, 0))?;
            record_band_metrics(
                cells.len() as u64,
                band_records,
                start.elapsed().as_nanos() as u64,
            );
            for (cell, result) in cells.iter().zip(results) {
                t.span("journal.record", 1, |_| journal.record(&cell.id, &result))
                    .map_err(|e| format!("writing journal: {e}"))?;
                completed.insert(cell.id.clone(), result);
            }
        }
        t.span("report.build", 1, |_| {
            let report = campaign.report_from_completed(&completed)?;
            black_box(report.to_json_string());
            Ok(report)
        })
    })?;
    let replica_wall = replica_start.elapsed().as_secs_f64();
    tally.attempted += reference.cells.len() as u64;
    if replica != reference {
        eprintln!("the traced replica's report differs from Campaign::run's");
        tally.failed += reference.cells.len() as u64;
    }

    // 3. Record-by-record decode of every cached trace.
    for w in &grid.workloads {
        let path = cache_entry(&cache, ctx, w)?;
        let n = t.span("trace.decode", records[w], |_| drain(&path))?;
        if n != records[w] {
            return Err(format!(
                "{} decodes to {n} records, expected {}",
                path.display(),
                records[w]
            ));
        }
    }

    // 4. Per band: single cells and component isolation, one resident
    // trace at a time.
    let base = spec.base_config.config();
    let mut totals = BandTotals::default();
    let largest = records.iter().max_by_key(|(_, &n)| n).map(|(w, _)| w.clone());
    for w in &grid.workloads {
        let trace = if w.starts_with("trace:") {
            let path = cache_entry(&cache, ctx, w)?;
            let file = File::open(&path).map_err(|e| format!("opening {}: {e}", path.display()))?;
            read_trace(BufReader::new(file))
                .map_err(|e| format!("reading {}: {e}", path.display()))?
        } else {
            t.span("cache.get_or_generate.hit", records[w], |_| {
                cache.get_or_generate(w, spec.scale, spec.seed, || {
                    Err(format!("trace cache entry of {w} vanished"))
                })
            })?
        };
        let cells: Vec<BandCell> = grid
            .cells_of(w)
            .map(|c| {
                (grid.configs[c.config_index].0.clone(), grid.configs[c.config_index].1, c.policy)
            })
            .collect();
        analyse_band(&mut t, &base, &trace, &cells, &reference, &mut totals, tally);
        if largest.as_deref() == Some(w.as_str()) {
            let pairs = if trace.len() > 4_000_000 { 2 } else { 3 };
            (totals.obs_off_rps, totals.obs_on_rps) = obs_overhead(&mut t, &trace, &base, pairs);
        }
    }

    if let Err(e) = t.write_jsonl(&ctx.spans_path) {
        eprintln!("warning: writing spans to {}: {e}", ctx.spans_path.display());
    }

    // 5. Metrics.
    let tot = t.totals();
    let get = |name: &str| tot.get(name).cloned().unwrap_or_default();
    let ns_per = |name: &str| get(name).self_ns_per_work();
    let band_ms: Vec<f64> =
        t.durations("campaign.band").iter().map(|&ns| ns as f64 / 1e6).collect();
    let component_ns: u64 =
        ["l1d.replay", "l2.replay", "llc.replay.lru", "mshr.replay", "dram.replay", "core.replay"]
            .iter()
            .map(|n| get(n).dur_ns)
            .sum();
    let lru_cell_ns = get("grid.cell.lru@x1").dur_ns;
    let sim = &totals.sim;
    let synthetic = !streamed;
    let mut m: Vec<Metric> = vec![
        ("workloads.gen_s".into(), get("workloads.gen").dur_ns as f64 / 1e9, "s", synthetic),
        (
            "cache.write_ns_per_record".into(),
            ns_per("cache.get_or_generate.miss"),
            "ns/record",
            synthetic,
        ),
        ("ingest.ns_per_record".into(), ns_per("ingest.ingest_file"), "ns/record", streamed),
        (
            "cache.read_ns_per_record".into(),
            ns_per("cache.get_or_generate.hit"),
            "ns/record",
            synthetic,
        ),
        ("campaign.acquire_ms".into(), get("campaign.acquire").dur_ns as f64 / 1e6, "ms", true),
        ("trace.decode_ns_per_record".into(), ns_per("trace.decode"), "ns/record", true),
    ];
    for p in SEVEN_POLICIES {
        let name = format!("grid.cell_ns_per_record.{}", p.name());
        m.push((name, ns_per(&format!("grid.cell.{}@x1", p.name())), "ns/record", true));
    }
    let band_ns = get("campaign.band").dur_ns;
    let journal = get("journal.record");
    m.extend([
        (
            "campaign.parallel_efficiency".into(),
            ratio(totals.in_grid_cell_ns, THREADS as u64 * band_ns),
            "ratio",
            true,
        ),
        ("campaign.band_ms.p50".into(), percentile(&band_ms, 50.0), "ms", true),
        ("campaign.band_ms.p80".into(), percentile(&band_ms, 80.0), "ms", true),
        (
            "campaign.overhead_ms".into(),
            get("campaign.run").dur_ns.saturating_sub(band_ns) as f64 / 1e6,
            "ms",
            true,
        ),
        ("journal.us_per_cell".into(), ratio(journal.dur_ns, journal.count) / 1e3, "us/cell", true),
        ("report.build_ms".into(), get("report.build").dur_ns as f64 / 1e6, "ms", true),
        ("l1d.ns_per_access".into(), ns_per("l1d.replay"), "ns/access", true),
        ("l2.ns_per_access".into(), ns_per("l2.replay"), "ns/access", true),
    ]);
    for p in SEVEN_POLICIES {
        let name = format!("llc.ns_per_access.{}", p.name());
        m.push((name, ns_per(&format!("llc.replay.{}", p.name())), "ns/access", true));
    }
    let [l1, l2, llc] = sim.levels;
    m.extend([
        ("mshr.ns_per_op".into(), ns_per("mshr.replay"), "ns/op", true),
        ("dram.ns_per_access".into(), ns_per("dram.replay"), "ns/access", true),
        ("core.ns_per_record".into(), ns_per("core.replay"), "ns/record", true),
        (
            "replay.unattributed_pct".into(),
            100.0 * (1.0 - ratio(component_ns, lru_cell_ns)),
            "%",
            true,
        ),
        (
            "obs.overhead_pct".into(),
            100.0 * (1.0 - totals.obs_on_rps / totals.obs_off_rps.max(1e-9)),
            "%",
            true,
        ),
        ("tracing_overhead_pct".into(), 100.0 * (1.0 - untraced_wall / replica_wall), "%", true),
        ("l1d.miss_ratio".into(), ratio(l1.1, l1.0), "ratio", true),
        ("l2.miss_ratio".into(), ratio(l2.1, l2.0), "ratio", true),
        ("llc.miss_ratio".into(), ratio(llc.1, llc.0), "ratio", true),
        ("llc.accesses_per_record".into(), ratio(llc.0, sim.records), "1/record", true),
        (
            "llc.writebacks_per_record".into(),
            ratio(sim.llc_writebacks_out, sim.records),
            "1/record",
            true,
        ),
        ("dram.row_hit_ratio".into(), ratio(sim.row_hits, sim.dram_accesses), "ratio", true),
        ("mshr.merges_per_record".into(), ratio(sim.mshr_merges, sim.records), "1/record", true),
        ("core.ipc".into(), ratio(sim.instructions, sim.cycles), "instr/cycle", true),
        ("llc.lru_misses.engine".into(), totals.engine_llc_misses as f64, "count", true),
        ("llc.lru_misses.standalone".into(), totals.standalone_llc_misses as f64, "count", true),
        (
            "llc.stream_drift_pct".into(),
            100.0 * (totals.standalone_llc_demand as f64 - totals.engine_llc_demand as f64)
                / (totals.engine_llc_demand.max(1) as f64),
            "%",
            true,
        ),
    ]);
    for metric in &mut m {
        if !metric.3 {
            metric.1 = 0.0;
        }
    }
    Ok(m)
}
