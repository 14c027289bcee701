//! Output checks: per-cell digests of the simulated statistics, compared
//! against the digests committed for each workload's default seed.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ccsim_campaign::CampaignReport;
use ccsim_core::{CacheStats, SimResult};

/// The seed whose per-cell digests are committed under `expected/`.
pub const DEFAULT_SEED: u64 = 0;

/// FNV-1a over the simulated statistics of one cell: instructions,
/// cycles, the three levels' [`CacheStats`] and the DRAM statistics.
/// The workload name and policy diagnostics are left out, so the path of
/// a generated input never enters the digest.
pub fn digest(r: &SimResult) -> u64 {
    let level = |s: &CacheStats| {
        [
            s.demand_accesses,
            s.demand_hits,
            s.demand_misses,
            s.mshr_merges,
            s.writeback_accesses,
            s.writeback_hits,
            s.fills,
            s.evictions,
            s.writebacks_out,
            s.bypasses,
            s.writeback_bypass_overrides,
        ]
    };
    let d = &r.dram;
    let mut words = vec![r.instructions, r.cycles];
    for s in [&r.l1d, &r.l2, &r.llc] {
        words.extend(level(s));
    }
    words.extend([d.reads, d.writes, d.row_hits, d.row_empty, d.row_conflicts, d.queue_cycles]);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Cell identity without the input path: `trace:` selectors (whose path
/// names the benchmark's scratch directory) become `trace`.
pub fn cell_key(workload: &str, config: &str, policy: &str) -> String {
    let workload = if workload.starts_with("trace:") { "trace" } else { workload };
    format!("{workload}|{config}|{policy}")
}

/// Cell key → digest for every cell of a report.
pub fn report_digests(report: &CampaignReport) -> BTreeMap<String, u64> {
    report
        .cells
        .iter()
        .map(|c| (cell_key(&c.workload, &c.config, &c.policy), digest(&c.result)))
        .collect()
}

fn expected_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected").join(format!("{workload}.txt"))
}

/// The committed digests of `workload` at [`DEFAULT_SEED`].
pub fn load_expected(workload: &str) -> Result<BTreeMap<String, u64>, String> {
    let path = expected_path(workload);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, hex) = l.rsplit_once(' ').ok_or_else(|| format!("bad line {l:?}"))?;
            let digest =
                u64::from_str_radix(hex, 16).map_err(|e| format!("bad digest in {l:?}: {e}"))?;
            Ok((key.to_owned(), digest))
        })
        .collect()
}

/// Writes `digests` as the committed expectation for `workload`.
pub fn bless(workload: &str, digests: &BTreeMap<String, u64>) -> Result<PathBuf, String> {
    let path = expected_path(workload);
    let mut text = format!(
        "# Per-cell digests of the simulated statistics of `{workload}` at seed \
         {DEFAULT_SEED}\n# (see check.rs). Regenerate with --bless.\n"
    );
    for (key, d) in digests {
        text.push_str(&format!("{key} {d:016x}\n"));
    }
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Cells of `actual` that disagree with `expected` (or are missing from
/// either side).
pub fn mismatches(expected: &BTreeMap<String, u64>, actual: &BTreeMap<String, u64>) -> Vec<String> {
    let mut bad: Vec<String> = expected
        .iter()
        .filter(|(k, d)| actual.get(*k) != Some(d))
        .map(|(k, _)| k.clone())
        .collect();
    bad.extend(actual.keys().filter(|k| !expected.contains_key(*k)).cloned());
    bad
}
