//! The benchmark's workloads: each is one campaign spec, built from the
//! workload seed, plus any input files the benchmark writes for it.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use ccsim_campaign::CampaignSpec;
use ccsim_ingest::champsim::{ChampSimRecord, ChampSimWriter};
use ccsim_policies::PolicyKind;

/// LRU plus the paper's six policies, in figure order.
pub const SEVEN_POLICIES: [PolicyKind; 7] = [
    PolicyKind::Lru,
    PolicyKind::Srrip,
    PolicyKind::Drrip,
    PolicyKind::Ship,
    PolicyKind::Hawkeye,
    PolicyKind::Glider,
    PolicyKind::Mpppb,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `bfs.kron` at full GAP scale, LRU + six policies, LLC x1.
    GapFull,
    /// The committed `campaigns/fig3_quick.json`, unchanged but for its seed.
    Fig3Quick,
    /// A generated ChampSim trace with 30 % stores, LLC x1/x2/x4.
    ChampsimStores,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::GapFull, Workload::Fig3Quick, Workload::ChampsimStores];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GapFull => "gap_full",
            Workload::Fig3Quick => "fig3_quick",
            Workload::ChampsimStores => "champsim_stores",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?}; expected one of {}", names.join(", "))
        })
    }

    /// Writes the workload's input files into `dir` and returns its
    /// campaign spec. Both depend on `seed` only.
    pub fn prepare(self, seed: u64, dir: &Path) -> Result<CampaignSpec, String> {
        let policies = |ps: &[PolicyKind]| {
            ps.iter().map(|p| format!("\"{}\"", p.name())).collect::<Vec<_>>().join(", ")
        };
        match self {
            Workload::GapFull => CampaignSpec::from_json_str(&format!(
                r#"{{"name": "gap_full", "seed": {seed}, "scale": "full",
                    "base_config": "cascade_lake", "llc_scales": [1],
                    "workloads": ["bfs.kron"], "policies": [{}]}}"#,
                policies(&SEVEN_POLICIES)
            )),
            Workload::Fig3Quick => {
                let mut spec = CampaignSpec::from_file(Path::new("campaigns/fig3_quick.json"))?;
                spec.seed = seed;
                Ok(spec)
            }
            Workload::ChampsimStores => {
                let source = dir.join("stores.champsim");
                write_champsim_stores(&source, seed, CHAMPSIM_INSTRUCTIONS)
                    .map_err(|e| format!("writing {}: {e}", source.display()))?;
                CampaignSpec::from_json_str(&format!(
                    r#"{{"name": "champsim_stores", "base_config": "cascade_lake",
                        "llc_scales": [1, 2, 4], "workloads": ["trace:{}"],
                        "policies": [{}]}}"#,
                    source.display(),
                    policies(&[PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Hawkeye])
                ))
            }
        }
    }
}

/// Instructions in the generated ChampSim trace.
const CHAMPSIM_INSTRUCTIONS: u64 = 4_000_000;

/// SplitMix64: a small, fast, seedable generator for the trace synthesis.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Writes a ChampSim `input_instr` trace of `instructions` records:
/// 30 % stores, 30 % loads, 10 % branches, 30 % ALU. Memory operands
/// cover an 8 MiB footprint (about 6x the 1.375 MB LLC): 20 % go to a
/// 4 KiB stack that stays in L1D, 40 % to a 1 MiB hot region, 25 % to a
/// sequential scan of the whole footprint and 15 % to uniformly random
/// blocks. Each access class has its own program counters, so PC-based
/// policies have a signal to learn.
fn write_champsim_stores(path: &Path, seed: u64, instructions: u64) -> std::io::Result<()> {
    const BASE: u64 = 0x1000_0000;
    const FOOTPRINT_BLOCKS: u64 = (8 << 20) / 64;
    const HOT_BLOCKS: u64 = (1 << 20) / 64;
    const STACK_BLOCKS: u64 = (4 << 10) / 64;
    let mut rng = SplitMix(seed ^ 0xC4A3_5EED_0000_0000);
    let mut file = BufWriter::with_capacity(1 << 20, File::create(path)?);
    let mut writer = ChampSimWriter::new(&mut file);
    let mut scan = 0u64;
    for i in 0..instructions {
        let ip = 0x40_0000 + 4 * (i % 1024);
        let kind = rng.below(100);
        let record = if kind < 60 {
            let class = rng.below(20);
            let (block, pc_class) = match class {
                0..=3 => (FOOTPRINT_BLOCKS - 1 - rng.below(STACK_BLOCKS), 0),
                4..=11 => (rng.below(HOT_BLOCKS), 1),
                12..=16 => {
                    scan = (scan + 1) % FOOTPRINT_BLOCKS;
                    (scan, 2)
                }
                _ => (rng.below(FOOTPRINT_BLOCKS), 3),
            };
            let addr = BASE + block * 64 + 8 * rng.below(8);
            let pc = 0x50_0000 + 0x100 * pc_class + 4 * rng.below(16);
            if kind < 30 {
                ChampSimRecord::store(pc + 0x80, addr)
            } else {
                ChampSimRecord::load(pc, addr)
            }
        } else if kind < 70 {
            ChampSimRecord::branch(ip, rng.below(2) == 0)
        } else {
            ChampSimRecord::nonmem(ip)
        };
        writer.write(&record)?;
    }
    file.flush()
}
