//! Set-associative cache level with pluggable replacement.

mod line;
mod mshr;
mod stats;

pub use line::CacheLine;
pub use mshr::{MshrBank, MshrGrant};
pub use stats::CacheStats;

use ccsim_policies::{AccessInfo, AccessType, LineView, PolicyDispatch, Victim};

use crate::config::{CacheConfig, MAX_WAYS};

/// Tag word of an empty slot. Tags are 64-byte block addresses (full
/// addresses shifted right by 6), so bit 63 of a real tag is never set
/// and the sentinel collides with no storable block.
pub const TAG_INVALID: u64 = u64::MAX;

/// Result of a fill: what (if anything) was displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOutcome {
    /// The block was cached; a dirty victim (if any) must be written back.
    Filled {
        /// Displaced dirty block that must be written to the level below.
        writeback: Option<u64>,
    },
    /// The policy bypassed the fill (block not cached).
    Bypassed,
}

/// One cache level: tag array + replacement policy + statistics + MSHRs.
///
/// The cache is *write-back, write-allocate* and stores full block
/// addresses as tags. The set index is the block address modulo the set
/// count (sets are a power of two, validated by
/// [`CacheConfig::validate`]).
///
/// # Hot-path contract
///
/// Steady-state accesses (lookup + fill, including victim queries) perform
/// **zero heap allocations**. The tag store is a struct-of-arrays: one
/// contiguous `Vec<u64>` of packed tag words (block address, or
/// [`TAG_INVALID`] for an empty slot) plus a one-bit-per-slot dirty
/// bitmap, so `probe`'s way scan is a branch-free equality sweep over a
/// cache-line-contiguous `u64` slice that LLVM autovectorizes. Victim
/// queries lend the policy [`LineView`]s reconstructed into a fixed
/// stack buffer (ways ≤ [`MAX_WAYS`], validated by
/// [`CacheConfig::validate`]) — and skip even that when the policy
/// reports it never reads them ([`PolicyDispatch::inspects_lines`],
/// false for all 12 built-ins). The policy is driven through statically
/// dispatched [`PolicyDispatch`] hooks. `tests/alloc_free.rs` enforces
/// the allocation-free property with a counting allocator.
#[derive(Debug)]
pub struct Cache {
    name: &'static str,
    sets: u32,
    ways: u32,
    latency: u64,
    /// SoA tag store, set-major: slot `set * ways + way` holds the block
    /// address resident in that way, or [`TAG_INVALID`].
    tags: Vec<u64>,
    /// Dirty bits, one per tag slot, packed 64 slots per word.
    dirty: Vec<u64>,
    policy: PolicyDispatch,
    mshrs: MshrBank,
    stats: CacheStats,
    /// Valid lines per set. Lines are never invalidated (the hierarchy is
    /// non-inclusive, without back-invalidation), so the valid ways of a
    /// set are always a prefix and this counter *is* the first free way —
    /// fills skip the invalid-way scan entirely, and probes bound their
    /// sweep to the valid prefix.
    occupied: Vec<u16>,
}

impl Cache {
    /// Builds a cache from `config` with the given `policy` (a
    /// [`PolicyDispatch`] or anything convertible into one, e.g. a
    /// `Box<dyn ReplacementPolicy>`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (callers validate configs at
    /// the simulator boundary; this is a defence in depth).
    pub fn new(name: &'static str, config: CacheConfig, policy: impl Into<PolicyDispatch>) -> Self {
        config.validate().expect("invalid cache config");
        let slots = (config.sets * config.ways) as usize;
        Cache {
            name,
            sets: config.sets,
            ways: config.ways,
            latency: config.latency,
            tags: vec![TAG_INVALID; slots],
            dirty: vec![0; slots.div_ceil(64)],
            policy: policy.into(),
            mshrs: MshrBank::new(config.mshrs),
            stats: CacheStats::default(),
            occupied: vec![0; config.sets as usize],
        }
    }

    /// Cache name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Access (hit) latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Set index for `block`.
    #[inline]
    pub fn set_of(&self, block: u64) -> u32 {
        (block & (self.sets as u64 - 1)) as u32
    }

    /// The MSHR bank (the hierarchy drives miss timing through it).
    pub fn mshrs(&mut self) -> &mut MshrBank {
        &mut self.mshrs
    }

    /// Policy diagnostic line.
    pub fn policy_diag(&self) -> String {
        self.policy.diag()
    }

    #[inline]
    fn idx(&self, set: u32, way: u32) -> usize {
        (set * self.ways + way) as usize
    }

    #[inline]
    fn dirty_bit(&self, slot: usize) -> bool {
        self.dirty[slot >> 6] >> (slot & 63) & 1 != 0
    }

    #[inline]
    fn write_dirty(&mut self, slot: usize, dirty: bool) {
        let bit = 1u64 << (slot & 63);
        let word = &mut self.dirty[slot >> 6];
        *word = (*word & !bit) | (u64::from(dirty) * bit);
    }

    /// Looks up `block` without changing any state.
    ///
    /// The scan is bounded to the set's valid prefix (`occupied`) and is
    /// a branch-free match-mask reduction over the packed tag words — no
    /// early exit, so LLVM turns the equality sweep into vector compares.
    /// At most one way can match (blocks are unique within a set), so
    /// the lowest set bit *is* the hit way.
    #[inline]
    pub fn probe(&self, block: u64) -> Option<u32> {
        let set = self.set_of(block);
        let base = self.idx(set, 0);
        let occ = self.occupied[set as usize] as usize;
        let mut mask = 0u64;
        for (way, &tag) in self.tags[base..base + occ].iter().enumerate() {
            mask |= u64::from(tag == block) << way;
        }
        (mask != 0).then(|| mask.trailing_zeros())
    }

    /// Processes a lookup: returns `Some(way)` and updates policy/stats on a
    /// hit, or `None` after counting a miss.
    ///
    /// Store (RFO) hits and writeback hits mark the line dirty.
    pub fn lookup(&mut self, info: &AccessInfo) -> Option<u32> {
        debug_assert_eq!(info.set, self.set_of(info.block));
        let hit = self.probe(info.block);
        match info.kind {
            AccessType::Writeback => {
                self.stats.writeback_accesses += 1;
                if hit.is_some() {
                    self.stats.writeback_hits += 1;
                }
            }
            _ => {
                self.stats.demand_accesses += 1;
                if hit.is_some() {
                    self.stats.demand_hits += 1;
                } else {
                    self.stats.demand_misses += 1;
                }
            }
        }
        if let Some(way) = hit {
            if matches!(info.kind, AccessType::Rfo | AccessType::Writeback) {
                let i = self.idx(info.set, way);
                self.dirty[i >> 6] |= 1 << (i & 63);
            }
            self.policy.on_hit(info.set, way, info);
        }
        hit
    }

    /// Rebuilds the policy-facing [`LineView`]s of `set` from the SoA
    /// tag store into `buf`, returning the set's ways as a slice.
    fn reconstruct_views<'a>(
        &self,
        set: u32,
        buf: &'a mut [LineView; MAX_WAYS as usize],
    ) -> &'a [LineView] {
        let base = self.idx(set, 0);
        for (way, view) in buf.iter_mut().enumerate().take(self.ways as usize) {
            let tag = self.tags[base + way];
            let valid = tag != TAG_INVALID;
            *view = LineView {
                valid,
                block: if valid { tag } else { 0 },
                dirty: self.dirty_bit(base + way),
            };
        }
        &buf[..self.ways as usize]
    }

    /// Allocates `info.block`, consulting the policy for a victim when the
    /// set is full. Returns what was displaced, or [`FillOutcome::Bypassed`]
    /// if the policy declined a demand fill.
    ///
    /// The line is installed clean for loads and dirty for RFOs/writebacks.
    pub fn fill(&mut self, info: &AccessInfo) -> FillOutcome {
        debug_assert_eq!(info.set, self.set_of(info.block));
        debug_assert!(self.probe(info.block).is_none(), "fill of resident block");
        debug_assert_ne!(info.block, TAG_INVALID, "block collides with the empty-slot sentinel");
        let set = info.set;
        let way = if (self.occupied[set as usize] as u32) < self.ways {
            // Valid lines form a prefix (nothing ever invalidates a line),
            // so the occupancy counter is the first free way.
            self.occupied[set as usize] as u32
        } else {
            // Full set: victim query. Policies that rank victims from
            // their own metadata (all 12 built-ins) skip the view
            // reconstruction entirely; only a policy that inspects lines
            // pays for the stack-buffer rebuild from the SoA store.
            let mut buf = [LineView::INVALID; MAX_WAYS as usize];
            let views: &[LineView] = if self.policy.inspects_lines() {
                self.reconstruct_views(set, &mut buf)
            } else {
                &[]
            };
            match self.policy.victim(set, info, views) {
                Victim::Way(w) => {
                    assert!(w < self.ways, "{}: policy victim out of range", self.name);
                    w
                }
                Victim::Bypass => {
                    if info.kind.is_demand() {
                        self.stats.bypasses += 1;
                        return FillOutcome::Bypassed;
                    }
                    // Writebacks cannot bypass (the incoming dirty block
                    // must land somewhere): re-query with bypassing
                    // forbidden so the eviction follows the policy's own
                    // aging order, and count the override.
                    self.stats.writeback_bypass_overrides += 1;
                    let w = self.policy.forced_victim(set, info, views);
                    assert!(w < self.ways, "{}: forced victim out of range", self.name);
                    w
                }
            }
        };
        let i = self.idx(set, way);
        let old_tag = self.tags[i];
        let mut writeback = None;
        if old_tag != TAG_INVALID {
            self.stats.evictions += 1;
            if self.dirty_bit(i) {
                self.stats.writebacks_out += 1;
                writeback = Some(old_tag);
            }
        } else {
            self.occupied[set as usize] += 1;
        }
        self.tags[i] = info.block;
        self.write_dirty(i, matches!(info.kind, AccessType::Rfo | AccessType::Writeback));
        self.stats.fills += 1;
        self.policy.on_fill(set, way, info, (old_tag != TAG_INVALID).then_some(old_tag));
        FillOutcome::Filled { writeback }
    }

    /// Number of valid lines (for tests and occupancy reports).
    pub fn occupancy(&self) -> usize {
        self.occupied.iter().map(|&o| o as usize).sum()
    }

    /// Bytes of hot per-access state: the packed tag words, the dirty
    /// bitmap and the occupancy counters — everything a probe or fill
    /// touches besides policy metadata. The grid chunk autotuner sizes
    /// lockstep chunks against the sum of this over all live cells.
    pub fn hot_state_bytes(&self) -> u64 {
        (self.tags.len() * 8 + self.dirty.len() * 8 + self.occupied.len() * 2) as u64
    }

    /// Notes a demand miss that merged into an outstanding MSHR.
    pub fn note_mshr_merge(&mut self) {
        self.stats.mshr_merges += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_policies::PolicyKind;

    fn small() -> Cache {
        let cfg = CacheConfig { sets: 4, ways: 2, latency: 1, mshrs: 2 };
        Cache::new("test", cfg, PolicyKind::Lru.build(cfg.sets, cfg.ways))
    }

    fn load(cache: &Cache, block: u64) -> AccessInfo {
        AccessInfo { pc: 0x400, block, set: cache.set_of(block), kind: AccessType::Load }
    }

    fn rfo(cache: &Cache, block: u64) -> AccessInfo {
        AccessInfo { pc: 0x404, block, set: cache.set_of(block), kind: AccessType::Rfo }
    }

    fn wb(cache: &Cache, block: u64) -> AccessInfo {
        AccessInfo { pc: 0, block, set: cache.set_of(block), kind: AccessType::Writeback }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let a = load(&c, 0x100);
        assert_eq!(c.lookup(&a), None);
        assert_eq!(c.fill(&a), FillOutcome::Filled { writeback: None });
        assert!(c.lookup(&a).is_some());
        assert_eq!(c.stats().demand_misses, 1);
        assert_eq!(c.stats().demand_hits, 1);
    }

    #[test]
    fn set_mapping_uses_low_bits() {
        let c = small();
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(5), 1);
        assert_eq!(c.set_of(7), 3);
        assert_eq!(c.set_of(8), 0);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        // Blocks 0, 4, 8 all map to set 0 (sets=4).
        let w = rfo(&c, 0);
        c.fill(&w); // dirty
        c.fill(&load(&c, 4));
        // Set full; filling 8 evicts LRU = block 0 (dirty).
        let out = c.fill(&load(&c, 8));
        assert_eq!(out, FillOutcome::Filled { writeback: Some(0) });
        assert_eq!(c.stats().writebacks_out, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.fill(&load(&c, 0));
        c.fill(&load(&c, 4));
        let out = c.fill(&load(&c, 8));
        assert_eq!(out, FillOutcome::Filled { writeback: None });
    }

    #[test]
    fn rfo_hit_marks_dirty() {
        let mut c = small();
        c.fill(&load(&c, 0x20));
        assert!(c.lookup(&rfo(&c, 0x20)).is_some());
        c.fill(&load(&c, 0x24));
        // Evicting 0x20 must now produce a writeback.
        let out = c.fill(&load(&c, 0x28));
        assert_eq!(out, FillOutcome::Filled { writeback: Some(0x20) });
    }

    #[test]
    fn writeback_lookup_counts_separately() {
        let mut c = small();
        c.fill(&load(&c, 0x30));
        assert!(c.lookup(&wb(&c, 0x30)).is_some());
        assert_eq!(c.stats().writeback_accesses, 1);
        assert_eq!(c.stats().writeback_hits, 1);
        assert_eq!(c.stats().demand_accesses, 0);
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = small();
        assert_eq!(c.occupancy(), 0);
        c.fill(&load(&c, 1));
        c.fill(&load(&c, 2));
        assert_eq!(c.occupancy(), 2);
    }

    // The check is a `debug_assert!`, so release-profile tests skip it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "fill of resident block")]
    fn double_fill_rejected_in_debug() {
        let mut c = small();
        c.fill(&load(&c, 9));
        c.fill(&load(&c, 9));
    }

    #[test]
    fn dirty_bitmap_tracks_slots_beyond_the_first_word() {
        // 64 sets x 2 ways = 128 slots: set 40 lives in slots 80/81,
        // past the first 64-bit dirty word.
        let cfg = CacheConfig { sets: 64, ways: 2, latency: 1, mshrs: 2 };
        let mut c = Cache::new("wide", cfg, PolicyKind::Lru.build(cfg.sets, cfg.ways));
        c.fill(&rfo(&c, 40)); // dirty
        c.fill(&load(&c, 40 + 64)); // clean, same set
        let out = c.fill(&load(&c, 40 + 128)); // evicts LRU = dirty block 40
        assert_eq!(out, FillOutcome::Filled { writeback: Some(40) });
        let out = c.fill(&load(&c, 40 + 192)); // evicts clean block 104
        assert_eq!(out, FillOutcome::Filled { writeback: None });
    }

    #[test]
    fn custom_policy_receives_views_reconstructed_from_the_soa_store() {
        use std::cell::RefCell;
        use std::rc::Rc;

        use ccsim_policies::ReplacementPolicy;

        // A boxed policy keeps the conservative `inspects_lines` default,
        // so its victim query must see the set's lines faithfully rebuilt
        // from the packed tags + dirty bitmap.
        #[derive(Debug)]
        struct Spy(Rc<RefCell<Vec<LineView>>>);
        impl ReplacementPolicy for Spy {
            fn name(&self) -> &'static str {
                "spy"
            }
            fn victim(&mut self, _set: u32, _info: &AccessInfo, lines: &[LineView]) -> Victim {
                self.0.borrow_mut().extend_from_slice(lines);
                Victim::Way(0)
            }
            fn on_hit(&mut self, _set: u32, _way: u32, _info: &AccessInfo) {}
            fn on_fill(&mut self, _set: u32, _way: u32, _info: &AccessInfo, _ev: Option<u64>) {}
        }

        let seen = Rc::new(RefCell::new(Vec::new()));
        let cfg = CacheConfig { sets: 4, ways: 2, latency: 1, mshrs: 2 };
        let spy: Box<dyn ReplacementPolicy> = Box::new(Spy(Rc::clone(&seen)));
        let mut c = Cache::new("spied", cfg, spy);
        c.fill(&rfo(&c, 0)); // way 0, dirty
        c.fill(&load(&c, 4)); // way 1, clean
        c.fill(&load(&c, 8)); // full set: victim query
        assert_eq!(
            *seen.borrow(),
            vec![
                LineView { valid: true, block: 0, dirty: true },
                LineView { valid: true, block: 4, dirty: false },
            ],
        );
    }

    #[test]
    fn hot_state_bytes_counts_tags_dirty_words_and_occupancy() {
        // 4 sets x 2 ways: 8 tag words + 1 dirty word + 4 u16 counters.
        assert_eq!(small().hot_state_bytes(), 8 * 8 + 8 + 4 * 2);
    }
}
