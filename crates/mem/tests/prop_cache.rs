//! Property tests of the cache and DRAM models, and a differential
//! test of the whole hierarchy against a deliberately naive reference.

use indexmac_mem::cache::CacheStats;
use indexmac_mem::{
    AccessKind, Cache, CacheConfig, DramConfig, DramModel, HierarchyConfig, MemStats,
    MemoryHierarchy,
};
use proptest::prelude::*;

fn small_cache_cfg() -> impl Strategy<Value = CacheConfig> {
    // sets in {1,2,4,8,16}, ways 1..4, line 32/64.
    (0u32..5, 1usize..5, prop_oneof![Just(32usize), Just(64)]).prop_map(|(s, ways, line)| {
        let sets = 1usize << s;
        CacheConfig {
            size_bytes: sets * ways * line,
            ways,
            line_bytes: line,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Counters are consistent and occupancy never exceeds capacity.
    #[test]
    fn counters_and_occupancy(
        cfg in small_cache_cfg(),
        addrs in prop::collection::vec(0u64..0x4000, 1..300),
        writes in prop::collection::vec(any::<bool>(), 300),
    ) {
        let mut c = Cache::new(cfg);
        let capacity = cfg.sets() * cfg.ways;
        for (i, addr) in addrs.iter().enumerate() {
            let kind = if writes[i % writes.len()] { AccessKind::Write } else { AccessKind::Read };
            c.access(*addr, kind);
            prop_assert!(c.valid_lines() <= capacity);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
        prop_assert!(s.evictions >= s.writebacks);
        prop_assert!(s.hit_rate() >= 0.0 && s.hit_rate() <= 1.0);
    }

    /// A working set that fits the cache hits 100% after one warm pass.
    #[test]
    fn resident_working_set_always_hits(
        cfg in small_cache_cfg(),
        seed in 0u64..1000,
    ) {
        let mut c = Cache::new(cfg);
        let lines = (cfg.sets() * cfg.ways).min(64);
        let base = (seed % 16) * 0x1000;
        let addrs: Vec<u64> =
            (0..lines as u64).map(|i| base + i * cfg.line_bytes as u64).collect();
        for a in &addrs {
            c.access(*a, AccessKind::Read);
        }
        let warm = c.stats();
        for a in &addrs {
            prop_assert!(c.access(*a, AccessKind::Read).hit, "warm miss at {a:#x}");
        }
        prop_assert_eq!(c.stats().hits, warm.hits + addrs.len() as u64);
    }

    /// Accesses within one line after the first never miss.
    #[test]
    fn same_line_locality(
        cfg in small_cache_cfg(),
        base in 0u64..0x10000,
        offsets in prop::collection::vec(0u64..32, 1..20),
    ) {
        let mut c = Cache::new(cfg);
        let line = base & !(cfg.line_bytes as u64 - 1);
        c.access(line, AccessKind::Read);
        for off in offsets {
            prop_assert!(c.access(line + off % cfg.line_bytes as u64, AccessKind::Read).hit);
        }
    }

    /// Probe never changes behaviour.
    #[test]
    fn probe_is_pure(
        cfg in small_cache_cfg(),
        addrs in prop::collection::vec(0u64..0x4000, 1..100),
    ) {
        let mut with_probe = Cache::new(cfg);
        let mut without = Cache::new(cfg);
        for a in &addrs {
            let _ = with_probe.probe(*a);
            let _ = with_probe.probe(a ^ 0xFFF);
            let r1 = with_probe.access(*a, AccessKind::Read);
            let r2 = without.access(*a, AccessKind::Read);
            prop_assert_eq!(r1, r2);
        }
        prop_assert_eq!(with_probe.stats(), without.stats());
    }

    /// DRAM completions are monotone in request order and respect the
    /// bandwidth gate.
    #[test]
    fn dram_monotone_and_bandwidth_limited(
        times in prop::collection::vec(0u64..10_000, 2..100),
        latency in 10u64..200,
        gap in 1u64..20,
    ) {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let mut d = DramModel::new(DramConfig { latency, cycles_per_line: gap });
        let mut prev = 0u64;
        for (i, t) in sorted.iter().enumerate() {
            let done = d.access(*t);
            prop_assert!(done >= t + latency);
            if i > 0 {
                prop_assert!(done >= prev + gap, "bandwidth gate violated");
            }
            prev = done;
        }
        prop_assert_eq!(d.lines_served(), sorted.len() as u64);
    }
}

/// Reference LRU cache: one `Vec` of `(tag, dirty)` per set, least
/// recently used first, indexed by division. Nothing is precomputed.
struct RefCache {
    line_bytes: u64,
    sets: Vec<Vec<(u64, bool)>>,
    ways: usize,
    stats: CacheStats,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.size_bytes / (cfg.ways * cfg.line_bytes);
        Self {
            line_bytes: cfg.line_bytes as u64,
            sets: vec![Vec::new(); sets],
            ways: cfg.ways,
            stats: CacheStats::default(),
        }
    }

    /// Returns `(hit, dirty victim written back)`.
    fn access(&mut self, addr: u64, write: bool) -> (bool, bool) {
        let line = addr / self.line_bytes;
        let n_sets = self.sets.len() as u64;
        let set = &mut self.sets[(line % n_sets) as usize];
        let tag = line / n_sets;
        if let Some(pos) = set.iter().position(|&(t, _)| t == tag) {
            let (_, dirty) = set.remove(pos);
            set.push((tag, dirty || write));
            self.stats.hits += 1;
            return (true, false);
        }
        self.stats.misses += 1;
        let mut writeback = false;
        if set.len() == self.ways {
            let (_, dirty) = set.remove(0);
            self.stats.evictions += 1;
            if dirty {
                self.stats.writebacks += 1;
                writeback = true;
            }
        }
        set.push((tag, write));
        (false, writeback)
    }
}

/// Reference hierarchy: the documented Table I arrangement spelled out
/// with the naive caches, a per-access `Vec` of covered lines, modulo
/// bank selection and an inline DRAM bandwidth gate.
struct RefHierarchy {
    cfg: HierarchyConfig,
    l1d: RefCache,
    l2: RefCache,
    bank_free: Vec<u64>,
    dram_free: u64,
    dram_queue: u64,
    stats: MemStats,
}

impl RefHierarchy {
    fn new(cfg: HierarchyConfig) -> Self {
        Self {
            cfg,
            l1d: RefCache::new(cfg.l1d),
            l2: RefCache::new(cfg.l2),
            bank_free: vec![0; cfg.l2_banks],
            dram_free: 0,
            dram_queue: 0,
            stats: MemStats::default(),
        }
    }

    fn lines(&self, addr: u64, size: u64) -> Vec<u64> {
        let lb = self.cfg.l2.line_bytes as u64;
        let first = addr / lb * lb;
        let last = (addr + size.max(1) - 1) / lb * lb;
        let mut out = Vec::new();
        let mut line = first;
        while line <= last {
            out.push(line);
            line += lb;
        }
        out
    }

    fn dram(&mut self, now: u64) -> u64 {
        let start = now.max(self.dram_free);
        self.dram_queue += start - now;
        self.dram_free = start + self.cfg.dram.cycles_per_line;
        start + self.cfg.dram.latency
    }

    fn l2_line(&mut self, line: u64, write: bool, now: u64) -> u64 {
        let bank = ((line / self.cfg.l2.line_bytes as u64) % self.cfg.l2_banks as u64) as usize;
        let start = now.max(self.bank_free[bank]);
        self.bank_free[bank] = start + self.cfg.l2_bank_occupancy;
        let (hit, writeback) = self.l2.access(line, write);
        if writeback {
            self.dram(start);
            self.stats.dram_writes += 1;
        }
        if hit {
            start + self.cfg.l2_latency
        } else {
            self.stats.dram_reads += 1;
            self.dram(start + self.cfg.l2_latency)
        }
    }

    fn access(&mut self, op: Op) -> u64 {
        match (op.scalar, op.write) {
            (true, false) => self.stats.scalar_loads += 1,
            (true, true) => self.stats.scalar_stores += 1,
            (false, false) => self.stats.vector_loads += 1,
            (false, true) => self.stats.vector_stores += 1,
        }
        let mut done = op.now;
        for line in self.lines(op.addr, op.size) {
            let completion = if !op.scalar {
                self.l2_line(line, op.write, op.now)
            } else {
                let (hit, writeback) = self.l1d.access(line, op.write);
                if hit {
                    op.now + self.cfg.l1_latency
                } else {
                    let filled = self.l2_line(line, false, op.now + self.cfg.l1_latency);
                    if writeback {
                        self.l2_line(line, true, filled);
                    }
                    filled
                }
            };
            done = done.max(completion);
        }
        done - op.now
    }
}

#[derive(Debug, Clone, Copy)]
struct Op {
    scalar: bool,
    write: bool,
    addr: u64,
    size: u64,
    now: u64,
}

fn apply(h: &mut MemoryHierarchy, op: Op) -> u64 {
    match (op.scalar, op.write) {
        (true, false) => h.scalar_read(op.addr, op.size, op.now),
        (true, true) => h.scalar_write(op.addr, op.size, op.now),
        (false, false) => h.vector_read(op.addr, op.size, op.now),
        (false, true) => h.vector_write(op.addr, op.size, op.now),
    }
}

fn cache_cfg(max_sets_log2: u32, max_ways: usize) -> impl Strategy<Value = CacheConfig> {
    (
        0..=max_sets_log2,
        1..=max_ways,
        prop_oneof![Just(32usize), Just(64), Just(128)],
    )
        .prop_map(|(s, ways, line)| CacheConfig {
            size_bytes: (1usize << s) * ways * line,
            ways,
            line_bytes: line,
        })
}

/// Small geometries (so streams evict) with bank counts that are and
/// are not powers of two.
fn random_hierarchy_cfg() -> impl Strategy<Value = HierarchyConfig> {
    (
        cache_cfg(4, 4),
        cache_cfg(6, 8),
        1usize..10,
        (1u64..4, 2u64..12, 1u64..4),
        (10u64..120, 1u64..10),
    )
        .prop_map(
            |(l1d, l2, l2_banks, (l1_latency, l2_latency, l2_bank_occupancy), (latency, gap))| {
                HierarchyConfig {
                    l1d,
                    l2,
                    l1_latency,
                    l2_latency,
                    l2_banks,
                    l2_bank_occupancy,
                    dram: DramConfig {
                        latency,
                        cycles_per_line: gap,
                    },
                }
            },
        )
}

/// Mostly random geometries, plus Table I itself with its own and a
/// non-power-of-two bank count.
fn hierarchy_cfg() -> impl Strategy<Value = HierarchyConfig> {
    prop_oneof![
        random_hierarchy_cfg(),
        random_hierarchy_cfg(),
        Just(HierarchyConfig::table_i()),
        Just(HierarchyConfig {
            l2_banks: 6,
            ..HierarchyConfig::table_i()
        }),
    ]
}

/// One access: scalar or vector, read or write, an address in a hot
/// window (hits) or a wide one (conflicts), a size that may straddle
/// several lines (0 touches one line), and a small time step.
fn op() -> impl Strategy<Value = (bool, bool, u64, u64, u64)> {
    (
        any::<bool>(),
        any::<bool>(),
        prop_oneof![0u64..0x800, 0u64..0x4_0000],
        prop_oneof![Just(4u64), Just(64), 0u64..300],
        0u64..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hierarchy agrees with the naive reference on every latency
    /// and every counter, at every geometry.
    #[test]
    fn hierarchy_matches_reference_lru(
        cfg in hierarchy_cfg(),
        ops in prop::collection::vec(op(), 1..400),
    ) {
        let mut h = MemoryHierarchy::new(cfg);
        let mut r = RefHierarchy::new(cfg);
        let mut now = 0u64;
        for (i, &(scalar, write, addr, size, dt)) in ops.iter().enumerate() {
            now += dt;
            let op = Op { scalar, write, addr, size, now };
            prop_assert_eq!(apply(&mut h, op), r.access(op), "latency of op {} {:?}", i, op);
        }
        prop_assert_eq!(h.l1d().stats(), r.l1d.stats);
        prop_assert_eq!(h.l2().stats(), r.l2.stats);
        prop_assert_eq!(h.stats(), r.stats);
        prop_assert_eq!(h.dram_queue_cycles(), r.dram_queue);
    }
}
