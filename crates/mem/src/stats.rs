//! Memory-traffic counters — the data behind the paper's Fig. 6.

/// Counters of every memory operation issued by a simulated program.
///
/// "Memory accesses" in the paper's Fig. 6 are the loads and stores the
/// *program* executes (each unit-stride vector access of a 512-bit row
/// slice touches exactly one 64-byte line, so instruction-level and
/// line-level counting coincide for the kernels under study).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Scalar loads issued (L1D path).
    pub scalar_loads: u64,
    /// Scalar stores issued (L1D path).
    pub scalar_stores: u64,
    /// Vector loads issued (direct-to-L2 path).
    pub vector_loads: u64,
    /// Vector stores issued (direct-to-L2 path).
    pub vector_stores: u64,
    /// 64-byte lines requested from DRAM (reads).
    pub dram_reads: u64,
    /// 64-byte lines written back to DRAM.
    pub dram_writes: u64,
}

impl MemStats {
    /// Total program-issued memory accesses (Fig. 6 numerator).
    pub fn total_accesses(&self) -> u64 {
        self.scalar_loads + self.scalar_stores + self.vector_loads + self.vector_stores
    }

    /// Total vector-side accesses.
    pub fn vector_accesses(&self) -> u64 {
        self.vector_loads + self.vector_stores
    }

    /// Total DRAM line traffic.
    pub fn dram_lines(&self) -> u64 {
        self.dram_reads + self.dram_writes
    }
}

impl std::fmt::Display for MemStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mem accesses: {} (scalar {}ld/{}st, vector {}ld/{}st), dram lines {}",
            self.total_accesses(),
            self.scalar_loads,
            self.scalar_stores,
            self.vector_loads,
            self.vector_stores,
            self.dram_lines()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let s = MemStats {
            scalar_loads: 3,
            scalar_stores: 2,
            vector_loads: 10,
            vector_stores: 5,
            dram_reads: 7,
            dram_writes: 1,
        };
        assert_eq!(s.total_accesses(), 20);
        assert_eq!(s.vector_accesses(), 15);
        assert_eq!(s.dram_lines(), 8);
    }

    #[test]
    fn display_smoke() {
        assert!(MemStats::default().to_string().contains("mem accesses: 0"));
    }
}
