//! Run reports: the measurements every experiment consumes.

use crate::timing::ClassCounts;
use indexmac_isa::InstrClass;
use indexmac_mem::MemStats;

/// Measurements from one simulated program run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Total cycles until every component drained.
    pub cycles: u64,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Per-class dynamic instruction counts.
    pub counts: ClassCounts,
    /// Program-issued memory traffic (the paper's Fig. 6 metric).
    pub mem: MemStats,
    /// L1D hit rate in `[0, 1]`.
    pub l1d_hit_rate: f64,
    /// L2 hit rate in `[0, 1]`.
    pub l2_hit_rate: f64,
    /// Cycles the vector engine was occupied.
    pub engine_busy_cycles: u64,
    /// Cycles the scalar core stalled on a full vector queue.
    pub vq_stall_cycles: u64,
    /// Cycles the scalar core stalled on a full ROB.
    pub rob_stall_cycles: u64,
    /// Vector-to-scalar synchronisations (`vmv.x.s`-class).
    pub v2s_syncs: u64,
}

impl RunReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Vector-engine utilisation in `[0, 1]`.
    pub fn engine_utilisation(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.engine_busy_cycles as f64 / self.cycles as f64
        }
    }

    /// Speedup of `self` relative to `baseline` (`baseline.cycles /
    /// self.cycles`) — the paper's Fig. 4/5 metric.
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// Memory accesses of `self` normalised to `baseline` — the paper's
    /// Fig. 6 metric.
    pub fn normalized_mem_accesses(&self, baseline: &RunReport) -> f64 {
        if baseline.mem.total_accesses() == 0 {
            0.0
        } else {
            self.mem.total_accesses() as f64 / baseline.mem.total_accesses() as f64
        }
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cycles {:>12}  instret {:>12}  ipc {:>5.2}  engine util {:>5.1}%",
            self.cycles,
            self.instructions,
            self.ipc(),
            self.engine_utilisation() * 100.0
        )?;
        writeln!(
            f,
            "  vec: {} loads, {} stores, {} MACs, {} indexmacs, {} slides, {} v2s syncs",
            self.counts.get(InstrClass::VLoad),
            self.counts.get(InstrClass::VStore),
            self.counts.get(InstrClass::VMac),
            self.counts.get(InstrClass::VIndexMac),
            self.counts.get(InstrClass::VSlide),
            self.v2s_syncs,
        )?;
        write!(f, "  {} | ", self.mem)?;
        // A kernel that issues no scalar memory access never touches
        // the L1D, so it has no hit rate to report.
        if self.mem.scalar_loads + self.mem.scalar_stores == 0 {
            write!(f, "L1D n/a")?;
        } else {
            write!(f, "L1D {:.1}%", self.l1d_hit_rate * 100.0)?;
        }
        write!(f, " | L2 {:.1}%", self.l2_hit_rate * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, instructions: u64) -> RunReport {
        RunReport {
            cycles,
            instructions,
            counts: ClassCounts::default(),
            mem: MemStats {
                vector_loads: 10,
                ..Default::default()
            },
            l1d_hit_rate: 0.9,
            l2_hit_rate: 0.8,
            engine_busy_cycles: cycles / 2,
            vq_stall_cycles: 0,
            rob_stall_cycles: 0,
            v2s_syncs: 0,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report(100, 250);
        assert_eq!(r.ipc(), 2.5);
        assert_eq!(r.engine_utilisation(), 0.5);
        let base = report(180, 250);
        assert!((base.cycles as f64 / r.cycles as f64 - r.speedup_over(&base)).abs() < 1e-12);
        assert_eq!(r.speedup_over(&base), 1.8);
    }

    #[test]
    fn normalized_mem() {
        let mut a = report(1, 1);
        let mut b = report(1, 1);
        a.mem.vector_loads = 5;
        b.mem.vector_loads = 10;
        assert_eq!(a.normalized_mem_accesses(&b), 0.5);
    }

    #[test]
    fn zero_cycle_guards() {
        let z = report(0, 0);
        assert_eq!(z.ipc(), 0.0);
        assert_eq!(z.engine_utilisation(), 0.0);
        assert_eq!(z.speedup_over(&report(5, 5)), 0.0);
    }

    #[test]
    fn display_smoke() {
        // Vector-only traffic: the L1D saw nothing.
        let s = report(10, 20).to_string();
        assert!(s.contains("cycles"));
        assert!(s.contains("L1D n/a | L2 80.0%"), "{s}");
        let mut scalar = report(10, 20);
        scalar.mem.scalar_loads = 1;
        let s = scalar.to_string();
        assert!(s.contains("L1D 90.0% | L2 80.0%"), "{s}");
        scalar.mem.scalar_loads = 0;
        scalar.mem.scalar_stores = 1;
        assert!(scalar.to_string().contains("L1D 90.0%"));
    }
}
