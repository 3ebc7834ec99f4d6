//! Host-speed probe.
//!
//! The benchmark runs on a shared host whose speed swings by up to 1.6x
//! over minutes (on the 2-core Xeon VM it was tuned on, a fixed compute
//! loop took 0.34 s in one minute and 0.55 s half an hour later, with
//! under 2% steal time), so a simulation's host time measures the
//! neighbours as much as the program. The probe is a fixed computation
//! of the benchmark's own — pseudo-random loads and stores over a 2 MB
//! table with a data-dependent branch on every value — that shares none
//! of the program's code, so a change to the program never changes the
//! probe's time, while a slower host slows both. The benchmark times the
//! probe around every timed stretch of simulation (a `cnn-resnet50` cell,
//! a `service-mixed` cold miss or load segment) and reports its time at
//! the reference speed: `host seconds × REFERENCE_S / probe seconds`,
//! with the probe seconds the mean of the runs just before and just
//! after it.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the reference host: its median per run on the
/// 2-core Xeon VM the benchmark was tuned on was 3.3–3.5 ms in the
/// host's quiet spells (4.4–4.7 ms in its slow ones).
pub const REFERENCE_S: f64 = 0.0035;

/// Table entries (8 bytes each): 2 MB, the size of a mid-level cache.
const TABLE: usize = 1 << 18;

const STEPS: usize = 200_000;

pub struct Probe {
    table: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    pub fn new() -> Self {
        Self {
            table: (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        }
    }

    /// Host seconds of one run of the probe computation.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut acc = 0u64;
        let mask = TABLE - 1;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            let v = self.table[i];
            match v & 3 {
                0 => acc = acc.wrapping_add(v),
                1 => acc ^= v.rotate_left(7),
                2 => acc = acc.wrapping_mul(v | 1),
                _ => acc = acc.wrapping_sub(v >> 3),
            }
            self.table[(i + 1) & mask] = v ^ acc;
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }
}
