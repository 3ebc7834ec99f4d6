//! In-memory span recorder for the traced run.
//!
//! Every call the traced run makes into a layer's public function is
//! wrapped in a span (name, start, end, parent, cell id). Spans stay in
//! memory until the run ends; the run then derives each layer's self
//! time (span duration minus the part covered by child spans) and share
//! of the traced wall time, and can write the spans out as JSON lines.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub cell: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the name up to its last dot
    /// (`vpu.run` → `vpu`, `service.store.put` → `service.store`).
    pub fn layer(&self) -> &'static str {
        match self.name.rfind('.') {
            Some(i) => &self.name[..i],
            None => self.name,
        }
    }
}

/// Records spans against one time origin. Spans nest through an
/// explicit stack: `enter` pushes, `exit` pops.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    cell: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cell: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the cell id stamped on spans opened from now on.
    pub fn set_cell(&mut self, cell: usize) {
        self.cell = cell;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            cell: self.cell,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Runs `f` inside a span and also returns the span's seconds.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        (out, self.spans[id].duration_ns() as f64 * 1e-9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Seconds of self time per layer.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// Mean duration, in seconds, of spans named `name` (0 if none).
    pub fn mean_s(&self, name: &str) -> f64 {
        let (n, sum) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0usize, 0.0), |(n, sum), s| {
                (n + 1, sum + s.duration_ns() as f64 * 1e-9)
            });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"cell\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, parent, s.cell, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_layers_sum_to_the_root() {
        let mut t = Tracer::new();
        let root = t.enter("bench");
        t.span("vpu.run", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.span("kernels.build", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let layers = t.layer_self_s();
        let sum: f64 = layers.values().sum();
        let wall = t.spans()[root].duration_ns() as f64 * 1e-9;
        assert!((sum - wall).abs() < 1e-9, "{sum} vs {wall}");
        assert!(layers["vpu"] >= 0.003 && layers["kernels"] >= 0.002);
        assert_eq!(t.spans()[1].parent, Some(root));
    }
}
