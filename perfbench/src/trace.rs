//! Span recording for the traced runs, the self-time ledger built from the
//! spans, and the small statistics helpers every workload shares.
//!
//! Spans are recorded from the benchmark's own code around each call it
//! makes into a layer's public API; nothing inside the program is traced.
//! A layer span may sit inside one container span (a grid cell or a served
//! request), which gives it its parent and the id it shares with its
//! siblings. Spans stay in memory until the run ends and are then written
//! out as CSV.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    id: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: None }
    }

    /// Opens a container span: layer spans recorded until [`Tracer::close`]
    /// become its children.
    pub fn open(&mut self, name: &'static str, id: u64) {
        let at = self.origin.elapsed();
        self.spans.push(Span { name, start: at, end: at, parent: None, id });
        self.open = Some(self.spans.len() - 1);
    }

    /// Closes the open container span.
    pub fn close(&mut self) {
        if let Some(index) = self.open.take() {
            self.spans[index].end = self.origin.elapsed();
        }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: self.open,
            id,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, id, start, Instant::now());
        value
    }

    /// Self time of every span name: each span's duration minus the time its
    /// children cover, summed per name, in microseconds. Fails if a child
    /// outlasts its parent, which would count time twice.
    fn self_times(&self) -> Result<BTreeMap<&'static str, f64>, String> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.end - span.start;
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(children) {
            let own = (span.end - span.start).checked_sub(covered).ok_or_else(|| {
                format!("children of a {:?} span outlast it (id {})", span.name, span.id)
            })?;
            *out.entry(span.name).or_insert(0.0) += micros(own);
        }
        Ok(out)
    }

    /// Writes every span as one CSV row:
    /// `span,parent,name,id,start_ns,end_ns` (parent is empty at top level).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("span,parent,name,id,start_ns,end_ns\n");
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{index},{parent},{},{},{},{}",
                span.name,
                span.id,
                span.start.as_nanos(),
                span.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The books of one traced run: the self time of every layer, the probes
/// and the remainder no layer span covers, which together make up the
/// traced wall time.
#[derive(Debug)]
pub struct Ledger {
    /// Self time per layer span name, in microseconds.
    pub layers: BTreeMap<&'static str, f64>,
    /// Time of the probes: calls a scheduler layer also makes inside its own
    /// call, re-run on their own so they get a span. It is taken out of that
    /// scheduler layer, so the program's work is counted once.
    pub probe_us: f64,
    /// Traced wall time not covered by any layer span (driver glue and the
    /// container spans' own time), in microseconds.
    pub remainder_us: f64,
}

impl Ledger {
    /// Closes the books of `tracer` against the traced wall time.
    ///
    /// Every recorded span must be a container or one of `layers`, so a
    /// layer that is traced but not reported fails the run instead of
    /// vanishing into the remainder; the layers' self times may not add up
    /// to more than the wall time. `probed` maps a scheduler layer to the
    /// time of its probes, which is moved from that layer to
    /// [`Ledger::probe_us`].
    pub fn close(
        tracer: &Tracer,
        wall: Duration,
        containers: &[&str],
        layers: &[&'static str],
        probed: &BTreeMap<&'static str, f64>,
    ) -> Result<Ledger, String> {
        let mut own = tracer.self_times()?;
        for name in own.keys() {
            if !containers.contains(name) && !layers.contains(name) {
                return Err(format!("span {name:?} is missing from the ledger"));
            }
        }
        let mut layers: BTreeMap<&'static str, f64> =
            layers.iter().map(|&name| (name, own.remove(name).unwrap_or(0.0))).collect();
        let covered: f64 = layers.values().sum();
        let remainder_us = micros(wall) - covered;
        if remainder_us < 0.0 {
            return Err(format!(
                "layer self times ({covered:.0} us) exceed the traced wall time ({:.0} us)",
                micros(wall)
            ));
        }
        for (layer, us) in probed {
            *layers.get_mut(layer).ok_or_else(|| format!("probed layer {layer:?} unknown"))? -= us;
        }
        Ok(Ledger { layers, probe_us: probed.values().sum(), remainder_us })
    }

    /// Self time of one layer, in microseconds.
    pub fn us(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0.0)
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated between
/// order statistics; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn the_ledger_charges_children_to_their_own_layer() {
        let mut tracer = Tracer::new();
        let started = Instant::now();
        tracer.open("cell", 7);
        tracer.span("layer.a", 7, || std::thread::sleep(Duration::from_millis(2)));
        tracer.close();
        let wall = started.elapsed();
        let probed = BTreeMap::from([("layer.a", 500.0)]);
        let ledger =
            Ledger::close(&tracer, wall, &["cell"], &["layer.a", "layer.b"], &probed).unwrap();
        assert!(ledger.us("layer.a") >= 1500.0);
        assert_eq!(ledger.us("layer.b"), 0.0);
        let total = ledger.us("layer.a") + ledger.probe_us + ledger.remainder_us;
        assert!((total - micros(wall)).abs() < 1e-6);
    }

    #[test]
    fn an_unreported_span_fails_the_ledger() {
        let mut tracer = Tracer::new();
        tracer.span("layer.hidden", 0, || ());
        let err =
            Ledger::close(&tracer, Duration::from_secs(1), &[], &["layer.a"], &BTreeMap::new())
                .unwrap_err();
        assert!(err.contains("layer.hidden"));
    }
}
