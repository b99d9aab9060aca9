//! Spans recorded by the traced run, kept in memory until it ends.
//!
//! A span is `(id, parent, request, name, start, end)` plus the counts
//! taken at the same boundary. A layer's **self time** is its span's
//! duration minus the part of that interval its child spans cover
//! (children may overlap each other; the union is what counts).

use crate::alloc;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root.
    pub parent: u32,
    /// Index of the replayed operation this span belongs to.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations and bytes requested by the recording thread inside
    /// the span (children included).
    pub alloc_count: u64,
    pub alloc_bytes: u64,
    /// Work entering and leaving the layer, in the unit the README's
    /// layer table names (rows, rules, bytes, candidates...).
    pub units_in: u64,
    pub units_out: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(8192),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (0 for a root); returns its id.
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        // Until `end`, the allocation fields hold the thread's totals at
        // the start. They and the clock are read last, so the push above
        // stays outside the span.
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: 0,
            end_ns: 0,
            alloc_count: 0,
            alloc_bytes: 0,
            units_in: 0,
            units_out: 0,
        });
        let (count, bytes) = alloc::thread_totals();
        let start_ns = self.now_ns();
        let span = self.spans.last_mut().expect("just pushed");
        (span.alloc_count, span.alloc_bytes, span.start_ns) = (count, bytes, start_ns);
        id
    }

    /// Close span `id` with the counts taken at its boundary.
    pub fn end(&mut self, id: u32, units_in: u64, units_out: u64) {
        let end_ns = self.now_ns();
        let (count, bytes) = alloc::thread_totals();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.alloc_count = count - span.alloc_count;
        span.alloc_bytes = bytes - span.alloc_bytes;
        span.units_in = units_in;
        span.units_out = units_out;
    }

    /// Time `f` as a span; `f` returns its value and the two counts.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> (T, u64, u64),
    ) -> T {
        let id = self.begin(name, parent, request);
        let (value, units_in, units_out) = f();
        self.end(id, units_in, units_out);
        value
    }

    /// Cut `by_ns` off the end of closed span `id` (down to nothing): for
    /// a layer defined as one measured call minus another.
    pub fn shorten(&mut self, id: u32, by_ns: u64) {
        let span = &mut self.spans[id as usize - 1];
        span.end_ns -= by_ns.min(span.end_ns - span.start_ns);
    }

    /// Make the closed top-level span `probe` (with whatever was adopted
    /// into it before) a child of the closed span `parent`, laid
    /// `offset_ns` into the parent's interval. For a layer that runs
    /// inside another public call and cannot be entered from outside
    /// while that call runs: its work is measured by calling the layer's
    /// own public function separately, and subtracted from the caller.
    pub fn adopt_probe(&mut self, parent: u32, probe: u32, offset_ns: u64) {
        let new_start = self.spans[parent as usize - 1].start_ns + offset_ns;
        let old_start = self.spans[probe as usize - 1].start_ns;
        self.spans[probe as usize - 1].parent = parent;
        // Descendants were recorded (or adopted) after their ancestor, so
        // one forward pass finds the subtree.
        let mut moved = vec![probe];
        for i in probe as usize - 1..self.spans.len() {
            let s = &mut self.spans[i];
            if s.id == probe || moved.contains(&s.parent) {
                if s.id != probe {
                    moved.push(s.id);
                }
                s.start_ns = s.start_ns - old_start + new_start;
                s.end_ns = s.end_ns - old_start + new_start;
            }
        }
    }
}

/// Per-span self time and self allocations, by span index.
pub fn self_costs(spans: &[Span]) -> Vec<(u64, u64, u64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children[s.parent as usize - 1].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            // Union of the children's intervals, clipped to the parent.
            let mut cover: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.clamp(s.start_ns, s.end_ns),
                        spans[c].end_ns.clamp(s.start_ns, s.end_ns),
                    )
                })
                .collect();
            cover.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in cover {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            let child_allocs: u64 = children[i].iter().map(|&c| spans[c].alloc_count).sum();
            let child_bytes: u64 = children[i].iter().map(|&c| spans[c].alloc_bytes).sum();
            (
                s.duration_ns() - covered,
                s.alloc_count.saturating_sub(child_allocs),
                s.alloc_bytes.saturating_sub(child_bytes),
            )
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub calls: u64,
    pub busy_ms: f64,
    pub self_ms: f64,
    pub p50_us: f64,
    pub units_in: u64,
    pub units_out: u64,
    pub alloc_count: u64,
    pub alloc_bytes: u64,
}

/// Aggregate spans by name, in first-appearance order.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let costs = self_costs(spans);
    let mut rows: Vec<LayerRow> = Vec::new();
    let mut durations: Vec<Vec<f64>> = Vec::new();
    for (s, (self_ns, allocs, bytes)) in spans.iter().zip(costs) {
        let idx = match rows.iter().position(|r| r.name == s.name) {
            Some(i) => i,
            None => {
                rows.push(LayerRow {
                    name: s.name,
                    ..LayerRow::default()
                });
                durations.push(Vec::new());
                rows.len() - 1
            }
        };
        let row = &mut rows[idx];
        row.calls += 1;
        row.busy_ms += s.duration_ns() as f64 / 1e6;
        row.self_ms += self_ns as f64 / 1e6;
        row.units_in += s.units_in;
        row.units_out += s.units_out;
        row.alloc_count += allocs;
        row.alloc_bytes += bytes;
        durations[idx].push(s.duration_ns() as f64 / 1e3);
    }
    for (row, d) in rows.iter_mut().zip(&mut durations) {
        d.sort_by(f64::total_cmp);
        row.p50_us = crate::stats::quantile(d, 0.5);
    }
    rows
}

/// The spans as one JSON array (the span file).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 160);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_ns\": {}, \
             \"end_ns\": {}, \"alloc_count\": {}, \"alloc_bytes\": {}, \"units_in\": {}, \
             \"units_out\": {}}}{}\n",
            s.id,
            s.parent,
            s.request,
            proql_service::proto::json_str(s.name),
            s.start_ns,
            s.end_ns,
            s.alloc_count,
            s.alloc_bytes,
            s.units_in,
            s.units_out,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
            alloc_count: 0,
            alloc_bytes: 0,
            units_in: 0,
            units_out: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, 0, "parent", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),  // overlaps a: union is [10, 60)
            span(4, 1, "c", 90, 130), // runs past the parent: clipped to [90, 100)
            span(5, 2, "a.inner", 15, 20),
        ];
        let costs = self_costs(&spans);
        assert_eq!(costs[0].0, 100 - 50 - 10);
        assert_eq!(costs[1].0, 30 - 5);
        assert_eq!(costs[2].0, 30);
        assert_eq!(costs[3].0, 40);
        assert_eq!(costs[4].0, 5);
    }

    #[test]
    fn nested_children_inside_one_another_count_once() {
        let spans = vec![
            span(1, 0, "parent", 0, 100),
            span(2, 1, "outer", 10, 90),
            span(3, 1, "inner", 20, 30), // sibling lying inside `outer`
        ];
        assert_eq!(self_costs(&spans)[0].0, 20);
    }

    #[test]
    fn the_layer_table_sums_by_name() {
        let mut spans = vec![
            span(1, 0, "op", 0, 1_000_000),
            span(2, 1, "layer", 0, 400_000),
            span(3, 0, "op", 2_000_000, 2_500_000),
            span(4, 3, "layer", 2_000_000, 2_100_000),
        ];
        spans[1].alloc_count = 3;
        spans[0].alloc_count = 5;
        spans[1].units_out = 7;
        let rows = layer_table(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "op");
        assert_eq!(rows[0].calls, 2);
        assert!((rows[0].busy_ms - 1.5).abs() < 1e-9);
        assert!((rows[0].self_ms - 1.0).abs() < 1e-9);
        assert_eq!(rows[0].alloc_count, 2);
        assert_eq!(rows[1].units_out, 7);
        assert!((rows[1].p50_us - 100.0).abs() < 1e-9);
    }

    #[test]
    fn a_probe_is_laid_inside_its_parent() {
        let mut rec = Recorder::new();
        let parent = rec.begin("parent", 0, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(parent, 0, 0);
        let probe = rec.begin("probe", 0, 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.end(probe, 0, 0);
        rec.adopt_probe(parent, probe, 0);
        let costs = self_costs(&rec.spans);
        assert_eq!(rec.spans[1].parent, parent);
        assert_eq!(rec.spans[1].start_ns, rec.spans[0].start_ns);
        assert_eq!(
            costs[0].0,
            rec.spans[0].duration_ns() - rec.spans[1].duration_ns()
        );
    }
}
