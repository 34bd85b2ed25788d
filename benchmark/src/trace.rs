//! In-memory spans for the traced pass. The benchmark opens a span around
//! each public engine call it makes (nothing is recorded inside any crate),
//! keeps the spans in memory, prints a ledger and writes them once at exit
//! as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span. `units` is the count recorded at the
/// same boundary: events, edges, triangles … whatever `unit` names.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub units: u64,
    pub unit: &'static str,
}

/// Span recorder for one thread (the benchmark is a closed loop with one
/// operation in flight, so the span stack is the call stack).
pub struct Tracer {
    epoch: Instant,
    workload: &'static str,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            epoch: Instant::now(),
            workload,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` returns its result and the
    /// count of `unit`s it processed. Returns the result and the span's
    /// duration in seconds.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        unit: &'static str,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            workload: self.workload,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            units: 0,
            unit,
        });
        self.stack.push(id);
        let (out, units) = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.units = units;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (children of one parent never overlap here, but
/// the union is computed anyway so the rule holds for any span set).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// One ledger row: all spans of one name in one workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LedgerRow {
    pub busy_s: f64,
    pub self_s: f64,
    pub count: u64,
    pub units: u64,
    pub unit: &'static str,
}

pub fn ledger(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), LedgerRow> {
    let selfs = self_times_ns(spans);
    let mut rows: BTreeMap<(&'static str, &'static str), LedgerRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = rows.entry((s.workload, s.name)).or_default();
        row.busy_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
        row.self_s += self_ns as f64 * 1e-9;
        row.count += 1;
        row.units += s.units;
        row.unit = s.unit;
    }
    rows
}

pub fn print_ledger(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    writeln!(
        out,
        "{:<14} {:<28} {:>6} {:>10} {:>10} {:>14} {:>12}",
        "workload", "span", "count", "busy_s", "self_s", "units", "ns/unit"
    )?;
    for ((workload, name), r) in ledger(spans) {
        let per_unit = if r.units > 0 {
            format!("{:.2}/{}", r.busy_s * 1e9 / r.units as f64, r.unit)
        } else {
            "-".to_string()
        };
        writeln!(
            out,
            "{:<14} {:<28} {:>6} {:>10.4} {:>10.4} {:>14} {:>12}",
            workload, name, r.count, r.busy_s, r.self_s, r.units, per_unit
        )?;
    }
    Ok(())
}

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps);
/// opens in `chrome://tracing` or Perfetto. One `tid` per workload.
pub fn write_chrome_trace(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    let mut tids: Vec<&str> = Vec::new();
    write!(out, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let tid = match tids.iter().position(|w| *w == s.workload) {
            Some(t) => t,
            None => {
                tids.push(s.workload);
                tids.len() - 1
            }
        };
        if i > 0 {
            write!(out, ",")?;
        }
        write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"units\":{},\"unit\":\"{}\",\"parent\":{}}}}}",
            s.name,
            s.workload,
            tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.units,
            s.unit,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        )?;
    }
    writeln!(out, "\n]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            workload: "w",
            start_ns,
            end_ns,
            parent,
            units: 1,
            unit: "event",
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100] > mid [10,90] > leaf [20,30]
        let spans = vec![
            span("root", 0, 100, None),
            span("mid", 10, 90, Some(0)),
            span("leaf", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 70, 10]);
    }

    #[test]
    fn self_time_subtracts_every_sibling() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 80, 100, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 40, 30, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_by_their_union() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_scopes_and_ledger_sums_by_name() {
        let mut t = Tracer::new("w");
        t.scope("outer", "event", |t| {
            t.scope("inner", "edge", |_| ((), 3));
            t.scope("inner", "edge", |_| ((), 4));
            ((), 10)
        });
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        let rows = ledger(&t.spans);
        let inner = &rows[&("w", "inner")];
        assert_eq!((inner.count, inner.units, inner.unit), (2, 7, "edge"));
        let outer = &rows[&("w", "outer")];
        assert!(outer.self_s <= outer.busy_s);
        assert!((outer.busy_s - outer.self_s - inner.busy_s).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let spans = vec![
            span("root", 0, 2_000, None),
            span("kid", 500, 1_500, Some(0)),
        ];
        let mut buf = Vec::new();
        write_chrome_trace(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        let kid = &events[1];
        assert_eq!(kid.get("name").and_then(|n| n.as_str()), Some("kid"));
        let parent = kid.get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(|p| p.as_u64()), Some(0));
    }
}
