//! Machine-readable run reports: the registry serialized as stable JSON,
//! plus the validator CI runs against emitted reports.
//!
//! The document layout (`schema_version` `SCHEMA_VERSION`):
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "command": "validate",
//!   "spans": [
//!     {"label": "project", "count": 1, "total_seconds": 0.031,
//!      "cpu_seconds": 0.030, "max_seconds": 0.031}
//!   ],
//!   "span_tree": [
//!     {"label": "project", "count": 1, "total_seconds": 0.031, ...,
//!      "children": [{"label": "project.pairs", ...}]}
//!   ],
//!   "counters": {"ingest.lines": 120000, "ingest.skipped_lines": 0},
//!   "gauges": {"project.peak_rss_kb": 81234}
//! }
//! ```
//!
//! `spans` is the flat label-sorted list; `span_tree` nests the same entries
//! by dotted-label prefix (a label's parent is its longest proper dotted
//! prefix that was itself recorded). The tree is *label-structured*, not
//! strict-containment: a child recorded on several rank threads can total
//! more than its parent's wall time.
//!
//! `cpu_seconds` is the CPU time the span's threads ran inside it, summed as
//! `total_seconds` is (the ingest scan thread's is credited to `ingest`):
//! `cpu_seconds` well below `total_seconds` on one thread is time spent
//! waiting or descheduled, and above it is threads running in parallel.

use crate::{Snapshot, SpanEntry};

/// Version stamp every report carries; bump on any layout change.
/// Version 2 added `cpu_seconds` to every span entry.
pub(crate) const SCHEMA_VERSION: u32 = 2;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn span_fields(e: &SpanEntry) -> String {
    format!(
        "\"label\": \"{}\", \"count\": {}, \"total_seconds\": {:.6}, \"cpu_seconds\": {:.6}, \"max_seconds\": {:.6}",
        escape(&e.label),
        e.stats.count,
        e.stats.total_seconds(),
        e.stats.cpu_seconds(),
        e.stats.max_seconds()
    )
}

/// `true` iff `child` is a dotted descendant of `parent`
/// (`"a.b.c"` under `"a.b"` and `"a"`, never under `"a.bc"`).
fn is_descendant(child: &str, parent: &str) -> bool {
    child.len() > parent.len()
        && child.starts_with(parent)
        && child.as_bytes()[parent.len()] == b'.'
}

/// Render the entries whose parent (longest recorded proper dotted prefix)
/// is `parent` (`None` = roots), recursively.
fn render_tree(entries: &[SpanEntry], parent: Option<&str>, indent: usize, out: &mut String) {
    let pad = " ".repeat(indent);
    let mut first = true;
    for (i, e) in entries.iter().enumerate() {
        // e's parent is the longest other label that is a dotted prefix.
        let actual_parent = entries
            .iter()
            .filter(|p| is_descendant(&e.label, &p.label))
            .max_by_key(|p| p.label.len())
            .map(|p| p.label.as_str());
        if actual_parent != parent {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("{pad}{{{}", span_fields(e)));
        let has_children = entries
            .iter()
            .enumerate()
            .any(|(j, c)| j != i && is_descendant(&c.label, &e.label));
        if has_children {
            out.push_str(", \"children\": [\n");
            render_tree(entries, Some(&e.label), indent + 2, out);
            out.push_str(&format!("\n{pad}]}}"));
        } else {
            out.push_str(", \"children\": []}");
        }
    }
}

fn render_map(pairs: &[(String, u64)], indent: usize) -> String {
    let pad = " ".repeat(indent);
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{pad}\"{}\": {v}", escape(k)))
        .collect();
    if body.is_empty() {
        "{}".to_string()
    } else {
        format!(
            "{{\n{}\n{}}}",
            body.join(",\n"),
            " ".repeat(indent.saturating_sub(2))
        )
    }
}

/// Serialize a snapshot as the schema-versioned run report.
pub(crate) fn render(command: &str, snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"command\": \"{}\",\n", escape(command)));
    out.push_str("  \"spans\": [\n");
    let rows: Vec<String> = snap
        .spans
        .iter()
        .map(|e| format!("    {{{}}}", span_fields(e)))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str("  \"span_tree\": [\n");
    let mut tree = String::new();
    render_tree(&snap.spans, None, 4, &mut tree);
    out.push_str(&tree);
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"counters\": {},\n",
        render_map(&snap.counters, 4)
    ));
    out.push_str(&format!("  \"gauges\": {}\n", render_map(&snap.gauges, 4)));
    out.push_str("}\n");
    out
}

/// `render` over the live registry (see [`crate::snapshot`]).
pub fn render_current(command: &str) -> String {
    render(command, &crate::snapshot())
}

/// Extract the `schema_version` value from an emitted report, textually.
/// `None` when the field is absent or its value is not an unsigned integer.
fn parse_schema_version(json: &str) -> Option<u64> {
    let at = json.find("\"schema_version\"")?;
    let rest = json[at + "\"schema_version\"".len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let digits: &str = &rest[..rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len())];
    digits.parse().ok()
}

/// Validate an emitted run report: it must carry `schema_version` equal to
/// this build's `SCHEMA_VERSION` (a report from a future or unknown layout
/// is rejected, not half-checked), a span entry for every label in
/// `required_spans`, `cpu_seconds` on every span entry, and an entry (even
/// `0`) for every counter in `required_counters`. Returns every violation at once so a CI failure
/// names the full gap, not just the first one.
///
/// The checks are textual against the layout `render` produces — this
/// crate has no JSON parser by design, and it validates only its own output.
pub fn validate(
    json: &str,
    required_spans: &[&str],
    required_counters: &[&str],
) -> Result<(), String> {
    match parse_schema_version(json) {
        Some(v) if v == SCHEMA_VERSION as u64 => {}
        Some(v) => {
            return Err(format!(
                "unsupported report schema_version {v} (this build understands \
                 {SCHEMA_VERSION}); re-run the report with a matching build"
            ));
        }
        None => {
            return Err("report carries no integer schema_version field; \
                 not a run report this build can validate"
                .to_string());
        }
    }
    let mut missing = Vec::new();
    for s in required_spans {
        if !json.contains(&format!("\"label\": \"{s}\"")) {
            missing.push(format!("stage span {s:?}"));
        }
    }
    // An entry's fields come before its children, so each stretch from one
    // label to the next holds the whole of that entry's own fields.
    for entry in json.split("\"label\": \"").skip(1) {
        if !entry.contains("\"cpu_seconds\":") {
            let label = entry.split('"').next().unwrap_or_default();
            missing.push(format!("cpu_seconds of span {label:?}"));
        }
    }
    for c in required_counters {
        if !json.contains(&format!("\"{c}\":")) {
            missing.push(format!("counter {c:?}"));
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("report is missing: {}", missing.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanEntry, SpanStats};

    fn entry(label: &str, count: u64, total_ns: u64) -> SpanEntry {
        SpanEntry {
            label: label.to_string(),
            stats: SpanStats {
                count,
                total_ns,
                max_ns: total_ns,
                cpu_ns: total_ns / 2,
            },
        }
    }

    fn sample() -> Snapshot {
        Snapshot {
            spans: vec![
                entry("ingest", 1, 5_000_000),
                entry("ingest.merge", 1, 1_000_000),
                entry("ingest.parse", 4, 3_000_000),
                entry("project", 1, 9_000_000),
            ],
            counters: vec![
                ("ingest.lines".to_string(), 100),
                ("ingest.skipped_lines".to_string(), 0),
            ],
            gauges: vec![("project.peak_rss_kb".to_string(), 4096)],
        }
    }

    #[test]
    fn report_has_schema_and_sections() {
        let json = render("validate", &sample());
        assert!(json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(json.contains("\"command\": \"validate\""));
        assert!(json.contains("\"label\": \"ingest\""));
        assert!(json.contains("\"ingest.skipped_lines\": 0"));
        assert!(json.contains("\"project.peak_rss_kb\": 4096"));
    }

    #[test]
    fn tree_nests_children_under_dotted_prefixes() {
        let json = render("x", &sample());
        // children appear inside the parent node, after its fields
        let tree_at = json.find("\"span_tree\"").unwrap();
        let ingest_at = json[tree_at..].find("\"label\": \"ingest\"").unwrap();
        let merge_at = json[tree_at..].find("\"label\": \"ingest.merge\"").unwrap();
        let project_at = json[tree_at..].find("\"label\": \"project\"").unwrap();
        assert!(ingest_at < merge_at && merge_at < project_at);
        assert!(json[tree_at + ingest_at..tree_at + merge_at].contains("\"children\": [\n"));
    }

    #[test]
    fn sibling_prefix_is_not_a_parent() {
        assert!(is_descendant("a.b.c", "a.b"));
        assert!(is_descendant("a.b", "a"));
        assert!(!is_descendant("a.bc", "a.b"));
        assert!(!is_descendant("a", "a"));
    }

    #[test]
    fn validate_passes_on_complete_and_fails_on_missing() {
        let json = render("validate", &sample());
        assert!(validate(
            &json,
            &["ingest", "project"],
            &["ingest.lines", "ingest.skipped_lines"]
        )
        .is_ok());
        let err = validate(&json, &["ingest", "survey"], &["survey.triangles_kept"]).unwrap_err();
        assert!(err.contains("stage span \"survey\""), "{err}");
        assert!(err.contains("counter \"survey.triangles_kept\""), "{err}");
        assert!(validate("{}", &[], &[]).is_err(), "no schema_version");

        // every span entry, in the flat list and in the tree, carries its CPU time
        assert!(json.contains("\"cpu_seconds\": 0.002500"), "{json}");
        let flat = "\"label\": \"ingest.merge\", \"count\": 1, \"total_seconds\": 0.001000, \"cpu_seconds\": 0.000500, ";
        assert_eq!(json.matches(flat).count(), 2, "{json}");
        let without = json.replacen(flat, "\"label\": \"ingest.merge\", \"count\": 1, ", 1);
        let err = validate(&without, &["ingest"], &[]).unwrap_err();
        assert_eq!(
            err,
            "report is missing: cpu_seconds of span \"ingest.merge\""
        );
    }

    #[test]
    fn validate_rejects_unknown_schema_versions() {
        let json = render("validate", &sample());
        let future = json.replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", SCHEMA_VERSION + 1),
        );
        let err = validate(&future, &[], &[]).unwrap_err();
        assert!(
            err.contains(&format!("schema_version {}", SCHEMA_VERSION + 1)),
            "{err}"
        );
        assert!(err.contains(&SCHEMA_VERSION.to_string()), "{err}");

        let garbage = json.replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": \"one\"",
        );
        assert!(validate(&garbage, &[], &[]).is_err(), "non-integer version");
        assert_eq!(parse_schema_version(&json), Some(SCHEMA_VERSION as u64));
    }

    #[test]
    fn strings_are_escaped() {
        let snap = Snapshot {
            spans: vec![],
            counters: vec![("weird\"name\\x".to_string(), 1)],
            gauges: vec![],
        };
        let json = render("cmd\"quoted", &snap);
        assert!(json.contains("cmd\\\"quoted"));
        assert!(json.contains("weird\\\"name\\\\x"));
    }
}
