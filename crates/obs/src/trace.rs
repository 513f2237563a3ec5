//! Bounded JSONL trace ring: one line per span close.
//!
//! The writer appends every closed span to a file as a single JSON
//! object per line and keeps the last `capacity` lines in memory.
//! When the file grows past `2 × capacity` lines it is compacted in
//! place (atomically rewritten from the in-memory ring), so the file
//! on disk is bounded regardless of how long the service runs — a
//! crash loses at most the lines of the current compaction window.
//!
//! Line schema (all fields always present, in this order):
//!
//! ```json
//! {"ts_ns":1723108000123456789,"job":42,"stage":"dock","dur_ns":1500000,"attrs":{"chunk":"3"}}
//! ```
//!
//! - `ts_ns`  — wall-clock Unix-epoch nanoseconds at span close
//! - `job`    — job id, or `null` for service-level spans (requests,
//!   reactor iterations are *not* traced — only job stages close spans)
//! - `stage`  — `queue_wait`, `grid`, `dock`, `sink` or `total`
//! - `dur_ns` — span duration, monotonic nanoseconds
//! - `attrs`  — flat string→string map of stage-specific detail
//!   (e.g. `{"source":"reloaded"}` on `grid` spans)

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::unix_ns;

/// A span about to be written; borrows its strings from the caller.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord<'a> {
    /// Job id, or `None` for service-level spans.
    pub job: Option<u64>,
    /// Stage name (`queue_wait`, `grid`, `dock`, `sink`, `total`).
    pub stage: &'a str,
    /// Span duration, monotonic nanoseconds.
    pub dur_ns: u64,
    /// Stage-specific detail, flat key/value pairs.
    pub attrs: &'a [(&'a str, &'a str)],
}

struct Inner {
    file: File,
    /// Last `capacity` lines, newest at the back.
    ring: VecDeque<String>,
    /// Lines currently in the on-disk file.
    file_lines: usize,
}

/// Thread-safe bounded JSONL span writer.
pub struct TraceWriter {
    path: PathBuf,
    capacity: usize,
    inner: Mutex<Inner>,
}

impl TraceWriter {
    /// Default ring capacity (lines) when the caller does not choose.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Create (truncating any previous file at `path`).
    pub fn create(path: &Path, capacity: usize) -> io::Result<TraceWriter> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(TraceWriter {
            path: path.to_path_buf(),
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                file,
                ring: VecDeque::new(),
                file_lines: 0,
            }),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Close a span: encode, ring-buffer, append, maybe compact.
    pub fn emit(&self, span: &SpanRecord<'_>) {
        let line = encode(span);
        let mut inner = self.inner.lock().unwrap();
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(line.clone());
        // Append; trace IO must never take the service down, so errors
        // are swallowed after the writer was successfully created.
        if writeln!(inner.file, "{line}").is_ok() {
            inner.file_lines += 1;
        }
        if inner.file_lines > self.capacity * 2 {
            self.compact(&mut inner);
        }
    }

    /// Rewrite the file from the ring via a temp file + atomic rename,
    /// the same crash-safe idiom as the grid spill tier.
    fn compact(&self, inner: &mut Inner) {
        let tmp = self.path.with_extension("jsonl.tmp");
        let rewritten = (|| -> io::Result<File> {
            let mut f = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)?;
            for line in &inner.ring {
                writeln!(f, "{line}")?;
            }
            f.sync_all()?;
            std::fs::rename(&tmp, &self.path)?;
            // Reopen in append mode at the new end.
            OpenOptions::new().append(true).open(&self.path)
        })();
        if let Ok(f) = rewritten {
            inner.file = f;
            inner.file_lines = inner.ring.len();
        } else {
            std::fs::remove_file(&tmp).ok();
            // Keep appending to the old handle; try compacting again at
            // the next threshold crossing.
            inner.file_lines = self.capacity * 2;
        }
    }

    /// The most recent lines (newest last) — test/introspection hook.
    pub fn recent(&self) -> Vec<String> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }
}

fn encode(span: &SpanRecord<'_>) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"ts_ns\":");
    s.push_str(&unix_ns().to_string());
    s.push_str(",\"job\":");
    match span.job {
        Some(id) => s.push_str(&id.to_string()),
        None => s.push_str("null"),
    }
    s.push_str(",\"stage\":\"");
    push_json_escaped(&mut s, span.stage);
    s.push_str("\",\"dur_ns\":");
    s.push_str(&span.dur_ns.to_string());
    s.push_str(",\"attrs\":{");
    for (i, (k, v)) in span.attrs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('"');
        push_json_escaped(&mut s, k);
        s.push_str("\":\"");
        push_json_escaped(&mut s, v);
        s.push('"');
    }
    s.push_str("}}");
    s
}

/// Append `v` to `out`, escaped for a JSON string literal — the one
/// escaper behind every JSONL file this workspace writes.
///
/// Handles every mandatory escape (`"`, `\`, and all C0 controls), and
/// additionally escapes DEL (0x7f) and the C1 range (0x80–0x9f): legal
/// in JSON but invisible in logs and mangled by some line-oriented
/// consumers, and this output goes to JSONL files tailed by exactly
/// such tools. Rust strings are always valid UTF-8, so unpaired
/// surrogates cannot occur on the encode side.
pub fn push_json_escaped(out: &mut String, v: &str) {
    for ch in v.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || (0x7f..=0x9f).contains(&(c as u32)) => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "mudock-obs-trace-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn emits_one_json_object_per_line() {
        let path = tmp_path("emit");
        let w = TraceWriter::create(&path, 16).unwrap();
        w.emit(&SpanRecord {
            job: Some(7),
            stage: "dock",
            dur_ns: 1_500_000,
            attrs: &[("chunk", "3")],
        });
        w.emit(&SpanRecord {
            job: None,
            stage: "grid",
            dur_ns: 9,
            attrs: &[("source", "reloaded")],
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"job\":7"));
        assert!(lines[0].contains("\"stage\":\"dock\""));
        assert!(lines[0].contains("\"dur_ns\":1500000"));
        assert!(lines[0].contains("\"attrs\":{\"chunk\":\"3\"}"));
        assert!(lines[1].contains("\"job\":null"));
        assert!(lines[1].contains("\"source\":\"reloaded\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_stays_bounded_by_compaction() {
        let path = tmp_path("bound");
        let cap = 8;
        let w = TraceWriter::create(&path, cap).unwrap();
        for i in 0..100u64 {
            w.emit(&SpanRecord {
                job: Some(i),
                stage: "total",
                dur_ns: i,
                attrs: &[],
            });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let n = text.lines().count();
        assert!(n <= cap * 2, "file holds {n} lines, cap {cap}");
        // The newest span is always present.
        assert!(text.lines().last().unwrap().contains("\"job\":99"));
        // And the in-memory ring holds exactly the last `cap`.
        let recent = w.recent();
        assert_eq!(recent.len(), cap);
        assert!(recent.last().unwrap().contains("\"job\":99"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn escapes_hostile_attr_values() {
        let path = tmp_path("escape");
        let w = TraceWriter::create(&path, 4).unwrap();
        w.emit(&SpanRecord {
            job: None,
            stage: "total",
            dur_ns: 0,
            attrs: &[("name", "a\"b\\c\nd"), ("ctl", "x\u{7f}y\u{85}z\u{9f}")],
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().count(),
            1,
            "newline in value must stay escaped"
        );
        assert!(text.contains(r#"a\"b\\c\nd"#));
        // DEL and the C1 controls (NEL, 0x85, is a line break to some
        // line-oriented tools) never reach the file raw.
        assert!(text.contains(r#"x\u007fy\u0085z\u009f"#), "got: {text}");
        assert!(text.chars().all(|c| !(0x7f..=0x9f).contains(&(c as u32))));
        std::fs::remove_file(&path).ok();
    }
}
