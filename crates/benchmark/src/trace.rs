//! Span tracing from outside the program: the benchmark wraps a span around
//! each call it makes into a layer, keeps the spans in a pre-allocated
//! buffer, and writes them out as JSON lines when the run ends.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of the span that caused another; [`NO_PARENT`] for an operation's root span.
pub type SpanId = u32;
/// Parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One timed call into a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer call this span wraps (also the per-layer metric it feeds).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Shared by all spans of one lock/unlock pair (or monitor slice).
    pub pair_id: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder with a fixed capacity: callers check
/// [`Tracer::has_room`] and stop recording when it is full (growing the
/// buffer would be timed).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer holding at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_origin(Instant::now(), capacity)
    }

    /// A tracer whose clock starts at `origin` — two threads' tracers that
    /// share an origin share a time line (see [`merge`]).
    pub fn with_origin(origin: Instant, capacity: usize) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Whether `n` more spans fit — checked once per traced operation so an
    /// operation is recorded whole or not at all.
    pub fn has_room(&self, n: usize) -> bool {
        self.spans.len() + n <= self.spans.capacity()
    }

    /// Opens a span; pair it with [`Tracer::end`].
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId, pair_id: u64) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            pair_id,
        });
        // Stamp last, so the push itself stays outside the span.
        self.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    /// Closes span `id`.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = now;
    }

    /// Moves span `id`'s start to `start_ns` (an event another thread
    /// stamped on the shared time line).
    pub fn set_start(&mut self, id: SpanId, start_ns: u64) {
        self.spans[id as usize].start_ns = start_ns;
    }

    /// Times `f` as a child span of `parent`.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        pair_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, pair_id);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Concatenates two tracers' spans (same origin), re-basing the parent ids
/// of the second.
pub fn merge(a: &[Span], b: &[Span]) -> Vec<Span> {
    let offset = a.len() as SpanId;
    a.iter()
        .copied()
        .chain(b.iter().map(|s| Span {
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent + offset
            },
            ..*s
        }))
        .collect()
}

/// The spans of the earliest pairs, at most `max` spans, whole pairs only;
/// parent ids are re-based to the returned vector.
pub fn head_by_pair(spans: &[Span], max: usize) -> Vec<Span> {
    let mut ids: Vec<u64> = spans.iter().map(|s| s.pair_id).collect();
    ids.sort_unstable();
    // Pairs below the id of the first span that does not fit are whole.
    let limit = ids.get(max).copied();
    let mut new_index = vec![NO_PARENT; spans.len()];
    let mut kept = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if limit.is_none_or(|limit| s.pair_id < limit) {
            new_index[i] = kept.len() as SpanId;
            kept.push(*s);
        }
    }
    for s in &mut kept {
        if s.parent != NO_PARENT {
            s.parent = new_index[s.parent as usize];
        }
    }
    kept
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are merged, and a child
/// is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(slot) = children.get_mut(s.parent as usize) {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                slot.push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Median self time per span name, ns, with the sample count.
pub fn self_p50_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        by_name.entry(span.name).or_default().push(self_ns);
    }
    by_name
        .into_iter()
        .map(|(name, mut v)| {
            v.sort_unstable();
            (name, (crate::measure::percentile(&v, 0.5) as f64, v.len()))
        })
        .collect()
}

/// Writes `spans` as JSON lines (`{name, start_ns, end_ns, parent, pair_id}`,
/// `parent` null for roots).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"pair_id\": {}}}",
            s.name, s.start_ns, s.end_ns, parent, s.pair_id
        )?;
    }
    out.flush()
}

/// A span read back from a trace file (names are owned here).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnedSpan {
    /// See [`Span::name`].
    pub name: String,
    /// See [`Span::start_ns`].
    pub start_ns: u64,
    /// See [`Span::end_ns`].
    pub end_ns: u64,
    /// See [`Span::parent`].
    pub parent: SpanId,
    /// See [`Span::pair_id`].
    pub pair_id: u64,
}

/// Reads a trace written by [`write_jsonl`].
pub fn read_jsonl(path: &Path) -> Result<Vec<OwnedSpan>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let num = |key: &str| {
                v.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("line {}: no number `{key}`", i + 1))
            };
            Ok(OwnedSpan {
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {}: no `name`", i + 1))?
                    .to_string(),
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
                parent: match v.get("parent") {
                    Some(Value::Null) | None => NO_PARENT,
                    Some(p) => p
                        .as_f64()
                        .ok_or_else(|| format!("line {}: bad `parent`", i + 1))?
                        as SpanId,
                },
                pair_id: num("pair_id")? as u64,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pair_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_only() {
        let spans = [
            span("pair", 0, 100, NO_PARENT),
            span("request", 10, 40, 0),
            span("inner", 15, 25, 1),
            span("acquired", 30, 60, 0), // overlaps `request` by 10
            span("release", 90, 120, 0), // clipped to the parent's end
        ];
        // Children cover [10,60) and [90,100): 60 of the pair's 100 ns.
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30, 30]);
        let p50 = self_p50_by_name(&spans);
        assert_eq!(p50["pair"], (40.0, 1));
        assert_eq!(p50["request"], (20.0, 1));
    }

    #[test]
    fn tracer_records_a_tree_and_stops_at_capacity() {
        let mut tr = Tracer::with_capacity(3);
        assert!(tr.has_room(3));
        let root = tr.begin("pair", NO_PARENT, 9);
        tr.span("request", root, 9, || std::hint::black_box(1 + 1));
        tr.end(root);
        assert!(!tr.has_room(2));
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].parent, s[1].pair_id), (root, 9));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn head_keeps_whole_pairs_and_rebases_parents() {
        let pair = |id: u64, root: SpanId| {
            [
                Span {
                    pair_id: id,
                    ..span("op", 0, 10, NO_PARENT)
                },
                Span {
                    pair_id: id,
                    ..span("request", 1, 5, root)
                },
            ]
        };
        // Two threads' spans, merged: pairs 1 and 2 from each.
        let spans = merge(
            &[pair(1, 0), pair(2, 2)].concat(),
            &[pair(1, 0), pair(2, 2)].concat(),
        );
        assert_eq!(spans[5].parent, 4, "merge re-bases the second tracer");
        let head = head_by_pair(&spans, 5);
        assert_eq!(head.len(), 4, "pair 2 does not fit whole");
        assert!(head.iter().all(|s| s.pair_id == 1));
        assert_eq!((head[1].parent, head[3].parent), (0, 2));
        assert_eq!(head_by_pair(&spans, 8).len(), 8);
    }

    #[test]
    fn trace_file_round_trips() {
        let spans = [span("pair", 5, 500, NO_PARENT), span("request", 10, 200, 0)];
        let file =
            std::env::temp_dir().join(format!("dimmunix-bench-trace-{}.jsonl", std::process::id()));
        write_jsonl(&file, &spans).unwrap();
        let back = read_jsonl(&file).unwrap();
        std::fs::remove_file(&file).unwrap();
        assert_eq!(back.len(), spans.len());
        for (a, b) in spans.iter().zip(&back) {
            assert_eq!(
                (a.name, a.start_ns, a.end_ns, a.parent, a.pair_id),
                (b.name.as_str(), b.start_ns, b.end_ns, b.parent, b.pair_id)
            );
        }
    }
}
