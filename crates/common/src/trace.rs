//! Zero-dependency tracing: spans, a thread-local span stack, and a
//! fixed-capacity ring buffer of finished spans.
//!
//! The whole workspace shares one global trace layer. A [`Span`] measures
//! one region of work on the monotonic clock (a process-wide
//! [`Instant`] epoch, so timestamps compare across threads); spans nest
//! through a **thread-local stack**, and crossing the morsel worker pool
//! is explicit: the spawning side captures [`current_context`] and each
//! worker [`adopt`]s it, so children created on worker threads parent to
//! the span that fanned them out ([`crate::par::par_map`] does this
//! hand-off automatically). Finished spans land in a global
//! fixed-capacity ring buffer with per-span `(key, value)` fields;
//! readers reconstruct trees ([`traces_json`], [`render_span_tree`]) by
//! parent links.
//!
//! Tracing is **off by default** and gated by one relaxed atomic load:
//! with the switch off, [`span`] returns an inert guard without touching
//! the thread-local stack, the clock, or the ring. A field value is built
//! by its caller before [`Span::field`] drops it on an inert span, so
//! call sites that format one (`n.to_string()`, `format!`) check
//! [`Span::id`] first. [`init_from_env`] turns tracing on unless
//! `PROQL_TRACE=0` (the query service calls this at construction).

use crate::sync::lock;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Default capacity of the finished-span ring buffer.
pub const DEFAULT_CAPACITY: usize = 8192;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Span/trace id allocator. Ids are process-unique and never 0 (0 is the
/// "no parent" sentinel).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RING: OnceLock<Mutex<Ring>> = OnceLock::new();

struct Ring {
    cap: usize,
    spans: VecDeque<SpanRecord>,
}

fn ring() -> MutexGuard<'static, Ring> {
    lock(RING.get_or_init(|| {
        Mutex::new(Ring {
            cap: DEFAULT_CAPACITY,
            spans: VecDeque::new(),
        })
    }))
}

/// The process-wide monotonic epoch all span timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// A finished span as stored in the ring buffer.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Trace the span belongs to (the root span's id, or a connection's
    /// pre-allocated trace id).
    pub trace_id: u64,
    /// This span's id (process-unique, never 0).
    pub span_id: u64,
    /// Parent span id; 0 for roots.
    pub parent_id: u64,
    /// Static name (e.g. `"execute"`, `"op.join"`).
    pub name: &'static str,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process trace epoch.
    pub end_ns: u64,
    /// Key/value fields attached while the span was live.
    pub fields: Vec<(&'static str, String)>,
}

/// A position in a trace: the pair a cross-thread hand-off carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Context {
    /// Trace id.
    pub trace_id: u64,
    /// Span id new children should parent to (0 ⇒ children are roots of
    /// the trace).
    pub span_id: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Context>> = const { RefCell::new(Vec::new()) };
}

/// Whether tracing is globally enabled (one relaxed atomic load — the
/// entire disabled-path cost).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flip the global switch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enable tracing unless `PROQL_TRACE=0`. Idempotent; the query service
/// calls this once.
pub fn init_from_env() {
    if std::env::var("PROQL_TRACE").map(|v| v == "0") != Ok(true) {
        set_enabled(true);
    }
}

/// Resize the finished-span ring (drops oldest spans if shrinking).
pub fn set_capacity(cap: usize) {
    let mut r = ring();
    r.cap = cap.max(1);
    while r.spans.len() > r.cap {
        r.spans.pop_front();
    }
}

/// Drop every recorded span (tests and benchmarks).
pub fn clear() {
    ring().spans.clear();
}

/// Allocate a fresh trace id with no root span — the per-connection
/// anchor that makes every request on one connection part of one trace.
/// `None` when tracing is disabled.
pub fn new_trace() -> Option<Context> {
    if !enabled() {
        return None;
    }
    Some(Context {
        trace_id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        span_id: 0,
    })
}

/// The innermost live span on this thread, if any (the value to hand to
/// worker threads via [`adopt`]). `None` when disabled or outside any
/// span.
pub fn current_context() -> Option<Context> {
    if !enabled() {
        return None;
    }
    STACK.with(|s| s.borrow().last().copied())
}

/// Start a span as a child of this thread's innermost live span (or as a
/// new trace root when the stack is empty).
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    start(name, STACK.with(|s| s.borrow().last().copied()))
}

/// Start a span under an explicit parent context — the cross-thread /
/// cross-request form. `ctx: None` behaves like [`span`].
pub fn span_child_of(name: &'static str, ctx: Option<Context>) -> Span {
    if !enabled() {
        return Span(None);
    }
    match ctx {
        Some(c) => start(name, Some(c)),
        None => start(name, STACK.with(|s| s.borrow().last().copied())),
    }
}

fn start(name: &'static str, parent: Option<Context>) -> Span {
    let span_id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (trace_id, parent_id) = match parent {
        Some(c) => (c.trace_id, c.span_id),
        None => (span_id, 0),
    };
    let ctx = Context { trace_id, span_id };
    STACK.with(|s| s.borrow_mut().push(ctx));
    Span(Some(LiveSpan {
        ctx,
        parent_id,
        name,
        start_ns: now_ns(),
        fields: Vec::new(),
    }))
}

/// Adopt a captured [`Context`] on this thread for the guard's lifetime:
/// spans started while it is held parent to the adopted span. The
/// explicit hand-off that carries a trace across the morsel worker pool.
pub fn adopt(ctx: Option<Context>) -> Adopt {
    match ctx {
        Some(c) => {
            STACK.with(|s| s.borrow_mut().push(c));
            Adopt(Some(c))
        }
        None => Adopt(None),
    }
}

/// Guard returned by [`adopt`]; pops the adopted context on drop.
pub struct Adopt(Option<Context>);

impl Drop for Adopt {
    fn drop(&mut self) {
        if let Some(c) = self.0.take() {
            STACK.with(|s| {
                let mut st = s.borrow_mut();
                if let Some(pos) = st.iter().rposition(|x| *x == c) {
                    st.remove(pos);
                }
            });
        }
    }
}

struct LiveSpan {
    ctx: Context,
    parent_id: u64,
    name: &'static str,
    start_ns: u64,
    fields: Vec<(&'static str, String)>,
}

/// A live span; records itself into the ring buffer on drop. Inert (and
/// free) when tracing was disabled at creation.
pub struct Span(Option<LiveSpan>);

impl Span {
    /// Attach a `(key, value)` field. No-op on an inert span.
    pub fn field(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(live) = self.0.as_mut() {
            // Most spans carry one field and then sit in the ring for
            // thousands of spans: hold exactly what was pushed, not the
            // four slots a first push reserves.
            live.fields.reserve_exact(1);
            live.fields.push((key, value.into()));
        }
    }

    /// This span's context (for explicit hand-off to workers).
    pub fn context(&self) -> Option<Context> {
        self.0.as_ref().map(|l| l.ctx)
    }

    /// This span's id, if live.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|l| l.ctx.span_id)
    }

    /// This span's trace id, if live.
    pub fn trace_id(&self) -> Option<u64> {
        self.0.as_ref().map(|l| l.ctx.trace_id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.0.take() else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut st = s.borrow_mut();
            if let Some(pos) = st.iter().rposition(|x| *x == live.ctx) {
                st.remove(pos);
            }
        });
        let mut r = ring();
        if r.spans.len() >= r.cap {
            r.spans.pop_front();
        }
        r.spans.push_back(SpanRecord {
            trace_id: live.ctx.trace_id,
            span_id: live.ctx.span_id,
            parent_id: live.parent_id,
            name: live.name,
            start_ns: live.start_ns,
            end_ns,
            fields: live.fields,
        });
    }
}

/// Copy of every finished span currently in the ring, oldest first.
pub fn snapshot() -> Vec<SpanRecord> {
    ring().spans.iter().cloned().collect()
}

/// Finished spans of one trace, oldest first.
pub fn spans_for_trace(trace_id: u64) -> Vec<SpanRecord> {
    ring()
        .spans
        .iter()
        .filter(|s| s.trace_id == trace_id)
        .cloned()
        .collect()
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Index structure over one trace's spans: children sorted by start time,
/// roots = spans whose parent is 0 or not in the ring (evicted parents
/// promote their orphaned children rather than hiding them).
struct Tree<'a> {
    spans: &'a [SpanRecord],
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
}

fn build_tree(spans: &[SpanRecord]) -> Tree<'_> {
    // One pass to index spans by id (the first occurrence wins), so a
    // ring-sized trace links its parents in linear time.
    let mut idx_of: HashMap<u64, usize> = HashMap::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        idx_of.entry(s.span_id).or_insert(i);
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match (s.parent_id != 0)
            .then(|| idx_of.get(&s.parent_id))
            .flatten()
        {
            Some(&p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    let by_start = |v: &mut Vec<usize>| {
        v.sort_by_key(|&i| (spans[i].start_ns, spans[i].span_id));
    };
    for c in &mut children {
        by_start(c);
    }
    by_start(&mut roots);
    Tree {
        spans,
        children,
        roots,
    }
}

fn span_json(tree: &Tree<'_>, i: usize, out: &mut String) {
    let s = &tree.spans[i];
    let _ = write!(
        out,
        "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"dur_ns\": {}, ",
        esc(s.name),
        s.span_id,
        s.parent_id,
        s.start_ns,
        s.end_ns.saturating_sub(s.start_ns)
    );
    out.push_str("\"fields\": {");
    for (j, (k, v)) in s.fields.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": \"{}\"", esc(k), esc(v));
    }
    out.push_str("}, \"children\": [");
    for (j, &c) in tree.children[i].iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        span_json(tree, c, out);
    }
    out.push_str("]}");
}

/// The most recent `max_traces` traces as one JSON object:
/// `{"traces": [{"trace_id": N, "spans": [<span tree>...]}, ...]}`, most
/// recent trace first, each trace's spans nested by parent links.
pub fn traces_json(max_traces: usize) -> String {
    let all = snapshot();
    // Most recently finished trace first.
    let mut order: Vec<u64> = Vec::new();
    for s in all.iter().rev() {
        if !order.contains(&s.trace_id) {
            order.push(s.trace_id);
            if order.len() >= max_traces {
                break;
            }
        }
    }
    let mut out = String::from("{\"traces\": [");
    for (i, t) in order.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let spans: Vec<SpanRecord> = all.iter().filter(|s| s.trace_id == *t).cloned().collect();
        let tree = build_tree(&spans);
        let _ = write!(out, "{{\"trace_id\": {t}, \"spans\": [");
        for (j, &r) in tree.roots.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            span_json(&tree, r, &mut out);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn render_rec(tree: &Tree<'_>, i: usize, depth: usize, out: &mut String) {
    let s = &tree.spans[i];
    let ms = s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6;
    let _ = write!(out, "{}{} ({ms:.3} ms)", "  ".repeat(depth), s.name);
    for (k, v) in &s.fields {
        let _ = write!(out, " {k}={v}");
    }
    out.push('\n');
    for &c in &tree.children[i] {
        render_rec(tree, c, depth + 1, out);
    }
}

/// Render the subtree rooted at `span_id` as indented text (the
/// slow-query log format). `None` if the span is not in the ring.
pub fn render_span_tree(span_id: u64) -> Option<String> {
    let trace_id = ring().spans.iter().find(|s| s.span_id == span_id)?.trace_id;
    let spans = spans_for_trace(trace_id);
    let tree = build_tree(&spans);
    let root = spans.iter().position(|s| s.span_id == span_id)?;
    let mut out = String::new();
    render_rec(&tree, root, 0, &mut out);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that toggle the global switch.
    fn guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = guard();
        set_enabled(false);
        let before = snapshot().len();
        {
            let mut sp = span("noop");
            sp.field("k", "v");
            assert!(sp.context().is_none());
            assert!(current_context().is_none());
        }
        assert_eq!(snapshot().len(), before);
        set_enabled(true);
    }

    #[test]
    fn a_field_holds_only_its_own_slot() {
        let _g = guard();
        set_enabled(true);
        let mut sp = span("fields");
        sp.field("one", "1");
        let capacity = |sp: &Span| sp.0.as_ref().unwrap().fields.capacity();
        assert_eq!(capacity(&sp), 1);
        sp.field("two", "2");
        assert_eq!(capacity(&sp), 2);
    }

    #[test]
    fn nesting_and_fields_are_recorded() {
        let _g = guard();
        set_enabled(true);
        let trace_id;
        {
            let mut root = span("root");
            root.field("who", "test");
            trace_id = root.trace_id().unwrap();
            {
                let _child = span("child");
            }
        }
        let spans = spans_for_trace(trace_id);
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(child.parent_id, root.span_id);
        assert_eq!(root.parent_id, 0);
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        assert_eq!(root.fields, vec![("who", "test".to_string())]);
    }

    #[test]
    fn adopt_carries_context_across_threads() {
        let _g = guard();
        set_enabled(true);
        let trace_id;
        {
            let root = span("fanout");
            trace_id = root.trace_id().unwrap();
            let ctx = root.context();
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        let _adopt = adopt(ctx);
                        let _sp = span("worker");
                    });
                }
            });
        }
        let spans = spans_for_trace(trace_id);
        let root_id = spans.iter().find(|s| s.name == "fanout").unwrap().span_id;
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 3);
        for w in workers {
            assert_eq!(
                w.parent_id, root_id,
                "worker must parent to the fanout span"
            );
        }
    }

    #[test]
    fn ring_capacity_evicts_oldest() {
        let _g = guard();
        set_enabled(true);
        set_capacity(4);
        for _ in 0..10 {
            let _sp = span("evictme");
        }
        assert!(snapshot().len() <= 4);
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn traces_json_nests_children_and_escapes() {
        let _g = guard();
        set_enabled(true);
        let trace_id;
        {
            let mut root = span("request");
            root.field("text", "say \"hi\"\n");
            trace_id = root.trace_id().unwrap();
            let _c = span("execute");
        }
        let json = traces_json(64);
        assert!(
            json.contains(&format!("\"trace_id\": {trace_id}")),
            "{json}"
        );
        assert!(json.contains("\"name\": \"request\""), "{json}");
        assert!(json.contains("say \\\"hi\\\"\\n"), "{json}");
        // The child is nested inside the root's children array.
        let root_pos = json.find("\"name\": \"request\"").unwrap();
        let sub = &json[root_pos..];
        assert!(sub.contains("\"name\": \"execute\""), "{json}");
    }

    #[test]
    fn render_span_tree_is_indented() {
        let _g = guard();
        set_enabled(true);
        let root_id;
        {
            let root = span("slowreq");
            root_id = root.id().unwrap();
            let _c = span("inner");
        }
        let text = render_span_tree(root_id).unwrap();
        assert!(text.starts_with("slowreq ("), "{text}");
        assert!(text.contains("\n  inner ("), "{text}");
        assert!(render_span_tree(u64::MAX).is_none());
    }

    #[test]
    fn new_trace_groups_independent_spans() {
        let _g = guard();
        set_enabled(true);
        let ctx = new_trace().unwrap();
        {
            let _a = span_child_of("req-a", Some(ctx));
        }
        {
            let _b = span_child_of("req-b", Some(ctx));
        }
        let spans = spans_for_trace(ctx.trace_id);
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.parent_id == 0));
    }

    fn record(span_id: u64, parent_id: u64, name: &'static str, start_ns: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 7,
            span_id,
            parent_id,
            name,
            start_ns,
            end_ns: start_ns + 1_000,
            fields: vec![("k", span_id.to_string())],
        }
    }

    /// Every root and its subtree, rendered the slow-query log's way.
    fn render_all(tree: &Tree<'_>) -> String {
        let mut out = String::new();
        for &r in &tree.roots {
            render_rec(tree, r, 0, &mut out);
            span_json(tree, r, &mut out);
        }
        out
    }

    #[test]
    fn span_tree_index_renders_like_a_linear_scan() {
        // The reference: link each span by scanning the slice for its
        // parent, as the tree was built before spans were indexed by id.
        fn by_scan(spans: &[SpanRecord]) -> Tree<'_> {
            let idx_of = |id: u64| spans.iter().position(|s| s.span_id == id);
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
            let mut roots = Vec::new();
            for (i, s) in spans.iter().enumerate() {
                match (s.parent_id != 0).then(|| idx_of(s.parent_id)).flatten() {
                    Some(p) => children[p].push(i),
                    None => roots.push(i),
                }
            }
            let by_start = |v: &mut Vec<usize>| {
                v.sort_by_key(|&i| (spans[i].start_ns, spans[i].span_id));
            };
            children.iter_mut().for_each(by_start);
            by_start(&mut roots);
            Tree {
                spans,
                children,
                roots,
            }
        }
        // Children finish before parents, siblings out of start order, and
        // one span whose parent left the ring (it becomes a root).
        let spans = vec![
            record(4, 2, "op.scan", 40),
            record(3, 2, "op.filter", 30),
            record(2, 1, "execute", 20),
            record(6, 99, "orphan", 5),
            record(5, 1, "encode", 50),
            record(1, 0, "request", 10),
        ];
        let text = render_all(&build_tree(&spans));
        assert_eq!(text, render_all(&by_scan(&spans)));
        assert!(text.starts_with("orphan ("), "{text}");
        assert!(text.contains("\n    op.filter ("), "{text}");

        // A ring-sized trace: every span of a full ring in one tree.
        let n = DEFAULT_CAPACITY as u64;
        // Fan-out 8: span `id` hangs under `(id + 6) / 8`, the root is 1.
        let ring: Vec<SpanRecord> = (1..=n)
            .map(|id| record(id, if id == 1 { 0 } else { (id + 6) / 8 }, "span", id))
            .collect();
        let tree = build_tree(&ring);
        assert_eq!(tree.roots, [0]);
        let mut out = String::new();
        render_rec(&tree, 0, 0, &mut out);
        assert_eq!(out.lines().count(), DEFAULT_CAPACITY);
    }
}
