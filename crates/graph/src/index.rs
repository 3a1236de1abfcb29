//! Windowed attribution index for the simulator's inner loop.
//!
//! [`crate::psg::Psg`] keys its attribution map and call transitions by
//! `(CtxId, NodeId)` in hash maps — fine for analysis passes, but the
//! simulator consults both once per *executed statement*, which makes
//! hashing the single hottest operation of a run.
//!
//! A context only ever owns the statements of one function, and a
//! function's statement ids form one short run. So each context gets a
//! window `lo .. lo + len` over the statement ids its entries span,
//! placed at `base` in two flat tables (vertex and callee context) of
//! `Σ len` slots. A lookup is a bounds check on the context id, one
//! wrapping subtraction and compare, and a load. The tables grow with
//! the PSG's attribution entries, not with `contexts × statements`.
//!
//! The index is a snapshot: build it after the PSG stops mutating (for
//! profiled runs, after indirect-call discovery). Unknown ids resolve to
//! `None`, matching the hash maps' behavior for unknown keys.

use crate::psg::{CtxId, Psg};
use crate::vertex::VertexId;
use scalana_lang::ast::NodeId;

const NONE: u32 = u32::MAX;

/// Flattened `(context, statement) → vertex / callee-context` tables.
#[derive(Debug)]
pub struct AttrIndex {
    /// Per context: its statement-id window and where it starts in the tables.
    windows: Vec<Window>,
    vertex: Vec<u32>,
    transition: Vec<u32>,
}

/// Statement ids `lo .. lo + len` of one context, stored at
/// `base .. base + len` in both tables.
#[derive(Debug, Default)]
struct Window {
    lo: NodeId,
    len: u32,
    base: usize,
}

impl AttrIndex {
    /// Snapshot `psg`'s attribution map and direct-call transitions.
    pub fn build(psg: &Psg) -> AttrIndex {
        // Pass 1: each context's `[lo, hi]` statement span.
        let mut spans: Vec<Option<(NodeId, NodeId)>> = vec![None; psg.ctx_count()];
        let keys = psg
            .attribution_entries()
            .map(|(k, _)| k)
            .chain(psg.transition_entries().map(|(k, _)| k));
        for &(ctx, stmt) in keys {
            let span = &mut spans[ctx as usize];
            *span = Some(match *span {
                None => (stmt, stmt),
                Some((lo, hi)) => (lo.min(stmt), hi.max(stmt)),
            });
        }
        let mut slots = 0;
        let windows = spans
            .into_iter()
            .map(|span| {
                let window = span.map_or(Window::default(), |(lo, hi)| Window {
                    lo,
                    len: hi - lo + 1,
                    base: slots,
                });
                slots += window.len as usize;
                window
            })
            .collect();

        // Pass 2: fill the slots.
        let mut index = AttrIndex {
            windows,
            vertex: vec![NONE; slots],
            transition: vec![NONE; slots],
        };
        for (&(ctx, stmt), &v) in psg.attribution_entries() {
            debug_assert_ne!(v, NONE, "vertex id collides with the sentinel");
            let slot = index.slot(ctx, stmt).expect("entry inside its window");
            index.vertex[slot] = v;
        }
        for (&(ctx, stmt), &c) in psg.transition_entries() {
            debug_assert_ne!(c, NONE, "context id collides with the sentinel");
            let slot = index.slot(ctx, stmt).expect("entry inside its window");
            index.transition[slot] = c;
        }
        index
    }

    /// Table slots per table: the sum of every context's window length.
    pub fn slots(&self) -> usize {
        self.vertex.len()
    }

    /// Table position of `(ctx, stmt)`, if it lies inside `ctx`'s window.
    #[inline]
    fn slot(&self, ctx: CtxId, stmt: NodeId) -> Option<usize> {
        let w = self.windows.get(ctx as usize)?;
        // Ids below `lo` wrap to large offsets and fail the same compare.
        let i = stmt.wrapping_sub(w.lo);
        (i < w.len).then(|| w.base + i as usize)
    }

    /// Attribution: the vertex owning `stmt` in `ctx`. Equivalent to
    /// [`Psg::vertex_of`] on the snapshotted graph.
    #[inline]
    pub fn vertex_of(&self, ctx: CtxId, stmt: NodeId) -> Option<VertexId> {
        match self.vertex[self.slot(ctx, stmt)?] {
            NONE => None,
            v => Some(v),
        }
    }

    /// Context transition for a direct call statement. Equivalent to
    /// [`Psg::enter_call`] on the snapshotted graph.
    #[inline]
    pub fn enter_call(&self, ctx: CtxId, call_stmt: NodeId) -> Option<CtxId> {
        match self.transition[self.slot(ctx, call_stmt)?] {
            NONE => None,
            t => Some(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psg::PsgOptions;
    use scalana_lang::parse_program;

    const SRC: &str = r#"
        fn main() {
            for i in 0 .. 3 { work(i); }
            barrier();
        }
        fn work(n) { comp(cycles = n * 100); allreduce(bytes = 8); }
    "#;

    #[test]
    fn index_agrees_with_hash_maps_everywhere() {
        let program = parse_program("t.mmpi", SRC).unwrap();
        let psg = crate::build_psg(&program, &PsgOptions::default());
        let idx = AttrIndex::build(&psg);
        assert_eq!(idx.slots(), program.stmt_count());
        for ctx in 0..psg.ctx_count() as CtxId {
            for stmt in 0..=program.next_node_id {
                assert_eq!(idx.vertex_of(ctx, stmt), psg.vertex_of(ctx, stmt));
                assert_eq!(idx.enter_call(ctx, stmt), psg.enter_call(ctx, stmt));
            }
        }
    }

    #[test]
    fn out_of_range_ids_resolve_to_none() {
        let program = parse_program("t.mmpi", "fn main() { barrier(); }").unwrap();
        let psg = crate::build_psg(&program, &PsgOptions::default());
        let idx = AttrIndex::build(&psg);
        assert_eq!(idx.vertex_of(999, 0), None);
        assert_eq!(idx.vertex_of(0, 999), None);
        assert_eq!(idx.vertex_of(0, u32::MAX), None);
        assert_eq!(idx.enter_call(999, 999), None);
    }
}
