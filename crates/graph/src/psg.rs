//! The contracted Program Structure Graph and its runtime interface.
//!
//! [`Psg`] is the artifact of `ScalAna-static`: the contracted vertex
//! tree, the calling-context table, and the `(context, statement) →
//! vertex` attribution map the simulator uses to land profiling data on
//! vertices. It also retains the per-function local PSGs so indirect
//! calls observed at runtime can be expanded post-hoc
//! ([`Psg::resolve_indirect`], paper §III-B3).

use crate::contract::contract;
use crate::inter::{mpi_closure, CtxNode, Expander, ROOT_CTX};
use crate::intra::{build_local, LocalPsg};
use crate::stats::PsgStats;
use crate::vertex::{Children, Vertex, VertexId, VertexKind};
use scalana_lang::ast::NodeId;
use scalana_lang::Program;
use std::collections::HashMap;

pub use crate::inter::CtxId;

/// Static-analysis knobs (paper §V: user-adjustable parameters).
#[derive(Debug, Clone)]
pub struct PsgOptions {
    /// The paper's `MaxLoopDepth`: MPI-free loops nested deeper than this
    /// are folded into their parent `Comp`. Paper default: 10.
    pub max_loop_depth: u32,
    /// Disable to skip contraction entirely (ablation; `#VBC == #VAC`).
    pub contract: bool,
}

impl Default for PsgOptions {
    fn default() -> Self {
        PsgOptions {
            max_loop_depth: 10,
            contract: true,
        }
    }
}

/// The contracted whole-program structure graph.
#[derive(Debug)]
pub struct Psg {
    /// Contracted vertex table; `vertices[i].id == i`.
    pub vertices: Vec<Vertex>,
    /// The root vertex.
    pub root: VertexId,
    /// Vertex-count statistics (Table II).
    pub stats: PsgStats,
    contexts: Vec<CtxNode>,
    /// Direct-call context transitions.
    transitions: HashMap<(CtxId, NodeId), CtxId>,
    /// Indirect-call transitions discovered at runtime.
    indirect: HashMap<(CtxId, NodeId), Vec<(String, CtxId)>>,
    /// Attribution map.
    stmt_map: HashMap<(CtxId, NodeId), VertexId>,
    /// Per-function local PSGs (kept for indirect-call expansion).
    locals: HashMap<String, LocalPsg>,
    /// Transitive does-MPI flags per function.
    mpi_flags: HashMap<String, bool>,
    opts: PsgOptions,
}

/// Build the PSG for a checked program.
pub fn build(program: &Program, opts: &PsgOptions) -> Psg {
    let locals: HashMap<String, LocalPsg> = program
        .functions
        .iter()
        .map(|f| (f.name.clone(), build_local(f)))
        .collect();
    let mpi_flags = mpi_closure(&locals);
    let mut contexts = Vec::new();
    let expansion = Expander::expand_program(&locals, &mut contexts);
    let vbc = expansion.vertices.len();

    let (vertices, root, stmt_map) = if opts.contract {
        let contracted = contract(
            &expansion.vertices,
            expansion.root,
            &mpi_flags,
            opts.max_loop_depth,
            0,
        );
        let stmt_map = expansion
            .stmt_map
            .iter()
            .map(|(key, old)| (*key, contracted.map[old]))
            .collect();
        (contracted.vertices, contracted.root, stmt_map)
    } else {
        (expansion.vertices, expansion.root, expansion.stmt_map)
    };

    let stats = PsgStats::compute(vbc, &vertices);
    Psg {
        vertices,
        root,
        stats,
        contexts,
        transitions: expansion.transitions,
        indirect: HashMap::new(),
        stmt_map,
        locals,
        mpi_flags,
        opts: opts.clone(),
    }
}

impl Psg {
    /// Vertex lookup.
    pub fn vertex(&self, id: VertexId) -> &Vertex {
        &self.vertices[id as usize]
    }

    /// Number of vertices after contraction.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// `main`'s calling context.
    pub fn root_ctx(&self) -> CtxId {
        ROOT_CTX
    }

    /// Function executing in a context.
    pub fn ctx_func(&self, ctx: CtxId) -> &str {
        &self.contexts[ctx as usize].func
    }

    /// Parent context.
    pub fn ctx_parent(&self, ctx: CtxId) -> Option<CtxId> {
        self.contexts[ctx as usize].parent
    }

    /// Context transition for a *direct* call statement. Recursive calls
    /// transition back to the active frame's context.
    pub fn enter_call(&self, ctx: CtxId, call_stmt: NodeId) -> Option<CtxId> {
        self.transitions.get(&(ctx, call_stmt)).copied()
    }

    /// Context transition for an *indirect* call, if this target has been
    /// resolved already.
    pub fn enter_indirect(&self, ctx: CtxId, stmt: NodeId, callee: &str) -> Option<CtxId> {
        self.indirect
            .get(&(ctx, stmt))?
            .iter()
            .find(|(name, _)| name == callee)
            .map(|(_, c)| *c)
    }

    /// Attribution: the vertex owning `stmt` in `ctx`.
    pub fn vertex_of(&self, ctx: CtxId, stmt: NodeId) -> Option<VertexId> {
        self.stmt_map.get(&(ctx, stmt)).copied()
    }

    /// Every `(context, statement) → vertex` attribution entry (for
    /// building snapshots such as [`crate::index::AttrIndex`]).
    pub fn attribution_entries(&self) -> impl Iterator<Item = (&(CtxId, NodeId), &VertexId)> {
        self.stmt_map.iter()
    }

    /// Every direct-call `(context, statement) → callee context` entry.
    pub fn transition_entries(&self) -> impl Iterator<Item = (&(CtxId, NodeId), &CtxId)> {
        self.transitions.iter()
    }

    /// Resolve an indirect call observed at runtime: expand (and
    /// contract) the callee under the `CallSite` vertex and register the
    /// context transition. Idempotent per `(ctx, stmt, callee)`.
    ///
    /// Returns the callee context, or `None` when the callee does not
    /// exist or `(ctx, stmt)` is not a known call site.
    pub fn resolve_indirect(&mut self, ctx: CtxId, stmt: NodeId, callee: &str) -> Option<CtxId> {
        if let Some(existing) = self.enter_indirect(ctx, stmt, callee) {
            return Some(existing);
        }
        if !self.locals.contains_key(callee) {
            return None;
        }
        let callsite = self.vertex_of(ctx, stmt)?;
        if self.vertex(callsite).kind != VertexKind::CallSite {
            return None;
        }

        // Dynamic recursion through a function pointer: reuse the active
        // ancestor context, exactly like the static recursion rule.
        let mut cursor = Some(ctx);
        while let Some(c) = cursor {
            if self.ctx_func(c) == callee {
                self.indirect
                    .entry((ctx, stmt))
                    .or_default()
                    .push((callee.to_string(), c));
                return Some(c);
            }
            cursor = self.ctx_parent(c);
        }

        let new_ctx = self.contexts.len() as CtxId;
        self.contexts.push(CtxNode {
            parent: Some(ctx),
            call_site: Some(stmt),
            func: callee.to_string(),
        });
        let base_depth = self.vertex(callsite).loop_depth;
        let expansion = Expander::expand_function_region(
            &self.locals,
            &mut self.contexts,
            callee,
            new_ctx,
            base_depth,
        );

        let base = self.vertices.len() as VertexId;
        let (mut region, region_root, region_map) = if self.opts.contract {
            let c = contract(
                &expansion.vertices,
                expansion.root,
                &self.mpi_flags,
                self.opts.max_loop_depth,
                base,
            );
            (c.vertices, c.root, c.map)
        } else {
            // Raw splice: offset ids without contraction.
            let mut vs = expansion.vertices.clone();
            let mut map = HashMap::with_capacity(vs.len());
            for v in &mut vs {
                map.insert(v.id, v.id + base);
                v.id += base;
                if let Some(p) = &mut v.parent {
                    *p += base;
                }
                match &mut v.children {
                    Children::Seq(kids) => kids.iter_mut().for_each(|k| *k += base),
                    Children::Arms { then_arm, else_arm } => {
                        then_arm.iter_mut().for_each(|k| *k += base);
                        else_arm.iter_mut().for_each(|k| *k += base);
                    }
                }
                if let VertexKind::RecursiveCall(t) = &mut v.kind {
                    *t += base;
                }
            }
            (vs, expansion.root + base, map)
        };

        // The region's synthetic root becomes a pass-through Comp hanging
        // off the CallSite vertex.
        let root_idx = (region_root - base) as usize;
        region[root_idx].kind = VertexKind::Comp;
        region[root_idx].stmt_ids.clear();
        region[root_idx].parent = Some(callsite);
        self.vertices.extend(region);
        self.vertices[callsite as usize].children = Children::Seq(vec![region_root]);

        for (key, old) in &expansion.stmt_map {
            self.stmt_map.insert(*key, region_map[old]);
        }
        for (key, target) in &expansion.transitions {
            self.transitions.insert(*key, *target);
        }
        self.indirect
            .entry((ctx, stmt))
            .or_default()
            .push((callee.to_string(), new_ctx));
        self.stats = PsgStats::compute(self.stats.vbc + expansion.vertices.len(), &self.vertices);
        Some(new_ctx)
    }

    // ----- structural queries used by backtracking (Algorithm 1) -----

    /// Structural parent.
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        self.vertex(v).parent
    }

    /// Previous sibling in execution order (staying inside a branch arm).
    /// `None` when `v` is the first vertex of its block.
    pub fn seq_pred(&self, v: VertexId) -> Option<VertexId> {
        let parent = self.vertex(v).parent?;
        match &self.vertex(parent).children {
            Children::Seq(kids) => prev_in(kids, v),
            Children::Arms { then_arm, else_arm } => {
                prev_in(then_arm, v).or_else(|| prev_in(else_arm, v))
            }
        }
    }

    /// The end (last) vertex of a loop body, i.e. the target of the
    /// loop's control-dependence edge during backtracking.
    pub fn loop_end(&self, v: VertexId) -> Option<VertexId> {
        match &self.vertex(v).children {
            Children::Seq(kids) => kids.last().copied(),
            Children::Arms { .. } => None,
        }
    }

    /// The end vertices of a branch's arms (one per non-empty arm).
    pub fn branch_arm_ends(&self, v: VertexId) -> Vec<VertexId> {
        match &self.vertex(v).children {
            Children::Arms { then_arm, else_arm } => [then_arm.last(), else_arm.last()]
                .into_iter()
                .flatten()
                .copied()
                .collect(),
            Children::Seq(_) => Vec::new(),
        }
    }

    /// Pre-order DFS over all vertices.
    pub fn iter_preorder(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.vertices.len());
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            out.push(v);
            let mut kids = self.vertex(v).children.all();
            kids.reverse();
            stack.extend(kids);
        }
        out
    }

    /// Total number of calling contexts (grows as indirect calls resolve).
    pub fn ctx_count(&self) -> usize {
        self.contexts.len()
    }

    /// The options the PSG was built with.
    pub fn options(&self) -> &PsgOptions {
        &self.opts
    }
}

fn prev_in(kids: &[VertexId], v: VertexId) -> Option<VertexId> {
    let pos = kids.iter().position(|&k| k == v)?;
    if pos == 0 {
        None
    } else {
        Some(kids[pos - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::MpiKind;
    use scalana_lang::parse_program;

    fn psg_of(src: &str) -> Psg {
        let program = parse_program("t.mmpi", src).unwrap();
        build(&program, &PsgOptions::default())
    }

    #[test]
    fn builds_and_counts() {
        let psg = psg_of(
            "fn main() { let a = 1; let b = 2; barrier(); for i in 0 .. 2 { \
             comp(cycles = i); } allreduce(bytes = 8); }",
        );
        assert!(psg.stats.vbc >= psg.stats.vac);
        assert_eq!(psg.stats.mpis, 2);
        assert_eq!(psg.vertex(psg.root).kind, VertexKind::Root);
    }

    #[test]
    fn attribution_map_reaches_contracted_vertices() {
        let src = "fn main() { let a = 1; let b = a + 1; barrier(); }";
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build(&program, &PsgOptions::default());
        // Both lets map to the same merged Comp vertex.
        let ids: Vec<NodeId> = {
            let mut v = vec![];
            program.for_each_stmt(|s| v.push(s.id));
            v
        };
        let v0 = psg.vertex_of(ROOT_CTX, ids[0]).unwrap();
        let v1 = psg.vertex_of(ROOT_CTX, ids[1]).unwrap();
        assert_eq!(v0, v1);
        assert_eq!(psg.vertex(v0).kind, VertexKind::Comp);
    }

    #[test]
    fn seq_pred_and_parent_navigation() {
        let psg = psg_of("fn main() { comp(cycles = 1); barrier(); allreduce(bytes = 8); }");
        let Children::Seq(top) = &psg.vertex(psg.root).children else {
            panic!()
        };
        assert_eq!(psg.seq_pred(top[2]), Some(top[1]));
        assert_eq!(psg.seq_pred(top[1]), Some(top[0]));
        assert_eq!(psg.seq_pred(top[0]), None);
        assert_eq!(psg.parent(top[0]), Some(psg.root));
    }

    #[test]
    fn loop_end_is_last_body_vertex() {
        let psg = psg_of(
            "fn main() { for i in 0 .. 2 { barrier(); comp(cycles = 1); \
                          allreduce(bytes = 8); } }",
        );
        let Children::Seq(top) = &psg.vertex(psg.root).children else {
            panic!()
        };
        let end = psg.loop_end(top[0]).unwrap();
        assert_eq!(psg.vertex(end).kind, VertexKind::Mpi(MpiKind::Allreduce));
    }

    #[test]
    fn branch_arm_ends() {
        let psg = psg_of(
            "fn main() { if rank == 0 { barrier(); } else { comp(cycles = 1); \
             allreduce(bytes = 8); } }",
        );
        let Children::Seq(top) = &psg.vertex(psg.root).children else {
            panic!()
        };
        let ends = psg.branch_arm_ends(top[0]);
        assert_eq!(ends.len(), 2);
        assert_eq!(psg.vertex(ends[0]).kind, VertexKind::Mpi(MpiKind::Barrier));
        assert_eq!(
            psg.vertex(ends[1]).kind,
            VertexKind::Mpi(MpiKind::Allreduce)
        );
    }

    #[test]
    fn resolve_indirect_expands_callsite() {
        let src = "fn main() { let f = &leaf; call f(); } \
                    fn leaf() { comp(cycles = 1); barrier(); }";
        let program = parse_program("t.mmpi", src).unwrap();
        let mut psg = build(&program, &PsgOptions::default());
        let callsite_stmt = {
            let mut found = None;
            program.for_each_stmt(|s| {
                if matches!(s.kind, scalana_lang::ast::StmtKind::CallIndirect { .. }) {
                    found = Some(s.id);
                }
            });
            found.unwrap()
        };
        let before = psg.vertex_count();
        assert!(psg
            .enter_indirect(ROOT_CTX, callsite_stmt, "leaf")
            .is_none());
        let ctx = psg
            .resolve_indirect(ROOT_CTX, callsite_stmt, "leaf")
            .unwrap();
        assert!(psg.vertex_count() > before);
        assert_eq!(psg.ctx_func(ctx), "leaf");
        // Second resolution is idempotent.
        let ctx2 = psg
            .resolve_indirect(ROOT_CTX, callsite_stmt, "leaf")
            .unwrap();
        assert_eq!(ctx, ctx2);
        // The callee's barrier is now attributable.
        let barrier_stmt = {
            let mut found = None;
            program.for_each_stmt(|s| {
                if matches!(
                    s.kind,
                    scalana_lang::ast::StmtKind::Mpi(scalana_lang::ast::MpiOp::Barrier)
                ) {
                    found = Some(s.id);
                }
            });
            found.unwrap()
        };
        let v = psg.vertex_of(ctx, barrier_stmt).unwrap();
        assert_eq!(psg.vertex(v).kind, VertexKind::Mpi(MpiKind::Barrier));
        // And the CallSite now has children.
        let callsite = psg.vertex_of(ROOT_CTX, callsite_stmt).unwrap();
        assert!(!psg.vertex(callsite).children.is_empty());
    }

    #[test]
    fn resolve_indirect_rejects_unknown_callee() {
        let src = "fn main() { let f = &leaf; call f(); } fn leaf() { }";
        let program = parse_program("t.mmpi", src).unwrap();
        let mut psg = build(&program, &PsgOptions::default());
        assert_eq!(psg.resolve_indirect(ROOT_CTX, 999, "leaf"), None);
    }

    #[test]
    fn no_contract_mode_keeps_everything() {
        let src = "fn main() { let a = 1; let b = 2; let c = 3; barrier(); }";
        let program = parse_program("t.mmpi", src).unwrap();
        let contracted = build(&program, &PsgOptions::default());
        let raw = build(
            &program,
            &PsgOptions {
                contract: false,
                ..Default::default()
            },
        );
        assert!(raw.vertex_count() > contracted.vertex_count());
        assert_eq!(raw.stats.vbc, raw.stats.vac);
    }

    #[test]
    fn preorder_covers_all_vertices() {
        let psg = psg_of(
            "fn main() { for i in 0 .. 2 { if rank == 0 { barrier(); } else { \
             allreduce(bytes = 8); } } }",
        );
        let order = psg.iter_preorder();
        assert_eq!(order.len(), psg.vertex_count());
    }

    #[test]
    fn enter_call_transitions_exist_for_direct_calls() {
        let src = "fn main() { work(); } fn work() { barrier(); }";
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build(&program, &PsgOptions::default());
        let call_stmt = {
            let mut found = None;
            program.for_each_stmt(|s| {
                if matches!(s.kind, scalana_lang::ast::StmtKind::Call { .. }) {
                    found = Some(s.id);
                }
            });
            found.unwrap()
        };
        let ctx = psg.enter_call(ROOT_CTX, call_stmt).unwrap();
        assert_eq!(psg.ctx_func(ctx), "work");
        assert_eq!(psg.ctx_parent(ctx), Some(ROOT_CTX));
    }
}
