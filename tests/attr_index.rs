//! The simulator's attribution index against the PSG's hash maps.
//!
//! `AttrIndex` must answer every `(context, statement)` query exactly as
//! `Psg::vertex_of` / `Psg::enter_call` do — including ids just outside
//! each context's window — on refined PSGs, where indirect-call
//! discovery has added contexts. Its tables must also stay as small as
//! the PSG: one slot per statement of each context's function.

use proptest::prelude::*;
use scalana_core::{refined_psg, ScalAnaConfig};
use scalana_graph::{AttrIndex, CtxId, Psg};
use scalana_lang::ast::{Block, StmtKind};
use scalana_lang::{parse_program, Program};

fn block_stmts(block: &Block) -> usize {
    block
        .stmts
        .iter()
        .map(|stmt| {
            1 + match &stmt.kind {
                StmtKind::For { body, .. } | StmtKind::While { body, .. } => block_stmts(body),
                StmtKind::If {
                    then_block,
                    else_block,
                    ..
                } => block_stmts(then_block) + else_block.as_ref().map_or(0, block_stmts),
                _ => 0,
            }
        })
        .sum()
}

/// Compare the index with the hash maps for every context and every
/// statement id up to one past the program's last, plus `u32::MAX`;
/// returns the index's slot count.
fn check(program: &Program, psg: &Psg) -> usize {
    let idx = AttrIndex::build(psg);
    for ctx in 0..=psg.ctx_count() as CtxId {
        for stmt in (0..=program.next_node_id).chain([u32::MAX]) {
            assert_eq!(
                idx.vertex_of(ctx, stmt),
                psg.vertex_of(ctx, stmt),
                "vertex_of({ctx}, {stmt})"
            );
            assert_eq!(
                idx.enter_call(ctx, stmt),
                psg.enter_call(ctx, stmt),
                "enter_call({ctx}, {stmt})"
            );
        }
    }
    let owned: usize = (0..psg.ctx_count() as CtxId)
        .map(|ctx| block_stmts(&program.function(psg.ctx_func(ctx)).unwrap().body))
        .sum();
    assert_eq!(
        idx.slots(),
        owned,
        "one slot per statement of each context's function"
    );
    idx.slots()
}

fn check_refined(program: &Program) -> usize {
    let psg = refined_psg(program, &ScalAnaConfig::default(), 2).unwrap();
    check(program, &psg)
}

#[test]
fn index_matches_psg_on_every_app() {
    for app in scalana_apps::all_apps() {
        check_refined(&app.program);
    }
}

#[test]
fn index_matches_psg_after_nested_indirection() {
    let src = r#"
        fn main() {
            let f = &outer;
            call f();
        }
        fn outer() {
            let g = &inner;
            call g();
        }
        fn inner() { barrier(); }
    "#;
    let program = parse_program("t.mmpi", src).unwrap();
    // main, outer and inner each own one context.
    assert_eq!(check_refined(&program), program.stmt_count());
}

#[test]
fn index_matches_psg_under_direct_and_indirect_recursion() {
    // `walk` recurses directly and through a function pointer; both
    // re-enter the active `walk` context instead of allocating one.
    let src = r#"
        fn main() {
            let f = &walk;
            call f(3);
            walk(2);
        }
        fn walk(n) {
            if n > 0 {
                let g = &walk;
                call g(n - 1);
                walk(n - 1);
            }
            barrier();
        }
    "#;
    let program = parse_program("t.mmpi", src).unwrap();
    let psg = refined_psg(&program, &ScalAnaConfig::default(), 2).unwrap();
    assert_eq!(
        psg.ctx_count(),
        3,
        "main plus one walk context per call site in main"
    );
    check(&program, &psg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn index_matches_psg_on_generated_programs(seed in 0u64..u64::MAX) {
        check_refined(&scalana_wgen::generate(seed, 0).lower());
    }
}
