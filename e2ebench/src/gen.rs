//! Seeded MiniMPI program generators for the synthetic workloads.
//!
//! The benchmark owns these generators (rather than borrowing the
//! repository's test generators) so its inputs stay fixed while the
//! program under test changes.

use crate::rng::Rng;
use std::fmt::Write;

/// A small program for `warm_reuse`: an iteration loop over six stages
/// of balanced or rank-skewed compute, ring exchanges and reductions.
/// Cheap to simulate at the workload's scales (2..64), so the post-mortem
/// path (image decode, PPG assembly, detection, render, HTTP) carries
/// most of a job. The shape and the communication are fixed and only
/// the constants and the planted imbalance vary, so programs cost about
/// the same and a seed's popular few do not set the workload's cost.
pub fn small_program(rng: &mut Rng) -> String {
    let mut src = String::new();
    let work = rng.range(20, 80) * 10_000;
    let iters = 4;
    let stages = 6;
    let _ = writeln!(src, "param WORK = {work};");
    let _ = writeln!(src, "param ITERS = {iters};");
    src.push_str("fn main() {\n    bcast(root = 0, bytes = 64);\n");
    src.push_str("    for it in 0 .. ITERS {\n");
    for s in 0..stages {
        let _ = writeln!(src, "        stage_{s}(it);");
    }
    if rng.chance(0.5) {
        // A serial section: the Amdahl-style planted scaling loss.
        let div = rng.range(4, 16);
        let _ = writeln!(
            src,
            "        if rank == 0 {{\n            comp(cycles = WORK / {div}, ins = WORK / {div});\n        }}"
        );
    }
    src.push_str("        allreduce(bytes = 8);\n    }\n    reduce(root = 0, bytes = 8);\n}\n");
    for s in 0..stages {
        let inner = 3;
        let skew = if rng.chance(0.3) {
            rng.range(1, 5) * 1_000
        } else {
            0
        };
        let _ = writeln!(src, "fn stage_{s}(it) {{");
        let _ = writeln!(src, "    for k in 0 .. {inner} {{");
        let _ = writeln!(
            src,
            "        comp(cycles = WORK / nprocs + (rank % 4) * {skew}, ins = WORK / nprocs, lst = WORK / nprocs / 4);"
        );
        src.push_str("    }\n");
        match s % 3 {
            0 => src.push_str(
                "    sendrecv(dst = (rank + 1) % nprocs, sendtag = it, src = (rank + nprocs - 1) % nprocs, recvtag = it, bytes = 4096);\n",
            ),
            1 => src.push_str("    barrier();\n"),
            _ => src.push_str("    allreduce(bytes = 64);\n"),
        }
        src.push_str("}\n");
    }
    src
}

/// Number of generated functions in a [`large_program`]; with the
/// ~31-line body template this gives roughly 10k source lines.
const LARGE_FUNCTIONS: usize = 320;

/// A large program for `large_program`: a call tree of
/// [`LARGE_FUNCTIONS`] functions with shallow loops, rank-dependent
/// branches, configuration-guarded blocks that never run (present in
/// the PSG, absent from the simulation — like the option handling of
/// a real code), and indirect calls through function pointers near the
/// root, so indirect-call discovery takes a few rounds. Compute is split
/// across ranks, and one function in eight has a rank-0 serial section
/// ahead of its reduction, so detection finds non-scalable and abnormal
/// vertices and backtracks from them.
pub fn large_program(rng: &mut Rng) -> String {
    // Parent of each function: a random earlier function, biased to the
    // recent ones so the tree stays a few levels deep and bushy.
    let n = LARGE_FUNCTIONS;
    let roots = 8;
    let mut level = vec![0usize; n];
    let mut direct: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indirect: Vec<Vec<usize>> = vec![Vec::new(); n];
    for f in roots..n {
        let parent = rng.below(f.min(roots + (f - roots) / 2).max(1));
        level[f] = level[parent] + 1;
        // Indirect sites only in the top two levels: each level of
        // indirection costs one more discovery simulation.
        if level[parent] <= 1 && rng.chance(0.5) {
            indirect[parent].push(f);
        } else {
            direct[parent].push(f);
        }
    }

    let mut src = String::new();
    let _ = writeln!(src, "param MODE = 1;");
    let _ = writeln!(src, "param SCALE = {};", rng.range(20, 40));
    src.push_str("fn main() {\n    bcast(root = 0, bytes = 256);\n");
    for r in 0..roots {
        let _ = writeln!(src, "    f_{r}({r});");
    }
    src.push_str("    allreduce(bytes = 8);\n}\n");
    for f in 0..n {
        function(&mut src, rng, f, &direct[f], &indirect[f]);
    }
    src
}

fn function(src: &mut String, rng: &mut Rng, f: usize, direct: &[usize], indirect: &[usize]) {
    let c = |rng: &mut Rng| rng.range(2, 90) * 100;
    let _ = writeln!(src, "fn f_{f}(a) {{");
    let _ = writeln!(src, "    let x = a + {};", rng.range(1, 9));
    let _ = writeln!(
        src,
        "    comp(cycles = SCALE * {} / nprocs + x * {}, ins = {}, lst = {});",
        c(rng),
        rng.range(1, 9),
        c(rng),
        c(rng)
    );
    let serial = rng.below(8) == 0;
    if serial {
        let _ = writeln!(
            src,
            "    if rank == 0 {{\n        comp(cycles = SCALE * {}, ins = SCALE * {});\n    }}",
            c(rng),
            c(rng)
        );
    }
    let _ = writeln!(src, "    for i in 0 .. {} {{", rng.range(2, 3));
    let _ = writeln!(src, "        comp(cycles = {}, ins = {});", c(rng), c(rng));
    let _ = writeln!(src, "        if i == {} {{", rng.range(0, 1));
    let _ = writeln!(
        src,
        "            comp(cycles = {}, ins = {}, lst = {});",
        c(rng),
        c(rng),
        c(rng)
    );
    src.push_str("        }\n    }\n");
    let _ = writeln!(src, "    if rank % 2 == {} {{", rng.range(0, 1));
    let _ = writeln!(src, "        comp(cycles = {}, ins = {});", c(rng), c(rng));
    src.push_str("    } else {\n");
    let _ = writeln!(src, "        comp(cycles = {}, ins = {});", c(rng), c(rng));
    src.push_str("    }\n");
    // Cold path: in the PSG, never executed (MODE is 1).
    let _ = writeln!(src, "    if MODE == {} {{", rng.range(2, 4));
    for _ in 0..rng.range(6, 10) {
        let _ = writeln!(
            src,
            "        comp(cycles = {}, ins = {}, lst = {});",
            c(rng),
            c(rng),
            c(rng)
        );
    }
    let _ = writeln!(src, "        for k in 0 .. {} {{", rng.range(2, 4));
    let _ = writeln!(
        src,
        "            comp(cycles = {}, ins = {});",
        c(rng),
        c(rng)
    );
    src.push_str("        }\n        allreduce(bytes = 16);\n    }\n");
    for child in direct {
        let _ = writeln!(src, "    f_{child}(x);");
    }
    for pair in indirect.chunks(2) {
        let _ = writeln!(src, "    for j in 0 .. {} {{", pair.len());
        let _ = writeln!(src, "        let fp = &f_{};", pair[0]);
        if let Some(second) = pair.get(1) {
            let _ = writeln!(
                src,
                "        if j == 1 {{\n            fp = &f_{second};\n        }}"
            );
        }
        src.push_str("        call fp(x + j);\n    }\n");
    }
    match rng.below(4) {
        _ if serial => src.push_str("    allreduce(bytes = 8);\n"),
        0 => src.push_str("    allreduce(bytes = 8);\n"),
        1 => src.push_str(
            "    sendrecv(dst = (rank + 1) % nprocs, sendtag = 7, src = (rank + nprocs - 1) % nprocs, recvtag = 7, bytes = 1024);\n",
        ),
        _ => {}
    }
    src.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_parse() {
        for seed in 0..4 {
            let mut rng = Rng::new(seed, 1);
            let small = small_program(&mut rng);
            scalana_lang::parse_program("small.mmpi", &small).expect("small parses");
            let large = large_program(&mut rng);
            scalana_lang::parse_program("large.mmpi", &large).expect("large parses");
            let lines = large.lines().count();
            assert!((7_000..14_000).contains(&lines), "{lines} lines");
        }
    }
}
