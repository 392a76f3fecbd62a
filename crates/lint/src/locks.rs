//! Lock discipline (R7): no lock guard is held across channel or disk
//! I/O, and the lock-acquisition order merged over every in-scope file
//! is cycle-free. Guard liveness comes from the fact walk
//! ([`crate::facts`]); this module only reads `held` sets.

use crate::facts::Fact;
use crate::rules::{Diagnostic, SourceFile};

/// One `A -> B` lock-order edge: lock `to` acquired while a guard on
/// `from` is live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
}

/// R7 over every in-scope file: guards held across I/O, per function,
/// then acquisition-order cycles in the merged lock graph.
pub(crate) fn r7_lock_discipline(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut edges = Vec::new();
    for file in files {
        let mut file_edges = held_across_io(file, &mut diags);
        file_edges.sort_by_key(|e| e.line);
        file_edges.dedup();
        edges.extend(file_edges);
    }
    diags.extend(cycle_diags(&edges));
    diags
}

/// One file's guard-across-I/O findings (appended to `diags`) and its
/// lock-order edges.
fn held_across_io(file: &SourceFile, diags: &mut Vec<Diagnostic>) -> Vec<LockEdge> {
    let toks = file.toks();
    let mut edges = Vec::new();
    for (_, facts) in file.fns() {
        let mut reported: Vec<(&str, u32)> = Vec::new(); // (guard field, io line)
        for fact in facts.stmts.iter().flat_map(|s| &s.facts) {
            match fact {
                Fact::Acquire { guard, held } => {
                    let to = &facts.guards[*guard];
                    edges.extend(held.iter().map(|g| LockEdge {
                        from: facts.guards[*g].field.clone(),
                        to: to.field.clone(),
                        file: file.rel.clone(),
                        line: to.line,
                    }));
                }
                Fact::Call(c) if c.class.io => {
                    let t = &toks[c.tok];
                    let io = match c.qual {
                        Some(q) if !c.dot => format!("{}::{}(..)", toks[q].text, t.text),
                        _ => format!(".{}(..)", t.text),
                    };
                    for g in c.held.iter().map(|g| &facts.guards[*g]) {
                        if reported.contains(&(g.field.as_str(), t.line)) {
                            continue;
                        }
                        reported.push((&g.field, t.line));
                        diags.push(Diagnostic::new(
                            &file.rel,
                            t.line,
                            "R7",
                            format!(
                                "lock guard on `{}` (acquired line {}) held across `{io}`; release the guard before I/O — a slow peer would stall every thread needing this lock",
                                g.field, g.line
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    edges
}

/// Detect acquisition-order cycles in the merged lock graph. Returns
/// one diagnostic per distinct cycle, anchored at one of its edges.
pub fn cycle_diags(edges: &[LockEdge]) -> Vec<Diagnostic> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(e);
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();

    // DFS from every node; a back edge into the current stack is a cycle.
    for start in adj.keys().copied().collect::<Vec<_>>() {
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        let mut path_edges: Vec<&LockEdge> = Vec::new();
        loop {
            let Some(&mut (node, ref mut next)) = stack.last_mut() else {
                break;
            };
            let succ = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *next >= succ.len() {
                stack.pop();
                path.pop();
                path_edges.pop();
                continue;
            }
            let edge = succ[*next];
            *next += 1;
            if let Some(pos) = path.iter().position(|&n| n == edge.to.as_str()) {
                // Cycle: path[pos..] + this edge.
                let mut nodes: Vec<String> = path[pos..].iter().map(|s| s.to_string()).collect();
                let mut canon = nodes.clone();
                canon.sort();
                if seen_cycles.insert(canon) {
                    nodes.push(edge.to.clone());
                    let mut cyc_edges: Vec<&LockEdge> =
                        path_edges[pos.min(path_edges.len())..].to_vec();
                    cyc_edges.push(edge);
                    let route = nodes.join(" -> ");
                    let sites: Vec<String> =
                        cyc_edges.iter().map(|e| format!("{}:{}", e.file, e.line)).collect();
                    out.push(Diagnostic::new(
                        &edge.file,
                        edge.line,
                        "R7",
                        format!(
                            "lock acquisition-order cycle `{route}` (edges at {}); threads taking these locks in opposite orders can deadlock",
                            sites.join(", ")
                        ),
                    ));
                }
                continue;
            }
            if path.len() > 64 {
                // Defensive bound; lock graphs here are tiny.
                stack.pop();
                path.pop();
                path_edges.pop();
                continue;
            }
            path.push(edge.to.as_str());
            path_edges.push(edge);
            stack.push((edge.to.as_str(), 0));
        }
    }
    out
}
