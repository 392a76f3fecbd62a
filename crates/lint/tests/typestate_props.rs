//! Property tests for the fact walk as the summary engine sees it
//! (`callgraph::local_events`): generated function bodies mixing plain
//! statements, method-chain statements (`recv.inner()?.op(..)`), and
//! closure bodies must yield exactly the planted effect transitions, in
//! statement order, each anchored at the line the parser's span model
//! assigns the statement. A second property pins branch-path semantics:
//! effects in sibling `if`/`else` arms are mutually unordered, while
//! everything else on a straight-line path stays ordered.

use mp_lint::callgraph::{local_events, ordered_branches, EffectKind, LocalEvent};
use mp_lint::parser;
use proptest::prelude::*;

/// The primitive calls the extractor recognizes, paired with the
/// effect each must produce.
const OPS: &[(&str, EffectKind)] = &[
    ("write_all(b\"PAY\")", EffectKind::SocketWrite),
    ("flush()", EffectKind::SocketWrite),
    ("send(b\"OK\")", EffectKind::Ack),
    ("read_exact(&mut buf)", EffectKind::SocketRead),
    ("set_deadlines(other)", EffectKind::DeadlineArm),
    ("sync_all()", EffectKind::Fsync),
    ("rename(a, b)", EffectKind::Rename),
    ("read_to_end(&mut buf)", EffectKind::UnboundedRead),
];

const HEADER: &str = "fn generated(chan: &mut Chan, conns: &Conns, buf: &mut Vec<u8>, \
                      a: &str, b: &str, other: &Tok) {\n";

fn ops_strategy(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(usize, u8)>> {
    proptest::collection::vec((0..OPS.len(), 0u8..3), n)
}

/// Render one op as a statement in the chosen style; every style keeps
/// the primitive on a single, known line.
fn stmt(op: usize, style: u8) -> String {
    let call = OPS[op].0;
    match style {
        0 => format!("    chan.{call};\n"),
        1 => format!("    chan.inner()?.{call};\n"),
        _ => format!("    conns.for_each(|c| c.{call});\n"),
    }
}

fn effects_of(src: &str) -> Vec<(EffectKind, u32, Vec<u32>)> {
    let pf = parser::parse_source(src).expect("generated source parses");
    assert_eq!(pf.functions.len(), 1, "one generated function");
    local_events("crates/core/src/generated.rs", &pf, &pf.functions[0])
        .into_iter()
        .filter_map(|e| match e {
            LocalEvent::Effect(eff) => Some((eff.kind, eff.line, eff.branch)),
            LocalEvent::Call { .. } => None,
        })
        .collect()
}

proptest! {
    #[test]
    fn transitions_round_trip_statement_order_and_spans(
        ops in ops_strategy(1..12),
    ) {
        let mut src = String::from(HEADER);
        let mut expected: Vec<(EffectKind, u32)> = Vec::new();
        let mut line = 2u32;
        for &(op, style) in &ops {
            src.push_str(&stmt(op, style));
            expected.push((OPS[op].1, line));
            line += 1;
        }
        src.push_str("}\n");

        let got: Vec<(EffectKind, u32)> =
            effects_of(&src).into_iter().map(|(k, l, _)| (k, l)).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn chained_ops_in_one_statement_keep_token_order(
        pairs in proptest::collection::vec((0..OPS.len(), 0..OPS.len()), 1..6),
    ) {
        // `chan.flush()?.send(b"OK")` — two primitives in one chained
        // statement must come out in token order on the same line.
        let mut src = String::from(HEADER);
        let mut expected: Vec<(EffectKind, u32)> = Vec::new();
        let mut line = 2u32;
        for &(x, y) in &pairs {
            src.push_str(&format!("    chan.{}?.{};\n", OPS[x].0, OPS[y].0));
            expected.push((OPS[x].1, line));
            expected.push((OPS[y].1, line));
            line += 1;
        }
        src.push_str("}\n");

        let got: Vec<(EffectKind, u32)> =
            effects_of(&src).into_iter().map(|(k, l, _)| (k, l)).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn sibling_arm_effects_are_unordered_straight_line_stays_ordered(
        arm_a in ops_strategy(1..5),
        arm_b in ops_strategy(1..5),
        tail in ops_strategy(1..5),
    ) {
        let mut src = String::from(HEADER);
        let mut line = 2u32;
        let render = |src: &mut String, ops: &[(usize, u8)], line: &mut u32| -> Vec<u32> {
            let mut lines = Vec::new();
            for &(op, style) in ops {
                src.push_str("    ");
                src.push_str(&stmt(op, style));
                lines.push(*line);
                *line += 1;
            }
            lines
        };
        src.push_str("    if chan.ready() {\n");
        line += 1;
        let a_lines = render(&mut src, &arm_a, &mut line);
        src.push_str("    } else {\n");
        line += 1;
        let b_lines = render(&mut src, &arm_b, &mut line);
        src.push_str("    }\n");
        line += 1;
        let mut tail_lines = Vec::new();
        for &(op, style) in &tail {
            src.push_str(&stmt(op, style));
            tail_lines.push(line);
            line += 1;
        }
        src.push_str("}\n");

        let effects = effects_of(&src);
        prop_assert_eq!(effects.len(), arm_a.len() + arm_b.len() + tail.len());
        let group = |l: u32| -> u8 {
            if a_lines.contains(&l) {
                0
            } else if b_lines.contains(&l) {
                1
            } else {
                assert!(tail_lines.contains(&l), "effect on unexpected line {l}");
                2
            }
        };
        for (i, (_, la, ba)) in effects.iter().enumerate() {
            for (_, lb, bb) in effects.iter().skip(i + 1) {
                let (ga, gb) = (group(*la), group(*lb));
                let expect_ordered = !(ga == 0 && gb == 1 || ga == 1 && gb == 0);
                prop_assert!(
                    ordered_branches(ba, bb) == expect_ordered,
                    "lines {} vs {} (groups {} vs {}), paths {:?} vs {:?}\n{}",
                    la, lb, ga, gb, ba, bb, src
                );
            }
        }
    }
}
