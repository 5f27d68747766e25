//! Never-panic and round-trip properties for the two topology parsers:
//! `TierGraph::from_str` (`fe[2] -> st[2]*2@4`) and `BudgetTree::parse`
//! (`dc:uniform[rack:fastcap[a,b],c]`).
//!
//! Each case starts from a valid spec and applies a chain of edits: insert,
//! delete or replace one character from the spec alphabet, or insert a run
//! of up to 25 digits (past `u64`, and long enough to overflow a float's
//! exact range). Every string along the chain is parsed. Bad input must
//! come back as an `Err`, never a panic, and any string a parser accepts
//! must render to a fixed point: display, parse the display, display
//! again, and the two renderings agree.

use cluster::BudgetTree;
use proptest::prelude::*;
use topology::TierGraph;

const TIER_SPECS: [&str; 4] = [
    "fe[2] -> app[4]*2 -> st[8]*2@4",
    "fe[2] -> st[2]*2@4",
    "web[1]",
    "a_b[3] -> c-d[12]*3@0.5 -> e[1]@2.5",
];

const TIER_ALPHABET: &str = "abdefpst_-0123456789[]*@->. ";

const TREE_SPECS: [&str; 4] = [
    "fleet:uniform[rack0:sla-aware[h0,h1],pod:fastcap[c0,c1]]",
    "f:demand[ x , r:sla[ y ] ]",
    "dc:critical-path[fe:fastcap[fe0,fe1],st:crit[st0,st1]]",
    "solo",
];

const TREE_ALPHABET: &str = "acdefhilmnoprstuxy_-.0123456789:[], ";

/// One edit: `(kind, position, payload)`, each drawn from raw integers.
type Edit = (u8, u64, u64);

/// Every string along the chain of `edits` applied to `spec`, the last
/// edit's result last.
fn edit_chain(spec: &str, alphabet: &str, edits: &[Edit]) -> Vec<String> {
    let alphabet: Vec<char> = alphabet.chars().collect();
    let pick = |x: u64| alphabet[(x % alphabet.len() as u64) as usize];
    let mut s: Vec<char> = spec.chars().collect();
    let mut out = Vec::with_capacity(edits.len());
    for &(kind, pos, payload) in edits {
        let at = |len: usize| (pos % (len as u64 + 1)) as usize;
        match kind {
            0 => s.insert(at(s.len()), pick(payload)),
            1 if !s.is_empty() => {
                s.remove(at(s.len() - 1));
            }
            2 if !s.is_empty() => {
                let i = at(s.len() - 1);
                s[i] = pick(payload);
            }
            _ => {
                let i = at(s.len());
                let run = 1 + (payload % 25) as usize;
                let mut x = payload;
                let digits = (0..run).map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    char::from(b'0' + ((x >> 33) % 10) as u8)
                });
                s.splice(i..i, digits);
            }
        }
        out.push(s.iter().collect());
    }
    out
}

/// Parses `s` as a tier graph; when it parses, its display is a fixed
/// point of display ∘ parse. Returns whether `s` parsed.
fn tier_round_trips(s: &str) -> bool {
    let Ok(g) = s.parse::<TierGraph>() else {
        return false;
    };
    let shown = g.to_string();
    let again: TierGraph = shown
        .parse()
        .unwrap_or_else(|e| panic!("{s:?} parsed, but its display {shown:?} did not: {e}"));
    assert_eq!(
        again.to_string(),
        shown,
        "the display of {s:?} is not a fixed point"
    );
    true
}

/// [`tier_round_trips`] for a budget tree.
fn tree_round_trips(s: &str) -> bool {
    let Ok(t) = BudgetTree::parse(s) else {
        return false;
    };
    let shown = t.to_string();
    let again = BudgetTree::parse(&shown)
        .unwrap_or_else(|e| panic!("{s:?} parsed, but its display {shown:?} did not: {e}"));
    assert_eq!(
        again.to_string(),
        shown,
        "the display of {s:?} is not a fixed point"
    );
    true
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Edited tier specs never panic the parser, and whatever it accepts
    /// renders to a fixed point.
    #[test]
    fn tier_graph_parse_never_panics_and_round_trips(spec in 0usize..4, edits in edits()) {
        for s in edit_chain(TIER_SPECS[spec], TIER_ALPHABET, &edits) {
            tier_round_trips(&s);
        }
    }

    /// Edited budget-tree specs never panic the parser, and whatever it
    /// accepts renders to a fixed point.
    #[test]
    fn budget_tree_parse_never_panics_and_round_trips(spec in 0usize..4, edits in edits()) {
        for s in edit_chain(TREE_SPECS[spec], TREE_ALPHABET, &edits) {
            tree_round_trips(&s);
        }
    }
}

/// The edits reach both outcomes on both parsers: single edits of the
/// valid specs are accepted often enough for the round trip above to be
/// exercised, and rejected often enough for the error paths to be.
#[test]
fn single_edits_reach_both_accept_and_reject() {
    let mut rng = proptest::TestRng::from_label("single_edits_reach_both_accept_and_reject");
    let edit = (0u8..4, any::<u64>(), any::<u64>());
    let (mut tiers_ok, mut trees_ok) = (0, 0);
    let tries = 2_000;
    for i in 0..tries {
        let e = [edit.sample(&mut rng)];
        let tier = &edit_chain(TIER_SPECS[i % 4], TIER_ALPHABET, &e)[0];
        let tree = &edit_chain(TREE_SPECS[i % 4], TREE_ALPHABET, &e)[0];
        tiers_ok += usize::from(tier_round_trips(tier));
        trees_ok += usize::from(tree_round_trips(tree));
    }
    for (parser, ok) in [("tier graph", tiers_ok), ("budget tree", trees_ok)] {
        assert!(
            ok > tries / 10 && ok < tries * 9 / 10,
            "{parser}: {ok} of {tries} single edits parsed"
        );
    }
}
