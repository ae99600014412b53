//! Hostile `.wdl` text through the one door into a peer: the parser, the
//! static analyzer, `load_program_checked` → `Peer::install`, and a few
//! stages of the installed program.
//!
//! 1. The expression-depth bound (`wdl_datalog::MAX_EXPR_DEPTH`) is the
//!    same at admission as in the peer image: a rule at the bound survives
//!    a snapshot round trip, and one level deeper is refused by every path
//!    that admits a rule.
//! 2. Seeded mutations of the example programs never panic anywhere along
//!    that path. A failing seed prints its reproduction line:
//!
//! ```text
//! WDL_FUZZ_SEEDS=17 cargo test --test program_robustness   # one seed
//! WDL_FUZZ_SEEDS=0..20000 cargo test --test program_robustness  # a range
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use webdamlog::analyze::{model_from_program, Analyzer, StaticChecker};
use webdamlog::core::acl::UntrustedPolicy;
use webdamlog::core::runtime::LocalRuntime;
use webdamlog::core::{Delegation, Message, NoCheck, Payload, Peer, ProgramBatch, WdlError};
use webdamlog::datalog::MAX_EXPR_DEPTH;
use webdamlog::net::snapshot;
use webdamlog::parser::{
    load_program_checked, parse_program_spanned, parse_rule, pretty, LoadError, Statement,
};

/// `out@deep($y) :- n@deep($x), $y := $x + 1 + ... + 1` with `ops`
/// additions, i.e. an expression `ops` operators deep.
fn deep_program(ops: usize) -> String {
    format!(
        "extensional n@deep/1;\nintensional out@deep/1;\nn@deep(1);\n\
         out@deep($y) :- n@deep($x), $y := $x{};\n",
        " + 1".repeat(ops)
    )
}

fn open_peer(name: &str) -> Peer {
    let mut p = Peer::new(name);
    p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
    p
}

#[test]
fn rule_at_the_depth_bound_survives_the_peer_image() {
    let mut peer = open_peer("deep");
    load_program_checked(&mut peer, &deep_program(MAX_EXPR_DEPTH), &StaticChecker).unwrap();
    peer.run_stage().unwrap();
    let expected = vec![webdamlog::datalog::Value::from(1 + MAX_EXPR_DEPTH as i64)];
    assert_eq!(peer.relation_facts("out").len(), 1);
    assert_eq!(peer.relation_facts("out")[0].to_vec(), expected);

    let mut copy = snapshot::load(&snapshot::save(&peer)).unwrap();
    assert_eq!(copy.rules().len(), 1);
    assert_eq!(copy.rules()[0].rule, peer.rules()[0].rule);
    copy.run_stage().unwrap();
    assert_eq!(copy.relation_facts("out"), peer.relation_facts("out"));
}

#[test]
fn rule_one_level_deeper_is_refused_at_every_door() {
    // Text: the parser stops at the bound.
    let mut peer = open_peer("deep");
    let err = load_program_checked(&mut peer, &deep_program(MAX_EXPR_DEPTH + 1), &NoCheck);
    assert!(matches!(err, Err(LoadError::Parse(_))), "{err:?}");
    assert!(peer.rules().is_empty() && peer.relation_facts("n").is_empty());

    // A rule built in code: install, add_rule and replace_rule validate it.
    let at_bound = parse_rule(&format!(
        "out@deep($y) :- n@deep($x), $y := $x{};",
        " + 1".repeat(MAX_EXPR_DEPTH)
    ))
    .unwrap();
    let mut too_deep = at_bound.clone();
    let webdamlog::core::WBodyItem::Assign { expr, .. } = &mut too_deep.body[1] else {
        panic!("expected an assignment");
    };
    *expr = webdamlog::datalog::Expr::bin(
        webdamlog::datalog::BinOp::Add,
        expr.clone(),
        webdamlog::datalog::Expr::term(webdamlog::datalog::Term::cst(1)),
    );
    let refused = Err(WdlError::ExprTooDeep { position: 1 });
    let mut batch = ProgramBatch::new();
    batch.rules.push((too_deep.clone(), None));
    assert_eq!(peer.install(batch, &NoCheck).map(|_| ()), refused);
    assert_eq!(peer.add_rule(too_deep.clone()).map(|_| ()), refused);
    let id = peer.add_rule(at_bound).unwrap();
    assert_eq!(peer.replace_rule(id, too_deep.clone()).map(|_| ()), refused);

    // A delegation carrying it is dropped at ingest, not installed.
    let d = Delegation::new("other".into(), "deep".into(), too_deep);
    peer.enqueue(Message::new(
        "other".into(),
        "deep".into(),
        Payload::Delegate(vec![d]),
    ));
    peer.run_stage().unwrap();
    assert_eq!(peer.last_stage_stats().rejected, 1);
    assert!(peer.installed_delegations().is_empty());
}

const CORPUS: [(&str, &str); 5] = [
    (
        "conference",
        include_str!("../examples/programs/conference.wdl"),
    ),
    (
        "delegation_chain",
        include_str!("../examples/programs/delegation_chain.wdl"),
    ),
    (
        "negation",
        include_str!("../examples/programs/negation.wdl"),
    ),
    (
        "quickstart",
        include_str!("../examples/programs/quickstart.wdl"),
    ),
    ("ratings", include_str!("../examples/programs/ratings.wdl")),
];

/// Default sweep; `WDL_FUZZ_SEEDS=<n>` or `=<lo>..<hi>` overrides it.
fn seeds() -> Vec<u64> {
    if let Ok(v) = std::env::var("WDL_FUZZ_SEEDS") {
        let v = v.trim();
        if let Some((lo, hi)) = v.split_once("..") {
            if let (Ok(lo), Ok(hi)) = (lo.parse::<u64>(), hi.parse::<u64>()) {
                return (lo..hi).collect();
            }
        }
        if let Ok(seed) = v.parse::<u64>() {
            return vec![seed];
        }
    }
    (0..3000).collect()
}

/// One to three seeded mutations of one corpus file: bit flips,
/// truncations, splices of bytes from elsewhere in the corpus, and
/// deletions.
fn mutate(seed: u64) -> (&'static str, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (name, src) = CORPUS[seed as usize % CORPUS.len()];
    let mut b = src.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        if b.is_empty() {
            break;
        }
        match rng.gen_range(0..4) {
            0 => {
                for _ in 0..rng.gen_range(1..=4) {
                    let i = rng.gen_range(0..b.len());
                    b[i] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            1 => b.truncate(rng.gen_range(0..b.len())),
            2 => {
                let (_, donor) = CORPUS[rng.gen_range(0..CORPUS.len())];
                let start = rng.gen_range(0..donor.len());
                let len = rng.gen_range(1..=24usize).min(donor.len() - start);
                let at = rng.gen_range(0..=b.len());
                b.splice(at..at, donor.as_bytes()[start..start + len].iter().copied());
            }
            _ => {
                let at = rng.gen_range(0..b.len());
                let len = rng.gen_range(1..=16usize).min(b.len() - at);
                b.drain(at..at + len);
            }
        }
    }
    (name, String::from_utf8_lossy(&b).into_owned())
}

/// Drives `src` through the parser, the analyzer, `load_program_checked`
/// and three stages. Errors are fine; only a panic fails the sweep.
fn drive(src: &str) {
    let Ok(statements) = parse_program_spanned(src) else {
        return;
    };
    let (models, _) = model_from_program(&statements);
    Analyzer::new(models.clone()).analyze();

    // The raw text onto the first modelled peer, as a deployment would.
    let mut rt = LocalRuntime::new();
    if let Some(first) = models.first() {
        let mut peer = open_peer(first.name.as_str());
        let _ = load_program_checked(&mut peer, src, &StaticChecker);
    }
    // Each peer's own statements, so installs and stages see real
    // programs, not just wrong-peer refusals.
    for model in &models {
        let mut text = String::new();
        for st in &statements {
            let owner = match &st.statement {
                Statement::Declaration { peer, .. } => Some(*peer),
                Statement::Fact(f) => Some(f.peer),
                Statement::Rule(_) => None,
            };
            if owner == Some(model.name) {
                text += &pretty::statement(&st.statement);
                text.push('\n');
            }
        }
        for info in &model.rules {
            text += &pretty::rule(&info.rule);
            text.push('\n');
        }
        let mut peer = open_peer(model.name.as_str());
        let _ = load_program_checked(&mut peer, &text, &StaticChecker);
        let _ = rt.add_peer(peer);
    }
    for _ in 0..3 {
        let _ = rt.tick();
    }
}

#[test]
fn mutated_programs_never_panic_on_the_way_into_a_peer() {
    let mut failures = Vec::new();
    for seed in seeds() {
        let (name, src) = mutate(seed);
        if catch_unwind(AssertUnwindSafe(|| drive(&src))).is_err() {
            failures.push(format!(
                "seed {seed} (mutated {name}.wdl)\n\
                 reproduce: WDL_FUZZ_SEEDS={seed} cargo test --test program_robustness"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}\n", failures.join("\n"));
}

#[test]
fn nesting_bombs_are_refused_without_aborting() {
    let bombs = [
        format!("{}1{}", "(".repeat(200_000), ")".repeat(200_000)),
        vec!["1"; 100_000].join(" + "),
    ];
    for expr in bombs {
        let src = format!("out@p($x) :- n@p($y), $x := {expr};");
        drive(&src);
        let mut peer = open_peer("p");
        let err = load_program_checked(&mut peer, &src, &StaticChecker).unwrap_err();
        assert!(err.to_string().contains("nests deeper"), "{err}");
    }
}
