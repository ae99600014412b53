//! Loading one generated program onto a fresh peer, the way a deployment
//! would: the `.wdl` text through `load_program_checked` and the static
//! checker. A traced run additionally times the parser and the analyzer on
//! their own over the same text, so that the install's self time can be
//! told apart from theirs.

use crate::gen::PeerProgram;
use crate::system::{BenchResult, Counters};
use std::time::Instant;
use wdl_analyze::{model_from_program, Analyzer, StaticChecker};
use wdl_core::Peer;
use wdl_parser::{load_program_checked, parse_program_spanned};

pub fn load_peer(program: &PeerProgram, trace: Option<&mut Counters>) -> BenchResult<Peer> {
    let mut peer = Peer::new(program.name.as_str());
    for trusted in &program.trusts {
        peer.acl_mut().trust(trusted.as_str());
    }
    let Some(c) = trace else {
        load_program_checked(&mut peer, &program.wdl, &StaticChecker)
            .map_err(|e| format!("load {}: {e}", program.name))?;
        return Ok(peer);
    };

    let t = Instant::now();
    let statements =
        parse_program_spanned(&program.wdl).map_err(|e| format!("parse {}: {e}", program.name))?;
    c.parse_ns += t.elapsed().as_nanos() as u64;
    c.src_bytes += program.wdl.len() as u64;
    c.statements += statements.len() as u64;

    let t = Instant::now();
    let (models, lift_diags) = model_from_program(&statements);
    let report = Analyzer::new(models).analyze();
    c.check_ns += t.elapsed().as_nanos() as u64;
    c.analyze_errors +=
        (lift_diags.iter().filter(|d| d.is_error()).count() + report.errors().count()) as u64;

    let t = Instant::now();
    load_program_checked(&mut peer, &program.wdl, &StaticChecker)
        .map_err(|e| format!("load {}: {e}", program.name))?;
    c.load_ns += t.elapsed().as_nanos() as u64;
    Ok(peer)
}
