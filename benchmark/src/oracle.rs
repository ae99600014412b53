//! The correctness oracle: the same generated programs and the same op
//! stream on a plain `LocalRuntime`, with no store, session or socket.
//! Every rule set is non-recursive and every rule-change cycle ends on the
//! initial rule, so the watched relation is a function of the final base
//! facts alone and the ops can be applied in one batch.

use crate::gen::Inputs;
use crate::load::load_peer;
use crate::system::BenchResult;
use wdl_core::runtime::LocalRuntime;
use wdl_datalog::Tuple;

pub fn reference(inputs: &Inputs) -> BenchResult<Vec<Tuple>> {
    let mut rt = LocalRuntime::new();
    for program in &inputs.peers {
        rt.add_peer(load_peer(program, None)?)
            .map_err(|e| format!("reference add_peer: {e}"))?;
    }
    for op in inputs.paced.iter().chain(&inputs.sat) {
        let peer = rt
            .peer_mut(inputs.peers[op.peer].name.as_str())
            .ok_or("reference lost a peer")?;
        op.mutation
            .apply(peer)
            .map_err(|e| format!("reference op: {e}"))?;
    }
    let report = rt
        .run_to_quiescence(256)
        .map_err(|e| format!("reference run: {e}"))?;
    if !report.quiescent {
        return Err("reference did not quiesce".into());
    }
    let watcher = inputs.peers[inputs.watcher].name.as_str();
    let mut rows = rt
        .peer(watcher)
        .ok_or("reference lost the watcher")?
        .relation_facts(inputs.watched_rel);
    rows.sort();
    Ok(rows)
}
