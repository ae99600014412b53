//! wepic-repl — an interactive shell standing in for the Wepic GUI
//! (Figures 1 and 3 of the paper): inspect and edit rules, insert facts,
//! run queries, approve delegations, and step the peer network.
//!
//! ```sh
//! cargo run -p wepic --bin wepic-repl
//! ```
//!
//! Scriptable: commands read from stdin, one per line. Try:
//!
//! ```text
//! peer jules
//! peer emilien
//! use emilien
//! fact pictures@emilien(32, "sea.jpg", "emilien", 0x640000);
//! trust jules
//! use jules
//! decl intensional attendeePictures@jules/4;
//! rule attendeePictures@jules($id,$n,$o,$d) :- selectedAttendee@jules($a), pictures@$a($id,$n,$o,$d);
//! fact selectedAttendee@jules("emilien");
//! run
//! show attendeePictures
//! quit
//! ```

use std::io::{BufRead, Write};
use wdl_core::runtime::LocalRuntime;
use wdl_core::Peer;
use wdl_parser as parser;

struct Repl {
    rt: LocalRuntime,
    current: Option<String>,
}

fn main() {
    let stdin = std::io::stdin();
    let mut repl = Repl {
        rt: LocalRuntime::new(),
        current: None,
    };
    println!("wepic-repl — WebdamLog interactive shell. `help` for commands.");
    prompt(&repl);
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
            prompt(&repl);
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        if let Err(msg) = dispatch(&mut repl, line) {
            println!("error: {msg}");
        }
        prompt(&repl);
    }
    println!("bye.");
}

fn prompt(repl: &Repl) {
    match &repl.current {
        Some(p) => print!("{p}> "),
        None => print!("wepic> "),
    }
    std::io::stdout().flush().ok();
}

fn dispatch(repl: &mut Repl, line: &str) -> Result<(), String> {
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    match cmd {
        "help" => {
            println!(
                "commands:\n  \
                 peer <name>           create a peer\n  \
                 use <name>            switch current peer\n  \
                 peers                 list peers\n  \
                 decl <declaration;>   declare a relation\n  \
                 fact <fact;>          insert a fact\n  \
                 delete <fact;>        delete a fact\n  \
                 rule <rule;>          add a rule\n  \
                 rules                 list rules (with ids)\n  \
                 drop <idx>            remove rule by index\n  \
                 query <body>          run an ad-hoc query\n  \
                 show <relation>       print a relation's facts\n  \
                 pending               list pending delegations\n  \
                 approve <n>|reject <n>  decide pending delegation n\n  \
                 trust <peer>          trust a peer's delegations\n  \
                 check                 static analysis over all peers (wdl-analyze)\n  \
                 run [n]               tick the network (default: to quiescence)\n  \
                 stats                 current peer's last stage + cumulative eval stats\n  \
                 profile on|off|reset  start/stop structured tracing\n  \
                 top [k]               hottest rules by total evaluation time\n  \
                 critpath [k]          k longest message-graph critical paths\n  \
                 trace dump <file>     export the trace aggregate as JSONL\n  \
                 save <file>|restore <file>  snapshot current peer\n  \
                 quit"
            );
            Ok(())
        }
        "peer" => {
            if rest.is_empty() {
                return Err("usage: peer <name>".into());
            }
            repl.rt.add_peer(Peer::new(rest)).unwrap();
            repl.current = Some(rest.to_string());
            println!("created peer {rest}");
            Ok(())
        }
        "use" => {
            if repl.rt.peer(rest).is_none() {
                return Err(format!("no such peer: {rest}"));
            }
            repl.current = Some(rest.to_string());
            Ok(())
        }
        "peers" => {
            for n in repl.rt.peer_names() {
                println!("  {n}");
            }
            Ok(())
        }
        "decl" | "fact" | "rule" => {
            // Interactive edits are vetted like a file: one statement per
            // line through the static checker, applied all or nothing.
            let peer = current(repl)?;
            let report = parser::load_program_checked(
                repl.rt.peer_mut(peer.as_str()).unwrap(),
                ensure_semi(rest).as_str(),
                &wdl_analyze::StaticChecker,
            )
            .map_err(|e| e.to_string())?;
            // Only the entered statement carries a span: the peer's
            // earlier rules are checked too, but their warnings stay with
            // the `check` command.
            for d in report.warnings.iter().filter(|d| d.rule_span.is_some()) {
                println!("  {d}");
            }
            for id in &report.rules {
                println!("installed rule {id}");
            }
            if report.rules.is_empty() {
                println!(
                    "applied: {} declaration(s), {} fact(s)",
                    report.declarations, report.facts
                );
            }
            Ok(())
        }
        "delete" => {
            let peer = current(repl)?;
            let fact = parser::parse_fact(ensure_semi(rest).as_str()).map_err(|e| e.to_string())?;
            let p = repl.rt.peer_mut(peer.as_str()).unwrap();
            if fact.peer != p.name() {
                return Err("fact must address the current peer".into());
            }
            let removed = p
                .delete_local(fact.rel, fact.tuple.to_vec())
                .map_err(|e| e.to_string())?;
            println!("{}", if removed { "deleted" } else { "not present" });
            Ok(())
        }
        "rules" => {
            let peer = current(repl)?;
            let p = repl.rt.peer(peer.as_str()).unwrap();
            for (i, entry) in p.rules().iter().enumerate() {
                println!("  [{i}] {}", parser::pretty::rule(&entry.rule));
            }
            for d in p.installed_delegations() {
                println!(
                    "  [delegated by {}] {}",
                    d.origin,
                    parser::pretty::rule(&d.rule)
                );
            }
            Ok(())
        }
        "drop" => {
            let peer = current(repl)?;
            let idx: usize = rest.parse().map_err(|_| "usage: drop <idx>".to_string())?;
            let p = repl.rt.peer_mut(peer.as_str()).unwrap();
            let id = p
                .rules()
                .get(idx)
                .map(|e| e.id)
                .ok_or_else(|| format!("no rule at index {idx}"))?;
            let removed = p.remove_rule(id).map_err(|e| e.to_string())?;
            println!("removed: {}", parser::pretty::rule(&removed));
            Ok(())
        }
        "query" => {
            let peer = current(repl)?;
            let body = parser::parse_query(rest).map_err(|e| e.to_string())?;
            let rows = repl
                .rt
                .peer(peer.as_str())
                .unwrap()
                .query(&body)
                .map_err(|e| e.to_string())?;
            for s in &rows {
                println!("  {s:?}");
            }
            println!("{} row(s)", rows.len());
            Ok(())
        }
        "show" => {
            let peer = current(repl)?;
            let p = repl.rt.peer(peer.as_str()).unwrap();
            for f in p.facts_of(rest) {
                println!("  {f}");
            }
            Ok(())
        }
        "pending" => {
            let peer = current(repl)?;
            let p = repl.rt.peer(peer.as_str()).unwrap();
            for (i, pd) in p.pending_delegations().iter().enumerate() {
                println!(
                    "  [{i}] from {}: {}",
                    pd.delegation.origin,
                    parser::pretty::rule(&pd.delegation.rule)
                );
            }
            Ok(())
        }
        "approve" | "reject" => {
            let peer = current(repl)?;
            let idx: usize = rest.parse().map_err(|_| format!("usage: {cmd} <idx>"))?;
            let p = repl.rt.peer_mut(peer.as_str()).unwrap();
            let id = p
                .pending_delegations()
                .get(idx)
                .map(|pd| pd.delegation.id)
                .ok_or_else(|| format!("no pending delegation at index {idx}"))?;
            if cmd == "approve" {
                p.approve_delegation(id).map_err(|e| e.to_string())?;
                println!("approved — effective next stage");
            } else {
                p.reject_delegation(id).map_err(|e| e.to_string())?;
                println!("rejected");
            }
            Ok(())
        }
        "trust" => {
            let peer = current(repl)?;
            repl.rt
                .peer_mut(peer.as_str())
                .unwrap()
                .acl_mut()
                .trust(rest);
            println!("{peer} now trusts {rest}");
            Ok(())
        }
        "check" => {
            let peers: Vec<&Peer> = repl
                .rt
                .peer_names()
                .iter()
                .filter_map(|&n| repl.rt.peer(n))
                .collect();
            if peers.is_empty() {
                return Err("no peers to check — `peer <name>` first".into());
            }
            let report = wdl_analyze::Analyzer::from_peers(peers).analyze();
            for d in &report.diagnostics {
                println!("  {d}");
            }
            match report.delegation_depth {
                Some(depth) => println!("delegation depth bounded by {depth}"),
                None => println!("delegation depth unbounded (installation may cycle)"),
            }
            let errors = report.errors().count();
            println!(
                "{} diagnostic(s), {} error(s)",
                report.diagnostics.len(),
                errors
            );
            Ok(())
        }
        "run" => {
            let report = if rest.is_empty() {
                repl.rt.run_to_quiescence(64).map_err(|e| e.to_string())?
            } else {
                let n: usize = rest.parse().map_err(|_| "usage: run [n]".to_string())?;
                let mut acc = wdl_core::runtime::QuiescenceReport::default();
                for _ in 0..n {
                    let t = repl.rt.tick().map_err(|e| e.to_string())?;
                    acc.rounds += 1;
                    acc.messages += t.messages;
                }
                acc
            };
            println!(
                "ran {} round(s), {} message(s){}",
                report.rounds,
                report.messages,
                if report.quiescent { ", quiescent" } else { "" }
            );
            Ok(())
        }
        "stats" | "report" => {
            let peer = current(repl)?;
            let p = repl.rt.peer(peer.as_str()).unwrap();
            let s = p.last_stage_stats();
            let e = p.cumulative_eval_stats();
            println!(
                "last stage #{}: {} msg(s) in, {} update(s) applied, {} fixpoint round(s), \
                 {} derivation(s), {} fact msg(s) out, {} delegation(s), {} revocation(s), \
                 {} rejected, {} blocked read(s)",
                s.stage,
                s.ingested_messages,
                s.applied_updates,
                s.fixpoint_rounds,
                s.derivations,
                s.facts_out,
                s.delegations_out,
                s.revocations_out,
                s.rejected,
                s.reads_blocked,
            );
            println!(
                "cumulative: {} iteration(s), {} derivation(s), {} new fact(s)",
                e.iterations, e.derivations, e.facts_derived
            );
            Ok(())
        }
        "profile" => match rest {
            "on" => {
                repl.rt.set_tracing(true);
                println!("profiling on — events aggregate every `run` (resumes any earlier data)");
                Ok(())
            }
            "off" => {
                repl.rt.set_tracing(false);
                println!("profiling off — collected results remain queryable");
                Ok(())
            }
            "reset" => {
                repl.rt.reset_trace();
                println!("profile data discarded");
                Ok(())
            }
            _ => Err("usage: profile on|off|reset".into()),
        },
        "top" => {
            let k: usize = if rest.is_empty() {
                10
            } else {
                rest.parse().map_err(|_| "usage: top [k]".to_string())?
            };
            let agg = repl.rt.trace().ok_or("no profile — `profile on` first")?;
            println!(
                "{:<28} {:>8} {:>12} {:>10} {:>10} {:>10}",
                "rule", "calls", "total ms", "mean µs", "p99 µs", "derived"
            );
            for (label, stat) in agg.top_rules(k) {
                println!(
                    "{:<28} {:>8} {:>12.3} {:>10.1} {:>10.1} {:>10}",
                    label.to_string(),
                    stat.hist.count(),
                    stat.hist.sum_ns() as f64 / 1e6,
                    stat.hist.mean_ns() as f64 / 1e3,
                    stat.hist.quantile_ns(0.99) as f64 / 1e3,
                    stat.derived,
                );
            }
            Ok(())
        }
        "critpath" => {
            let k: usize = if rest.is_empty() {
                1
            } else {
                rest.parse()
                    .map_err(|_| "usage: critpath [k]".to_string())?
            };
            let agg = repl.rt.trace().ok_or("no profile — `profile on` first")?;
            let paths = agg.critical_paths(k);
            if paths.is_empty() {
                println!("no stage executions recorded yet");
            }
            for (i, path) in paths.iter().enumerate() {
                let chain: Vec<String> = path
                    .nodes
                    .iter()
                    .map(|n| format!("{}@{}({:.3}ms)", n.peer, n.stage, n.dur_ns as f64 / 1e6))
                    .collect();
                println!(
                    "[{i}] {:.3}ms over {} stage(s): {}",
                    path.total_ns as f64 / 1e6,
                    path.nodes.len(),
                    chain.join(" -> ")
                );
            }
            Ok(())
        }
        "trace" => {
            let file = rest
                .strip_prefix("dump")
                .map(str::trim)
                .filter(|f| !f.is_empty())
                .ok_or("usage: trace dump <file>")?;
            let agg = repl.rt.trace().ok_or("no profile — `profile on` first")?;
            let mut out =
                std::io::BufWriter::new(std::fs::File::create(file).map_err(|e| e.to_string())?);
            agg.export_jsonl(&mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            println!("wrote trace aggregate to {file}");
            Ok(())
        }
        "save" => {
            let peer = current(repl)?;
            let p = repl.rt.peer(peer.as_str()).unwrap();
            wdl_net::snapshot::save_to_file(p, rest).map_err(|e| e.to_string())?;
            println!("saved {peer} to {rest}");
            Ok(())
        }
        "restore" => {
            let p = wdl_net::snapshot::load_from_file(rest).map_err(|e| e.to_string())?;
            let name = p.name().to_string();
            if repl.rt.peer(name.as_str()).is_some() {
                repl.rt.remove_peer(name.as_str());
            }
            repl.rt.add_peer(p).unwrap();
            repl.current = Some(name.clone());
            println!("restored peer {name}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}` — try `help`")),
    }
}

fn current(repl: &Repl) -> Result<String, String> {
    repl.current
        .clone()
        .ok_or_else(|| "no current peer — `peer <name>` first".into())
}

fn ensure_semi(s: &str) -> String {
    let t = s.trim();
    if t.ends_with(';') {
        t.to_string()
    } else {
        format!("{t};")
    }
}
