//! Peer persistence: "launch their customized peers on their machines with
//! their own personal data" (§1) — customize a peer, snapshot it to disk,
//! "reboot", restore, and keep working with the same rules, data, trust
//! settings and grants.
//!
//! ```sh
//! cargo run --example persistence
//! ```

use webdamlog::core::runtime::LocalRuntime;
use webdamlog::core::{NoCheck, Peer};
use webdamlog::net::snapshot;
use webdamlog::parser::load_program_checked;

fn main() {
    let dir = std::env::temp_dir().join("webdamlog-example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("joe.snap");

    // Joe (the paper's intro user) customizes his peer.
    let mut joe = Peer::new("joe");
    load_program_checked(
        &mut joe,
        r#"
        // Joe's personal data and a review-publishing rule (the blog/
        // Facebook/Dropbox story of the paper's introduction).
        extensional movies@joe/2;
        extensional reviews@joe/2;
        intensional toPublish@joe/2;

        movies@joe(1, "La Haine");
        movies@joe(2, "Amelie");
        reviews@joe(1, "a masterpiece");

        toPublish@joe($title, $text) :-
            movies@joe($id, $title), reviews@joe($id, $text);
        "#,
        &NoCheck,
    )
    .expect("program loads");
    joe.acl_mut().trust("blogHost");
    joe.acl_mut().restrict_read("reviews");
    joe.acl_mut().declassify("toPublish");

    println!(
        "before snapshot: {} rules, {} relations",
        joe.rules().len(),
        joe.schema().len()
    );
    snapshot::save_to_file(&joe, &path).expect("snapshot saves");
    println!("snapshot written to {}", path.display());
    drop(joe); // the machine "shuts down"

    // ...reboot...
    let restored = snapshot::load_from_file(&path).expect("snapshot loads");
    println!(
        "restored: {} rules, {} movie(s), trusts blogHost: {}",
        restored.rules().len(),
        restored.relation_facts("movies").len(),
        restored
            .acl()
            .is_trusted(webdamlog::datalog::Symbol::intern("blogHost")),
    );

    // The restored peer computes exactly as before.
    let mut rt = LocalRuntime::new();
    rt.add_peer(restored).unwrap();
    rt.run_to_quiescence(8).expect("runs");
    let joe = rt.peer("joe").unwrap();
    println!("toPublish@joe after restore:");
    for f in joe.facts_of("toPublish") {
        println!("  {f}");
    }
    assert_eq!(joe.relation_facts("toPublish").len(), 1);

    std::fs::remove_file(&path).ok();
    println!("ok.");
}
