//! "Interaction via the Web": audience members launch their own autonomous
//! Wepic peers — here over real TCP sockets, each peer free-running on its
//! own thread (the deployment model of Figure 2, loopback standing in for
//! the LAN + Webdam cloud).
//!
//! ```sh
//! cargo run --example audience_peer
//! ```

use std::time::Duration;
use webdamlog::core::acl::UntrustedPolicy;
use webdamlog::core::{Peer, RelationKind};
use webdamlog::datalog::Value;
use webdamlog::net::node::{NodeHandle, PeerNode};
use webdamlog::net::tcp::TcpEndpoint;
use webdamlog::parser::parse_rule;
use webdamlog::wepic::{ops, rules, schema, Picture};

fn main() {
    // The sigmod peer binds first (the "cloud").
    let sigmod_ep = TcpEndpoint::bind("sigmod", "127.0.0.1:0").unwrap();
    let sigmod_addr = sigmod_ep.local_addr();
    println!("sigmod peer listening on {sigmod_addr}");

    let mut sigmod = Peer::new("sigmod");
    schema::declare_sigmod(&mut sigmod).unwrap();
    sigmod
        .acl_mut()
        .set_untrusted_policy(UntrustedPolicy::Accept);
    // The registry view every attendee can query.
    sigmod
        .declare("registry", 1, RelationKind::Intensional)
        .unwrap();
    sigmod
        .add_rule(parse_rule("registry@sigmod($a) :- attendees@sigmod($a);").unwrap())
        .unwrap();

    let sigmod_node = PeerNode::new(sigmod, sigmod_ep);
    let sigmod_handle = NodeHandle::spawn(sigmod_node, Duration::from_millis(2)).unwrap();

    // Three audience members launch their own peers, each on its own port
    // and thread.
    let names = ["alice", "bob", "carol"];
    let mut handles = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let ep = TcpEndpoint::bind(*name, "127.0.0.1:0").unwrap();
        ep.register("sigmod", sigmod_addr);
        println!("{name} peer listening on {}", ep.local_addr());

        let mut p = Peer::new(*name);
        schema::declare_attendee(&mut p).unwrap();
        p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
        p.add_rule(rules::publish_to_sigmod(name, "sigmod").unwrap())
            .unwrap();
        // Register with the conference and upload a photo.
        p.insert_remote("sigmod", "attendees", vec![Value::from(*name)]);
        ops::upload_picture(
            &mut p,
            &Picture {
                id: (i as i64) + 1,
                name: format!("{name}_badge.jpg"),
                owner: (*name).into(),
                data: vec![i as u8; 128],
            },
        )
        .unwrap();

        handles.push(NodeHandle::spawn(PeerNode::new(p, ep), Duration::from_millis(2)).unwrap());
    }

    // Let the free-running peers converge.
    std::thread::sleep(Duration::from_millis(500));

    for h in handles {
        h.stop().unwrap();
    }
    let sigmod_node = sigmod_handle.stop().unwrap();
    let sigmod = sigmod_node.peer();

    println!("\nattendees@sigmod:");
    for f in sigmod.facts_of("attendees") {
        println!("  {f}");
    }
    println!("pictures@sigmod:");
    for f in sigmod.facts_of("pictures") {
        println!("  {f}");
    }
    assert_eq!(sigmod.relation_facts("attendees").len(), 3);
    assert_eq!(sigmod.relation_facts("pictures").len(), 3);
    println!(
        "\nall {} audience peers registered and published over TCP. ok.",
        names.len()
    );
}
