//! The paper's deployment, for real: three peers in separate threads
//! speaking the binary wire protocol over TCP sockets, running the Wepic
//! scenario of Figure 2 end to end.

use std::time::Duration;
use webdamlog::core::acl::UntrustedPolicy;
use webdamlog::core::Peer;
use webdamlog::datalog::Value;
use webdamlog::net::node::{NodeHandle, PeerNode};
use webdamlog::net::tcp::TcpEndpoint;
use webdamlog::wepic::{ops, rules, schema, Picture};

fn attendee(name: &str, sigmod: &str) -> Peer {
    let mut p = Peer::new(name);
    schema::declare_attendee(&mut p).unwrap();
    p.acl_mut().set_untrusted_policy(UntrustedPolicy::Accept);
    p.add_rule(rules::attendee_pictures(name).unwrap()).unwrap();
    p.add_rule(rules::transfer(name).unwrap()).unwrap();
    p.add_rule(rules::publish_to_sigmod(name, sigmod).unwrap())
        .unwrap();
    p
}

#[test]
fn three_peer_wepic_over_tcp() {
    // Bind all three endpoints on ephemeral loopback ports.
    let sigmod_ep = TcpEndpoint::bind("tcpSigmod", "127.0.0.1:0").unwrap();
    let emilien_ep = TcpEndpoint::bind("tcpEmilien", "127.0.0.1:0").unwrap();
    let jules_ep = TcpEndpoint::bind("tcpJules", "127.0.0.1:0").unwrap();
    let addrs = [
        ("tcpSigmod", sigmod_ep.local_addr()),
        ("tcpEmilien", emilien_ep.local_addr()),
        ("tcpJules", jules_ep.local_addr()),
    ];
    for ep in [&sigmod_ep, &emilien_ep, &jules_ep] {
        for (name, addr) in addrs {
            ep.register(name, addr);
        }
    }

    // sigmod: the cloud registry.
    let mut sigmod = Peer::new("tcpSigmod");
    schema::declare_sigmod(&mut sigmod).unwrap();
    sigmod
        .acl_mut()
        .set_untrusted_policy(UntrustedPolicy::Accept);

    // Émilien has pictures; Jules selects Émilien.
    let mut emilien = attendee("tcpEmilien", "tcpSigmod");
    ops::upload_picture(
        &mut emilien,
        &Picture {
            id: 1,
            name: "sea.jpg".into(),
            owner: "tcpEmilien".into(),
            data: vec![0x64, 0, 0],
        },
    )
    .unwrap();
    let mut jules = attendee("tcpJules", "tcpSigmod");
    ops::select_attendee(&mut jules, "tcpEmilien").unwrap();

    // Launch all three free-running.
    let hs = NodeHandle::spawn(PeerNode::new(sigmod, sigmod_ep), Duration::from_millis(2)).unwrap();
    let he =
        NodeHandle::spawn(PeerNode::new(emilien, emilien_ep), Duration::from_millis(2)).unwrap();
    let hj = NodeHandle::spawn(PeerNode::new(jules, jules_ep), Duration::from_millis(2)).unwrap();

    // Give the mesh time to converge (delegation + facts, several hops).
    std::thread::sleep(Duration::from_millis(800));

    let jules = hj.stop().unwrap();
    let emilien = he.stop().unwrap();
    let sigmod = hs.stop().unwrap();

    // Jules pulled Émilien's picture through a delegated rule over TCP.
    assert_eq!(
        jules.peer().relation_facts("attendeePictures").len(),
        1,
        "delegation round trip over TCP"
    );
    // The delegated rules are installed at Émilien (both the view rule and
    // the transfer rule delegate once Émilien is selected).
    assert_eq!(emilien.peer().installed_delegations().len(), 2);
    // The upload also propagated to the sigmod peer.
    assert_eq!(
        sigmod.peer().relation_facts("pictures").len(),
        1,
        "publish-to-sigmod over TCP"
    );
}

#[test]
fn late_tcp_peer_discovers_and_publishes() {
    let sigmod_ep = TcpEndpoint::bind("tcp2Sigmod", "127.0.0.1:0").unwrap();
    let sigmod_addr = sigmod_ep.local_addr();
    let mut sigmod = Peer::new("tcp2Sigmod");
    schema::declare_sigmod(&mut sigmod).unwrap();
    sigmod
        .acl_mut()
        .set_untrusted_policy(UntrustedPolicy::Accept);
    let hs = NodeHandle::spawn(PeerNode::new(sigmod, sigmod_ep), Duration::from_millis(2)).unwrap();

    // The audience peer starts later, knows only sigmod's address.
    std::thread::sleep(Duration::from_millis(100));
    let late_ep = TcpEndpoint::bind("tcp2Late", "127.0.0.1:0").unwrap();
    late_ep.register("tcp2Sigmod", sigmod_addr);
    let mut late = attendee("tcp2Late", "tcp2Sigmod");
    late.insert_remote("tcp2Sigmod", "attendees", vec![Value::from("tcp2Late")]);
    ops::upload_picture(
        &mut late,
        &Picture {
            id: 9,
            name: "late.jpg".into(),
            owner: "tcp2Late".into(),
            data: vec![9],
        },
    )
    .unwrap();
    let hl = NodeHandle::spawn(PeerNode::new(late, late_ep), Duration::from_millis(2)).unwrap();

    std::thread::sleep(Duration::from_millis(500));
    let sigmod = hs.stop().unwrap();
    let _ = hl.stop().unwrap();

    assert_eq!(sigmod.peer().relation_facts("attendees").len(), 1);
    assert_eq!(sigmod.peer().relation_facts("pictures").len(), 1);
}
