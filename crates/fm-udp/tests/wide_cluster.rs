//! Regression for the former `seen_mask: u64` cluster cap: fm-udp used
//! to hard-error above 64 nodes because the hello body was a fixed
//! 8-byte bitmask. The v3 length-prefixed bitmap + per-peer epoch body
//! lifts that, and this barrier proves it end to end with real sockets.
//!
//! Kept as its own test binary: 66 join threads want the machine to
//! themselves, not a fight with the rest of the suite's busy-loops.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fm_core::NetDevice;
use fm_udp::{loopback_cluster, UdpConfig};

const NODES: usize = 66;

#[test]
fn join_barrier_assembles_66_nodes_past_the_old_mask_cap() {
    let devs = loopback_cluster(NODES, UdpConfig::default()).unwrap();
    let through = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = devs
        .into_iter()
        .map(|mut d| {
            let through = Arc::clone(&through);
            std::thread::spawn(move || {
                let joined = d.join(Duration::from_secs(60));
                through.fetch_add(1, Ordering::SeqCst);
                // A joined node converges a straggler whose parting burst
                // was lost only by answering its beacons from the receive
                // path (`UdpDevice::join`): keep polling, as a workload
                // would, until every node is through its own join.
                while through.load(Ordering::SeqCst) < NODES {
                    while d.try_recv().is_some() || d.poll_event().is_some() {}
                    std::thread::sleep(Duration::from_micros(500));
                }
                joined.unwrap();
                (d.node_id(), d.stats().hellos_received, {
                    (0..NODES).filter(|&i| d.peer_epoch(i).is_some()).count()
                })
            })
        })
        .collect();
    for h in handles {
        let (node, hellos, seen) = h.join().unwrap();
        assert_eq!(seen, NODES, "node {node} heard every peer");
        assert!(hellos >= 65, "node {node} heard only {hellos} hellos");
    }
}
