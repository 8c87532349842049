//! Quickstart: the FM 2.x API in one file.
//!
//! Two nodes on the threaded transport. Node 0 composes a message from
//! pieces (gather); node 1's handler reads the header, decides where the
//! payload goes, and receives it there (scatter + layer interleaving) —
//! the paper's §4.1 example handler, in Rust.
//!
//! Run with: `cargo run --example quickstart`

use std::cell::RefCell;
use std::rc::Rc;

use fast_messages::fm::blocking::{fm2_send, fm2_wait_until};
use fast_messages::fm::packet::HandlerId;
use fast_messages::fm::{Fm2Engine, FmStream};
use fast_messages::model::MachineProfile;
use fast_messages::threaded::ThreadedCluster;

const HELLO: HandlerId = HandlerId(7);

fn main() {
    let transcript = ThreadedCluster::run(2, |node, device| {
        // Engines are built inside the node thread (they are deliberately
        // single-threaded, like the per-process FM library).
        let fm = Fm2Engine::new(device, MachineProfile::ppro200_fm2());
        let mut log = Vec::new();

        if node == 0 {
            // --- Sender ---------------------------------------------
            // FM_begin_message / FM_send_piece / FM_end_message, via the
            // gather convenience: header and payload are separate pieces;
            // FM packetizes transparently and never copies to assemble.
            let header = 42u32.to_le_bytes();
            let payload = b"greetings from node 0 over fast messages";
            fm2_send(&fm, 1, HELLO, &[&header, payload]);
            log.push(format!("node 0: sent {} payload bytes", payload.len()));
        } else {
            // --- Receiver --------------------------------------------
            // The handler runs as soon as the first packet arrives and
            // may suspend at any receive while later packets stream in.
            let seen: Rc<RefCell<Option<(u32, String)>>> = Rc::default();
            let s = Rc::clone(&seen);
            fm.set_handler(HELLO, move |stream: FmStream, src| {
                let s = Rc::clone(&s);
                async move {
                    let mut hdr = [0u8; 4];
                    stream.receive(&mut hdr).await; // FM_receive #1
                    let tag = u32::from_le_bytes(hdr);
                    // Choose the destination buffer *after* seeing the
                    // header — this is the layer interleaving that lets
                    // libraries land payloads in their final place.
                    let body = stream.receive_vec(stream.remaining()).await;
                    *s.borrow_mut() = Some((tag, String::from_utf8_lossy(&body).into_owned()));
                    let _ = src;
                }
            });
            // FM_extract until the message has been handled.
            fm2_wait_until(&fm, || seen.borrow().is_some());
            let (tag, text) = seen.borrow().clone().expect("handled");
            log.push(format!("node 1: header tag = {tag}"));
            log.push(format!("node 1: payload   = {text:?}"));
        }
        log
    });

    for line in transcript.into_iter().flatten() {
        println!("{line}");
    }
    println!("quickstart: ok");
}
