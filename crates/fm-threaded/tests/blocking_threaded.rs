//! The blocking wrappers of [`fm_core::blocking`] against a real
//! multi-threaded transport: this is what pins their semantics (retry
//! until admitted, drain while waiting, no deadlock under bidirectional
//! load) where a peer genuinely runs concurrently.

use fm_core::blocking::{fm1_send, fm1_wait_until, fm2_send, fm2_wait_until};
use fm_core::packet::HandlerId;
use fm_core::{Fm1Engine, Fm2Engine, FmStream};
use fm_model::MachineProfile;
use fm_threaded::ThreadedCluster;
use std::cell::RefCell;
use std::rc::Rc;

const H: HandlerId = HandlerId(1);

#[test]
fn fm2_blocking_transfer_across_threads() {
    const MSGS: u32 = 200;
    let results = ThreadedCluster::run(2, |i, dev| {
        let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
        if i == 0 {
            // Sender: MSGS messages, each [seq; payload].
            for seq in 0..MSGS {
                let body = vec![seq as u8; 100];
                fm2_send(&fm, 1, H, &[&seq.to_le_bytes(), &body]);
            }
            Vec::new()
        } else {
            let got: Rc<RefCell<Vec<u32>>> = Rc::default();
            let g = Rc::clone(&got);
            fm.set_handler(H, move |stream: FmStream, _src| {
                let g = Rc::clone(&g);
                async move {
                    let mut hdr = [0u8; 4];
                    stream.receive(&mut hdr).await;
                    let seq = u32::from_le_bytes(hdr);
                    let body = stream.receive_vec(stream.msg_len() - 4).await;
                    assert_eq!(body, vec![seq as u8; 100]);
                    g.borrow_mut().push(seq);
                }
            });
            fm2_wait_until(&fm, || got.borrow().len() == MSGS as usize);
            let v = got.borrow().clone();
            v
        }
    });
    assert_eq!(results[1], (0..MSGS).collect::<Vec<u32>>());
}

#[test]
fn fm1_blocking_transfer_across_threads() {
    const MSGS: usize = 100;
    let results = ThreadedCluster::run(2, |i, dev| {
        let mut fm = Fm1Engine::new(dev, MachineProfile::sparc_fm1());
        if i == 0 {
            for seq in 0..MSGS {
                fm1_send(&mut fm, 1, H, &vec![seq as u8; 300]);
            }
            0
        } else {
            let count: Rc<RefCell<usize>> = Rc::default();
            let c = Rc::clone(&count);
            fm.set_handler(
                H,
                Box::new(move |_eng, _src, data| {
                    assert_eq!(data.len(), 300);
                    *c.borrow_mut() += 1;
                }),
            );
            fm1_wait_until(&mut fm, || *count.borrow() == MSGS);
            let n = *count.borrow();
            n
        }
    });
    assert_eq!(results[1], MSGS);
}

#[test]
fn bidirectional_blocking_traffic_no_deadlock() {
    const MSGS: usize = 300;
    let results = ThreadedCluster::run(2, |i, dev| {
        let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
        let got: Rc<RefCell<usize>> = Rc::default();
        let g = Rc::clone(&got);
        fm.set_handler(H, move |stream: FmStream, _| {
            let g = Rc::clone(&g);
            async move {
                stream.skip(stream.msg_len()).await;
                *g.borrow_mut() += 1;
            }
        });
        let peer = 1 - i;
        for _ in 0..MSGS {
            fm2_send(&fm, peer, H, &[&[0u8; 64][..]]);
        }
        fm2_wait_until(&fm, || *got.borrow() == MSGS);
        let n = *got.borrow();
        n
    });
    assert_eq!(results, vec![MSGS, MSGS]);
}
