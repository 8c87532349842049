//! Request, status, and wildcard types.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use fm_core::SentFlag;

/// Match any source rank (the `src` argument of `irecv`).
pub const ANY_SOURCE: Option<usize> = None;
/// Match any tag (the `tag` argument of `irecv`).
pub const ANY_TAG: Option<u32> = None;

/// Completion record of a received message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Actual source rank.
    pub src: usize,
    /// Actual tag.
    pub tag: u32,
    /// Payload length in bytes.
    pub len: usize,
}

/// Handle to a non-blocking send. Complete once the message has been
/// handed to FM (eager semantics — FM's flow control guarantees delivery
/// from that point). Over FM 2.x the flag is the one the engine's send
/// queue sets.
#[derive(Clone)]
pub struct SendReq {
    pub(crate) sent: SentFlag,
}

impl SendReq {
    pub(crate) fn new(done: bool) -> Self {
        SendReq {
            sent: Rc::new(Cell::new(done)),
        }
    }

    /// True once the send has been accepted by FM.
    pub fn is_done(&self) -> bool {
        self.sent.get()
    }
}

#[derive(Debug, Default)]
pub(crate) struct RecvBox {
    pub(crate) data: Option<Vec<u8>>,
    pub(crate) status: Option<Status>,
}

/// Handle to a non-blocking receive. Completes when a matching message has
/// been delivered; [`RecvReq::take`] yields the payload.
#[derive(Clone)]
pub struct RecvReq {
    pub(crate) inner: Rc<RefCell<RecvBox>>,
}

impl RecvReq {
    pub(crate) fn new() -> Self {
        RecvReq {
            inner: Rc::new(RefCell::new(RecvBox::default())),
        }
    }

    /// True once a matching message has arrived in full.
    pub fn is_done(&self) -> bool {
        self.inner.borrow().status.is_some() && self.inner.borrow().data.is_some()
    }

    /// The completion status, if done.
    pub fn status(&self) -> Option<Status> {
        self.inner.borrow().status
    }

    /// Take the delivered payload (once). `None` until done or after
    /// taking.
    pub fn take(&self) -> Option<Vec<u8>> {
        self.inner.borrow_mut().data.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_req_reports_done() {
        let r = SendReq::new(false);
        assert!(!r.is_done());
        r.sent.set(true);
        assert!(r.is_done());
    }

    #[test]
    fn recv_req_lifecycle() {
        let r = RecvReq::new();
        assert!(!r.is_done());
        assert_eq!(r.status(), None);
        assert_eq!(r.take(), None);
        {
            let mut b = r.inner.borrow_mut();
            b.data = Some(vec![1, 2]);
            b.status = Some(Status {
                src: 3,
                tag: 7,
                len: 2,
            });
        }
        assert!(r.is_done());
        assert_eq!(r.status().unwrap().src, 3);
        assert_eq!(r.take(), Some(vec![1, 2]));
        assert_eq!(r.take(), None, "take is once");
        assert!(!r.is_done(), "after take the data is gone");
    }
}
