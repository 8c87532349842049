//! The socket stack: connections, the FM handler, and the byte-stream API.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use fm_core::blocking::Backoff;
use fm_core::device::NetDevice;
use fm_core::packet::HandlerId;
use fm_core::{Fm2Engine, FmStream};

use crate::wire::{Ctl, MAX_CTL_BYTES};

/// FM handler id used by Socket-FM.
pub const SOCKET_HANDLER: HandlerId = HandlerId(110);

/// Default end-to-end receive window per connection, in bytes.
pub const DEFAULT_WINDOW: usize = 64 * 1024;

/// Data segment size: bytes per FM message on the wire. FM packetizes
/// further; this only bounds socket-layer message granularity.
pub const SEGMENT_BYTES: usize = 8 * 1024;

/// Identifies a socket on its local stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SocketId(u32);

/// The peer had no listener on the dialed port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionRefused;

impl std::fmt::Display for ConnectionRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "connection refused: no listener on the dialed port")
    }
}

impl std::error::Error for ConnectionRefused {}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum ConnState {
    /// SYN sent, awaiting ACCEPT (or RST).
    Connecting,
    Established,
    /// The peer had no listener on the dialed port.
    Refused,
}

struct Conn {
    peer_node: usize,
    /// Peer's connection id (what we put in headers we send).
    peer_conn: u32,
    state: ConnState,
    /// Received, unconsumed stream bytes.
    recv_segments: VecDeque<Vec<u8>>,
    recv_front_offset: usize,
    recv_buffered: usize,
    /// Peer sent FIN: no more data will arrive.
    recv_closed: bool,
    /// We sent FIN: no more sends allowed.
    send_closed: bool,
    /// Sender-side window: bytes we may still push toward the peer.
    send_window: usize,
    /// Receiver-side: bytes consumed since the last window update we sent.
    consumed_unreported: usize,
}

#[derive(Default)]
struct StackState {
    /// Accept backlogs per listening port.
    listeners: HashMap<u16, VecDeque<SocketId>>,
    conns: HashMap<u32, Conn>,
    next_conn: u32,
    /// Peak total buffered bytes across all connections (window pressure
    /// diagnostics).
    buffered_high_water: usize,
}

impl StackState {
    fn alloc_conn(&mut self, conn: Conn) -> u32 {
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(id, conn);
        id
    }
}

/// One node's socket stack over an FM 2.x engine.
pub struct SocketStack<D: NetDevice> {
    fm: Fm2Engine<D>,
    state: Rc<RefCell<StackState>>,
}

impl<D: NetDevice + 'static> SocketStack<D> {
    /// Build the stack and install its FM handler.
    pub fn new(fm: Fm2Engine<D>) -> Self {
        let state: Rc<RefCell<StackState>> = Rc::default();
        let st = Rc::clone(&state);
        let fm_h = fm.handle();
        fm.set_handler(SOCKET_HANDLER, move |stream: FmStream, src_node| {
            let st = Rc::clone(&st);
            let fm = fm_h.clone();
            async move {
                let mut kind = [0u8; 1];
                stream.receive(&mut kind).await;
                let hdr_len = Ctl::len_for_kind(kind[0]);
                let mut rest = [0u8; MAX_CTL_BYTES];
                stream.receive(&mut rest[1..hdr_len]).await;
                rest[0] = kind[0];
                let ctl = Ctl::decode(&rest[..hdr_len]);
                match ctl {
                    Ctl::Syn { port, src_conn } => {
                        let mut s = st.borrow_mut();
                        if !s.listeners.contains_key(&port) {
                            // No listener: refuse explicitly so the
                            // connector fails fast instead of spinning.
                            drop(s);
                            let mut buf = [0u8; MAX_CTL_BYTES];
                            let n = Ctl::Rst { dst_conn: src_conn }.encode(&mut buf);
                            fm.send_from_handler(src_node, SOCKET_HANDLER, buf[..n].to_vec());
                            return;
                        }
                        let id = s.next_conn;
                        s.next_conn += 1;
                        s.conns.insert(
                            id,
                            Conn {
                                peer_node: src_node,
                                peer_conn: src_conn,
                                state: ConnState::Established,
                                recv_segments: VecDeque::new(),
                                recv_front_offset: 0,
                                recv_buffered: 0,
                                recv_closed: false,
                                send_closed: false,
                                send_window: DEFAULT_WINDOW,
                                consumed_unreported: 0,
                            },
                        );
                        s.listeners
                            .get_mut(&port)
                            .expect("checked")
                            .push_back(SocketId(id));
                        // Tell the connector.
                        let mut buf = [0u8; MAX_CTL_BYTES];
                        let n = Ctl::Accept {
                            dst_conn: src_conn,
                            src_conn: id,
                        }
                        .encode(&mut buf);
                        drop(s);
                        fm.send_from_handler(src_node, SOCKET_HANDLER, buf[..n].to_vec());
                    }
                    Ctl::Accept { dst_conn, src_conn } => {
                        let mut s = st.borrow_mut();
                        if let Some(c) = s.conns.get_mut(&dst_conn) {
                            c.peer_conn = src_conn;
                            c.state = ConnState::Established;
                        }
                    }
                    Ctl::Data { dst_conn } => {
                        // Land the segment, then account buffering.
                        let len = stream.msg_len() - 5;
                        let data = stream.receive_vec(len).await;
                        let mut s = st.borrow_mut();
                        if let Some(c) = s.conns.get_mut(&dst_conn) {
                            debug_assert!(!c.recv_closed, "data after FIN");
                            c.recv_buffered += data.len();
                            c.recv_segments.push_back(data);
                            let total: usize = s.conns.values().map(|c| c.recv_buffered).sum();
                            s.buffered_high_water = s.buffered_high_water.max(total);
                        }
                    }
                    Ctl::Window { dst_conn, bytes } => {
                        let mut s = st.borrow_mut();
                        if let Some(c) = s.conns.get_mut(&dst_conn) {
                            c.send_window += bytes as usize;
                            debug_assert!(c.send_window <= DEFAULT_WINDOW);
                        }
                    }
                    Ctl::Fin { dst_conn } => {
                        let mut s = st.borrow_mut();
                        if let Some(c) = s.conns.get_mut(&dst_conn) {
                            c.recv_closed = true;
                        }
                    }
                    Ctl::Rst { dst_conn } => {
                        let mut s = st.borrow_mut();
                        if let Some(c) = s.conns.get_mut(&dst_conn) {
                            c.state = ConnState::Refused;
                            c.recv_closed = true;
                        }
                    }
                }
            }
        });
        SocketStack { fm, state }
    }

    /// The underlying FM engine.
    pub fn fm(&self) -> &Fm2Engine<D> {
        &self.fm
    }

    /// Peak bytes buffered across all connections (diagnostics).
    pub fn buffered_high_water(&self) -> usize {
        self.state.borrow().buffered_high_water
    }

    /// Drive the stack (flush handler replies, extract from FM).
    pub fn progress(&self) {
        self.fm.extract_all();
        self.fm.progress();
    }

    /// Open `port` for incoming connections.
    pub fn listen(&self, port: u16) {
        self.state.borrow_mut().listeners.entry(port).or_default();
    }

    /// Accept a pending connection on `port`, if any.
    pub fn try_accept(&self, port: u16) -> Option<SocketId> {
        let mut s = self.state.borrow_mut();
        s.listeners
            .get_mut(&port)
            .expect("listen() before accept()")
            .pop_front()
    }

    /// Blocking accept (threaded transports).
    pub fn accept(&self, port: u16) -> SocketId {
        self.wait_for("socket accept", || self.try_accept(port))
    }

    /// Start connecting to `port` on `node`; completes asynchronously
    /// (check [`SocketStack::is_established`]).
    pub fn connect_start(&self, node: usize, port: u16) -> SocketId {
        let id = self.state.borrow_mut().alloc_conn(Conn {
            peer_node: node,
            peer_conn: u32::MAX,
            state: ConnState::Connecting,
            recv_segments: VecDeque::new(),
            recv_front_offset: 0,
            recv_buffered: 0,
            recv_closed: false,
            send_closed: false,
            send_window: DEFAULT_WINDOW,
            consumed_unreported: 0,
        });
        let mut buf = [0u8; MAX_CTL_BYTES];
        let n = Ctl::Syn { port, src_conn: id }.encode(&mut buf);
        self.send_ctl(node, &buf[..n], &[]);
        SocketId(id)
    }

    /// True once the three-way setup has completed.
    pub fn is_established(&self, sock: SocketId) -> bool {
        self.state
            .borrow()
            .conns
            .get(&sock.0)
            .map(|c| c.state == ConnState::Established)
            .unwrap_or(false)
    }

    /// True if the peer refused the connection (no listener on the port).
    pub fn is_refused(&self, sock: SocketId) -> bool {
        self.state
            .borrow()
            .conns
            .get(&sock.0)
            .map(|c| c.state == ConnState::Refused)
            .unwrap_or(false)
    }

    /// Blocking connect (threaded transports); returns `Err` if the peer
    /// refuses (no listener on `port`).
    pub fn connect_checked(&self, node: usize, port: u16) -> Result<SocketId, ConnectionRefused> {
        let id = self.connect_start(node, port);
        self.wait_for("socket connect", || {
            if self.is_established(id) {
                Some(Ok(id))
            } else if self.is_refused(id) {
                Some(Err(ConnectionRefused))
            } else {
                None
            }
        })
    }

    /// Blocking connect (threaded transports).
    ///
    /// # Panics
    /// Panics if the peer refuses; use [`SocketStack::connect_checked`]
    /// to handle refusal.
    pub fn connect(&self, node: usize, port: u16) -> SocketId {
        self.connect_checked(node, port)
            .expect("connection refused: no listener on the dialed port")
    }

    /// Send as much of `data` as the connection's window allows right now;
    /// returns bytes accepted (0 if the window or FM is full).
    ///
    /// # Panics
    /// Panics if the socket was closed for sending.
    pub fn try_send(&self, sock: SocketId, data: &[u8]) -> usize {
        let (peer_node, peer_conn, window) = {
            let s = self.state.borrow();
            let c = s.conns.get(&sock.0).expect("valid socket");
            assert!(!c.send_closed, "send on a closed socket");
            assert!(
                c.state != ConnState::Refused,
                "send on a refused connection"
            );
            if c.state != ConnState::Established {
                return 0;
            }
            (c.peer_node, c.peer_conn, c.send_window)
        };
        let mut sent = 0;
        while sent < data.len() {
            let window_left = window - sent;
            if window_left == 0 {
                break;
            }
            let seg = SEGMENT_BYTES.min(window_left).min(data.len() - sent);
            let mut hdr = [0u8; MAX_CTL_BYTES];
            let n = Ctl::Data {
                dst_conn: peer_conn,
            }
            .encode(&mut hdr);
            if self
                .fm
                .try_send_message(
                    peer_node,
                    SOCKET_HANDLER,
                    &[&hdr[..n], &data[sent..sent + seg]],
                )
                .is_err()
            {
                break;
            }
            sent += seg;
        }
        if sent > 0 {
            let mut s = self.state.borrow_mut();
            let c = s.conns.get_mut(&sock.0).expect("valid socket");
            c.send_window -= sent;
        }
        sent
    }

    /// Blocking send of the whole buffer (threaded transports).
    pub fn send(&self, sock: SocketId, data: &[u8]) {
        let mut off = 0;
        while off < data.len() {
            off += self.wait_for("socket send", || match self.try_send(sock, &data[off..]) {
                0 => None,
                n => Some(n),
            });
        }
    }

    /// Receive up to `buf.len()` bytes. Returns 0 only on a clean EOF
    /// (peer closed and the stream is drained) or an empty `buf`; returns
    /// `None` if no data is available yet.
    pub fn try_recv(&self, sock: SocketId, buf: &mut [u8]) -> Option<usize> {
        let mut s = self.state.borrow_mut();
        let c = s.conns.get_mut(&sock.0).expect("valid socket");
        if c.recv_buffered == 0 {
            return if c.recv_closed { Some(0) } else { None };
        }
        let mut filled = 0;
        while filled < buf.len() {
            let Some(front) = c.recv_segments.front() else {
                break;
            };
            let avail = &front[c.recv_front_offset..];
            let n = avail.len().min(buf.len() - filled);
            buf[filled..filled + n].copy_from_slice(&avail[..n]);
            filled += n;
            c.recv_front_offset += n;
            if c.recv_front_offset == front.len() {
                c.recv_segments.pop_front();
                c.recv_front_offset = 0;
            }
        }
        c.recv_buffered -= filled;
        c.consumed_unreported += filled;
        // Return window credit lazily, like FM's own credit scheme.
        let report = c.consumed_unreported >= DEFAULT_WINDOW / 2;
        let (peer_node, peer_conn, bytes) = (c.peer_node, c.peer_conn, c.consumed_unreported);
        if report {
            c.consumed_unreported = 0;
        }
        // The receive-side copy is a real copy; account it to the model.
        drop(s);
        self.fm.charge_memcpy(filled);
        if report {
            let mut hdr = [0u8; MAX_CTL_BYTES];
            let n = Ctl::Window {
                dst_conn: peer_conn,
                bytes: bytes as u32,
            }
            .encode(&mut hdr);
            self.send_ctl(peer_node, &hdr[..n], &[]);
        }
        Some(filled)
    }

    /// Blocking receive: at least one byte, or 0 at EOF.
    pub fn recv(&self, sock: SocketId, buf: &mut [u8]) -> usize {
        self.wait_for("socket recv", || self.try_recv(sock, buf))
    }

    /// True when `try_recv` would return immediately (buffered data or
    /// EOF) — the `select(2)` readability test.
    pub fn readable(&self, sock: SocketId) -> bool {
        let s = self.state.borrow();
        let c = s.conns.get(&sock.0).expect("valid socket");
        c.recv_buffered > 0 || c.recv_closed
    }

    /// The subset of `socks` that are readable right now (poll/select over
    /// several connections, e.g. a server multiplexing clients).
    pub fn poll_readable(&self, socks: &[SocketId]) -> Vec<SocketId> {
        socks
            .iter()
            .copied()
            .filter(|&s| self.readable(s))
            .collect()
    }

    /// Bytes currently buffered for reading on `sock`.
    pub fn buffered(&self, sock: SocketId) -> usize {
        self.state
            .borrow()
            .conns
            .get(&sock.0)
            .expect("valid socket")
            .recv_buffered
    }

    /// Connections waiting in `port`'s accept backlog.
    pub fn backlog(&self, port: u16) -> usize {
        self.state
            .borrow()
            .listeners
            .get(&port)
            .map(|b| b.len())
            .unwrap_or(0)
    }

    /// Close the sending direction (peer sees EOF after draining).
    pub fn close(&self, sock: SocketId) {
        let (peer_node, peer_conn) = {
            let mut s = self.state.borrow_mut();
            let c = s.conns.get_mut(&sock.0).expect("valid socket");
            if c.send_closed {
                return;
            }
            c.send_closed = true;
            (c.peer_node, c.peer_conn)
        };
        let mut hdr = [0u8; MAX_CTL_BYTES];
        let n = Ctl::Fin {
            dst_conn: peer_conn,
        }
        .encode(&mut hdr);
        self.send_ctl(peer_node, &hdr[..n], &[]);
    }

    /// Send a control message, waiting on FM admission (control messages
    /// are tiny; this cannot stall long unless the peer is gone).
    fn send_ctl(&self, node: usize, hdr: &[u8], payload: &[u8]) {
        self.wait_for("socket control send", || {
            self.fm
                .try_send_message(node, SOCKET_HANDLER, &[hdr, payload])
                .ok()
        })
    }

    /// The one blocking wait: poll `ready` until it yields a value,
    /// driving the stack between polls. Panics with the "peer gone?"
    /// diagnosis when the wait stays fruitless for the whole wedge limit
    /// of [`Backoff`] (low under this crate's own unit tests, which never
    /// block on a live peer and pin that exit).
    fn wait_for<T>(&self, what: &'static str, mut ready: impl FnMut() -> Option<T>) -> T {
        let mut backoff = if cfg!(test) {
            Backoff::with_limit(what, 10_000)
        } else {
            Backoff::new(what)
        };
        loop {
            if let Some(v) = ready() {
                return v;
            }
            self.progress();
            backoff.snooze();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::device::{LoopbackDevice, LoopbackPair};
    use fm_model::MachineProfile;

    fn pair() -> (SocketStack<LoopbackDevice>, SocketStack<LoopbackDevice>) {
        let (a, b) = LoopbackPair::new(256);
        let p = MachineProfile::ppro200_fm2();
        (
            SocketStack::new(Fm2Engine::new(a, p)),
            SocketStack::new(Fm2Engine::new(b, p)),
        )
    }

    fn pump(a: &SocketStack<LoopbackDevice>, b: &SocketStack<LoopbackDevice>) {
        for _ in 0..6 {
            a.progress();
            b.progress();
            let fa = a.fm().clone();
            let fb = b.fm().clone();
            fa.with_device(|da| fb.with_device(|db| LoopbackPair::deliver(da, db)));
        }
        a.progress();
        b.progress();
    }

    fn connected_pair() -> (
        SocketStack<LoopbackDevice>,
        SocketStack<LoopbackDevice>,
        SocketId,
        SocketId,
    ) {
        let (a, b) = pair();
        b.listen(7000);
        let ca = a.connect_start(1, 7000);
        pump(&a, &b);
        let cb = b.try_accept(7000).expect("SYN arrived");
        pump(&a, &b);
        assert!(a.is_established(ca));
        (a, b, ca, cb)
    }

    #[test]
    fn connect_accept_handshake() {
        let (_a, _b, _ca, _cb) = connected_pair();
    }

    #[test]
    fn connect_to_closed_port_is_refused() {
        let (a, b) = pair();
        let ca = a.connect_start(1, 9999);
        pump(&a, &b);
        assert!(!a.is_established(ca), "refused connections never establish");
        assert!(a.is_refused(ca), "the RST must arrive");
        let mut buf = [0u8; 4];
        assert_eq!(a.try_recv(ca, &mut buf), Some(0), "refused reads as EOF");
    }

    #[test]
    #[should_panic(expected = "send on a refused connection")]
    fn send_on_refused_connection_panics() {
        let (a, b) = pair();
        let ca = a.connect_start(1, 9999);
        pump(&a, &b);
        let _ = a.try_send(ca, b"nope");
    }

    #[test]
    fn bytes_flow_and_preserve_order() {
        let (a, b, ca, cb) = connected_pair();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(a.try_send(ca, &data), data.len());
        pump(&a, &b);
        let mut got = Vec::new();
        let mut buf = [0u8; 777]; // odd read size on purpose
        while got.len() < data.len() {
            match b.try_recv(cb, &mut buf) {
                Some(n) => got.extend_from_slice(&buf[..n]),
                None => pump(&a, &b),
            }
        }
        assert_eq!(got, data);
    }

    #[test]
    fn stream_has_no_message_boundaries() {
        let (a, b, ca, cb) = connected_pair();
        a.try_send(ca, b"hello ");
        a.try_send(ca, b"world");
        pump(&a, &b);
        let mut buf = [0u8; 64];
        let n = b.try_recv(cb, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello world", "writes coalesce");
    }

    #[test]
    fn window_limits_inflight_bytes() {
        let (a, b, ca, cb) = connected_pair();
        let big = vec![5u8; DEFAULT_WINDOW + 5000];
        // Keep pushing while the receiver buffers but never consumes: FM's
        // packet credits recycle (its receive region drains into the
        // socket buffer), so the *socket* window must be what finally
        // stops the sender.
        let mut sent = a.try_send(ca, &big);
        for _ in 0..50 {
            pump(&a, &b);
            sent += a.try_send(ca, &big[sent..]);
        }
        assert_eq!(sent, DEFAULT_WINDOW, "window caps the burst");
        // Receiver consumes; window credit returns; sender can finish.
        pump(&a, &b);
        let mut sink = vec![0u8; DEFAULT_WINDOW];
        let mut drained = 0;
        while drained < DEFAULT_WINDOW {
            match b.try_recv(cb, &mut sink) {
                Some(n) => drained += n,
                None => pump(&a, &b),
            }
        }
        pump(&a, &b);
        let sent2 = a.try_send(ca, &big[sent..]);
        assert_eq!(sent2, 5000, "window replenished after consumption");
    }

    #[test]
    fn fin_gives_clean_eof_after_drain() {
        let (a, b, ca, cb) = connected_pair();
        a.try_send(ca, b"bye");
        a.close(ca);
        pump(&a, &b);
        let mut buf = [0u8; 8];
        assert_eq!(b.try_recv(cb, &mut buf), Some(3), "data before EOF");
        assert_eq!(&buf[..3], b"bye");
        assert_eq!(b.try_recv(cb, &mut buf), Some(0), "then EOF");
        assert_eq!(b.try_recv(cb, &mut buf), Some(0), "EOF is sticky");
    }

    #[test]
    fn close_is_idempotent_and_half_duplex() {
        let (a, b, ca, cb) = connected_pair();
        a.close(ca);
        a.close(ca);
        pump(&a, &b);
        // b can still send to a after a closed its send side.
        assert!(b.try_send(cb, b"still here") > 0);
        pump(&a, &b);
        let mut buf = [0u8; 32];
        assert_eq!(a.try_recv(ca, &mut buf), Some(10));
    }

    #[test]
    fn two_connections_are_independent() {
        let (a, b) = pair();
        b.listen(1000);
        b.listen(2000);
        let c1 = a.connect_start(1, 1000);
        let c2 = a.connect_start(1, 2000);
        pump(&a, &b);
        let s1 = b.try_accept(1000).unwrap();
        let s2 = b.try_accept(2000).unwrap();
        pump(&a, &b);
        a.try_send(c1, b"one");
        a.try_send(c2, b"two");
        pump(&a, &b);
        let mut buf = [0u8; 8];
        assert_eq!(b.try_recv(s1, &mut buf), Some(3));
        assert_eq!(&buf[..3], b"one");
        assert_eq!(b.try_recv(s2, &mut buf), Some(3));
        assert_eq!(&buf[..3], b"two");
    }

    #[test]
    fn empty_recv_buffer_reports_none_not_eof() {
        let (_a, b, _ca, cb) = connected_pair();
        let mut buf = [0u8; 4];
        assert_eq!(b.try_recv(cb, &mut buf), None);
    }

    #[test]
    fn readable_tracks_data_and_eof() {
        let (a, b, ca, cb) = connected_pair();
        assert!(!b.readable(cb), "nothing buffered yet");
        a.try_send(ca, b"x");
        pump(&a, &b);
        assert!(b.readable(cb));
        assert_eq!(b.buffered(cb), 1);
        let mut buf = [0u8; 4];
        b.try_recv(cb, &mut buf);
        assert!(!b.readable(cb), "drained");
        a.close(ca);
        pump(&a, &b);
        assert!(b.readable(cb), "EOF counts as readable");
    }

    #[test]
    fn poll_readable_selects_the_right_sockets() {
        let (a, b) = pair();
        b.listen(1000);
        b.listen(2000);
        let c1 = a.connect_start(1, 1000);
        let c2 = a.connect_start(1, 2000);
        pump(&a, &b);
        assert_eq!(b.backlog(1000), 1);
        assert_eq!(b.backlog(2000), 1);
        let s1 = b.try_accept(1000).unwrap();
        let s2 = b.try_accept(2000).unwrap();
        assert_eq!(b.backlog(1000), 0);
        pump(&a, &b);
        let _ = c2;
        a.try_send(c1, b"only this one");
        pump(&a, &b);
        assert_eq!(b.poll_readable(&[s1, s2]), vec![s1]);
    }

    #[test]
    #[should_panic(expected = "blocking socket recv polled")]
    fn a_wait_no_peer_will_satisfy_panics_with_the_diagnosis() {
        // Established, nothing sent, nobody pumping: the wedge limit is
        // `recv`'s only exit.
        let (_a, b, _ca, cb) = connected_pair();
        b.recv(cb, &mut [0u8; 4]);
    }

    #[test]
    fn backlog_on_unlistened_port_is_zero() {
        let (a, _b) = pair();
        assert_eq!(a.backlog(99), 0);
    }
}
