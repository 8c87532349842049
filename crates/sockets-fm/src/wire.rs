//! Socket-FM control/data message encoding.
//!
//! Every socket message is one FM 2.x message on the socket handler. The
//! first byte is the kind; data segments carry their payload as a second
//! gather piece (no assembly copy, per the FM 2.x design).

/// Socket-layer message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ctl {
    /// Connection request.
    Syn {
        /// Listening port being dialed.
        port: u16,
        /// Connector's connection id (for the ACCEPT reply).
        src_conn: u32,
    },
    /// Connection accepted.
    Accept {
        /// The connector's id being replied to.
        dst_conn: u32,
        /// The acceptor's id for this connection.
        src_conn: u32,
    },
    /// Data segment; payload follows this header as a gather piece.
    Data {
        /// Receiver's connection id.
        dst_conn: u32,
    },
    /// Receive-window credit return.
    Window {
        /// Receiver's connection id (at the original sender).
        dst_conn: u32,
        /// Bytes the peer consumed.
        bytes: u32,
    },
    /// Sender will send no more data.
    Fin {
        /// Receiver's connection id.
        dst_conn: u32,
    },
    /// Connection refused: no listener on the dialed port.
    Rst {
        /// The connector's connection id being refused.
        dst_conn: u32,
    },
}

/// Longest encoded control header.
pub const MAX_CTL_BYTES: usize = 9;

impl Ctl {
    /// Encode into a small header buffer; returns the used prefix length.
    pub fn encode(&self, out: &mut [u8; MAX_CTL_BYTES]) -> usize {
        match *self {
            Ctl::Syn { port, src_conn } => {
                out[0] = 1;
                out[1..3].copy_from_slice(&port.to_le_bytes());
                out[3..7].copy_from_slice(&src_conn.to_le_bytes());
                7
            }
            Ctl::Accept { dst_conn, src_conn } => {
                out[0] = 2;
                out[1..5].copy_from_slice(&dst_conn.to_le_bytes());
                out[5..9].copy_from_slice(&src_conn.to_le_bytes());
                9
            }
            Ctl::Data { dst_conn } => {
                out[0] = 3;
                out[1..5].copy_from_slice(&dst_conn.to_le_bytes());
                5
            }
            Ctl::Window { dst_conn, bytes } => {
                out[0] = 4;
                out[1..5].copy_from_slice(&dst_conn.to_le_bytes());
                out[5..9].copy_from_slice(&bytes.to_le_bytes());
                9
            }
            Ctl::Fin { dst_conn } => {
                out[0] = 5;
                out[1..5].copy_from_slice(&dst_conn.to_le_bytes());
                5
            }
            Ctl::Rst { dst_conn } => {
                out[0] = 6;
                out[1..5].copy_from_slice(&dst_conn.to_le_bytes());
                5
            }
        }
    }

    /// Bytes this control kind occupies, given its first (kind) byte;
    /// `None` for a kind byte no `Ctl` encodes to.
    pub fn len_for_kind(kind: u8) -> Option<usize> {
        match kind {
            1 => Some(7),
            2 | 4 => Some(9),
            3 | 5 | 6 => Some(5),
            _ => None,
        }
    }

    /// Decode from an encoded header: `None` for an unknown kind byte or
    /// fewer bytes than the kind takes — a peer's bytes, refused, never a
    /// panic.
    pub fn decode(buf: &[u8]) -> Option<Ctl> {
        let buf = buf.get(..Ctl::len_for_kind(*buf.first()?)?)?;
        let u16_at = |i: usize| u16::from_le_bytes(buf[i..i + 2].try_into().unwrap());
        let u32_at = |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().unwrap());
        Some(match buf[0] {
            1 => Ctl::Syn {
                port: u16_at(1),
                src_conn: u32_at(3),
            },
            2 => Ctl::Accept {
                dst_conn: u32_at(1),
                src_conn: u32_at(5),
            },
            3 => Ctl::Data {
                dst_conn: u32_at(1),
            },
            4 => Ctl::Window {
                dst_conn: u32_at(1),
                bytes: u32_at(5),
            },
            5 => Ctl::Fin {
                dst_conn: u32_at(1),
            },
            _ => Ctl::Rst {
                dst_conn: u32_at(1),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_round_trip() {
        let kinds = [
            Ctl::Syn {
                port: 80,
                src_conn: 7,
            },
            Ctl::Accept {
                dst_conn: 7,
                src_conn: 9,
            },
            Ctl::Data { dst_conn: 5 },
            Ctl::Window {
                dst_conn: 5,
                bytes: 4096,
            },
            Ctl::Fin { dst_conn: 5 },
            Ctl::Rst { dst_conn: 5 },
        ];
        for k in kinds {
            let mut buf = [0u8; MAX_CTL_BYTES];
            let n = k.encode(&mut buf);
            assert_eq!(Some(n), Ctl::len_for_kind(buf[0]));
            assert_eq!(Ctl::decode(&buf[..n]), Some(k));
        }
    }

    #[test]
    fn unknown_kinds_and_short_headers_are_refused() {
        for kind in [0, 7, 99, 255] {
            assert_eq!(Ctl::len_for_kind(kind), None, "kind {kind}");
            assert_eq!(Ctl::decode(&[kind; MAX_CTL_BYTES]), None, "kind {kind}");
        }
        let mut buf = [0u8; MAX_CTL_BYTES];
        let n = Ctl::Window {
            dst_conn: 1,
            bytes: 2,
        }
        .encode(&mut buf);
        assert_eq!(Ctl::decode(&buf[..n - 1]), None, "one byte short");
        assert_eq!(Ctl::decode(&[]), None);
    }
}
