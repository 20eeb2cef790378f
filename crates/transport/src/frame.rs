//! Length-prefixed framing over byte streams.
//!
//! Wire layout per frame: `u32` little-endian payload length, then the
//! payload (a canonical [`dagbft_core::NetMessage`] encoding, or the
//! 4-byte hello). A length cap protects receivers from hostile prefixes.
//!
//! [`NetMessage`]s get a dedicated zero-copy pair: [`write_net_message`]
//! streams a block's cached wire bytes straight into the frame (no
//! intermediate encode buffer), and [`read_net_message`] decodes the
//! received frame as a shared buffer so the block's wire image and request
//! payloads are slices of it rather than copies.
//!
//! Every reader goes through one payload reader that is safe under read
//! timeouts: a timeout before a frame's first byte consumes nothing, and
//! one after it is drained, so a retry never misreads payload bytes as a
//! length prefix.

use std::io::{self, Read, Write};

use bytes::Bytes;
use dagbft_codec::{decode_from_bytes, decode_from_slice, encode_to_vec, WireDecode, WireEncode};
use dagbft_core::NetMessage;
use dagbft_crypto::ServerId;

/// Maximum accepted frame payload (16 MiB) — far above any legitimate
/// block, low enough to bound allocation on garbage input.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Writes one framed, wire-encoded value.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame<W: Write, T: WireEncode>(writer: &mut W, value: &T) -> io::Result<()> {
    let payload = encode_to_vec(value);
    let len = payload.len() as u32;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(&payload)?;
    writer.flush()
}

/// Reads one framed value.
///
/// # Errors
///
/// * I/O errors from the reader (including clean EOF as
///   [`io::ErrorKind::UnexpectedEof`]);
/// * [`io::ErrorKind::InvalidData`] for oversized frames or payloads that
///   fail to decode.
pub fn read_frame<R: Read, T: WireDecode>(reader: &mut R) -> io::Result<T> {
    let payload = read_payload(reader)?;
    decode_from_slice(&payload)
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))
}

/// Reads one frame's raw payload: the zero-or-all length prefix
/// ([`read_len_prefix`]), the [`MAX_FRAME_LEN`] cap check, then the body
/// drained across timeouts ([`read_exact_draining`]).
fn read_payload<R: Read>(reader: &mut R) -> io::Result<Vec<u8>> {
    let len = read_len_prefix(reader)?;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    read_exact_draining(reader, &mut payload)?;
    Ok(payload)
}

/// Writes one framed [`NetMessage`] without building an intermediate
/// encode buffer: length prefix, discriminant byte, then the message's
/// cached payload bytes verbatim (a block's canonical wire image, a
/// forward request's digest). The encode-once fast path of the send loop.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_net_message<W: Write>(writer: &mut W, message: &NetMessage) -> io::Result<()> {
    let len = message.wire_len() as u32;
    let (discriminant, payload) = message.payload_view();
    // One header write (length prefix + discriminant), one payload write —
    // two syscalls per message on an unbuffered stream.
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4] = discriminant;
    writer.write_all(&header)?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one framed [`NetMessage`], decoding the payload as a *shared*
/// buffer: a received block's wire image and request payloads are
/// zero-copy slices of the frame allocation.
///
/// # Errors
///
/// Same conditions as [`read_frame`]. A payload that was read in full but
/// fails to decode is marked so that [`is_corrupt_payload`] holds.
pub fn read_net_message<R: Read>(reader: &mut R) -> io::Result<NetMessage> {
    // `Bytes::from(Vec)` moves the frame allocation; the decoded block's
    // wire image and payloads are windows into it.
    let payload = Bytes::from(read_payload(reader)?);
    decode_from_bytes(&payload)
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, CorruptPayload(err.to_string())))
}

/// Maximum consecutive idle reads tolerated while draining a partially
/// received payload. With the transport's 25 ms read timeout this bounds a
/// stalled mid-frame peer to ~10 s before the connection is dropped.
const MAX_MIDFRAME_IDLE_READS: u32 = 400;

/// Fills `buf` completely, retrying across read timeouts.
///
/// Once the length prefix has been consumed the stream is mid-frame:
/// propagating a timeout would make the caller re-read the next bytes as
/// a fresh length prefix and desynchronise the framing. So partial
/// payloads are drained across timeouts, bounded by
/// [`MAX_MIDFRAME_IDLE_READS`] so a hung peer cannot pin the reader.
fn read_exact_draining<R: Read>(reader: &mut R, mut buf: &mut [u8]) -> io::Result<()> {
    let mut idle_reads = 0u32;
    while !buf.is_empty() {
        match reader.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ));
            }
            Ok(n) => {
                idle_reads = 0;
                buf = &mut buf[n..];
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                idle_reads += 1;
                if idle_reads >= MAX_MIDFRAME_IDLE_READS {
                    return Err(err);
                }
            }
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

/// Reads a frame's `u32` length prefix with zero-or-all semantics: a
/// timeout before the first byte propagates (nothing consumed, the whole
/// frame read can be retried), while a timeout after a partial prefix
/// drains the remaining bytes so retries never misparse payload bytes as
/// a length.
fn read_len_prefix<R: Read>(reader: &mut R) -> io::Result<usize> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    while got == 0 {
        match reader.read(&mut len_bytes) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed between frames",
                ));
            }
            Ok(n) => got = n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    read_exact_draining(reader, &mut len_bytes[got..])?;
    Ok(u32::from_le_bytes(len_bytes) as usize)
}

/// Error payload marking a frame whose body was fully consumed but failed
/// to decode. The stream is still frame-synced after this error — the
/// length prefix already drained the bad payload — so a reader may count
/// the offense against the peer and keep reading (see
/// [`is_corrupt_payload`]). Every other framing error leaves the stream
/// position unreliable and must drop the connection.
#[derive(Debug)]
struct CorruptPayload(String);

impl std::fmt::Display for CorruptPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt frame payload: {}", self.0)
    }
}

impl std::error::Error for CorruptPayload {}

/// Whether `err` marks a fully consumed, frame-synced-but-undecodable
/// payload from [`read_net_message`] — the one framing error a reader can
/// survive without desynchronising.
pub fn is_corrupt_payload(err: &io::Error) -> bool {
    err.kind() == io::ErrorKind::InvalidData
        && err
            .get_ref()
            .is_some_and(|inner| inner.is::<CorruptPayload>())
}

/// The first frame on every outbound connection: the sender's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The connecting server.
    pub from: ServerId,
}

impl WireEncode for Hello {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
    }
}

impl WireDecode for Hello {
    fn decode(reader: &mut dagbft_codec::Reader<'_>) -> Result<Self, dagbft_codec::DecodeError> {
        Ok(Hello {
            from: ServerId::decode(reader)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_over_buffer() {
        let mut buffer = Vec::new();
        write_frame(
            &mut buffer,
            &Hello {
                from: ServerId::new(3),
            },
        )
        .unwrap();
        write_frame(&mut buffer, &42u64).unwrap();
        let mut cursor = io::Cursor::new(buffer);
        let hello: Hello = read_frame(&mut cursor).unwrap();
        assert_eq!(hello.from, ServerId::new(3));
        let value: u64 = read_frame(&mut cursor).unwrap();
        assert_eq!(value, 42);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(buffer);
        let err = read_frame::<_, u64>(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &7u64).unwrap();
        buffer.truncate(buffer.len() - 2);
        let mut cursor = io::Cursor::new(buffer);
        let err = read_frame::<_, u64>(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn partial_frame_releases_buffer_instead_of_poisoning_arena() {
        let block = sample_block();
        let message = NetMessage::Block(block);
        let mut wire = Vec::new();
        write_net_message(&mut wire, &message).unwrap();

        // A disconnect mid-payload: the length prefix and half the payload
        // arrive, then the stream ends. That is a plain EOF, not a corrupt
        // payload a reader could skip past.
        let mut truncated = wire.clone();
        truncated.truncate(wire.len() - wire.len() / 2);
        let mut cursor = io::Cursor::new(truncated);
        let err = read_net_message(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(!is_corrupt_payload(&err));

        // The reader keeps no state across frames: the next complete
        // frame decodes in full, wire image included.
        let mut cursor = io::Cursor::new(wire);
        let decoded = read_net_message(&mut cursor).unwrap();
        assert_eq!(decoded, message);
        let (NetMessage::Block(sent), NetMessage::Block(received)) = (&message, &decoded) else {
            panic!("expected blocks");
        };
        assert_eq!(received.wire_bytes(), sent.wire_bytes());
    }

    #[test]
    fn garbage_payload_rejected() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&2u32.to_le_bytes());
        buffer.extend_from_slice(&[0xff, 0xff]);
        let mut cursor = io::Cursor::new(buffer);
        let err = read_frame::<_, Hello>(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn sample_block() -> dagbft_core::Block {
        use dagbft_core::{Label, LabeledRequest, SeqNum};
        use dagbft_crypto::KeyRegistry;
        let registry = KeyRegistry::generate(1, 5);
        let signer = registry.signer(ServerId::new(0)).unwrap();
        dagbft_core::Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(Label::new(1), &7u64)],
            &signer,
        )
    }

    #[test]
    fn net_message_fast_path_matches_generic_frame() {
        let block = sample_block();
        for message in [
            NetMessage::Block(block.clone()),
            NetMessage::FwdRequest(block.block_ref()),
        ] {
            let mut fast = Vec::new();
            write_net_message(&mut fast, &message).unwrap();
            let mut generic = Vec::new();
            write_frame(&mut generic, &message).unwrap();
            assert_eq!(fast, generic, "fast path must produce identical frames");

            let mut cursor = io::Cursor::new(fast);
            let decoded = read_net_message(&mut cursor).unwrap();
            assert_eq!(decoded, message);
        }
    }

    /// A reader that yields timeouts between single-byte reads — the shape
    /// of a slow peer on a stream with a read timeout.
    struct Trickle {
        data: Vec<u8>,
        at: usize,
        give_byte: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at >= self.data.len() {
                return Ok(0);
            }
            self.give_byte = !self.give_byte;
            if !self.give_byte {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
            }
            buf[0] = self.data[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    /// Reads one frame via `read_one`, retrying on `WouldBlock` the way
    /// the transport's read loop does.
    fn read_retrying<T>(
        trickle: &mut Trickle,
        mut read_one: impl FnMut(&mut Trickle) -> io::Result<T>,
    ) -> T {
        loop {
            match read_one(trickle) {
                Ok(value) => return value,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => continue,
                Err(err) => panic!("unexpected error: {err}"),
            }
        }
    }

    #[test]
    fn mid_frame_timeouts_are_drained_not_desynced() {
        let block = sample_block();
        let hello = Hello {
            from: ServerId::new(3),
        };
        let messages = [
            NetMessage::Block(block.clone()),
            NetMessage::FwdRequest(block.block_ref()),
        ];
        let mut wire = Vec::new();
        write_frame(&mut wire, &hello).unwrap();
        for message in &messages {
            write_net_message(&mut wire, message).unwrap();
        }
        let mut trickle = Trickle {
            data: wire,
            at: 0,
            give_byte: false,
        };
        // Every read times out after one byte, inside the length prefix
        // as well as inside the payload: a retry must resume the frame,
        // not re-read its remaining bytes as a fresh length prefix.
        let received: Hello = read_retrying(&mut trickle, read_frame);
        assert_eq!(received, hello);
        for expected in &messages {
            let received = read_retrying(&mut trickle, read_net_message);
            assert_eq!(&received, expected);
        }
    }

    #[test]
    fn read_net_message_rejects_oversized_and_garbage() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(buffer);
        let err = read_net_message(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // An oversized prefix leaves the body unread: the stream is no
        // longer frame-synced.
        assert!(!is_corrupt_payload(&err));

        let mut buffer = Vec::new();
        buffer.extend_from_slice(&1u32.to_le_bytes());
        buffer.push(9); // invalid discriminant
        let mut cursor = io::Cursor::new(buffer);
        let err = read_net_message(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The garbage body was consumed whole: the stream stays
        // frame-synced.
        assert!(is_corrupt_payload(&err));
    }

    #[test]
    fn pooled_read_rejects_oversized_and_garbage() {
        // One live stream, read the way the TCP receive loop reads it: a
        // garbage frame, a good frame, then a hostile length prefix.
        let block = sample_block();
        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(9); // invalid discriminant
        write_net_message(&mut wire, &NetMessage::FwdRequest(block.block_ref())).unwrap();
        wire.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut cursor = io::Cursor::new(wire);

        let err = read_net_message(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(is_corrupt_payload(&err));
        // The garbage frame left the stream synced: the next frame reads.
        assert_eq!(
            read_net_message(&mut cursor).unwrap(),
            NetMessage::FwdRequest(block.block_ref())
        );
        // The oversized frame is refused before its body is allocated or
        // read, so the stream is not synced any more.
        let before = cursor.position();
        let err = read_net_message(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!is_corrupt_payload(&err));
        assert_eq!(
            cursor.position(),
            before + 4,
            "only the prefix was consumed"
        );
    }
}
