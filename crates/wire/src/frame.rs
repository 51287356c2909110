//! Framing: one compact JSON document per `\n`-terminated line, optionally
//! followed by raw `f64` blocks.
//!
//! * A **line** is the whole of every control message. The [`json`](crate::json)
//!   renderer never emits a raw newline (strings escape control characters),
//!   so a document is always exactly one line, and control traffic stays
//!   greppable with `nc`.
//! * A **block** ([`write_frame`], [`read_block_bounded`]) is a `u64`
//!   little-endian count followed by that many `f64` little-endian values:
//!   the raw bits, so every value (NaN payloads included) arrives exactly as
//!   it left, at 8 bytes per value. The line before the blocks says how many
//!   follow and what shape they have; the framing itself does not.
//!
//! **Writes never stall.** [`write_msg`] renders its line once, newline
//! included, and hands it to one `write_all`; [`write_frame`] sends a line and
//! its blocks through one `BufWriter` with one flush. A frame is never split
//! into a body and a lone trailing byte that Nagle's algorithm would hold
//! back until the peer's delayed ACK.
//!
//! Reads are **defensive**: a frame torn at EOF (a line with no terminating
//! newline, a block cut short), a frame larger than the caller's byte cap,
//! or a line that is not valid JSON all surface as a typed [`FrameError`]
//! instead of a panic, a hang, or an unbounded buffer. A block's count is
//! checked against the cap before anything is allocated. A crashed peer
//! tears its last frame at an arbitrary byte — mid-`f64`, mid-string — and
//! the distributed runtime's recovery path needs to tell that apart from a
//! clean close (`Ok(None)`).

use crate::json::{render, Json};
use std::io::{self, BufRead, BufWriter, Read, Write};

/// Default byte cap for one line ([`read_msg`]) or one block: generous enough
/// for any tile the distributed runtime ships, small enough that a corrupt
/// stream that never sends a newline, or a block count from a torn header,
/// cannot exhaust memory.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Everything that can go wrong reading one frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The stream ended mid-frame: `partial` bytes arrived without a
    /// terminating newline (a crashed or killed peer tears its last frame).
    Truncated {
        /// Bytes received before the tear.
        partial: usize,
    },
    /// The line exceeded the byte cap before a newline appeared, or a block's
    /// count asks for more bytes than the cap.
    Oversized {
        /// The cap that was exceeded.
        limit: usize,
    },
    /// The line was complete but not a valid JSON document (includes
    /// invalid UTF-8).
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
            FrameError::Truncated { partial } => {
                write!(f, "frame torn at EOF after {partial} bytes (no newline)")
            }
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte cap")
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Io(e) => e,
            FrameError::Truncated { .. } => io::Error::new(io::ErrorKind::UnexpectedEof, e),
            FrameError::Oversized { .. } => io::Error::new(io::ErrorKind::InvalidData, e),
            FrameError::Malformed(_) => io::Error::new(io::ErrorKind::InvalidData, e),
        }
    }
}

/// `msg` rendered once into one buffer, newline included.
fn line(msg: &Json) -> String {
    let mut line = String::new();
    render(msg, &mut line);
    line.push('\n');
    line
}

/// Write one JSON document as a single line, sent with one `write_all`,
/// then flushed.
pub fn write_msg<W: Write>(w: &mut W, msg: &Json) -> io::Result<()> {
    w.write_all(line(msg).as_bytes())?;
    w.flush()
}

/// Largest buffer [`write_frame`] allocates: a frame up to this size goes
/// out in one write, a larger one in writes of this size.
const FRAME_BUF_BYTES: usize = 1 << 20;

/// Write one JSON line followed by raw blocks, one per slice in `blocks`
/// (see the module docs), through one `BufWriter` and one flush. Block
/// values are written straight from the slices; no whole-frame buffer is
/// assembled.
pub fn write_frame<W: Write>(w: W, header: &Json, blocks: &[&[f64]]) -> io::Result<()> {
    let line = line(header);
    let frame_bytes = line.len() + blocks.iter().map(|b| 8 + 8 * b.len()).sum::<usize>();
    let mut out = BufWriter::with_capacity(frame_bytes.min(FRAME_BUF_BYTES), w);
    out.write_all(line.as_bytes())?;
    for block in blocks {
        out.write_all(&(block.len() as u64).to_le_bytes())?;
        for x in *block {
            out.write_all(&x.to_le_bytes())?;
        }
    }
    out.flush()
}

/// Fill `buf` from `r`; a stream that ends first is [`FrameError::Truncated`]
/// with `before` plus the bytes that did arrive.
fn read_exactly<R: Read>(r: &mut R, buf: &mut [u8], before: usize) -> Result<(), FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    partial: before + got,
                })
            }
            Ok(k) => got += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Read one raw block (a `u64` LE count, then that many `f64` LE values)
/// whose values take at most `max` bytes. The count is checked against the
/// cap before anything is allocated; a stream that ends anywhere inside the
/// block, its count included, is [`FrameError::Truncated`]. The block takes
/// `8 + 8 · len` bytes on the wire.
pub fn read_block_bounded<R: Read>(r: &mut R, max: usize) -> Result<Vec<f64>, FrameError> {
    let mut word = [0u8; 8];
    read_exactly(r, &mut word, 0)?;
    let len = usize::try_from(u64::from_le_bytes(word))
        .ok()
        .filter(|&len| len.checked_mul(8).is_some_and(|bytes| bytes <= max))
        .ok_or(FrameError::Oversized { limit: max })?;
    let mut out = Vec::with_capacity(len);
    let mut chunk = [0u8; 8 * 512];
    while out.len() < len {
        let bytes = &mut chunk[..8 * (len - out.len()).min(512)];
        read_exactly(r, bytes, 8 + 8 * out.len())?;
        out.extend(
            bytes
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
        );
    }
    Ok(out)
}

/// Read one line and parse it as a JSON document, with a per-frame byte cap,
/// returning the document and the bytes the line took (newline included).
///
/// Returns `Ok(None)` on a clean EOF (the peer closed the connection
/// *between* messages). A tear mid-frame, an over-cap frame, and a malformed
/// document each map to their [`FrameError`] variant; the reader should
/// treat all three as a broken connection.
pub fn read_msg_bounded<R: BufRead>(
    r: &mut R,
    max: usize,
) -> Result<Option<(Json, usize)>, FrameError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = r.fill_buf().map_err(FrameError::Io)?;
        if chunk.is_empty() {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(FrameError::Truncated { partial: buf.len() })
            };
        }
        let (line_bytes, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (chunk.len(), false),
        };
        if buf.len() + line_bytes > max {
            // Don't consume past the cap: leave the stream as-is; the caller
            // is expected to drop the connection.
            return Err(FrameError::Oversized { limit: max });
        }
        buf.extend_from_slice(&chunk[..line_bytes]);
        r.consume(line_bytes);
        if done {
            break;
        }
    }
    let text = std::str::from_utf8(&buf)
        .map_err(|e| FrameError::Malformed(format!("invalid UTF-8: {e}")))?;
    Json::parse(text.trim_end_matches(['\r', '\n']))
        .map(|doc| Some((doc, buf.len())))
        .map_err(FrameError::Malformed)
}

/// Read one line and parse it as a JSON document (default
/// [`MAX_FRAME_BYTES`] cap).
///
/// Returns `Ok(None)` on a clean EOF; torn/oversized/malformed frames map
/// to `io::Error` with kinds `UnexpectedEof`/`InvalidData` (see
/// [`FrameError`]'s `From<FrameError> for io::Error`).
pub fn read_msg<R: BufRead>(r: &mut R) -> io::Result<Option<Json>> {
    match read_msg_bounded(r, MAX_FRAME_BYTES) {
        Ok(msg) => Ok(msg.map(|(doc, _)| doc)),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn roundtrips_documents_over_a_byte_pipe() {
        let doc = Json::parse(r#"{"get":[3,1],"x":[0.1,-0.0,1e-300,null]}"#).unwrap();
        let mut buf = Vec::new();
        write_msg(&mut buf, &doc).unwrap();
        write_msg(&mut buf, &Json::Null).unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_msg(&mut r).unwrap(), Some(doc));
        assert_eq!(read_msg(&mut r).unwrap(), Some(Json::Null));
        assert_eq!(read_msg(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn f64_payloads_survive_framing_bitwise() {
        let xs = [0.1, -1.0 / 3.0, 1e-300, f64::MIN_POSITIVE, -0.0];
        let doc = Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
        let mut buf = Vec::new();
        write_msg(&mut buf, &doc).unwrap();
        let back = read_msg(&mut BufReader::new(&buf[..])).unwrap().unwrap();
        for (x, v) in xs.iter().zip(back.as_arr().unwrap()) {
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn malformed_lines_surface_as_invalid_data() {
        let mut r = BufReader::new(&b"{\"unterminated\n"[..]);
        let err = read_msg(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut r = BufReader::new(&b"{\"unterminated\n"[..]);
        assert!(matches!(
            read_msg_bounded(&mut r, MAX_FRAME_BYTES).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    /// A reader that hands out its bytes in fixed-size slivers, so one frame
    /// spans many `fill_buf` calls — the shape of a peer whose writes are
    /// split across packets.
    struct Slivers<'a>(&'a [u8], usize);
    impl Read for Slivers<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(self.1).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn split_writes_reassemble_into_one_frame() {
        let doc = Json::parse(r#"{"tile":{"r":2,"c":2,"d":[0.1,0.2,0.3,0.4]}}"#).unwrap();
        let mut bytes = Vec::new();
        write_msg(&mut bytes, &doc).unwrap();
        write_msg(&mut bytes, &Json::Num(7.0)).unwrap();
        for sliver in [1usize, 2, 3, 7] {
            let mut r = BufReader::with_capacity(sliver, Slivers(&bytes, sliver));
            assert_eq!(
                read_msg(&mut r).unwrap(),
                Some(doc.clone()),
                "sliver {sliver}"
            );
            assert_eq!(read_msg(&mut r).unwrap(), Some(Json::Num(7.0)));
            assert_eq!(read_msg(&mut r).unwrap(), None);
        }
    }

    #[test]
    fn torn_frames_are_truncated_not_parsed() {
        // A frame torn mid-f64 at EOF: the undamaged prefix would parse as a
        // *different* number — it must surface as Truncated, never as data.
        let full = b"[1.2546789,3.5]\n";
        for cut in 1..full.len() - 1 {
            let mut r = BufReader::new(&full[..cut]);
            match read_msg_bounded(&mut r, MAX_FRAME_BYTES).unwrap_err() {
                FrameError::Truncated { partial } => assert_eq!(partial, cut),
                other => panic!("cut at {cut}: expected Truncated, got {other}"),
            }
        }
        // And through the io::Error wrapper it is an UnexpectedEof.
        let mut r = BufReader::new(&full[..4]);
        assert_eq!(
            read_msg(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn torn_frames_reassembled_from_slivers_still_truncate() {
        let full = b"{\"d\":[1.25,2.5,9.75]}\n";
        let torn = &full[..full.len() - 3];
        let mut r = BufReader::with_capacity(2, Slivers(torn, 2));
        assert!(matches!(
            read_msg_bounded(&mut r, MAX_FRAME_BYTES).unwrap_err(),
            FrameError::Truncated { .. }
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_without_buffering_them() {
        let mut bytes = Vec::new();
        let big = Json::Arr((0..100).map(|i| Json::Num(i as f64)).collect());
        write_msg(&mut bytes, &big).unwrap();
        let mut r = BufReader::new(&bytes[..]);
        match read_msg_bounded(&mut r, 16).unwrap_err() {
            FrameError::Oversized { limit } => assert_eq!(limit, 16),
            other => panic!("expected Oversized, got {other}"),
        }
        // A frame exactly at the cap (payload + newline) still goes through.
        let doc = Json::parse("[1,2]").unwrap();
        let mut bytes = Vec::new();
        write_msg(&mut bytes, &doc).unwrap();
        let mut r = BufReader::new(&bytes[..]);
        assert_eq!(
            read_msg_bounded(&mut r, bytes.len()).unwrap(),
            Some((doc, bytes.len()))
        );
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut r = BufReader::new(&b"\xff\xfe{}\n"[..]);
        assert!(matches!(
            read_msg_bounded(&mut r, MAX_FRAME_BYTES).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    /// A `Write` that counts the `write` calls it sees.
    #[derive(Default)]
    struct CountingWrite {
        bytes: Vec<u8>,
        writes: usize,
    }
    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_one_write_call() {
        // A body and a lone trailing newline in two writes is what stalls a
        // TCP peer on delayed ACK; each frame must go out in one write.
        let mut w = CountingWrite::default();
        let doc = Json::parse(r#"{"get":[3,1]}"#).unwrap();
        for k in 1..=3 {
            write_msg(&mut w, &doc).unwrap();
            assert_eq!(w.writes, k);
        }
        let line = format!("{doc}\n");
        assert_eq!(w.bytes, line.repeat(3).as_bytes());

        let (u, v) = (vec![0.5; 300], vec![-2.0; 200]);
        let mut w = CountingWrite::default();
        write_frame(&mut w, &doc, &[&u, &v]).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes.len(), line.len() + 8 + 8 * 300 + 8 + 8 * 200);
    }

    #[test]
    fn blocks_carry_raw_bits_and_their_byte_count() {
        let weird = [
            0.1,
            -0.0,
            f64::from_bits(0x7ff8_dead_beef_0001), // a NaN with a payload
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 3.0, // subnormal
        ];
        let head = Json::parse(r#"{"tile":[1,0]}"#).unwrap();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &head, &[&weird, &[], &[7.0]]).unwrap();
        let mut r = BufReader::new(&bytes[..]);
        let (doc, line) = read_msg_bounded(&mut r, MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!((&doc, line), (&head, head.to_string().len() + 1));
        let back = read_block_bounded(&mut r, MAX_FRAME_BYTES).unwrap();
        assert!(back
            .iter()
            .zip(&weird)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(back.len(), weird.len());
        assert!(read_block_bounded(&mut r, MAX_FRAME_BYTES)
            .unwrap()
            .is_empty());
        assert_eq!(read_block_bounded(&mut r, MAX_FRAME_BYTES).unwrap(), [7.0]);
        assert_eq!(bytes.len(), line + (8 + 8 * 5) + 8 + (8 + 8));
        assert_eq!(
            read_msg(&mut r).unwrap(),
            None,
            "clean EOF after the blocks"
        );
    }

    #[test]
    fn block_counts_over_the_cap_are_oversized_before_allocating() {
        let mut block = 3u64.to_le_bytes().to_vec();
        block.extend([0u8; 24]);
        match read_block_bounded(&mut &block[..], 16).unwrap_err() {
            FrameError::Oversized { limit } => assert_eq!(limit, 16),
            other => panic!("expected Oversized, got {other}"),
        }
        assert_eq!(read_block_bounded(&mut &block[..], 24).unwrap(), [0.0; 3]);
        // Counts whose byte size overflows never reach the allocator.
        for count in [u64::MAX, u64::MAX / 8 + 1, 1 << 61] {
            let block = count.to_le_bytes();
            assert!(matches!(
                read_block_bounded(&mut &block[..], MAX_FRAME_BYTES).unwrap_err(),
                FrameError::Oversized { .. }
            ));
        }
    }

    #[test]
    fn blocks_torn_anywhere_are_truncated() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Json::Null, &[&[1.25, -3.5, 9.0]]).unwrap();
        let block = &bytes[5..]; // past "null\n"
        assert_eq!(block.len(), 32);
        // Cut inside the count, at an f64 boundary, and mid-f64.
        for cut in 0..block.len() {
            let mut r = BufReader::with_capacity(3, Slivers(&block[..cut], 3));
            match read_block_bounded(&mut r, MAX_FRAME_BYTES).unwrap_err() {
                FrameError::Truncated { partial } => assert_eq!(partial, cut),
                other => panic!("cut at {cut}: expected Truncated, got {other}"),
            }
        }
        // A line whose block never arrives is torn too, not a clean EOF.
        let mut r = BufReader::new(&bytes[..5]);
        assert!(read_msg(&mut r).unwrap().is_some());
        assert!(matches!(
            read_block_bounded(&mut r, MAX_FRAME_BYTES).unwrap_err(),
            FrameError::Truncated { partial: 0 }
        ));
    }
}
