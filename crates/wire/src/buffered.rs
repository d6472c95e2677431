//! Buffered I/O under the blocking session drivers.
//!
//! A session answers one request with thousands of small frames, and
//! the framing layer reads each frame with two `read` calls (prefix,
//! body). Issued straight at a socket that is one syscall per call.
//! [`buffered_session`] puts a fixed buffer per direction between the
//! drivers and the stream; [`crate::framing`] runs on top of it
//! unchanged, so its error taxonomy is untouched.

use std::io::{BufReader, BufWriter, Read, Write};

use crate::framing::FrameError;

/// Buffer per direction. A constant, not an option: large enough to
/// carry a dozen MTU-sized frames per syscall, small enough that a
/// daemon's per-session memory does not move. A write at least this
/// long goes straight to the stream, as does a read of that size that
/// finds the buffer empty (the standard library's rule), so a bulk frame
/// costs at most one extra copy of one buffer, not of itself.
const BUFFER_BYTES: usize = 16 * 1024;

/// The write half, readable: a read that reaches the stream first
/// flushes what is pending, so a peer that replies only once it has the
/// whole request can never be left waiting on bytes parked here.
struct FlushOnRead<'a, S: Read + Write>(BufWriter<&'a mut S>);

impl<S: Read + Write> Read for FlushOnRead<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.flush()?;
        self.0.get_mut().read(buf)
    }
}

/// A `Read + Write` view of a stream with 16 KiB of buffer in each
/// direction. The read side only calls into the flushing write half
/// when its own buffer is empty, which is exactly "before any read that
/// reaches the inner stream".
///
/// Read-ahead may pull bytes past the session's last frame, and they
/// are dropped with the adapter. That is sound because a connection
/// carries exactly one session after the hello its caller read: nothing
/// else is ever addressed to this stream.
pub struct SessionIo<'a, S: Read + Write>(BufReader<FlushOnRead<'a, S>>);

impl<S: Read + Write> Read for SessionIo<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl<S: Read + Write> Write for SessionIo<'_, S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.get_mut().0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.get_mut().0.flush()
    }
}

/// Runs `session` over a buffered view of `stream` and flushes pending
/// writes before returning — on success and on error alike, so frames
/// the session believes sent (a reply written just before a failure, a
/// chaos plan's dangling prefix) do reach the peer. A flush failure is
/// reported only when the session itself succeeded.
///
/// # Errors
/// Whatever `session` returns, or the final flush's error as a
/// [`FrameError`].
pub fn buffered_session<S, T, E>(
    stream: &mut S,
    session: impl FnOnce(&mut SessionIo<'_, S>) -> Result<T, E>,
) -> Result<T, E>
where
    S: Read + Write,
    E: From<FrameError>,
{
    let writer = BufWriter::with_capacity(BUFFER_BYTES, stream);
    let mut io = SessionIo(BufReader::with_capacity(BUFFER_BYTES, FlushOnRead(writer)));
    let result = session(&mut io);
    let flushed = io.flush();
    // Dismantled rather than dropped: `BufWriter`'s drop would retry a
    // failed flush and could sit out a second write deadline.
    let _ = io.0.into_inner().0.into_parts();
    let value = result?;
    flushed.map_err(FrameError::from)?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{read_frame, write_frame, FrameLimit};
    use crate::Message;
    use std::sync::mpsc;
    use std::time::Duration;

    /// One end of an in-memory duplex pipe; `recv_timeout` turns a
    /// missing flush into a test failure instead of a hang.
    struct PipeEnd {
        incoming: mpsc::Receiver<Vec<u8>>,
        outgoing: mpsc::Sender<Vec<u8>>,
        residue: Vec<u8>,
    }

    impl Read for PipeEnd {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.residue.is_empty() {
                match self.incoming.recv_timeout(Duration::from_secs(10)) {
                    Ok(chunk) => self.residue = chunk,
                    Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(0),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        return Err(std::io::ErrorKind::TimedOut.into())
                    }
                }
            }
            let n = buf.len().min(self.residue.len());
            buf[..n].copy_from_slice(&self.residue[..n]);
            self.residue.drain(..n);
            Ok(n)
        }
    }

    impl Write for PipeEnd {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.outgoing
                .send(buf.to_vec())
                .map_err(|_| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn pipe() -> (PipeEnd, PipeEnd) {
        let (a_tx, b_rx) = mpsc::channel();
        let (b_tx, a_rx) = mpsc::channel();
        let end = |incoming, outgoing| PipeEnd {
            incoming,
            outgoing,
            residue: Vec::new(),
        };
        (end(a_rx, a_tx), end(b_rx, b_tx))
    }

    #[test]
    fn pending_writes_are_flushed_before_a_read_reaches_the_stream() {
        // The peer replies only after it has the *whole* request, which
        // is far smaller than the buffer: without the flush-before-read
        // rule both sides wait forever (here: until the pipe's timeout).
        let (mut near, mut far) = pipe();
        let request: Vec<Message> = (0..5).map(|count| Message::SymbolRequest { count }).collect();
        let expected = request.clone();
        let peer = std::thread::spawn(move || {
            for want in &expected {
                let got = read_frame(&mut far, FrameLimit::default()).expect("request frame");
                assert_eq!(&got, want);
            }
            write_frame(&mut far, &Message::SymbolRequest { count: 99 }).expect("reply");
        });
        let reply = buffered_session(&mut near, |io| {
            for msg in &request {
                write_frame(io, msg)?;
            }
            read_frame(io, FrameLimit::default())
        })
        .expect("reply arrives");
        assert_eq!(reply, Message::SymbolRequest { count: 99 });
        peer.join().expect("peer");
    }

    #[test]
    fn writes_are_flushed_before_returning_even_on_error() {
        let (mut near, mut far) = pipe();
        let result: Result<(), FrameError> = buffered_session(&mut near, |io| {
            write_frame(io, &Message::SymbolRequest { count: 7 })?;
            Err(FrameError::Closed)
        });
        assert!(matches!(result, Err(FrameError::Closed)));
        drop(near);
        let got = read_frame(&mut far, FrameLimit::default()).expect("frame was flushed");
        assert_eq!(got, Message::SymbolRequest { count: 7 });
        assert!(matches!(
            read_frame(&mut far, FrameLimit::default()),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn a_failed_final_flush_is_reported() {
        struct DeadWriter;
        impl Read for DeadWriter {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Ok(0)
            }
        }
        impl Write for DeadWriter {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::WouldBlock.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let result: Result<(), FrameError> = buffered_session(&mut DeadWriter, |io| {
            write_frame(io, &Message::SymbolRequest { count: 1 })
        });
        assert!(matches!(result, Err(FrameError::TimedOut)));
    }
}
