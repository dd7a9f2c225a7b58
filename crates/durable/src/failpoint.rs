//! Fault injection for durability tests.
//!
//! [`FailpointFile`] wraps any writer and damages the byte stream at a
//! chosen offset — truncating it, corrupting it, or cutting a write short —
//! so tests can manufacture exactly the on-disk states a crash or flaky
//! disk would leave. The [`truncate_tail`] / [`zero_tail`] / [`flip_byte`]
//! helpers damage files that already exist (e.g. a real WAL segment after a
//! SIGKILL).

use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// What to do when the stream reaches byte offset `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailMode {
    /// Silently drop every byte from offset `at` onward (the write appears
    /// to succeed but the tail never reaches the file — a torn write).
    Truncate {
        /// Offset of the first dropped byte.
        at: u64,
    },
    /// XOR the byte at offset `at` with `0xFF`, pass everything else
    /// through (media corruption).
    Corrupt {
        /// Offset of the damaged byte.
        at: u64,
    },
    /// Write up to offset `at`, then fail with [`io::ErrorKind::WriteZero`]
    /// (a crashed process mid-`write(2)`).
    ShortWrite {
        /// Offset at which the write is cut off.
        at: u64,
    },
}

/// A writer that injects one failure at a configured byte offset.
#[derive(Debug)]
pub struct FailpointFile<W: Write> {
    inner: W,
    written: u64,
    mode: FailMode,
    tripped: bool,
}

impl<W: Write> FailpointFile<W> {
    /// Wraps `inner`, arming `mode`.
    pub fn new(inner: W, mode: FailMode) -> Self {
        Self {
            inner,
            written: 0,
            mode,
            tripped: false,
        }
    }

    /// Bytes offered to the writer so far (including dropped ones).
    pub fn offered(&self) -> u64 {
        self.written
    }

    /// Whether the failpoint has fired.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailpointFile<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = self.written;
        let end = start + buf.len() as u64;
        let out = match self.mode {
            FailMode::Truncate { at } => {
                if start >= at {
                    self.tripped = true;
                    buf.len() // swallow silently
                } else if end > at {
                    self.tripped = true;
                    let keep = (at - start) as usize;
                    self.inner.write_all(&buf[..keep])?;
                    buf.len() // the tail is dropped, the caller never knows
                } else {
                    self.inner.write_all(buf)?;
                    buf.len()
                }
            }
            FailMode::Corrupt { at } => {
                if (start..end).contains(&at) {
                    self.tripped = true;
                    let mut damaged = buf.to_vec();
                    damaged[(at - start) as usize] ^= 0xFF;
                    self.inner.write_all(&damaged)?;
                } else {
                    self.inner.write_all(buf)?;
                }
                buf.len()
            }
            FailMode::ShortWrite { at } => {
                if self.tripped || start >= at {
                    self.tripped = true;
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "failpoint: simulated crash mid-write",
                    ));
                }
                if end > at {
                    self.tripped = true;
                    let keep = (at - start) as usize;
                    self.inner.write_all(&buf[..keep])?;
                    self.written = at;
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "failpoint: simulated crash mid-write",
                    ));
                }
                self.inner.write_all(buf)?;
                buf.len()
            }
        };
        self.written = end;
        Ok(out)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Shortens `path` by `bytes_from_end` bytes (saturating at zero length).
/// Returns the new length.
pub fn truncate_tail(path: &Path, bytes_from_end: u64) -> io::Result<u64> {
    let file = OpenOptions::new().write(true).open(path)?;
    let len = file.metadata()?.len();
    let new_len = len.saturating_sub(bytes_from_end);
    file.set_len(new_len)?;
    file.sync_all()?;
    Ok(new_len)
}

/// Zeroes every byte of `path` from offset `keep` on and keeps its length:
/// what a crash leaves of a pre-sized WAL segment whose writes past `keep`
/// never reached the disk. The zeros are a hole where the file system
/// supports one. Returns the file's length.
pub fn zero_tail(path: &Path, keep: u64) -> io::Result<u64> {
    let file = OpenOptions::new().write(true).open(path)?;
    let len = file.metadata()?.len();
    file.set_len(keep.min(len))?;
    file.set_len(len)?;
    file.sync_all()?;
    Ok(len)
}

/// XORs the byte `offset_from_end` bytes before the end of `path` with
/// `0xFF` (offset 1 = the last byte).
pub fn flip_byte(path: &Path, offset_from_end: u64) -> io::Result<()> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let len = file.metadata()?.len();
    if offset_from_end == 0 || offset_from_end > len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("offset {offset_from_end} out of range for a {len}-byte file"),
        ));
    }
    let pos = len - offset_from_end;
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(pos))?;
    file.read_exact(&mut byte)?;
    byte[0] ^= 0xFF;
    file.seek(SeekFrom::Start(pos))?;
    file.write_all(&byte)?;
    file.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_drops_the_tail_silently() {
        let mut fp = FailpointFile::new(Vec::new(), FailMode::Truncate { at: 5 });
        fp.write_all(b"0123").unwrap();
        fp.write_all(b"4567").unwrap(); // crosses the failpoint
        fp.write_all(b"89").unwrap(); // fully past it
        assert!(fp.tripped());
        assert_eq!(fp.offered(), 10);
        assert_eq!(fp.into_inner(), b"01234");
    }

    #[test]
    fn corrupt_flips_exactly_one_byte() {
        let mut fp = FailpointFile::new(Vec::new(), FailMode::Corrupt { at: 3 });
        fp.write_all(b"ab").unwrap();
        fp.write_all(b"cdef").unwrap();
        assert!(fp.tripped());
        let out = fp.into_inner();
        assert_eq!(out.len(), 6);
        assert_eq!(out[3], b'd' ^ 0xFF);
        let mut clean = b"abcdef".to_vec();
        clean[3] ^= 0xFF;
        assert_eq!(out, clean);
    }

    #[test]
    fn short_write_fails_at_the_offset_and_stays_failed() {
        let mut fp = FailpointFile::new(Vec::new(), FailMode::ShortWrite { at: 3 });
        assert!(fp.write_all(b"ab").is_ok());
        let e = fp.write_all(b"cdef").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::WriteZero);
        assert!(fp.write_all(b"x").is_err(), "stays failed after tripping");
        assert_eq!(fp.into_inner(), b"abc");
    }

    #[test]
    fn file_damage_helpers() {
        let dir = crate::testutil::TempDir::new("failpoint-helpers");
        let path = dir.path().join("victim");
        std::fs::write(&path, b"hello world").unwrap();
        assert_eq!(truncate_tail(&path, 6).unwrap(), 5);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        flip_byte(&path, 1).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hell\x90"); // 'o' ^ 0xFF
        assert!(flip_byte(&path, 99).is_err());
        std::fs::write(&path, b"hello world").unwrap();
        assert_eq!(zero_tail(&path, 4).unwrap(), 11);
        assert_eq!(std::fs::read(&path).unwrap(), b"hell\0\0\0\0\0\0\0");
        assert_eq!(zero_tail(&path, 99).unwrap(), 11, "nothing past the end");
        assert_eq!(truncate_tail(&path, 99).unwrap(), 0);
    }
}
