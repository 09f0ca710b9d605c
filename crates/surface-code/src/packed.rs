//! Bit-packed detection-event files: record any session's rounds and
//! replay them byte-identically, or ingest externally sampled events.
//!
//! This is the workspace's on-disk syndrome interchange format — the
//! "DEM front door" from the roadmap. A file is a fixed 40-byte header
//! followed by one detector bitplane per round per stream:
//!
//! ```text
//! offset  size  field
//! 0       8     magic b"QECPACK1"
//! 8       4     u32 LE  code distance d (0 if not from a lattice)
//! 12      4     u32 LE  num_detectors (bits per detector plane)
//! 16      8     u64 LE  rounds per stream (patched by `finish`)
//! 24      4     u32 LE  streams (interleaved sessions; planes are
//!                       round-major: round 0 stream 0, round 0 stream 1,
//!                       …, round 1 stream 0, …)
//! 28      4     u32 LE  flags (bit 0: each plane is followed by an
//!                       erasure plane)
//! 32      4     u32 LE  erasure_width (bits per erasure plane; 0 when
//!                       flags bit 0 is clear)
//! 36      4     u32 LE  reserved (must be 0)
//! ```
//!
//! Each plane is `ceil(width / 64)` little-endian `u64` words, bit `i`
//! of the plane at word `i / 64`, position `i % 64` — exactly the
//! [`BitVec`] layout, including the invariant that bits at positions
//! `>= width` in the final word are zero (the **tail mask**). The writer
//! emits [`BitVec::words`] verbatim (the invariant holds by
//! construction); the reader loads words through [`BitVec::set_word`],
//! which masks the tail, so stray tail bits from foreign producers can
//! never leak into decoding.
//!
//! [`PackedWriter`] is seekable because the round count is patched into
//! the header by [`PackedWriter::finish`] — recording can stream without
//! knowing the length up front. [`PackedReader`] works on any
//! [`std::io::Read`].

use crate::bitvec::BitVec;
use crate::syndrome::DetectionRound;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"QECPACK1";

/// Header length in bytes.
pub const HEADER_LEN: usize = 40;

/// Byte offset of the u64 round count inside the header.
const ROUNDS_OFFSET: u64 = 16;

/// Header flag bit 0: every detector plane is followed by an erasure
/// plane.
pub const FLAG_ERASURES: u32 = 1;

/// What went wrong while reading or writing a packed file. Every
/// variant names what was expected so CLI surfaces can print an
/// actionable message.
#[derive(Debug)]
pub enum PackedError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The 8 bytes actually found.
        found: [u8; 8],
    },
    /// A structurally impossible header field.
    BadHeader(String),
    /// The file ended before the declared rounds were all present.
    Truncated {
        /// Planes (detector bitplanes) successfully read.
        planes_read: u64,
        /// Planes the header declared (`rounds * streams`).
        planes_declared: u64,
    },
    /// A plane handed to the writer has the wrong width.
    ShapeMismatch {
        /// What the plane is (`"detector plane"` / `"erasure plane"`).
        what: &'static str,
        /// Bits the header declares per plane.
        expected: usize,
        /// Bits the caller supplied.
        found: usize,
    },
    /// The writer was finished mid-round (planes written is not a
    /// multiple of the stream count).
    UnfinishedRound {
        /// Planes written so far.
        planes: u64,
        /// Streams per round.
        streams: u32,
    },
}

impl fmt::Display for PackedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "packed syndrome I/O error: {e}"),
            Self::BadMagic { found } => write!(
                f,
                "not a packed syndrome file: magic {:02x?} (expected {:02x?} = \"QECPACK1\")",
                found, MAGIC
            ),
            Self::BadHeader(why) => write!(f, "bad packed syndrome header: {why}"),
            Self::Truncated {
                planes_read,
                planes_declared,
            } => write!(
                f,
                "packed syndrome file truncated: {planes_read} of {planes_declared} \
                 declared planes present"
            ),
            Self::ShapeMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "packed syndrome {what} has {found} bits, file declares {expected}"
            ),
            Self::UnfinishedRound { planes, streams } => write!(
                f,
                "packed syndrome recording finished mid-round: {planes} planes is not \
                 a multiple of {streams} streams"
            ),
        }
    }
}

impl std::error::Error for PackedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PackedError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// The decoded header of a packed file — shape metadata shared by the
/// reader and writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedHeader {
    /// Code distance the producer ran at (0 when unknown/foreign).
    pub distance: u32,
    /// Bits per detector plane.
    pub num_detectors: u32,
    /// Rounds per stream.
    pub rounds: u64,
    /// Interleaved streams (sessions) per round.
    pub streams: u32,
    /// Bits per erasure plane; 0 when no erasure planes are present.
    pub erasure_width: u32,
}

impl PackedHeader {
    /// Whether each detector plane is followed by an erasure plane.
    pub fn has_erasures(&self) -> bool {
        self.erasure_width != 0
    }

    fn detector_words(&self) -> usize {
        (self.num_detectors as usize).div_ceil(64)
    }

    fn erasure_words(&self) -> usize {
        (self.erasure_width as usize).div_ceil(64)
    }

    /// Bytes of one round of one stream: its detector plane plus its
    /// erasure plane, if any.
    fn plane_bytes(&self) -> u64 {
        (self.detector_words() as u64 + self.erasure_words() as u64) * 8
    }

    /// Rejects a header whose declared planes need more than the
    /// `file_len − HEADER_LEN` bytes a file of `file_len` bytes holds.
    fn check_fits(&self, file_len: u64) -> Result<(), PackedError> {
        let available = file_len.saturating_sub(HEADER_LEN as u64);
        let (rounds, streams, plane) = (self.rounds, self.streams, self.plane_bytes());
        let declared = rounds
            .checked_mul(u64::from(streams))
            .and_then(|planes| planes.checked_mul(plane));
        match declared {
            Some(declared) if declared <= available => Ok(()),
            Some(declared) => Err(PackedError::BadHeader(format!(
                "{rounds} rounds x {streams} streams x {plane} plane bytes = {declared} bytes \
                 declared, but only {available} bytes follow the header"
            ))),
            None => Err(PackedError::BadHeader(format!(
                "{rounds} rounds x {streams} streams x {plane} plane bytes overflows u64, \
                 but only {available} bytes follow the header"
            ))),
        }
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&self.distance.to_le_bytes());
        out[12..16].copy_from_slice(&self.num_detectors.to_le_bytes());
        out[16..24].copy_from_slice(&self.rounds.to_le_bytes());
        out[24..28].copy_from_slice(&self.streams.to_le_bytes());
        let flags = if self.has_erasures() {
            FLAG_ERASURES
        } else {
            0
        };
        out[28..32].copy_from_slice(&flags.to_le_bytes());
        out[32..36].copy_from_slice(&self.erasure_width.to_le_bytes());
        // out[36..40] reserved, already zero.
        out
    }

    fn decode(bytes: &[u8; HEADER_LEN]) -> Result<Self, PackedError> {
        if bytes[0..8] != MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&bytes[0..8]);
            return Err(PackedError::BadMagic { found });
        }
        let u32_at = |off: usize| {
            u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
        };
        let mut rounds_bytes = [0u8; 8];
        rounds_bytes.copy_from_slice(&bytes[16..24]);
        let header = Self {
            distance: u32_at(8),
            num_detectors: u32_at(12),
            rounds: u64::from_le_bytes(rounds_bytes),
            streams: u32_at(24),
            erasure_width: u32_at(32),
        };
        let flags = u32_at(28);
        if header.num_detectors == 0 {
            return Err(PackedError::BadHeader("num_detectors is 0".into()));
        }
        if header.streams == 0 {
            return Err(PackedError::BadHeader("streams is 0".into()));
        }
        if flags & !FLAG_ERASURES != 0 {
            return Err(PackedError::BadHeader(format!(
                "unknown flag bits {:#x}",
                flags & !FLAG_ERASURES
            )));
        }
        if (flags & FLAG_ERASURES != 0) != (header.erasure_width != 0) {
            return Err(PackedError::BadHeader(format!(
                "erasure flag {} but erasure_width {}",
                flags & FLAG_ERASURES,
                header.erasure_width
            )));
        }
        if u32_at(36) != 0 {
            return Err(PackedError::BadHeader("reserved field is non-zero".into()));
        }
        check_distance(header.distance, header.num_detectors)?;
        Ok(header)
    }
}

/// Rejects a non-zero `distance` whose lattice does not have
/// `num_detectors` detectors (`d·(d−1)` ancillas). Distance 0 marks a
/// foreign file of unknown distance and matches any width.
fn check_distance(distance: u32, num_detectors: u32) -> Result<(), PackedError> {
    if distance == 0 {
        return Ok(());
    }
    match distance.checked_mul(distance - 1) {
        Some(implied) if implied == num_detectors => Ok(()),
        Some(implied) => Err(PackedError::BadHeader(format!(
            "distance {distance} has {implied} detectors, but num_detectors is {num_detectors}"
        ))),
        None => Err(PackedError::BadHeader(format!(
            "distance {distance} has more than {} detectors, but num_detectors is \
             {num_detectors}",
            u32::MAX
        ))),
    }
}

/// Streams detector bitplanes (and optional erasure planes) into a
/// packed file. Planes are written round-major — for every round, one
/// plane per stream in stream order — and the round count is patched
/// into the header by [`PackedWriter::finish`].
pub struct PackedWriter<W: Write + Seek> {
    sink: W,
    header: PackedHeader,
    planes: u64,
}

impl PackedWriter<BufWriter<File>> {
    /// Creates `path` and writes the header. `erasure_width` of 0 means
    /// no erasure planes.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing the file.
    pub fn create(
        path: &Path,
        distance: u32,
        num_detectors: u32,
        streams: u32,
        erasure_width: u32,
    ) -> Result<Self, PackedError> {
        let file = BufWriter::new(File::create(path)?);
        Self::new(file, distance, num_detectors, streams, erasure_width)
    }
}

impl<W: Write + Seek> PackedWriter<W> {
    /// Wraps `sink` and writes the header with a zero round count.
    ///
    /// # Errors
    ///
    /// [`PackedError::BadHeader`] on a zero `num_detectors`/`streams`
    /// or a non-zero `distance` whose lattice has a different detector
    /// count, or any I/O failure.
    pub fn new(
        mut sink: W,
        distance: u32,
        num_detectors: u32,
        streams: u32,
        erasure_width: u32,
    ) -> Result<Self, PackedError> {
        if num_detectors == 0 {
            return Err(PackedError::BadHeader("num_detectors is 0".into()));
        }
        if streams == 0 {
            return Err(PackedError::BadHeader("streams is 0".into()));
        }
        check_distance(distance, num_detectors)?;
        let header = PackedHeader {
            distance,
            num_detectors,
            rounds: 0,
            streams,
            erasure_width,
        };
        sink.write_all(&header.encode())?;
        Ok(Self {
            sink,
            header,
            planes: 0,
        })
    }

    /// The shape being written.
    pub fn header(&self) -> &PackedHeader {
        &self.header
    }

    /// Appends one detector plane (the next stream of the current
    /// round), plus its erasure plane when the file declares them.
    ///
    /// # Errors
    ///
    /// [`PackedError::ShapeMismatch`] when `events` (or `erasures`)
    /// width disagrees with the header — including a missing/extra
    /// erasure plane — or any I/O failure.
    pub fn write_plane(
        &mut self,
        events: &BitVec,
        erasures: Option<&BitVec>,
    ) -> Result<(), PackedError> {
        if events.len() != self.header.num_detectors as usize {
            return Err(PackedError::ShapeMismatch {
                what: "detector plane",
                expected: self.header.num_detectors as usize,
                found: events.len(),
            });
        }
        write_words(&mut self.sink, events.words())?;
        match (self.header.has_erasures(), erasures) {
            (false, None) => {}
            (true, Some(flags)) => {
                if flags.len() != self.header.erasure_width as usize {
                    return Err(PackedError::ShapeMismatch {
                        what: "erasure plane",
                        expected: self.header.erasure_width as usize,
                        found: flags.len(),
                    });
                }
                write_words(&mut self.sink, flags.words())?;
            }
            (true, None) => {
                return Err(PackedError::ShapeMismatch {
                    what: "erasure plane",
                    expected: self.header.erasure_width as usize,
                    found: 0,
                });
            }
            (false, Some(flags)) => {
                return Err(PackedError::ShapeMismatch {
                    what: "erasure plane",
                    expected: 0,
                    found: flags.len(),
                });
            }
        }
        self.planes += 1;
        Ok(())
    }

    /// Patches the final round count into the header and returns the
    /// sink.
    ///
    /// # Errors
    ///
    /// [`PackedError::UnfinishedRound`] when the plane count is not a
    /// whole number of rounds, or any I/O failure.
    pub fn finish(mut self) -> Result<W, PackedError> {
        if !self.planes.is_multiple_of(u64::from(self.header.streams)) {
            return Err(PackedError::UnfinishedRound {
                planes: self.planes,
                streams: self.header.streams,
            });
        }
        let rounds = self.planes / u64::from(self.header.streams);
        self.sink.seek(SeekFrom::Start(ROUNDS_OFFSET))?;
        self.sink.write_all(&rounds.to_le_bytes())?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

fn write_words<W: Write>(sink: &mut W, words: &[u64]) -> Result<(), PackedError> {
    for word in words {
        sink.write_all(&word.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a packed file plane by plane, in file order (round-major
/// across streams). Loads every word through [`BitVec::set_word`], so
/// tail bits a foreign producer failed to mask are dropped on ingest.
#[derive(Debug)]
pub struct PackedReader<R: Read> {
    source: R,
    header: PackedHeader,
    planes_read: u64,
    /// One detector plane's bytes, sized at the first read — once the
    /// caller's round has matched the header's width, so it is no larger
    /// than a buffer the caller already holds.
    byte_buf: Vec<u8>,
    /// One erasure plane's bytes. Its width comes from the header alone,
    /// so this grows only as the plane's bytes arrive.
    erasure_buf: Vec<u8>,
    erasures: BitVec,
    last_had_erasures: bool,
    pending_error: Option<PackedError>,
}

impl PackedReader<BufReader<File>> {
    /// Opens `path` and validates the header, including that the planes
    /// it declares fit in the file — so a corrupt or hostile header can
    /// never make a caller size buffers or sessions from it.
    ///
    /// # Errors
    ///
    /// [`PackedError::BadHeader`] when `rounds × streams × plane bytes`
    /// overflows or exceeds the bytes after the header (the message
    /// names both sizes), any other header validation failure, or any
    /// I/O failure.
    pub fn open(path: &Path) -> Result<Self, PackedError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let reader = Self::new(BufReader::new(file))?;
        reader.header.check_fits(file_len)?;
        Ok(reader)
    }
}

impl<R: Read> PackedReader<R> {
    /// Wraps `source`, reading and validating the header.
    ///
    /// # Errors
    ///
    /// [`PackedError::BadMagic`]/[`PackedError::BadHeader`] on a
    /// malformed header, or any I/O failure.
    pub fn new(mut source: R) -> Result<Self, PackedError> {
        let mut bytes = [0u8; HEADER_LEN];
        source.read_exact(&mut bytes).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                PackedError::BadHeader("file shorter than the 40-byte header".into())
            } else {
                PackedError::Io(e)
            }
        })?;
        let header = PackedHeader::decode(&bytes)?;
        Ok(Self {
            source,
            header,
            planes_read: 0,
            byte_buf: Vec::new(),
            erasure_buf: Vec::new(),
            erasures: BitVec::zeros(0),
            last_had_erasures: false,
            pending_error: None,
        })
    }

    /// The shape declared by the file.
    pub fn header(&self) -> &PackedHeader {
        &self.header
    }

    /// Reads the next detector plane into `out`, returning the round
    /// index it belongs to (`planes_read / streams`), or `None` when all
    /// declared planes are consumed. When the file carries erasure
    /// planes, the matching plane is available from
    /// [`PackedReader::last_erasures`] until the next read.
    ///
    /// I/O and truncation failures also return `None`, with the error
    /// parked for [`PackedReader::take_error`] — shaped this way so the
    /// `SyndromeSource` impl in `qecool` can be a thin delegation.
    pub fn next_round_into(&mut self, out: &mut DetectionRound) -> Option<u64> {
        if self.pending_error.is_some() {
            return None;
        }
        let declared = self.header.rounds * u64::from(self.header.streams);
        if self.planes_read >= declared {
            return None;
        }
        match self.read_plane_inner(out) {
            Ok(()) => {
                let round = self.planes_read / u64::from(self.header.streams);
                self.planes_read += 1;
                Some(round)
            }
            Err(e) => {
                self.pending_error = Some(e);
                None
            }
        }
    }

    fn read_plane_inner(&mut self, out: &mut DetectionRound) -> Result<(), PackedError> {
        let width = self.header.num_detectors as usize;
        if out.events().len() != width {
            return Err(PackedError::ShapeMismatch {
                what: "detector plane",
                expected: width,
                found: out.events().len(),
            });
        }
        let (planes_read, planes_declared) = (
            self.planes_read,
            self.header.rounds * u64::from(self.header.streams),
        );
        let truncated = || PackedError::Truncated {
            planes_read,
            planes_declared,
        };
        self.byte_buf.resize(self.header.detector_words() * 8, 0);
        self.source.read_exact(&mut self.byte_buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                truncated()
            } else {
                PackedError::Io(e)
            }
        })?;
        load_words(&self.byte_buf, out.events_mut());
        self.last_had_erasures = self.header.has_erasures();
        if self.last_had_erasures {
            let bytes = self.header.erasure_words() * 8;
            self.erasure_buf.clear();
            (&mut self.source)
                .take(bytes as u64)
                .read_to_end(&mut self.erasure_buf)?;
            if self.erasure_buf.len() < bytes {
                return Err(truncated());
            }
            let width = self.header.erasure_width as usize;
            if self.erasures.len() != width {
                self.erasures = BitVec::zeros(width);
            }
            load_words(&self.erasure_buf, &mut self.erasures);
        }
        Ok(())
    }

    /// The erasure plane of the most recently read round, when the file
    /// carries them.
    pub fn last_erasures(&self) -> Option<&BitVec> {
        self.last_had_erasures.then_some(&self.erasures)
    }

    /// Takes the error that ended iteration early, if any. A `None`
    /// from [`PackedReader::next_round_into`] with no parked error is a
    /// clean end-of-file.
    pub fn take_error(&mut self) -> Option<PackedError> {
        self.pending_error.take()
    }
}

/// Loads little-endian plane bytes into `out` word by word, through
/// [`BitVec::set_word`] so stray tail bits are dropped.
fn load_words(bytes: &[u8], out: &mut BitVec) {
    for (idx, chunk) in bytes.chunks_exact(8).enumerate() {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        out.set_word(idx, u64::from_le_bytes(word));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn bits(width: usize, ones: &[usize]) -> BitVec {
        let mut v = BitVec::zeros(width);
        for &i in ones {
            v.set(i, true);
        }
        v
    }

    fn record(
        width: u32,
        streams: u32,
        erasure_width: u32,
        planes: &[(BitVec, Option<BitVec>)],
    ) -> Vec<u8> {
        // d = 5 has 20 detectors; every other width is a foreign file.
        let distance = if width == 20 { 5 } else { 0 };
        let cursor = Cursor::new(Vec::new());
        let mut writer =
            PackedWriter::new(cursor, distance, width, streams, erasure_width).unwrap();
        for (events, erasures) in planes {
            writer.write_plane(events, erasures.as_ref()).unwrap();
        }
        writer.finish().unwrap().into_inner()
    }

    #[test]
    fn round_trips_planes_and_header() {
        let planes = vec![
            (bits(20, &[0, 7, 19]), None),
            (bits(20, &[3]), None),
            (bits(20, &[]), None),
        ];
        let file = record(20, 1, 0, &planes);
        let mut reader = PackedReader::new(Cursor::new(file)).unwrap();
        assert_eq!(reader.header().rounds, 3);
        assert_eq!(reader.header().num_detectors, 20);
        assert_eq!(reader.header().distance, 5);
        assert!(!reader.header().has_erasures());
        let mut out = DetectionRound::zeros(20);
        for (round, (events, _)) in planes.iter().enumerate() {
            assert_eq!(reader.next_round_into(&mut out), Some(round as u64));
            assert_eq!(out.events(), events);
            assert_eq!(reader.last_erasures(), None);
        }
        assert_eq!(reader.next_round_into(&mut out), None);
        assert!(reader.take_error().is_none(), "clean EOF parked an error");
    }

    #[test]
    fn streams_interleave_round_major() {
        let planes = vec![
            (bits(9, &[0]), None),
            (bits(9, &[1]), None),
            (bits(9, &[2]), None),
            (bits(9, &[3]), None),
        ];
        let file = record(9, 2, 0, &planes);
        let mut reader = PackedReader::new(Cursor::new(file)).unwrap();
        assert_eq!(reader.header().rounds, 2);
        let mut out = DetectionRound::zeros(9);
        // Two streams: planes 0,1 are round 0; planes 2,3 are round 1.
        assert_eq!(reader.next_round_into(&mut out), Some(0));
        assert!(out.fired(0));
        assert_eq!(reader.next_round_into(&mut out), Some(0));
        assert!(out.fired(1));
        assert_eq!(reader.next_round_into(&mut out), Some(1));
        assert!(out.fired(2));
        assert_eq!(reader.next_round_into(&mut out), Some(1));
        assert!(out.fired(3));
        assert_eq!(reader.next_round_into(&mut out), None);
    }

    #[test]
    fn erasure_planes_ride_along() {
        let planes = vec![
            (bits(20, &[4]), Some(bits(40, &[0, 39]))),
            (bits(20, &[]), Some(bits(40, &[]))),
        ];
        let file = record(20, 1, 40, &planes);
        let mut reader = PackedReader::new(Cursor::new(file)).unwrap();
        assert!(reader.header().has_erasures());
        let mut out = DetectionRound::zeros(20);
        assert_eq!(reader.next_round_into(&mut out), Some(0));
        assert_eq!(reader.last_erasures(), Some(&bits(40, &[0, 39])));
        assert_eq!(reader.next_round_into(&mut out), Some(1));
        assert_eq!(reader.last_erasures(), Some(&bits(40, &[])));
    }

    #[test]
    fn reader_masks_foreign_tail_bits() {
        // Hand-build a file whose single 20-bit plane has garbage in the
        // tail of its word; the reader must drop bits >= 20.
        let mut file = record(20, 1, 0, &[(bits(20, &[1]), None)]);
        let plane_offset = HEADER_LEN;
        file[plane_offset + 7] = 0xff; // bits 56..64 of word 0
        let mut reader = PackedReader::new(Cursor::new(file)).unwrap();
        let mut out = DetectionRound::zeros(20);
        assert_eq!(reader.next_round_into(&mut out), Some(0));
        assert_eq!(out.events(), &bits(20, &[1]));
        assert_eq!(out.events().count_ones(), 1);
    }

    #[test]
    fn truncated_file_parks_a_named_error() {
        let file = record(20, 1, 0, &[(bits(20, &[]), None), (bits(20, &[]), None)]);
        let cut = Cursor::new(file[..file.len() - 4].to_vec());
        let mut reader = PackedReader::new(cut).unwrap();
        let mut out = DetectionRound::zeros(20);
        assert_eq!(reader.next_round_into(&mut out), Some(0));
        assert_eq!(reader.next_round_into(&mut out), None);
        match reader.take_error() {
            Some(PackedError::Truncated {
                planes_read: 1,
                planes_declared: 2,
            }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Once parked, iteration stays ended even after take_error.
        assert_eq!(reader.next_round_into(&mut out), None);
    }

    #[test]
    fn hostile_widths_over_a_bare_read_allocate_nothing_up_front() {
        // 40 bytes declaring u32::MAX detectors: about 512 MiB per plane.
        let mut huge = record(20, 1, 0, &[]);
        huge[8..12].copy_from_slice(&0u32.to_le_bytes());
        huge[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        huge[16..24].copy_from_slice(&1u64.to_le_bytes());
        let mut reader = PackedReader::new(Cursor::new(huge)).unwrap();
        let mut out = DetectionRound::zeros(20);
        assert_eq!(reader.next_round_into(&mut out), None);
        match reader.take_error() {
            Some(PackedError::ShapeMismatch {
                what: "detector plane",
                expected,
                found: 20,
            }) => assert_eq!(expected, u32::MAX as usize),
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        // A u32::MAX-bit erasure plane behind a valid detector plane
        // reads only the bytes that are there, then names the cut.
        let mut wide = record(20, 1, 1, &[(bits(20, &[3]), Some(bits(1, &[0])))]);
        wide[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = PackedReader::new(Cursor::new(wide)).unwrap();
        assert_eq!(reader.next_round_into(&mut out), None);
        assert!(matches!(
            reader.take_error(),
            Some(PackedError::Truncated {
                planes_read: 0,
                planes_declared: 1,
            })
        ));
    }

    #[test]
    fn bad_magic_and_bad_header_are_named() {
        let mut file = record(20, 1, 0, &[]);
        file[0] = b'X';
        match PackedReader::new(Cursor::new(file.clone())) {
            Err(PackedError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let short = vec![0u8; 10];
        assert!(matches!(
            PackedReader::new(Cursor::new(short)),
            Err(PackedError::BadHeader(_))
        ));
        let mut zero_streams = record(20, 1, 0, &[]);
        zero_streams[24..28].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            PackedReader::new(Cursor::new(zero_streams)),
            Err(PackedError::BadHeader(_))
        ));
    }

    #[test]
    fn open_rejects_headers_declaring_more_than_the_file_holds() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "qecool_packed_bound_{}.qecpack",
            std::process::id()
        ));
        // A valid recording opens.
        let valid = record(20, 2, 0, &[(bits(20, &[1]), None), (bits(20, &[]), None)]);
        std::fs::write(&path, &valid).unwrap();
        assert_eq!(PackedReader::open(&path).unwrap().header().streams, 2);
        // 48 bytes declaring 2^31 streams: 16 GiB of planes.
        let mut hostile = record(20, 1, 0, &[(bits(20, &[]), None)]);
        hostile[24..28].copy_from_slice(&(1u32 << 31).to_le_bytes());
        assert_eq!(hostile.len(), 48);
        std::fs::write(&path, &hostile).unwrap();
        match PackedReader::open(&path) {
            Err(PackedError::BadHeader(why)) => {
                assert!(why.contains("17179869184 bytes declared"), "{why}");
                assert!(why.contains("only 8 bytes"), "{why}");
            }
            other => panic!("expected BadHeader, got {other:?}"),
        }
        // A product past u64 is caught, not wrapped.
        hostile[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &hostile).unwrap();
        match PackedReader::open(&path) {
            Err(PackedError::BadHeader(why)) => assert!(why.contains("overflows"), "{why}"),
            other => panic!("expected BadHeader, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn distance_must_match_the_detector_count() {
        let mut file = record(20, 1, 0, &[(bits(20, &[]), None)]);
        for (distance, why) in [
            (
                100_001,
                "distance 100001 has more than 4294967295 detectors",
            ),
            (4, "distance 4 has 12 detectors"),
            (
                u32::MAX >> 1,
                "distance 2147483647 has more than 4294967295 detectors",
            ),
        ] {
            file[8..12].copy_from_slice(&distance.to_le_bytes());
            match PackedReader::new(Cursor::new(file.clone())) {
                Err(PackedError::BadHeader(msg)) => {
                    assert!(msg.contains(why), "{msg}");
                    assert!(msg.contains("num_detectors is 20"), "{msg}");
                }
                other => panic!("distance {distance}: expected BadHeader, got {other:?}"),
            }
            assert!(matches!(
                PackedWriter::new(Cursor::new(Vec::new()), distance, 20, 1, 0),
                Err(PackedError::BadHeader(_))
            ));
        }
        // Distance 0 (foreign file) accepts any width; d = 5 accepts 20.
        file[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(PackedReader::new(Cursor::new(file)).is_ok());
        assert!(PackedWriter::new(Cursor::new(Vec::new()), 0, 7, 1, 0).is_ok());
        assert!(PackedWriter::new(Cursor::new(Vec::new()), 5, 20, 1, 0).is_ok());
    }

    #[test]
    fn writer_rejects_shape_mismatches() {
        let cursor = Cursor::new(Vec::new());
        let mut writer = PackedWriter::new(cursor, 5, 20, 1, 0).unwrap();
        assert!(matches!(
            writer.write_plane(&bits(21, &[]), None),
            Err(PackedError::ShapeMismatch {
                what: "detector plane",
                ..
            })
        ));
        assert!(matches!(
            writer.write_plane(&bits(20, &[]), Some(&bits(4, &[]))),
            Err(PackedError::ShapeMismatch {
                what: "erasure plane",
                ..
            })
        ));
    }

    #[test]
    fn finishing_mid_round_is_an_error() {
        let cursor = Cursor::new(Vec::new());
        let mut writer = PackedWriter::new(cursor, 0, 8, 2, 0).unwrap();
        writer.write_plane(&bits(8, &[]), None).unwrap();
        assert!(matches!(
            writer.finish(),
            Err(PackedError::UnfinishedRound {
                planes: 1,
                streams: 2
            })
        ));
    }

    fn random_planes(
        width: usize,
        erasure_width: usize,
        count: usize,
        density: f64,
        seed: u64,
    ) -> Vec<(BitVec, Option<BitVec>)> {
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut events = BitVec::zeros(width);
                for i in 0..width {
                    if rng.gen_bool(density) {
                        events.set(i, true);
                    }
                }
                let erasures = (erasure_width > 0).then(|| {
                    let mut flags = BitVec::zeros(erasure_width);
                    for i in 0..erasure_width {
                        if rng.gen_bool(density) {
                            flags.set(i, true);
                        }
                    }
                    flags
                });
                (events, erasures)
            })
            .collect()
    }

    fn assert_round_trip(
        width: u32,
        streams: u32,
        erasure_width: u32,
        rounds: u64,
        planes: &[(BitVec, Option<BitVec>)],
    ) {
        let file = record(width, streams, erasure_width, planes);
        let mut reader = PackedReader::new(Cursor::new(file)).unwrap();
        assert_eq!(reader.header().rounds, rounds);
        let mut out = DetectionRound::zeros(width as usize);
        for (idx, (events, erasures)) in planes.iter().enumerate() {
            let round = idx as u64 / u64::from(streams);
            assert_eq!(reader.next_round_into(&mut out), Some(round));
            assert_eq!(out.events(), events);
            assert_eq!(reader.last_erasures(), erasures.as_ref());
        }
        assert_eq!(reader.next_round_into(&mut out), None);
        assert!(reader.take_error().is_none());
    }

    proptest::proptest! {
        #[test]
        fn pack_unpack_identity(
            width in 1u32..300,
            rounds in 0u64..6,
            streams in 1u32..4,
            with_erasures in proptest::any::<bool>(),
            density in 0.0f64..1.0,
            seed in proptest::any::<u64>(),
        ) {
            // Erasure planes get a deliberately different width (data
            // qubits vs detectors), exercising both tail masks at once.
            let erasure_width = if with_erasures { width * 2 + 1 } else { 0 };
            let planes = random_planes(
                width as usize,
                erasure_width as usize,
                (rounds * u64::from(streams)) as usize,
                density,
                seed,
            );
            assert_round_trip(width, streams, erasure_width, rounds, &planes);
        }

        #[test]
        fn pack_unpack_identity_at_word_multiples(
            words in 1u32..4,
            rounds in 1u64..4,
            density in 0.0f64..1.0,
            seed in proptest::any::<u64>(),
        ) {
            // width % 64 == 0: the tail mask is a no-op and every bit of
            // the final word must survive the trip.
            let width = words * 64;
            let planes = random_planes(width as usize, 0, rounds as usize, density, seed);
            assert_round_trip(width, 1, 0, rounds, &planes);
        }
    }

    #[test]
    fn exact_word_multiple_width_has_no_tail() {
        // num_detectors % 64 == 0: the tail mask must be a no-op, and
        // the full final word must survive the trip.
        let mut plane = BitVec::zeros(128);
        for i in [0, 63, 64, 127] {
            plane.set(i, true);
        }
        let file = record(128, 1, 0, &[(plane.clone(), None)]);
        let mut reader = PackedReader::new(Cursor::new(file)).unwrap();
        let mut out = DetectionRound::zeros(128);
        assert_eq!(reader.next_round_into(&mut out), Some(0));
        assert_eq!(out.events(), &plane);
    }
}
