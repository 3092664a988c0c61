//! The binary container format: magic + version header, length-prefixed named
//! sections with per-section checksums, and 8-byte-aligned payloads so weight
//! blobs load by slice-reinterpretation instead of per-value parsing.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! file   := magic[8] = "HGNSTORE" | version u32 | section_count u32 | section*
//! section:= header[24] | name | pad8 | payload | pad8
//! header := name_len u16 | elem u8 | reserved u8 = 0 | reserved u32 = 0
//!         | payload_len u64 | checksum u64
//! ```
//!
//! Every piece is padded to a multiple of 8 bytes (the file header is 16, a
//! section header 24), so each payload starts on an 8-byte boundary of the
//! file. Loading the whole file into an [`AlignedBytes`] buffer (backed by
//! `u64` storage) then makes every `f32`/`f64`/`u64` payload correctly
//! aligned *in memory*, and [`Container::f32s`]-style accessors hand out the
//! weights as a borrowed slice-reinterpretation of the file bytes — O(1) in
//! the payload size on little-endian targets.
//!
//! The per-section checksum is FNV-1a-64 over `name_len ‖ elem ‖ name ‖
//! payload`, and the parser additionally insists that reserved fields and
//! padding are zero and that no bytes trail the last section — so *every*
//! single-byte corruption anywhere in a container is detected as a typed
//! [`Error::Parse`], never a panic and never silently-wrong weights.

use std::borrow::Cow;

use hls_gnn_core::{Error, Result};

/// The 8 magic bytes every container file starts with.
pub const MAGIC: [u8; 8] = *b"HGNSTORE";

/// Current container format version, bumped on incompatible layout changes.
pub const CONTAINER_VERSION: u32 = 1;

/// Size of the file header (magic + version + section count).
const FILE_HEADER: usize = 16;

/// Size of a section header.
const SECTION_HEADER: usize = 24;

/// Element type of a section payload, fixing its interpretation and the
/// divisibility of its byte length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemKind {
    /// Opaque bytes (JSON metadata, nested encodings).
    Bytes,
    /// Little-endian IEEE-754 `f32` values.
    F32,
    /// Little-endian IEEE-754 `f64` values.
    F64,
    /// Little-endian `u64` values (offset tables, counts).
    U64,
}

impl ElemKind {
    fn code(self) -> u8 {
        match self {
            ElemKind::Bytes => 0,
            ElemKind::F32 => 1,
            ElemKind::F64 => 2,
            ElemKind::U64 => 3,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ElemKind::Bytes),
            1 => Some(ElemKind::F32),
            2 => Some(ElemKind::F64),
            3 => Some(ElemKind::U64),
            _ => None,
        }
    }

    /// Size of one element in bytes.
    pub fn elem_size(self) -> usize {
        match self {
            ElemKind::Bytes => 1,
            ElemKind::F32 => 4,
            ElemKind::F64 | ElemKind::U64 => 8,
        }
    }

    /// Short name for `inspect` output.
    pub fn name(self) -> &'static str {
        match self {
            ElemKind::Bytes => "bytes",
            ElemKind::F32 => "f32",
            ElemKind::F64 => "f64",
            ElemKind::U64 => "u64",
        }
    }
}

/// FNV-1a 64-bit, the container's per-section checksum. Not cryptographic —
/// it defends against truncation, bit rot and editor accidents, not
/// adversaries.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &byte in *chunk {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn section_checksum(name: &str, kind: ElemKind, payload: &[u8]) -> u64 {
    let name_len = (name.len() as u16).to_le_bytes();
    fnv1a(&[&name_len, &[kind.code()], name.as_bytes(), payload])
}

/// Bytes whose storage is guaranteed 8-byte aligned (it is a `Vec<u64>`), so
/// `f32`/`f64`/`u64` payloads at 8-aligned file offsets can be reinterpreted
/// in place.
pub struct AlignedBytes {
    storage: Vec<u64>,
    len: usize,
}

impl std::fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBytes").field("len", &self.len).finish_non_exhaustive()
    }
}

impl AlignedBytes {
    /// Copies a byte slice into aligned storage (the one unavoidable copy —
    /// everything after it is zero-copy).
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let words = bytes.len().div_ceil(8);
        let mut storage = vec![0u64; words];
        // Safety: the u64 storage is at least `bytes.len()` bytes long and
        // u64 has no invalid bit patterns, so a plain byte copy is sound.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                storage.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
        }
        AlignedBytes { storage, len: bytes.len() }
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        // Safety: the storage holds at least `len` initialised bytes.
        unsafe { std::slice::from_raw_parts(self.storage.as_ptr().cast::<u8>(), self.len) }
    }
}

/// One parsed section: name, element kind, and the payload's position inside
/// the container's buffer.
#[derive(Debug)]
struct ParsedSection {
    name: String,
    kind: ElemKind,
    payload_start: usize,
    payload_len: usize,
}

/// Serialises named sections into the container byte format.
///
/// Section names must be non-empty, unique, and at most 65 535 bytes;
/// violating either is a caller bug and panics (the writer is only fed
/// compile-time section names from this crate's codecs).
#[derive(Default)]
pub struct ContainerWriter {
    sections: Vec<(String, ElemKind, Vec<u8>)>,
}

impl ContainerWriter {
    /// Starts an empty container.
    pub fn new() -> Self {
        ContainerWriter::default()
    }

    fn push(&mut self, name: &str, kind: ElemKind, payload: Vec<u8>) {
        assert!(
            !name.is_empty() && name.len() <= usize::from(u16::MAX),
            "section name must be 1..=65535 bytes"
        );
        assert!(
            self.sections.iter().all(|(existing, _, _)| existing != name),
            "duplicate section name `{name}`"
        );
        self.sections.push((name.to_owned(), kind, payload));
    }

    /// Adds an opaque byte section.
    pub fn add_bytes(&mut self, name: &str, payload: &[u8]) {
        self.push(name, ElemKind::Bytes, payload.to_vec());
    }

    /// Adds an `f32` blob, stored little-endian.
    pub fn add_f32(&mut self, name: &str, values: &[f32]) {
        let mut payload = Vec::with_capacity(values.len() * 4);
        for value in values {
            payload.extend_from_slice(&value.to_le_bytes());
        }
        self.push(name, ElemKind::F32, payload);
    }

    /// Adds an `f64` blob, stored little-endian.
    pub fn add_f64(&mut self, name: &str, values: &[f64]) {
        let mut payload = Vec::with_capacity(values.len() * 8);
        for value in values {
            payload.extend_from_slice(&value.to_le_bytes());
        }
        self.push(name, ElemKind::F64, payload);
    }

    /// Adds a `u64` blob (offset tables), stored little-endian.
    pub fn add_u64(&mut self, name: &str, values: &[u64]) {
        let mut payload = Vec::with_capacity(values.len() * 8);
        for value in values {
            payload.extend_from_slice(&value.to_le_bytes());
        }
        self.push(name, ElemKind::U64, payload);
    }

    /// Serialises the container.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, kind, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.push(kind.code());
            out.push(0); // reserved
            out.extend_from_slice(&0u32.to_le_bytes()); // reserved
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&section_checksum(name, *kind, payload).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            while out.len() % 8 != 0 {
                out.push(0);
            }
            out.extend_from_slice(payload);
            while out.len() % 8 != 0 {
                out.push(0);
            }
        }
        out
    }
}

/// A parsed, fully validated container holding its (aligned) backing buffer.
#[derive(Debug)]
pub struct Container {
    buffer: AlignedBytes,
    sections: Vec<ParsedSection>,
}

impl Container {
    /// Parses and validates a container from an aligned buffer.
    ///
    /// Validation is exhaustive: magic, version (future versions are refused,
    /// not misread), section bounds, UTF-8 names, known element codes,
    /// element-size divisibility, per-section checksums, zero reserved fields
    /// and padding, unique names, and no trailing bytes. Any single corrupted
    /// byte fails with [`Error::Parse`]; no input panics.
    ///
    /// # Errors
    /// Returns [`Error::Parse`] describing the first violation.
    pub fn from_aligned(buffer: AlignedBytes) -> Result<Self> {
        let bytes = buffer.as_slice();
        if bytes.len() < FILE_HEADER {
            return Err(Error::Parse(format!(
                "container truncated: {} bytes is shorter than the {FILE_HEADER}-byte header",
                bytes.len()
            )));
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(Error::Parse(
                "not a container: magic bytes are missing (expected `HGNSTORE`)".to_owned(),
            ));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version == 0 || version > CONTAINER_VERSION {
            return Err(Error::Parse(format!(
                "container version {version} is not supported by this build \
                 (supported: 1..={CONTAINER_VERSION}); refusing to reinterpret it"
            )));
        }
        let section_count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        let mut sections: Vec<ParsedSection> = Vec::new();
        let mut offset = FILE_HEADER;
        for index in 0..section_count {
            let header = bytes.get(offset..offset + SECTION_HEADER).ok_or_else(|| {
                Error::Parse(format!("container truncated inside the header of section {index}"))
            })?;
            let name_len = usize::from(u16::from_le_bytes(header[0..2].try_into().expect("2")));
            let kind = ElemKind::from_code(header[2]).ok_or_else(|| {
                Error::Parse(format!("section {index}: unknown element code {}", header[2]))
            })?;
            if header[3] != 0 || header[4..8] != [0; 4] {
                return Err(Error::Parse(format!(
                    "section {index}: reserved header bytes are not zero"
                )));
            }
            let payload_len: usize = u64::from_le_bytes(header[8..16].try_into().expect("8"))
                .try_into()
                .map_err(|_| {
                    Error::Parse(format!("section {index}: payload length overflows this platform"))
                })?;
            let checksum = u64::from_le_bytes(header[16..24].try_into().expect("8"));
            if name_len == 0 {
                return Err(Error::Parse(format!("section {index}: empty section name")));
            }
            offset += SECTION_HEADER;
            let name_bytes = bytes.get(offset..offset + name_len).ok_or_else(|| {
                Error::Parse(format!("container truncated inside the name of section {index}"))
            })?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| Error::Parse(format!("section {index}: name is not valid UTF-8")))?
                .to_owned();
            offset += name_len;
            offset = Container::consume_padding(bytes, offset, index)?;
            if !payload_len.is_multiple_of(kind.elem_size()) {
                return Err(Error::Parse(format!(
                    "section `{name}`: payload of {payload_len} bytes is not a whole number of \
                     {} elements",
                    kind.name()
                )));
            }
            let payload = bytes.get(offset..offset + payload_len).ok_or_else(|| {
                Error::Parse(format!("container truncated inside the payload of section `{name}`"))
            })?;
            if section_checksum(&name, kind, payload) != checksum {
                return Err(Error::Parse(format!(
                    "section `{name}`: checksum mismatch (corrupted payload, name or header)"
                )));
            }
            if sections.iter().any(|s| s.name == name) {
                return Err(Error::Parse(format!("duplicate section name `{name}`")));
            }
            sections.push(ParsedSection { name, kind, payload_start: offset, payload_len });
            offset += payload_len;
            offset = Container::consume_padding(bytes, offset, index)?;
        }
        if offset != bytes.len() {
            return Err(Error::Parse(format!(
                "{} trailing bytes after the last section",
                bytes.len() - offset
            )));
        }
        Ok(Container { buffer, sections })
    }

    fn consume_padding(bytes: &[u8], offset: usize, index: usize) -> Result<usize> {
        let target = offset.div_ceil(8) * 8;
        let padding = bytes.get(offset..target.min(bytes.len())).unwrap_or(&[]);
        if padding.len() != target - offset {
            return Err(Error::Parse(format!(
                "container truncated inside the padding of section {index}"
            )));
        }
        if padding.iter().any(|&byte| byte != 0) {
            return Err(Error::Parse(format!("section {index}: padding bytes are not zero")));
        }
        Ok(target)
    }

    /// Parses a container from raw bytes (copies once into aligned storage).
    ///
    /// # Errors
    /// As [`Container::from_aligned`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Container::from_aligned(AlignedBytes::from_bytes(bytes))
    }

    /// `(name, element kind, payload length in bytes)` for every section, in
    /// file order — the `inspect` view.
    pub fn sections(&self) -> Vec<(&str, ElemKind, usize)> {
        self.sections.iter().map(|s| (s.name.as_str(), s.kind, s.payload_len)).collect()
    }

    /// Container format version of the parsed file.
    pub fn version(&self) -> u32 {
        let bytes = self.buffer.as_slice();
        u32::from_le_bytes(bytes[8..12].try_into().expect("validated header"))
    }

    fn find(&self, name: &str, kind: ElemKind) -> Result<&ParsedSection> {
        let section = self.sections.iter().find(|s| s.name == name).ok_or_else(|| {
            Error::Parse(format!(
                "container has no `{name}` section (found: {})",
                self.sections.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join(", ")
            ))
        })?;
        if section.kind != kind {
            return Err(Error::Parse(format!(
                "section `{name}` holds {} elements, expected {}",
                section.kind.name(),
                kind.name()
            )));
        }
        Ok(section)
    }

    fn payload(&self, section: &ParsedSection) -> &[u8] {
        &self.buffer.as_slice()[section.payload_start..section.payload_start + section.payload_len]
    }

    /// The raw bytes of a [`ElemKind::Bytes`] section.
    ///
    /// # Errors
    /// Returns [`Error::Parse`] when the section is missing or has a
    /// different element kind.
    pub fn bytes(&self, name: &str) -> Result<&[u8]> {
        Ok(self.payload(self.find(name, ElemKind::Bytes)?))
    }

    /// The values of an [`ElemKind::F32`] section — zero-copy (borrowed
    /// straight from the file buffer) on little-endian targets.
    ///
    /// # Errors
    /// As [`Container::bytes`].
    pub fn f32s(&self, name: &str) -> Result<Cow<'_, [f32]>> {
        let payload = self.payload(self.find(name, ElemKind::F32)?);
        Ok(reinterpret::<f32>(payload))
    }

    /// The values of an [`ElemKind::F64`] section — zero-copy on
    /// little-endian targets.
    ///
    /// # Errors
    /// As [`Container::bytes`].
    pub fn f64s(&self, name: &str) -> Result<Cow<'_, [f64]>> {
        let payload = self.payload(self.find(name, ElemKind::F64)?);
        Ok(reinterpret::<f64>(payload))
    }

    /// The values of an [`ElemKind::U64`] section — zero-copy on
    /// little-endian targets.
    ///
    /// # Errors
    /// As [`Container::bytes`].
    pub fn u64s(&self, name: &str) -> Result<Cow<'_, [u64]>> {
        let payload = self.payload(self.find(name, ElemKind::U64)?);
        Ok(reinterpret::<u64>(payload))
    }
}

/// Marker for plain-old-data numeric types whose little-endian byte encoding
/// equals their in-memory representation on little-endian targets.
trait Pod: Copy {
    // Only the big-endian fallback decodes value-by-value; on little-endian
    // targets reinterpretation makes this method unreachable.
    #[cfg_attr(target_endian = "little", allow(dead_code))]
    fn from_le(bytes: &[u8]) -> Self;
}

impl Pod for f32 {
    fn from_le(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes.try_into().expect("4 bytes"))
    }
}

impl Pod for f64 {
    fn from_le(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }
}

impl Pod for u64 {
    fn from_le(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }
}

/// Reinterprets a validated, aligned little-endian payload as typed values:
/// borrowed in place on little-endian targets, decoded value-by-value on
/// big-endian ones.
fn reinterpret<T: Pod>(payload: &[u8]) -> Cow<'_, [T]> {
    debug_assert_eq!(payload.len() % std::mem::size_of::<T>(), 0, "validated at parse time");
    #[cfg(target_endian = "little")]
    {
        // Safety: the payload starts on an 8-byte boundary of an 8-aligned
        // buffer (every container piece is padded to 8), its length is a
        // whole number of elements (validated at parse time), and f32/f64/u64
        // accept any bit pattern. With alignment guaranteed, align_to's
        // prefix and suffix are empty.
        let (prefix, values, suffix) = unsafe { payload.align_to::<T>() };
        debug_assert!(prefix.is_empty() && suffix.is_empty());
        Cow::Borrowed(values)
    }
    #[cfg(target_endian = "big")]
    {
        Cow::Owned(payload.chunks_exact(std::mem::size_of::<T>()).map(T::from_le).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_container() -> Vec<u8> {
        let mut writer = ContainerWriter::new();
        writer.add_bytes("meta", br#"{"hello": "world"}"#);
        writer.add_f32("weights", &[1.0, -2.5, 3.25e-7, f32::MIN_POSITIVE]);
        writer.add_f64("stats", &[0.1, -0.2, 1e300]);
        writer.add_u64("index", &[0, 7, 123_456_789]);
        writer.finish()
    }

    #[test]
    fn round_trips_every_section_kind_exactly() {
        let bytes = sample_container();
        let container = Container::from_bytes(&bytes).expect("well-formed container parses");
        assert_eq!(container.version(), CONTAINER_VERSION);
        assert_eq!(container.bytes("meta").unwrap(), br#"{"hello": "world"}"#);
        assert_eq!(
            container.f32s("weights").unwrap().as_ref(),
            &[1.0, -2.5, 3.25e-7, f32::MIN_POSITIVE]
        );
        assert_eq!(container.f64s("stats").unwrap().as_ref(), &[0.1, -0.2, 1e300]);
        assert_eq!(container.u64s("index").unwrap().as_ref(), &[0, 7, 123_456_789]);
        let sections = container.sections();
        assert_eq!(sections.len(), 4);
        assert_eq!(sections[1], ("weights", ElemKind::F32, 16));
    }

    #[test]
    fn numeric_payloads_are_borrowed_zero_copy_on_little_endian() {
        if cfg!(target_endian = "little") {
            let bytes = sample_container();
            let container = Container::from_bytes(&bytes).unwrap();
            assert!(matches!(container.f32s("weights").unwrap(), Cow::Borrowed(_)));
            assert!(matches!(container.f64s("stats").unwrap(), Cow::Borrowed(_)));
            assert!(matches!(container.u64s("index").unwrap(), Cow::Borrowed(_)));
        }
    }

    #[test]
    fn missing_and_mistyped_sections_are_typed_errors() {
        let container = Container::from_bytes(&sample_container()).unwrap();
        assert!(matches!(container.bytes("nope"), Err(Error::Parse(_))));
        assert!(matches!(container.f64s("weights"), Err(Error::Parse(_))));
        assert!(matches!(container.f32s("meta"), Err(Error::Parse(_))));
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let bytes = sample_container();
        Container::from_bytes(&bytes).expect("pristine container parses");
        for index in 0..bytes.len() {
            let mut mangled = bytes.clone();
            mangled[index] ^= 0x41;
            assert!(
                matches!(Container::from_bytes(&mangled), Err(Error::Parse(_))),
                "corrupting byte {index} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample_container();
        for length in 0..bytes.len() {
            assert!(
                matches!(Container::from_bytes(&bytes[..length]), Err(Error::Parse(_))),
                "truncation to {length} bytes went undetected"
            );
        }
    }

    #[test]
    fn future_versions_are_refused() {
        let mut bytes = sample_container();
        bytes[8..12].copy_from_slice(&(CONTAINER_VERSION + 1).to_le_bytes());
        let error = Container::from_bytes(&bytes).unwrap_err();
        assert!(matches!(&error, Error::Parse(message) if message.contains("not supported")));
        bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(Container::from_bytes(&bytes), Err(Error::Parse(_))));
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut bytes = sample_container();
        bytes.extend_from_slice(&[0; 8]);
        let error = Container::from_bytes(&bytes).unwrap_err();
        assert!(matches!(&error, Error::Parse(message) if message.contains("trailing")));
    }

    #[test]
    fn empty_containers_parse() {
        let bytes = ContainerWriter::new().finish();
        let container = Container::from_bytes(&bytes).unwrap();
        assert!(container.sections().is_empty());
    }
}
