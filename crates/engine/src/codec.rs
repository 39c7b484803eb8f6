//! Versioned binary persistence for fitted [`Series2Graph`] models.
//!
//! Training a Series2Graph model is the expensive step of the pipeline;
//! scoring against a fitted model is cheap. This codec makes *train once,
//! score many times across processes* possible: it round-trips every part of
//! a fitted model — configuration, PCA + rotation embedding, node set,
//! transition graph and the cached training contributions — so a loaded model
//! produces **bit-identical** scores to the in-memory one it was saved from.
//!
//! ## Format (`S2GMDL`, version 2)
//!
//! Little-endian throughout; every `f64` is stored as its IEEE-754 bit
//! pattern (`to_bits`), which is what guarantees bit-identical round-trips.
//! Version 2 is a *sectioned* layout: after the fixed header comes a seekable
//! section index, so a reader can open the small sections (config, embedding
//! basis, nodes, graph, train cache) without touching the large one (the
//! embedding points — by far the dominant share of a model file). That is
//! the property the lazy `s2g-store` model store is built on.
//!
//! ```text
//! magic      8 bytes  b"S2GMDL\xF0\x9F"
//! version    u32 = 2
//! count      u32      number of index entries (6)
//! index      count × { kind u32, offset u64, len u64, checksum u64 }
//!                     offset is absolute from the file start; checksum is
//!                     FNV-1a over exactly the section's payload bytes, so
//!                     each section verifies independently of the others
//! payloads   the section payloads, contiguous, in index order
//! trailer    u64      FNV-1a over all preceding bytes (whole-file integrity)
//! ```
//!
//! Section kinds and payloads (all arrays length-prefixed with a `u64`):
//!
//! | kind | payload |
//! |---|---|
//! | 1 `config` | pattern_length, lambda, rate, kde_grid_points: u64; smooth_scores u8; bandwidth tag u8 (0 = Scott \| 1 = SigmaRatio + f64); pca_solver tag u8 (0 = Covariance \| 1 = RandomizedSvd + oversample u64 + power_iterations u64 + seed u64); seed u64 |
//! | 2 `embedding` | explained_variance_ratio f64; pca: input_dim u64, n_components u64, mean f64[], components (row-major) f64[], explained_variance f64[], total_variance f64; rotation 9 × f64 (row-major 3×3) |
//! | 3 `points` | n u64, then n × (y f64, z f64) |
//! | 4 `nodes` | rate u64, then per ray an f64[] of node radii |
//! | 5 `graph` | node_count u64, edge_count u64, then per edge from u64, to u64, weight f64 |
//! | 6 `train` | train_len u64, contributions f64[], then *optionally* the adaptation lineage: parent_checksum u64, update_count u64, decay_lambda f64 |
//!
//! The lineage tail is written only for adapted models (those carrying an
//! [`AdaptationLineage`]); pristine fits encode exactly as before, so their
//! checksums are unchanged and older files (without the tail) keep
//! decoding. Readers detect the tail by the bytes remaining after the
//! contributions array.
//!
//! ## Version 1 (legacy, read-compatible)
//!
//! Version 1 files carry the same payloads with no index, concatenated
//! directly after `magic + version` in the order
//! `config, embedding, points, nodes, graph, train`, followed by the same
//! whole-file trailer. [`decode_model`] reads both versions and produces
//! bit-identical models from either encoding of the same fit;
//! [`encode_model_v1`] still writes the legacy layout (used by the store's
//! migration tests and downgrade tooling).
//!
//! Any truncation, bit flip or unknown version is rejected with a precise
//! [`Error`] instead of yielding a silently wrong model.

use std::io::Read;
use std::path::Path;

use s2g_core::config::BandwidthRule;
use s2g_core::embedding::Embedding;
use s2g_core::nodes::NodeSet;
use s2g_core::{AdaptationLineage, S2gConfig, Series2Graph};
use s2g_graph::DiGraph;
use s2g_linalg::matrix::DMatrix;
use s2g_linalg::pca::{Pca, PcaSolver};
use s2g_linalg::rotation::Rotation3;
use s2g_linalg::vector::Vec2;

use crate::error::{Error, Result};
use crate::util::fnv1a;

/// File magic: `S2GMDL` plus two non-ASCII bytes so text tools don't
/// misdetect the format.
pub const MAGIC: [u8; 8] = *b"S2GMDL\xF0\x9F";

/// Highest format version this build reads and the version it writes.
pub const FORMAT_VERSION: u32 = 2;

/// Oldest format version this build still reads.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Byte length of the fixed header (magic + version + section count).
pub const FIXED_HEADER_LEN: usize = MAGIC.len() + 4 + 4;

/// Byte length of one section-index entry (kind + offset + len + checksum).
pub const INDEX_ENTRY_LEN: usize = 4 + 8 + 8 + 8;

// ---------------------------------------------------------------------------
// Section index
// ---------------------------------------------------------------------------

/// The six sections of a version-2 model file, in file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// Fit configuration ([`S2gConfig`]).
    Config,
    /// Embedding basis: explained variance, PCA, rotation — *without* the
    /// projected points.
    Embedding,
    /// The projected `(y, z)` trajectory of the training series: the
    /// dominant share of a model file, and the section a lazy reader
    /// faults in on demand.
    Points,
    /// The extracted pattern node set.
    Nodes,
    /// The transition graph `G_ℓ(N, E)`.
    Graph,
    /// Cached per-gap training contributions.
    Train,
}

impl SectionKind {
    /// Every section kind, in the order sections are written to the file.
    pub const ALL: [SectionKind; 6] = [
        SectionKind::Config,
        SectionKind::Embedding,
        SectionKind::Points,
        SectionKind::Nodes,
        SectionKind::Graph,
        SectionKind::Train,
    ];

    /// The on-disk tag of this kind.
    pub fn tag(self) -> u32 {
        match self {
            SectionKind::Config => 1,
            SectionKind::Embedding => 2,
            SectionKind::Points => 3,
            SectionKind::Nodes => 4,
            SectionKind::Graph => 5,
            SectionKind::Train => 6,
        }
    }

    /// The kind encoded by an on-disk tag, if known.
    pub fn from_tag(tag: u32) -> Option<SectionKind> {
        SectionKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Human-readable section name (used in error messages).
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Config => "config",
            SectionKind::Embedding => "embedding",
            SectionKind::Points => "points",
            SectionKind::Nodes => "nodes",
            SectionKind::Graph => "graph",
            SectionKind::Train => "train",
        }
    }
}

impl std::fmt::Display for SectionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One entry of a version-2 section index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Which section this entry locates.
    pub kind: SectionKind,
    /// Absolute byte offset of the section payload from the file start.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a checksum of exactly the payload bytes, so the section can be
    /// verified without reading any other part of the file.
    pub checksum: u64,
}

/// The parsed section index of a version-2 model file: where each section
/// lives, how long it is, and its independent checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionIndex {
    entries: Vec<SectionEntry>,
}

impl SectionIndex {
    /// The index entries, in file order.
    pub fn entries(&self) -> &[SectionEntry] {
        &self.entries
    }

    /// Total byte length of header + index (the file offset where the first
    /// payload starts).
    pub fn header_len(&self) -> usize {
        FIXED_HEADER_LEN + self.entries.len() * INDEX_ENTRY_LEN
    }

    /// The entry for `kind`, if present.
    pub fn get(&self, kind: SectionKind) -> Option<&SectionEntry> {
        self.entries.iter().find(|e| e.kind == kind)
    }

    /// The entry for `kind`, as a format error when absent.
    ///
    /// # Errors
    /// [`Error::Format`] naming the missing section.
    pub fn require(&self, kind: SectionKind) -> Result<&SectionEntry> {
        self.get(kind)
            .ok_or_else(|| Error::Format(format!("section index lacks the {kind} section")))
    }

    /// Checks that every entry lies within a file of `file_len` bytes
    /// (between the index and the 8-byte trailer), so a reader can trust
    /// the offsets before seeking.
    ///
    /// # Errors
    /// [`Error::Format`] for any out-of-bounds entry.
    pub fn validate_bounds(&self, file_len: u64) -> Result<()> {
        let header_len = self.header_len() as u64;
        let payload_end = file_len
            .checked_sub(8)
            .ok_or_else(|| Error::Format("file shorter than its trailer".to_string()))?;
        for entry in &self.entries {
            let end = entry.offset.checked_add(entry.len);
            if entry.offset < header_len || end.is_none_or(|end| end > payload_end) {
                return Err(Error::Format(format!(
                    "{} section [{}, +{}) escapes the file's {} payload bytes",
                    entry.kind, entry.offset, entry.len, payload_end
                )));
            }
        }
        Ok(())
    }

    /// Slices the payload of `kind` out of the complete file bytes.
    ///
    /// # Errors
    /// [`Error::Format`] when the section is missing or out of bounds.
    pub fn slice<'a>(&self, file_bytes: &'a [u8], kind: SectionKind) -> Result<&'a [u8]> {
        let entry = self.require(kind)?;
        let start = usize::try_from(entry.offset)
            .map_err(|_| Error::Format(format!("{kind} offset exceeds the platform word size")))?;
        let len = usize::try_from(entry.len)
            .map_err(|_| Error::Format(format!("{kind} length exceeds the platform word size")))?;
        start
            .checked_add(len)
            .and_then(|end| file_bytes.get(start..end))
            .ok_or_else(|| {
                Error::Format(format!(
                    "{kind} section [{start}, +{len}) escapes the {}-byte file",
                    file_bytes.len()
                ))
            })
    }
}

/// Parses the section index from the head of a version-2 file. `prefix`
/// must start at file offset 0 and be long enough to cover header + index
/// (`FIXED_HEADER_LEN + count × INDEX_ENTRY_LEN` bytes).
///
/// # Errors
/// [`Error::Format`] on bad magic, truncation, or a malformed index;
/// [`Error::UnsupportedVersion`] when the version field is not 2.
pub fn parse_section_index(prefix: &[u8]) -> Result<SectionIndex> {
    let mut r = Reader::new(prefix);
    let magic = r.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(Error::Format(
            "bad magic: not a Series2Graph model file".to_string(),
        ));
    }
    let version = r.get_u32("version")?;
    if version != 2 {
        return Err(Error::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let count = r.get_u32("section count")? as usize;
    if count == 0 || count > 32 {
        return Err(Error::Format(format!(
            "implausible section count {count} (expected 1..=32)"
        )));
    }
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let section = format!("section index entry {i}");
        let tag = r.get_u32(&section)?;
        let kind = SectionKind::from_tag(tag)
            .ok_or_else(|| Error::Format(format!("{section}: unknown section kind tag {tag}")))?;
        let entry = SectionEntry {
            kind,
            offset: r.get_u64(&section)?,
            len: r.get_u64(&section)?,
            checksum: r.get_u64(&section)?,
        };
        if entries.iter().any(|e: &SectionEntry| e.kind == kind) {
            return Err(Error::Format(format!("duplicate {kind} section in index")));
        }
        entries.push(entry);
    }
    let index = SectionIndex { entries };
    for kind in SectionKind::ALL {
        index.require(kind)?;
    }
    Ok(index)
}

/// Reads the format version and, for version-2 files, the section index
/// from the head of a model file — without reading any payload bytes.
/// Returns `(version, None)` for version-1 files (which have no index).
///
/// This is the entry point a lazy reader uses: open the file, read the
/// header, then fetch exactly the sections it needs by offset.
///
/// # Errors
/// [`Error::Io`] on read failures, [`Error::Format`] /
/// [`Error::UnsupportedVersion`] on malformed or unreadable headers.
pub fn read_header<R: Read>(reader: &mut R) -> Result<(u32, Option<SectionIndex>)> {
    let mut fixed = [0u8; FIXED_HEADER_LEN];
    reader
        .read_exact(&mut fixed)
        .map_err(|_| truncated("fixed header"))?;
    if fixed[..MAGIC.len()] != MAGIC {
        return Err(Error::Format(
            "bad magic: not a Series2Graph model file".to_string(),
        ));
    }
    let version = u32::from_le_bytes(fixed[8..12].try_into().expect("4-byte slice"));
    match version {
        1 => Ok((1, None)),
        2 => {
            let count =
                u32::from_le_bytes(fixed[12..16].try_into().expect("4-byte slice")) as usize;
            if count == 0 || count > 32 {
                return Err(Error::Format(format!(
                    "implausible section count {count} (expected 1..=32)"
                )));
            }
            let mut rest = vec![0u8; count * INDEX_ENTRY_LEN];
            reader
                .read_exact(&mut rest)
                .map_err(|_| truncated("section index"))?;
            let mut prefix = fixed.to_vec();
            prefix.extend_from_slice(&rest);
            Ok((2, Some(parse_section_index(&prefix)?)))
        }
        v => Err(Error::UnsupportedVersion {
            found: v,
            supported: FORMAT_VERSION,
        }),
    }
}

/// Verifies a section payload against its index entry: exact length and
/// independent FNV-1a checksum. This is what makes partial reads safe —
/// a lazily-faulted section is checked without touching the rest of the
/// file.
///
/// # Errors
/// [`Error::Format`] on a length mismatch, [`Error::ChecksumMismatch`] on
/// corrupted payload bytes.
pub fn verify_section(entry: &SectionEntry, payload: &[u8]) -> Result<()> {
    if payload.len() as u64 != entry.len {
        return Err(Error::Format(format!(
            "{} section: expected {} bytes, read {}",
            entry.kind,
            entry.len,
            payload.len()
        )));
    }
    let computed = fnv1a(payload);
    if computed != entry.checksum {
        return Err(Error::ChecksumMismatch {
            stored: entry.checksum,
            computed,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Byte-level writer / reader
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(4096),
        }
    }

    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    fn put_f64_array(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, section: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| truncated(section))?;
        if end > self.bytes.len() {
            return Err(truncated(section));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn get_u8(&mut self, section: &str) -> Result<u8> {
        Ok(self.take(1, section)?[0])
    }

    fn get_u32(&mut self, section: &str) -> Result<u32> {
        let b = self.take(4, section)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    fn get_u64(&mut self, section: &str) -> Result<u64> {
        let b = self.take(8, section)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn get_usize(&mut self, section: &str) -> Result<usize> {
        let v = self.get_u64(section)?;
        usize::try_from(v).map_err(|_| {
            Error::Format(format!(
                "{section}: value {v} exceeds the platform word size"
            ))
        })
    }

    /// Reads a length prefix that the remaining bytes must plausibly cover
    /// (each element occupying at least `elem_bytes`), so a corrupted length
    /// fails fast instead of attempting a huge allocation.
    fn get_len(&mut self, elem_bytes: usize, section: &str) -> Result<usize> {
        let n = self.get_usize(section)?;
        let remaining = self.bytes.len() - self.pos;
        if n.checked_mul(elem_bytes)
            .is_none_or(|total| total > remaining)
        {
            return Err(Error::Format(format!(
                "{section}: declared length {n} exceeds the {remaining} bytes left in the file"
            )));
        }
        Ok(n)
    }

    fn get_f64(&mut self, section: &str) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64(section)?))
    }

    fn get_f64_array(&mut self, section: &str) -> Result<Vec<f64>> {
        let n = self.get_len(8, section)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64(section)?);
        }
        Ok(out)
    }

    fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn expect_exhausted(&self, section: &str) -> Result<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(Error::Format(format!(
                "{} trailing bytes after the {section} payload",
                self.bytes.len() - self.pos
            )))
        }
    }
}

fn truncated(section: &str) -> Error {
    Error::Format(format!("truncated while reading {section}"))
}

// ---------------------------------------------------------------------------
// Section payload writers
// ---------------------------------------------------------------------------

fn write_config_section(w: &mut Writer, config: &S2gConfig) {
    w.put_usize(config.pattern_length);
    w.put_usize(config.lambda);
    w.put_usize(config.rate);
    w.put_usize(config.kde_grid_points);
    w.put_u8(config.smooth_scores as u8);
    match config.bandwidth {
        BandwidthRule::Scott => w.put_u8(0),
        BandwidthRule::SigmaRatio(ratio) => {
            w.put_u8(1);
            w.put_f64(ratio);
        }
    }
    match config.pca_solver {
        PcaSolver::Covariance => w.put_u8(0),
        PcaSolver::RandomizedSvd {
            oversample,
            power_iterations,
            seed,
        } => {
            w.put_u8(1);
            w.put_usize(oversample);
            w.put_usize(power_iterations);
            w.put_u64(seed);
        }
    }
    w.put_u64(config.seed);
}

fn write_embedding_section(w: &mut Writer, embedding: &Embedding) {
    w.put_f64(embedding.explained_variance_ratio);
    let pca = embedding.pca();
    w.put_usize(pca.input_dim());
    w.put_usize(pca.n_components());
    w.put_f64_array(pca.mean());
    w.put_f64_array(pca.components().as_slice());
    w.put_f64_array(pca.explained_variance());
    w.put_f64(pca.total_variance());
    for row in embedding.rotation().rows() {
        for v in row {
            w.put_f64(v);
        }
    }
}

fn write_points_section(w: &mut Writer, points: &[Vec2]) {
    w.put_usize(points.len());
    for p in points {
        w.put_f64(p.x);
        w.put_f64(p.y);
    }
}

fn write_nodes_section(w: &mut Writer, nodes: &NodeSet) {
    w.put_usize(nodes.rate());
    for ray in 0..nodes.rate() {
        w.put_f64_array(nodes.ray_nodes(ray));
    }
}

fn write_graph_section(w: &mut Writer, graph: &DiGraph) {
    w.put_usize(graph.node_count());
    w.put_usize(graph.edge_count());
    for edge in graph.edges() {
        w.put_usize(edge.from);
        w.put_usize(edge.to);
        w.put_f64(edge.weight);
    }
}

fn write_train_section(w: &mut Writer, model: &Series2Graph) {
    w.put_usize(model.train_len());
    w.put_f64_array(model.train_contributions());
    // The lineage tail is only present for adapted models, so pristine
    // fits keep their pre-adaptation encoding (and checksum) exactly.
    if let Some(lineage) = model.lineage() {
        w.put_u64(lineage.parent_checksum);
        w.put_u64(lineage.update_count);
        w.put_f64(lineage.decay_lambda);
    }
}

/// The six section payloads of a model, in [`SectionKind::ALL`] order.
fn section_payloads(model: &Series2Graph) -> [Vec<u8>; 6] {
    let mut payloads: [Vec<u8>; 6] = Default::default();
    for (slot, kind) in payloads.iter_mut().zip(SectionKind::ALL) {
        let mut w = Writer::new();
        match kind {
            SectionKind::Config => write_config_section(&mut w, model.config()),
            SectionKind::Embedding => write_embedding_section(&mut w, model.embedding()),
            SectionKind::Points => write_points_section(&mut w, &model.embedding().points),
            SectionKind::Nodes => write_nodes_section(&mut w, model.node_set()),
            SectionKind::Graph => write_graph_section(&mut w, model.graph()),
            SectionKind::Train => write_train_section(&mut w, model),
        }
        *slot = w.buf;
    }
    payloads
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Serialises a fitted model into the current (version 2, sectioned)
/// binary format.
pub fn encode_model(model: &Series2Graph) -> Vec<u8> {
    let payloads = section_payloads(model);
    let header_len = FIXED_HEADER_LEN + payloads.len() * INDEX_ENTRY_LEN;
    let total: usize = payloads.iter().map(Vec::len).sum();

    let mut w = Writer::new();
    w.buf.reserve(header_len + total + 8);
    w.buf.extend_from_slice(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u32(payloads.len() as u32);
    let mut offset = header_len as u64;
    for (kind, payload) in SectionKind::ALL.into_iter().zip(&payloads) {
        w.put_u32(kind.tag());
        w.put_u64(offset);
        w.put_u64(payload.len() as u64);
        w.put_u64(fnv1a(payload));
        offset += payload.len() as u64;
    }
    for payload in &payloads {
        w.buf.extend_from_slice(payload);
    }
    let checksum = fnv1a(&w.buf);
    w.put_u64(checksum);
    w.buf
}

/// Serialises a fitted model into the legacy version-1 layout (no section
/// index; payloads concatenated in order). Kept so migration paths and
/// downgrade tooling can produce v1 files; [`decode_model`] reads both
/// versions bit-identically.
pub fn encode_model_v1(model: &Series2Graph) -> Vec<u8> {
    let payloads = section_payloads(model);
    let mut w = Writer::new();
    w.buf.extend_from_slice(&MAGIC);
    w.put_u32(1);
    for payload in &payloads {
        w.buf.extend_from_slice(payload);
    }
    let checksum = fnv1a(&w.buf);
    w.put_u64(checksum);
    w.buf
}

/// Content checksum of a fitted model: the FNV-1a checksum its encoded form
/// carries as trailer (the same value a model file on disk ends with).
///
/// Two models have equal checksums iff their encoded bytes are identical,
/// making this a cheap *bit-for-bit* equality fingerprint: a model fitted
/// remotely from posted values can be compared against a local fit without
/// shipping either model over the wire.
///
/// # Example
///
/// ```
/// use s2g_core::{S2gConfig, Series2Graph};
/// use s2g_engine::codec;
/// use s2g_timeseries::TimeSeries;
///
/// let series = TimeSeries::from(
///     (0..2000)
///         .map(|i| (std::f64::consts::TAU * i as f64 / 90.0).sin())
///         .collect::<Vec<f64>>(),
/// );
/// let a = Series2Graph::fit(&series, &S2gConfig::new(45)).unwrap();
/// let b = Series2Graph::fit(&series, &S2gConfig::new(45)).unwrap();
/// // Fitting is deterministic, so two fits of the same series agree.
/// assert_eq!(codec::model_checksum(&a), codec::model_checksum(&b));
/// // The checksum is exactly the file trailer.
/// let encoded = codec::encode_model(&a);
/// let trailer = u64::from_le_bytes(encoded[encoded.len() - 8..].try_into().unwrap());
/// assert_eq!(codec::model_checksum(&a), trailer);
/// ```
pub fn model_checksum(model: &Series2Graph) -> u64 {
    let encoded = encode_model(model);
    checksum_trailer(&encoded)
}

/// The trailing 8-byte checksum of an encoded model file.
pub fn checksum_trailer(encoded: &[u8]) -> u64 {
    let trailer = &encoded[encoded.len() - 8..];
    u64::from_le_bytes(trailer.try_into().expect("8-byte checksum trailer"))
}

// ---------------------------------------------------------------------------
// Section payload readers
// ---------------------------------------------------------------------------

fn read_config_section(r: &mut Reader<'_>) -> Result<S2gConfig> {
    let pattern_length = r.get_usize("config.pattern_length")?;
    let lambda = r.get_usize("config.lambda")?;
    let rate = r.get_usize("config.rate")?;
    let kde_grid_points = r.get_usize("config.kde_grid_points")?;
    let smooth_scores = match r.get_u8("config.smooth_scores")? {
        0 => false,
        1 => true,
        v => {
            return Err(Error::Format(format!(
                "config.smooth_scores: invalid bool byte {v}"
            )))
        }
    };
    let bandwidth = match r.get_u8("config.bandwidth")? {
        0 => BandwidthRule::Scott,
        1 => BandwidthRule::SigmaRatio(r.get_f64("config.bandwidth.ratio")?),
        v => return Err(Error::Format(format!("config.bandwidth: unknown tag {v}"))),
    };
    let pca_solver = match r.get_u8("config.pca_solver")? {
        0 => PcaSolver::Covariance,
        1 => PcaSolver::RandomizedSvd {
            oversample: r.get_usize("config.pca_solver.oversample")?,
            power_iterations: r.get_usize("config.pca_solver.power_iterations")?,
            seed: r.get_u64("config.pca_solver.seed")?,
        },
        v => return Err(Error::Format(format!("config.pca_solver: unknown tag {v}"))),
    };
    let seed = r.get_u64("config.seed")?;
    let config = S2gConfig {
        pattern_length,
        lambda,
        rate,
        bandwidth,
        kde_grid_points,
        smooth_scores,
        pca_solver,
        seed,
    };
    config.validate()?;
    Ok(config)
}

/// Embedding basis without the projected points.
struct EmbeddingParts {
    explained_variance_ratio: f64,
    pca: Pca,
    rotation: Rotation3,
}

fn read_embedding_section(r: &mut Reader<'_>) -> Result<EmbeddingParts> {
    let explained_variance_ratio = r.get_f64("embedding.explained_variance_ratio")?;
    let input_dim = r.get_usize("embedding.pca.input_dim")?;
    let n_components = r.get_usize("embedding.pca.n_components")?;
    let mean = r.get_f64_array("embedding.pca.mean")?;
    let components_data = r.get_f64_array("embedding.pca.components")?;
    let explained_variance = r.get_f64_array("embedding.pca.explained_variance")?;
    let total_variance = r.get_f64("embedding.pca.total_variance")?;
    let components = DMatrix::from_vec(input_dim, n_components, components_data)
        .map_err(|e| Error::Format(format!("embedding.pca.components: {e}")))?;
    let pca = Pca::from_parts(mean, components, explained_variance, total_variance)
        .map_err(|e| Error::Format(format!("embedding.pca: {e}")))?;
    let mut rows = [[0.0f64; 3]; 3];
    for row in rows.iter_mut() {
        for v in row.iter_mut() {
            *v = r.get_f64("embedding.rotation")?;
        }
    }
    Ok(EmbeddingParts {
        explained_variance_ratio,
        pca,
        rotation: Rotation3::from_rows(rows),
    })
}

fn read_points_section(r: &mut Reader<'_>) -> Result<Vec<Vec2>> {
    let n_points = r.get_len(16, "points")?;
    let mut points = Vec::with_capacity(n_points);
    for _ in 0..n_points {
        let y = r.get_f64("points")?;
        let z = r.get_f64("points")?;
        points.push(Vec2::new(y, z));
    }
    Ok(points)
}

fn read_nodes_section(r: &mut Reader<'_>, expected_rate: usize) -> Result<NodeSet> {
    let node_rate = r.get_usize("nodes.rate")?;
    if node_rate != expected_rate {
        return Err(Error::Format(format!(
            "nodes.rate {node_rate} disagrees with config.rate {expected_rate}"
        )));
    }
    let mut radii = Vec::with_capacity(node_rate);
    for ray in 0..node_rate {
        radii.push(r.get_f64_array(&format!("nodes.ray[{ray}]"))?);
    }
    NodeSet::from_parts(node_rate, radii).map_err(|e| Error::Format(format!("nodes: {e}")))
}

fn read_graph_section(r: &mut Reader<'_>, expected_nodes: usize) -> Result<DiGraph> {
    let node_count = r.get_usize("graph.node_count")?;
    if node_count != expected_nodes {
        return Err(Error::Format(format!(
            "graph.node_count {node_count} disagrees with the node set's {expected_nodes}"
        )));
    }
    let edge_count = r.get_len(24, "graph.edge_count")?;
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let from = r.get_usize("graph.edge.from")?;
        let to = r.get_usize("graph.edge.to")?;
        let weight = r.get_f64("graph.edge.weight")?;
        edges.push((from, to, weight));
    }
    DiGraph::from_edges(node_count, &edges).map_err(|e| Error::Format(format!("graph.{e}")))
}

fn read_train_section(r: &mut Reader<'_>) -> Result<(usize, Vec<f64>, Option<AdaptationLineage>)> {
    let train_len = r.get_usize("train.len")?;
    let train_contributions = r.get_f64_array("train.contributions")?;
    // Adapted models append their lineage; pristine fits end here.
    let lineage = if r.is_exhausted() {
        None
    } else {
        Some(AdaptationLineage {
            parent_checksum: r.get_u64("train.lineage.parent_checksum")?,
            update_count: r.get_u64("train.lineage.update_count")?,
            decay_lambda: r.get_f64("train.lineage.decay_lambda")?,
        })
    };
    Ok((train_len, train_contributions, lineage))
}

/// Reassembles a model from fully-read section contents.
#[allow(clippy::too_many_arguments)]
fn assemble_model(
    config: S2gConfig,
    parts: EmbeddingParts,
    points: Vec<Vec2>,
    nodes: NodeSet,
    graph: DiGraph,
    train_len: usize,
    train_contributions: Vec<f64>,
    lineage: Option<AdaptationLineage>,
) -> Result<Series2Graph> {
    let embedding = Embedding::from_parts(
        config.pattern_length,
        config.lambda,
        parts.pca,
        parts.rotation,
        points,
        parts.explained_variance_ratio,
    );
    let mut model = Series2Graph::from_parts(
        config,
        embedding,
        nodes,
        graph,
        train_contributions,
        train_len,
    )?;
    model.set_lineage(lineage);
    Ok(model)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Deserialises a model from the versioned binary format (version 1 or 2),
/// verifying magic, version and the whole-file checksum before
/// reconstructing any part.
pub fn decode_model(bytes: &[u8]) -> Result<Series2Graph> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(Error::Format(
            "file shorter than the fixed header".to_string(),
        ));
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(Error::Format(
            "bad magic: not a Series2Graph model file".to_string(),
        ));
    }

    // Verify integrity before trusting any length field.
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte slice"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(Error::ChecksumMismatch { stored, computed });
    }

    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    match version {
        1 => decode_v1_body(&body[MAGIC.len() + 4..]),
        2 => {
            let index = parse_section_index(body)?;
            index.validate_bounds(bytes.len() as u64)?;
            decode_model_from_sections(
                index.slice(body, SectionKind::Config)?,
                index.slice(body, SectionKind::Embedding)?,
                index.slice(body, SectionKind::Points)?,
                index.slice(body, SectionKind::Nodes)?,
                index.slice(body, SectionKind::Graph)?,
                index.slice(body, SectionKind::Train)?,
            )
        }
        v => Err(Error::UnsupportedVersion {
            found: v,
            supported: FORMAT_VERSION,
        }),
    }
}

/// Decodes the concatenated payloads of a version-1 file (everything after
/// magic + version, before the trailer).
fn decode_v1_body(body: &[u8]) -> Result<Series2Graph> {
    let mut r = Reader::new(body);
    let config = read_config_section(&mut r)?;
    let parts = read_embedding_section(&mut r)?;
    let points = read_points_section(&mut r)?;
    let nodes = read_nodes_section(&mut r, config.rate)?;
    let graph = read_graph_section(&mut r, nodes.node_count())?;
    let (train_len, train_contributions, lineage) = read_train_section(&mut r)?;
    if !r.is_exhausted() {
        return Err(Error::Format(format!(
            "{} trailing bytes after the last section",
            body.len() - r.pos
        )));
    }
    assemble_model(
        config,
        parts,
        points,
        nodes,
        graph,
        train_len,
        train_contributions,
        lineage,
    )
}

/// Reassembles a model from its six section payloads, each verified to be
/// fully consumed. This is the decode path of a lazy reader that fetched
/// sections independently (e.g. the `s2g-store` model store faulting in
/// the points section on first score).
///
/// # Errors
/// [`Error::Format`] on any malformed, short or over-long payload.
pub fn decode_model_from_sections(
    config: &[u8],
    embedding: &[u8],
    points: &[u8],
    nodes: &[u8],
    graph: &[u8],
    train: &[u8],
) -> Result<Series2Graph> {
    let mut r = Reader::new(config);
    let config = read_config_section(&mut r)?;
    r.expect_exhausted("config")?;

    let mut r = Reader::new(embedding);
    let parts = read_embedding_section(&mut r)?;
    r.expect_exhausted("embedding")?;

    let mut r = Reader::new(points);
    let points = read_points_section(&mut r)?;
    r.expect_exhausted("points")?;

    let mut r = Reader::new(nodes);
    let nodes = read_nodes_section(&mut r, config.rate)?;
    r.expect_exhausted("nodes")?;

    let mut r = Reader::new(graph);
    let graph = read_graph_section(&mut r, nodes.node_count())?;
    r.expect_exhausted("graph")?;

    let mut r = Reader::new(train);
    let (train_len, train_contributions, lineage) = read_train_section(&mut r)?;
    r.expect_exhausted("train")?;

    assemble_model(
        config,
        parts,
        points,
        nodes,
        graph,
        train_len,
        train_contributions,
        lineage,
    )
}

// ---------------------------------------------------------------------------
// Section peeks (metadata without a full decode)
// ---------------------------------------------------------------------------

/// Decodes just the config section payload (e.g. to learn a stored model's
/// pattern length without reading the rest of the file).
///
/// # Errors
/// [`Error::Format`] on a malformed payload.
pub fn decode_config_section(payload: &[u8]) -> Result<S2gConfig> {
    let mut r = Reader::new(payload);
    let config = read_config_section(&mut r)?;
    r.expect_exhausted("config")?;
    Ok(config)
}

/// Reads `(node_count, edge_count)` from the head of a graph section
/// payload without decoding the edges.
///
/// # Errors
/// [`Error::Format`] on a truncated payload.
pub fn peek_graph_counts(payload: &[u8]) -> Result<(usize, usize)> {
    let mut r = Reader::new(payload);
    let node_count = r.get_usize("graph.node_count")?;
    let edge_count = r.get_usize("graph.edge_count")?;
    Ok((node_count, edge_count))
}

/// Reads `train_len` from the head of a train section payload.
///
/// # Errors
/// [`Error::Format`] on a truncated payload.
pub fn peek_train_len(payload: &[u8]) -> Result<usize> {
    let mut r = Reader::new(payload);
    r.get_usize("train.len")
}

/// Reads the adaptation lineage from a train section payload without
/// materialising the contributions array: `Ok(None)` for a pristine fit
/// (no lineage tail), the lineage for an adapted snapshot. This is how a
/// store answers "is this file adapted, and from what?" from its already
/// resident small sections.
///
/// # Errors
/// [`Error::Format`] on a malformed payload.
pub fn peek_train_lineage(payload: &[u8]) -> Result<Option<AdaptationLineage>> {
    let mut r = Reader::new(payload);
    let _train_len = r.get_usize("train.len")?;
    let n = r.get_len(8, "train.contributions")?;
    r.take(n * 8, "train.contributions")?;
    if r.is_exhausted() {
        return Ok(None);
    }
    let lineage = AdaptationLineage {
        parent_checksum: r.get_u64("train.lineage.parent_checksum")?,
        update_count: r.get_u64("train.lineage.update_count")?,
        decay_lambda: r.get_f64("train.lineage.decay_lambda")?,
    };
    r.expect_exhausted("train")?;
    Ok(Some(lineage))
}

/// Number of embedded points a points section payload declares, computed
/// from its index entry alone (each point is 16 bytes after the 8-byte
/// count).
pub fn points_len_from_entry(entry: &SectionEntry) -> usize {
    (entry.len.saturating_sub(8) / 16) as usize
}

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

/// Writes a fitted model to `path` in the versioned binary format.
pub fn save_model<P: AsRef<Path>>(path: P, model: &Series2Graph) -> Result<()> {
    std::fs::write(path, encode_model(model))?;
    Ok(())
}

/// Reads a fitted model from `path`, verifying magic, version and checksum.
pub fn load_model<P: AsRef<Path>>(path: P) -> Result<Series2Graph> {
    let bytes = std::fs::read(path)?;
    decode_model(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_timeseries::TimeSeries;

    fn fitted() -> Series2Graph {
        let values: Vec<f64> = (0..3000)
            .map(|i| (std::f64::consts::TAU * i as f64 / 80.0).sin())
            .collect();
        Series2Graph::fit(&TimeSeries::from(values), &S2gConfig::new(40)).unwrap()
    }

    #[test]
    fn encode_decode_preserves_structure() {
        let model = fitted();
        let bytes = encode_model(&model);
        let back = decode_model(&bytes).unwrap();
        assert_eq!(back.config().pattern_length, model.config().pattern_length);
        assert_eq!(back.node_count(), model.node_count());
        assert_eq!(back.graph().edge_count(), model.graph().edge_count());
        assert_eq!(back.train_len(), model.train_len());
        assert_eq!(back.train_contributions(), model.train_contributions());
        assert_eq!(
            back.embedding().points.len(),
            model.embedding().points.len()
        );
    }

    #[test]
    fn v1_and_v2_encodings_decode_to_identical_models() {
        let model = fitted();
        let v1 = encode_model_v1(&model);
        let v2 = encode_model(&model);
        assert_ne!(v1, v2, "the layouts must differ on the wire");
        let from_v1 = decode_model(&v1).unwrap();
        let from_v2 = decode_model(&v2).unwrap();
        // Both decode paths must agree bit-for-bit: re-encoding yields the
        // same canonical v2 bytes.
        assert_eq!(encode_model(&from_v1), encode_model(&from_v2));
        assert_eq!(encode_model(&from_v1), v2);
    }

    #[test]
    fn section_index_locates_and_verifies_every_section() {
        let model = fitted();
        let bytes = encode_model(&model);
        let index = parse_section_index(&bytes).unwrap();
        assert_eq!(index.entries().len(), 6);
        index.validate_bounds(bytes.len() as u64).unwrap();
        let mut end = index.header_len() as u64;
        for (entry, kind) in index.entries().iter().zip(SectionKind::ALL) {
            assert_eq!(entry.kind, kind);
            assert_eq!(entry.offset, end, "sections must be contiguous");
            end += entry.len;
            let payload = index.slice(&bytes, kind).unwrap();
            verify_section(entry, payload).unwrap();
        }
        assert_eq!(end as usize, bytes.len() - 8, "payloads end at the trailer");
        // The points section dominates and its length is derivable from the
        // index entry alone.
        let points = index.get(SectionKind::Points).unwrap();
        assert_eq!(
            points_len_from_entry(points),
            model.embedding().points.len()
        );
        // Peeks agree with the model.
        let graph_payload = index.slice(&bytes, SectionKind::Graph).unwrap();
        assert_eq!(
            peek_graph_counts(graph_payload).unwrap(),
            (model.node_count(), model.graph().edge_count())
        );
        let train_payload = index.slice(&bytes, SectionKind::Train).unwrap();
        assert_eq!(peek_train_len(train_payload).unwrap(), model.train_len());
        let config_payload = index.slice(&bytes, SectionKind::Config).unwrap();
        assert_eq!(
            decode_config_section(config_payload)
                .unwrap()
                .pattern_length,
            model.pattern_length()
        );
    }

    #[test]
    fn read_header_reads_only_the_header() {
        let model = fitted();
        let bytes = encode_model(&model);
        let index = parse_section_index(&bytes).unwrap();
        // A reader over *only* the header bytes suffices.
        let mut head = &bytes[..index.header_len()];
        let (version, parsed) = read_header(&mut head).unwrap();
        assert_eq!(version, 2);
        assert_eq!(parsed.unwrap(), index);
        // v1 files report no index.
        let v1 = encode_model_v1(&model);
        let (version, parsed) = read_header(&mut &v1[..]).unwrap();
        assert_eq!(version, 1);
        assert!(parsed.is_none());
    }

    #[test]
    fn decode_from_sections_matches_full_decode() {
        let model = fitted();
        let bytes = encode_model(&model);
        let index = parse_section_index(&bytes).unwrap();
        let take = |kind| index.slice(&bytes, kind).unwrap();
        let assembled = decode_model_from_sections(
            take(SectionKind::Config),
            take(SectionKind::Embedding),
            take(SectionKind::Points),
            take(SectionKind::Nodes),
            take(SectionKind::Graph),
            take(SectionKind::Train),
        )
        .unwrap();
        assert_eq!(encode_model(&assembled), bytes);
    }

    #[test]
    fn corrupted_sections_fail_independent_verification() {
        let model = fitted();
        let mut bytes = encode_model(&model);
        let index = parse_section_index(&bytes).unwrap();
        let entry = *index.require(SectionKind::Points).unwrap();
        bytes[entry.offset as usize + 10] ^= 0x40;
        let payload = index.slice(&bytes, SectionKind::Points).unwrap();
        assert!(matches!(
            verify_section(&entry, payload),
            Err(Error::ChecksumMismatch { .. })
        ));
        // Other sections still verify: the damage is localised.
        let graph = index.require(SectionKind::Graph).unwrap();
        verify_section(graph, index.slice(&bytes, SectionKind::Graph).unwrap()).unwrap();
    }

    #[test]
    fn lineage_round_trips_and_leaves_pristine_checksums_untouched() {
        let pristine = fitted();
        let pristine_bytes = encode_model(&pristine);

        let mut adapted = pristine.clone();
        adapted.set_lineage(Some(AdaptationLineage {
            parent_checksum: checksum_trailer(&pristine_bytes),
            update_count: 42,
            decay_lambda: 0.05,
        }));
        let adapted_bytes = encode_model(&adapted);
        // Adapted and pristine encodings differ only by the lineage tail.
        assert_eq!(adapted_bytes.len(), pristine_bytes.len() + 24);
        assert_ne!(
            checksum_trailer(&adapted_bytes),
            checksum_trailer(&pristine_bytes)
        );

        // Full decode restores the lineage bit-for-bit…
        let back = decode_model(&adapted_bytes).unwrap();
        let lineage = back.lineage().unwrap();
        assert_eq!(lineage.parent_checksum, checksum_trailer(&pristine_bytes));
        assert_eq!(lineage.update_count, 42);
        assert_eq!(lineage.decay_lambda.to_bits(), 0.05f64.to_bits());
        assert_eq!(encode_model(&back), adapted_bytes);
        // …and a pristine decode carries no lineage.
        assert!(decode_model(&pristine_bytes).unwrap().lineage().is_none());

        // The peek reads the lineage from the train payload alone.
        let index = parse_section_index(&adapted_bytes).unwrap();
        let train = index.slice(&adapted_bytes, SectionKind::Train).unwrap();
        let peeked = peek_train_lineage(train).unwrap().unwrap();
        assert_eq!(peeked, *back.lineage().unwrap());
        let pristine_index = parse_section_index(&pristine_bytes).unwrap();
        let pristine_train = pristine_index
            .slice(&pristine_bytes, SectionKind::Train)
            .unwrap();
        assert!(peek_train_lineage(pristine_train).unwrap().is_none());

        // The v1 layout carries the lineage too.
        let v1 = encode_model_v1(&adapted);
        assert_eq!(
            decode_model(&v1).unwrap().lineage(),
            back.lineage(),
            "v1 round-trip must preserve lineage"
        );
    }

    #[test]
    fn sigma_ratio_and_randomized_solver_round_trip() {
        let values: Vec<f64> = (0..2500)
            .map(|i| (std::f64::consts::TAU * i as f64 / 70.0).sin())
            .collect();
        let config = S2gConfig::new(35)
            .with_bandwidth(BandwidthRule::SigmaRatio(0.4))
            .with_pca_solver(PcaSolver::RandomizedSvd {
                oversample: 6,
                power_iterations: 2,
                seed: 99,
            })
            .with_smoothing(false);
        let model = Series2Graph::fit(&TimeSeries::from(values), &config).unwrap();
        let back = decode_model(&encode_model(&model)).unwrap();
        assert_eq!(back.config().bandwidth, BandwidthRule::SigmaRatio(0.4));
        assert_eq!(
            back.config().pca_solver,
            PcaSolver::RandomizedSvd {
                oversample: 6,
                power_iterations: 2,
                seed: 99
            }
        );
        assert!(!back.config().smooth_scores);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let model = fitted();
        let mut bytes = encode_model(&model);
        bytes[0] = b'X';
        assert!(matches!(decode_model(&bytes), Err(Error::Format(_))));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let model = fitted();
        let mut bytes = encode_model(&model);
        // Bump the version field and re-seal the checksum so only the version
        // check can fire.
        bytes[8] = 0xFF;
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            decode_model(&bytes),
            Err(Error::UnsupportedVersion {
                found: 0xFF,
                supported: FORMAT_VERSION
            })
        ));
    }

    /// A graph section payload over `node_count` nodes holding `edges`.
    fn graph_payload(node_count: usize, edges: &[(usize, usize, f64)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_usize(node_count);
        w.put_usize(edges.len());
        for &(from, to, weight) in edges {
            w.put_usize(from);
            w.put_usize(to);
            w.put_f64(weight);
        }
        w.buf
    }

    #[test]
    fn graph_section_refuses_what_no_writer_produces() {
        let refused = [
            (vec![(0, 1, 2.0), (1, 2, f64::NAN)], "graph.edge[1]"),
            (vec![(0, 1, -1.0)], "graph.edge[0]"),
            (vec![(1, 2, 2.0), (0, 1, 1.0)], "graph.edge[1]"),
            (vec![(0, 1, 2.0), (0, 1, 1.0)], "graph.edge[1]"),
        ];
        for (edges, name) in refused {
            let payload = graph_payload(3, &edges);
            match read_graph_section(&mut Reader::new(&payload), 3) {
                Err(Error::Format(msg)) => assert!(msg.starts_with(name), "{edges:?}: {msg}"),
                other => panic!("{edges:?} decoded: {other:?}"),
            }
        }
        // What a writer does produce, a zero weight from decay included.
        let edges = [(0, 0, 3.0), (0, 2, 0.0), (2, 1, 0.5)];
        let payload = graph_payload(3, &edges);
        let graph = read_graph_section(&mut Reader::new(&payload), 3).unwrap();
        let back: Vec<_> = graph.edges().map(|e| (e.from, e.to, e.weight)).collect();
        assert_eq!(back, edges);
        let mut w = Writer::new();
        write_graph_section(&mut w, &graph);
        assert_eq!(w.buf, payload);
    }

    #[test]
    fn flipped_bit_is_caught_by_checksum() {
        let model = fitted();
        let mut bytes = encode_model(&model);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            decode_model(&bytes),
            Err(Error::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        let model = fitted();
        for bytes in [encode_model(&model), encode_model_v1(&model)] {
            // Every prefix must fail cleanly — never panic, never succeed.
            for cut in [
                0,
                4,
                MAGIC.len(),
                MAGIC.len() + 4,
                FIXED_HEADER_LEN + 13,
                bytes.len() / 3,
                bytes.len() - 1,
            ] {
                assert!(
                    decode_model(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes accepted"
                );
            }
        }
    }
}
