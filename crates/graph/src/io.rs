//! Edge-list I/O: whitespace-separated text and a compact binary format.
//!
//! Both readers treat their input as **untrusted**: every failure mode on
//! arbitrary bytes — truncation, corrupted magic, lying length fields,
//! out-of-range endpoints — surfaces as a typed [`GraphIoError`] instead of
//! a panic or an unbounded allocation. The corrupt-input property tests in
//! `crates/graph/tests/corrupt_io.rs` enforce this contract.

use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use pbfs_json::Json;

use crate::{CsrGraph, VertexId};

/// Magic prefix of the binary format.
const MAGIC: &[u8; 8] = b"PBFSG1\0\0";

/// Edges decoded per read when streaming the binary payload. Bounds the
/// transient buffer regardless of what the (untrusted) header claims.
const EDGE_CHUNK: usize = 1 << 16;

/// Typed failure taxonomy for graph ingestion.
///
/// Every variant names what the reader observed so operators can tell a
/// truncated transfer from a corrupted file from a malformed export without
/// reproducing the input.
#[derive(Debug)]
pub enum GraphIoError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// The first 8 bytes did not match the `PBFSG1\0\0` magic.
    BadMagic {
        /// The bytes actually found where the magic was expected.
        found: [u8; 8],
    },
    /// The input ended inside the 24-byte binary header.
    TruncatedHeader {
        /// Header bytes that were present before EOF.
        read: usize,
    },
    /// The input ended before the edge count declared in the header.
    TruncatedPayload {
        /// Edges the header promised.
        expected_edges: usize,
        /// Whole edges actually decoded before EOF.
        read_edges: usize,
    },
    /// A declared count does not fit the implementation limits
    /// (32-bit vertex ids; edge payload must fit in `usize` bytes).
    CountOverflow {
        /// Which count overflowed: `"vertex"` or `"edge"`.
        what: &'static str,
        /// The declared value.
        value: u64,
    },
    /// An edge endpoint is outside the declared vertex count.
    EndpointOutOfRange {
        /// 1-based text line the endpoint was read from, when known.
        line: Option<usize>,
        /// 0-based edge index in the binary payload, when known.
        edge: Option<usize>,
        /// The offending endpoint.
        endpoint: u64,
        /// The declared vertex count it must stay below.
        num_vertices: usize,
    },
    /// A text line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong on that line.
        message: String,
    },
    /// Prebuilt CSR offsets are not monotone starting at zero.
    NonMonotoneOffsets {
        /// Index of the first offending offset.
        index: usize,
    },
    /// The final CSR offset disagrees with the target-array length.
    OffsetTargetMismatch {
        /// `offsets.last()` as declared.
        declared: u64,
        /// Actual number of targets.
        targets: usize,
    },
    /// A failpoint fired (only with the `failpoints` feature enabled).
    Injected {
        /// The failpoint site that injected this error.
        site: &'static str,
    },
}

impl GraphIoError {
    /// Constructs the error a firing I/O failpoint injects.
    pub fn injected(site: &'static str) -> Self {
        GraphIoError::Injected { site }
    }
}

impl fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "i/o error: {e}"),
            GraphIoError::BadMagic { found } => {
                write!(f, "bad magic: expected {MAGIC:?}, found {found:?}")
            }
            GraphIoError::TruncatedHeader { read } => {
                write!(f, "truncated header: {read} of 24 bytes present")
            }
            GraphIoError::TruncatedPayload {
                expected_edges,
                read_edges,
            } => write!(
                f,
                "truncated payload: header declared {expected_edges} edges, \
                 input ended after {read_edges}"
            ),
            GraphIoError::CountOverflow { what, value } => {
                write!(f, "{what} count {value} exceeds implementation limits")
            }
            GraphIoError::EndpointOutOfRange {
                line,
                edge,
                endpoint,
                num_vertices,
            } => {
                write!(
                    f,
                    "edge endpoint {endpoint} out of range for {num_vertices} vertices"
                )?;
                if let Some(line) = line {
                    write!(f, " (line {line})")?;
                }
                if let Some(edge) = edge {
                    write!(f, " (edge {edge})")?;
                }
                Ok(())
            }
            GraphIoError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphIoError::NonMonotoneOffsets { index } => {
                write!(f, "CSR offsets not monotone starting at 0 (index {index})")
            }
            GraphIoError::OffsetTargetMismatch { declared, targets } => write!(
                f,
                "CSR offsets declare {declared} targets but {targets} are present"
            ),
            GraphIoError::Injected { site } => {
                write!(f, "injected fault at failpoint `{site}`")
            }
        }
    }
}

impl std::error::Error for GraphIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphIoError {
    fn from(e: io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

/// Result alias for graph I/O operations.
pub type IoResult<T> = std::result::Result<T, GraphIoError>;

/// Metadata describing a stored graph (written as a JSON side-car by the
/// experiment harness).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphMeta {
    /// Human-readable dataset name (e.g. `kronecker-s20`).
    pub name: String,
    /// Generator description / provenance.
    pub source: String,
    /// Vertices including isolated ones.
    pub num_vertices: usize,
    /// Undirected edges after cleanup.
    pub num_edges: usize,
    /// Seed used for generation (0 when not applicable).
    pub seed: u64,
}

pbfs_json::to_json_struct!(GraphMeta {
    name,
    source,
    num_vertices,
    num_edges,
    seed
});

impl GraphMeta {
    /// Reconstructs metadata from the JSON produced by
    /// [`pbfs_json::ToJson::to_json`]; `None` on missing/ill-typed fields.
    pub fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            name: v["name"].as_str()?.to_string(),
            source: v["source"].as_str()?.to_string(),
            num_vertices: v["num_vertices"].as_u64()? as usize,
            num_edges: v["num_edges"].as_u64()? as usize,
            seed: v["seed"].as_u64()?,
        })
    }
}

/// Reads into `buf` until it is full or the input is exhausted, retrying
/// interrupted reads. Returns the number of bytes filled.
fn read_up_to<R: Read>(input: &mut R, buf: &mut [u8]) -> IoResult<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(GraphIoError::Io(e)),
        }
    }
    Ok(filled)
}

/// Writes `g` as text: a `# vertices <n>` header line followed by one
/// `u v` pair per undirected edge.
pub fn write_text<W: Write>(g: &CsrGraph, out: W) -> IoResult<()> {
    let mut out = BufWriter::new(out);
    writeln!(out, "# vertices {}", g.num_vertices())?;
    for (u, v) in g.edges() {
        writeln!(out, "{u} {v}")?;
    }
    out.flush()?;
    Ok(())
}

/// Reads the text format produced by [`write_text`]. Lines starting with
/// `#` other than the header are skipped; the vertex count is the header
/// value or, absent a header, one past the maximum endpoint.
///
/// Every malformed line is a typed error carrying its 1-based line number,
/// and an endpoint at or beyond a declared `# vertices <n>` header is
/// rejected as [`GraphIoError::EndpointOutOfRange`] rather than silently
/// accepted.
pub fn read_text<R: Read>(input: R) -> IoResult<CsrGraph> {
    crate::fail_point!(
        "graph.io.read_text",
        Err(GraphIoError::injected("graph.io.read_text"))
    );
    let reader = BufReader::new(input);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut num_vertices: Option<usize> = None;
    // Track the maximum endpoint and the line it appeared on so a header
    // that arrives *after* its offending edge still yields a precise error.
    let mut max_seen: usize = 0;
    let mut max_line: usize = 0;
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            if parts.next() == Some("vertices") {
                let token = parts.next().ok_or_else(|| GraphIoError::Parse {
                    line: lineno,
                    message: "header `# vertices` missing a count".to_string(),
                })?;
                let n: usize = token.parse().map_err(|e| GraphIoError::Parse {
                    line: lineno,
                    message: format!("bad vertex count `{token}`: {e}"),
                })?;
                num_vertices = Some(n);
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse = |s: Option<&str>| -> IoResult<VertexId> {
            let s = s.ok_or_else(|| GraphIoError::Parse {
                line: lineno,
                message: "missing endpoint".to_string(),
            })?;
            s.parse().map_err(|e| GraphIoError::Parse {
                line: lineno,
                message: format!("bad endpoint `{s}`: {e}"),
            })
        };
        let u = parse(parts.next())?;
        let v = parse(parts.next())?;
        let hi = u.max(v) as usize;
        if hi > max_seen || max_line == 0 {
            max_seen = hi;
            max_line = lineno;
        }
        edges.push((u, v));
    }
    if let Some(n) = num_vertices {
        if !edges.is_empty() && max_seen >= n {
            return Err(GraphIoError::EndpointOutOfRange {
                line: Some(max_line),
                edge: None,
                endpoint: max_seen as u64,
                num_vertices: n,
            });
        }
    }
    let n = num_vertices.unwrap_or(if edges.is_empty() { 0 } else { max_seen + 1 });
    if n > u32::MAX as usize {
        return Err(GraphIoError::CountOverflow {
            what: "vertex",
            value: n as u64,
        });
    }
    Ok(CsrGraph::from_edges(n, &edges))
}

/// Writes `g` in the binary format: magic, vertex count, undirected edge
/// count, then little-endian `u32` endpoint pairs.
pub fn write_binary<W: Write>(g: &CsrGraph, out: W) -> IoResult<()> {
    let mut out = BufWriter::new(out);
    let mut header = Vec::with_capacity(24);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    header.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
    out.write_all(&header)?;
    let mut buf = Vec::with_capacity(8 * 1024);
    for (u, v) in g.edges() {
        buf.extend_from_slice(&u.to_le_bytes());
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() >= 8 * 1024 {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    out.write_all(&buf)?;
    out.flush()?;
    Ok(())
}

/// Reads the binary format produced by [`write_binary`].
///
/// The declared edge count is *not* trusted: the payload is streamed in
/// bounded chunks (a lying length field cannot trigger a huge upfront
/// allocation), every endpoint is validated against the declared vertex
/// count, and a short read yields [`GraphIoError::TruncatedPayload`] with
/// exact progress instead of a panic.
pub fn read_binary<R: Read>(mut input: R) -> IoResult<CsrGraph> {
    crate::fail_point!(
        "graph.io.read_binary",
        Err(GraphIoError::injected("graph.io.read_binary"))
    );
    let mut header = [0u8; 24];
    let got = read_up_to(&mut input, &mut header)?;
    if got < header.len() {
        return Err(GraphIoError::TruncatedHeader { read: got });
    }
    let field = |at: usize| -> [u8; 8] { std::array::from_fn(|i| header[at + i]) };
    let magic = field(0);
    if &magic != MAGIC {
        return Err(GraphIoError::BadMagic { found: magic });
    }
    let (n64, m64) = (u64::from_le_bytes(field(8)), u64::from_le_bytes(field(16)));
    if n64 > u32::MAX as u64 {
        return Err(GraphIoError::CountOverflow {
            what: "vertex",
            value: n64,
        });
    }
    let n = n64 as usize;
    let m = usize::try_from(m64)
        .ok()
        .filter(|m| m.checked_mul(8).is_some())
        .ok_or(GraphIoError::CountOverflow {
            what: "edge",
            value: m64,
        })?;
    // Capacity is capped: growth past the cap only happens as real bytes
    // arrive, so a fabricated edge count cannot reserve memory it never
    // delivers.
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(m.min(1 << 20));
    let mut buf = vec![0u8; EDGE_CHUNK.min(m.max(1)) * 8];
    let mut remaining = m;
    while remaining > 0 {
        let take = remaining.min(EDGE_CHUNK);
        let want = take * 8;
        let got = read_up_to(&mut input, &mut buf[..want])?;
        let whole = got / 8;
        for pair in buf[..whole * 8].chunks_exact(8) {
            let id = |at: usize| u32::from_le_bytes(std::array::from_fn(|i| pair[at + i]));
            let (u, v) = (id(0), id(4));
            let hi = u.max(v);
            if hi as usize >= n {
                return Err(GraphIoError::EndpointOutOfRange {
                    line: None,
                    edge: Some(edges.len()),
                    endpoint: hi as u64,
                    num_vertices: n,
                });
            }
            edges.push((u, v));
        }
        if got < want {
            return Err(GraphIoError::TruncatedPayload {
                expected_edges: m,
                read_edges: edges.len(),
            });
        }
        remaining -= take;
    }
    Ok(CsrGraph::from_edges(n, &edges))
}

/// Convenience: writes the binary format to `path`.
pub fn save(g: &CsrGraph, path: impl AsRef<Path>) -> IoResult<()> {
    write_binary(g, std::fs::File::create(path)?)
}

/// Convenience: reads the binary format from `path`.
pub fn load(path: impl AsRef<Path>) -> IoResult<CsrGraph> {
    read_binary(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn roundtrip_text(g: &CsrGraph) -> CsrGraph {
        let mut buf = Vec::new();
        write_text(g, &mut buf).unwrap();
        read_text(&buf[..]).unwrap()
    }

    fn roundtrip_binary(g: &CsrGraph) -> CsrGraph {
        let mut buf = Vec::new();
        write_binary(g, &mut buf).unwrap();
        read_binary(&buf[..]).unwrap()
    }

    #[test]
    fn text_roundtrip() {
        let g = gen::uniform(50, 120, 1);
        let h = roundtrip_text(&g);
        assert_eq!(g.num_vertices(), h.num_vertices());
        assert_eq!(g.offsets(), h.offsets());
        assert_eq!(g.targets(), h.targets());
    }

    #[test]
    fn binary_roundtrip() {
        let g = gen::Kronecker::graph500(8).seed(4).generate();
        let h = roundtrip_binary(&g);
        assert_eq!(g.offsets(), h.offsets());
        assert_eq!(g.targets(), h.targets());
    }

    #[test]
    fn roundtrip_preserves_isolated_vertices() {
        let g = CsrGraph::from_edges(10, &[(0, 1)]);
        assert_eq!(roundtrip_text(&g).num_vertices(), 10);
        assert_eq!(roundtrip_binary(&g).num_vertices(), 10);
    }

    #[test]
    fn text_without_header_infers_vertex_count() {
        let input = b"0 3\n1 2\n";
        let g = read_text(&input[..]).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn text_skips_comments_and_blank_lines() {
        let input = b"# vertices 5\n# a comment\n\n0 4\n";
        let g = read_text(&input[..]).unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert!(g.has_edge(0, 4));
    }

    #[test]
    fn malformed_text_errors_carry_line_numbers() {
        match read_text(&b"0 1\n0\n"[..]) {
            Err(GraphIoError::Parse { line: 2, .. }) => {}
            other => panic!("expected Parse at line 2, got {other:?}"),
        }
        match read_text(&b"a b\n"[..]) {
            Err(GraphIoError::Parse { line: 1, .. }) => {}
            other => panic!("expected Parse at line 1, got {other:?}"),
        }
    }

    #[test]
    fn text_rejects_endpoint_beyond_declared_header() {
        // 7 >= 4: must be a typed error naming the offending line, not a
        // silently grown graph.
        match read_text(&b"# vertices 4\n0 1\n2 7\n"[..]) {
            Err(GraphIoError::EndpointOutOfRange {
                line: Some(3),
                endpoint: 7,
                num_vertices: 4,
                ..
            }) => {}
            other => panic!("expected EndpointOutOfRange at line 3, got {other:?}"),
        }
        // Header after the edges must still be enforced.
        assert!(matches!(
            read_text(&b"0 9\n# vertices 4\n"[..]),
            Err(GraphIoError::EndpointOutOfRange { .. })
        ));
    }

    #[test]
    fn text_rejects_malformed_header_count() {
        assert!(matches!(
            read_text(&b"# vertices nope\n0 1\n"[..]),
            Err(GraphIoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn bad_magic_errors() {
        let buf = [0u8; 24];
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphIoError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncated_binary_errors() {
        let g = gen::path(4);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphIoError::TruncatedPayload { .. })
        ));
        assert!(matches!(
            read_binary(&buf[..10]),
            Err(GraphIoError::TruncatedHeader { read: 10 })
        ));
    }

    #[test]
    fn binary_length_lie_does_not_allocate_or_panic() {
        // Header claims u64::MAX edges with an empty payload: must fail
        // fast with a typed error, not attempt a multi-exabyte allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphIoError::CountOverflow { what: "edge", .. })
        ));
        // A large-but-representable lie streams until EOF then reports
        // exact progress.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        match read_binary(&buf[..]) {
            Err(GraphIoError::TruncatedPayload {
                expected_edges,
                read_edges: 1,
            }) => assert_eq!(expected_edges, 1 << 40),
            other => panic!("expected TruncatedPayload, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_out_of_range_endpoint() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&3u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes());
        match read_binary(&buf[..]) {
            Err(GraphIoError::EndpointOutOfRange {
                edge: Some(0),
                endpoint: 7,
                num_vertices: 3,
                ..
            }) => {}
            other => panic!("expected EndpointOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_oversized_vertex_count() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphIoError::CountOverflow { what: "vertex", .. })
        ));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(roundtrip_binary(&g).num_vertices(), 0);
        assert_eq!(roundtrip_text(&g).num_vertices(), 0);
    }

    #[test]
    fn save_and_load_files() {
        let dir = std::env::temp_dir().join("pbfs-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let g = gen::cycle(12);
        save(&g, &path).unwrap();
        let h = load(&path).unwrap();
        assert_eq!(g.targets(), h.targets());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn meta_serializes() {
        let meta = GraphMeta {
            name: "kronecker-s8".into(),
            source: "Kronecker::graph500(8)".into(),
            num_vertices: 256,
            num_edges: 4096,
            seed: 4,
        };
        use pbfs_json::ToJson;
        let json = meta.to_json().to_string();
        let back = GraphMeta::from_json(&pbfs_json::parse(&json).unwrap()).unwrap();
        assert_eq!(meta, back);
    }
}
