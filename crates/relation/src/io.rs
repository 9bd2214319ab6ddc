//! Ingesting delimited text data into dictionary-encoded relations.
//!
//! Real datasets arrive as CSV/TSV-like text.  [`read_delimited`] parses
//! in-memory text into a [`Catalog`] (attribute names from the header, one
//! value dictionary per attribute) and a [`Relation`] of dictionary codes,
//! which is the representation every analysis in this workspace operates on;
//! [`read_delimited_from`] does the same for a file on disk, **streaming**
//! line by line through a `BufReader` straight into [`Relation::push_row`]
//! so large datasets never need to be slurped into one string first.
//! [`read_delimited_sharded`] streams the same way but cuts the rows into a
//! [`ShardedRelation`] under a [`ShardPolicy`], so an input larger than one
//! flat buffer should hold lands directly in shard-local storage — no flat
//! row buffer is ever built (`distinct` reads are the one exception: global
//! dedup keeps an in-memory set of the distinct rows, see
//! [`read_delimited_sharded`]).  [`write_delimited`] renders a relation
//! back to text using a catalog, and [`write_delimited_to`] streams it to a
//! file.
//!
//! Degenerate inputs are well-formed, not errors: a header-only input
//! yields the empty relation over the header's schema, and an entirely
//! empty input yields the empty relation over the empty schema — the same
//! answers for the flat and the sharded reader (pinned by regression
//! tests).
//!
//! The parser is deliberately small: one character delimiter, no quoting, no
//! escaping — sufficient for the synthetic and benchmark datasets used here.
//! Anything fancier should be converted externally first.

use crate::catalog::Catalog;
use crate::error::{RelationError, Result};
use crate::hash::FxHashSet;
use crate::relation::{Relation, Value};
use crate::shard::ShardedRelation;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write as IoWrite};
use std::path::Path;

/// Options for [`read_delimited`] / [`read_delimited_from`].
#[derive(Debug, Clone, Copy)]
pub struct ReadOptions {
    /// Field delimiter (`,` for CSV, `\t` for TSV).
    pub delimiter: char,
    /// Whether the first non-empty line is a header of attribute names.
    /// Without a header, attributes are named `X0, X1, …`.
    pub has_header: bool,
    /// Whether duplicate rows should be dropped (set semantics).
    pub distinct: bool,
    /// Whether leading/trailing whitespace of each field is trimmed.
    pub trim: bool,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            delimiter: ',',
            has_header: true,
            distinct: false,
            trim: true,
        }
    }
}

/// How [`read_delimited_sharded`] cuts the streamed rows into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Cut a new shard after every `n` ingested rows (clamped to at least
    /// one row per shard; the final shard holds the remainder).  With
    /// `distinct` reads, only *kept* rows count towards the quota.
    RowCount(usize),
}

impl ShardPolicy {
    /// Rows each full shard holds under this policy.
    fn rows_per_shard(self) -> usize {
        match self {
            ShardPolicy::RowCount(n) => n.max(1),
        }
    }
}

/// Where encoded rows land: the flat and sharded readers share the whole
/// line-splitting / catalog-encoding pipeline of [`read_lines`] and differ
/// only in this sink.
trait RowSink {
    /// The finished product ([`Relation`] or [`ShardedRelation`]).
    type Out;

    /// Called exactly once, as soon as the schema (header or positional
    /// names) is known — also for inputs with no data rows, so degenerate
    /// inputs still produce a well-formed empty result.
    fn init(&mut self, schema: Vec<crate::AttrId>) -> Result<()>;

    /// One encoded data row.
    fn push(&mut self, row: &[Value]) -> Result<()>;

    /// Finishes the build (flushing any partial shard).
    fn finish(self) -> Result<Self::Out>;
}

/// Sink of the flat readers: one [`Relation`], optional post-hoc dedup.
struct FlatSink {
    distinct: bool,
    relation: Option<Relation>,
}

impl FlatSink {
    fn new(distinct: bool) -> Self {
        FlatSink {
            distinct,
            relation: None,
        }
    }
}

impl RowSink for FlatSink {
    type Out = Relation;

    fn init(&mut self, schema: Vec<crate::AttrId>) -> Result<()> {
        self.relation = Some(Relation::new(schema)?);
        Ok(())
    }

    fn push(&mut self, row: &[Value]) -> Result<()> {
        self.relation
            .as_mut()
            .expect("init runs before the first row")
            .push_row(row)
    }

    fn finish(self) -> Result<Relation> {
        let relation = self.relation.expect("init runs even for empty input");
        Ok(if self.distinct {
            relation.distinct()
        } else {
            relation
        })
    }
}

/// Sink of the sharded reader: rows accumulate in a current shard that is
/// sealed into the [`ShardedRelation`] whenever the policy quota fills.
/// `distinct` dedups **streaming** (first occurrence kept, like the flat
/// reader's post-hoc dedup) so duplicate rows never inflate a shard.
struct ShardedSink {
    distinct: bool,
    rows_per_shard: usize,
    schema: Vec<crate::AttrId>,
    seen: FxHashSet<Box<[Value]>>,
    current: Option<Relation>,
    out: Option<ShardedRelation>,
}

impl ShardedSink {
    fn new(distinct: bool, policy: ShardPolicy) -> Self {
        ShardedSink {
            distinct,
            rows_per_shard: policy.rows_per_shard(),
            schema: Vec::new(),
            seen: FxHashSet::default(),
            current: None,
            out: None,
        }
    }
}

impl RowSink for ShardedSink {
    type Out = ShardedRelation;

    fn init(&mut self, schema: Vec<crate::AttrId>) -> Result<()> {
        self.out = Some(ShardedRelation::new(schema.clone())?);
        self.schema = schema;
        Ok(())
    }

    fn push(&mut self, row: &[Value]) -> Result<()> {
        if self.distinct {
            // Probe before boxing: a duplicate row (the common case on
            // highly-duplicated streams) must not cost a heap allocation.
            if self.seen.contains(row) {
                return Ok(());
            }
            self.seen.insert(row.to_vec().into_boxed_slice());
        }
        if self.current.is_none() {
            self.current = Some(Relation::with_capacity(
                self.schema.clone(),
                self.rows_per_shard,
            )?);
        }
        let current = self.current.as_mut().expect("just installed above");
        current.push_row(row)?;
        if current.len() >= self.rows_per_shard {
            let full = self.current.take().expect("just pushed into it");
            self.out
                .as_mut()
                .expect("init runs before the first row")
                .append_shard(full)?;
        }
        Ok(())
    }

    fn finish(mut self) -> Result<ShardedRelation> {
        let mut out = self.out.expect("init runs even for empty input");
        if let Some(tail) = self.current.take() {
            out.append_shard(tail)?;
        }
        Ok(out)
    }
}

/// Converts an I/O error into the crate error type, recording the path.
fn io_error(path: &Path, err: std::io::Error) -> RelationError {
    RelationError::Io {
        path: path.display().to_string(),
        detail: err.to_string(),
    }
}

/// Wraps a line iterator so that **only the final line** sheds a single
/// trailing `'\r'`.
///
/// `str::lines` / `BufRead::lines` consume `\r\n` pairs, so an interior
/// line can only end in `'\r'` if that `'\r'` is field data (e.g. the
/// bytes `b"x\r\r\n"` are the field `x\r`) — stripping there would corrupt
/// it.  The one place a *line-ending* `'\r'` survives the line splitters
/// is a CRLF file whose final line hits EOF without a `'\n'`; that is the
/// only line this adapter touches.
fn strip_final_carriage_return<'s, I>(lines: I) -> impl Iterator<Item = Result<Cow<'s, str>>>
where
    I: Iterator<Item = Result<Cow<'s, str>>>,
{
    let mut lines = lines.peekable();
    std::iter::from_fn(move || {
        let line = lines.next()?;
        let is_last = lines.peek().is_none();
        Some(line.map(|l| {
            if is_last && l.ends_with('\r') {
                // '\r' is one byte, so the slice boundary is valid.
                match l {
                    Cow::Borrowed(s) => Cow::Borrowed(&s[..s.len() - 1]),
                    Cow::Owned(mut s) => {
                        s.pop();
                        Cow::Owned(s)
                    }
                }
            } else {
                l
            }
        }))
    })
}

/// The streaming core shared by every reader (in-memory, file-based, flat,
/// sharded): pulls lines one at a time, builds the catalog from the first
/// non-empty line (or positional names), and pushes every encoded data row
/// straight into the [`RowSink`].
///
/// Inputs with no data rows are not errors: a header-only input initialises
/// the sink with the header's schema, and an entirely empty input
/// initialises it with the empty schema — either way the sink finishes into
/// a well-formed empty relation.
///
/// Lines arrive as `Cow<str>` so the in-memory reader lends borrowed
/// slices (no per-line copy) while the file reader hands over the owned
/// `String`s its `BufReader` produces.
fn read_lines<'s, I, K>(lines: I, options: ReadOptions, mut sink: K) -> Result<(Catalog, K::Out)>
where
    I: Iterator<Item = Result<Cow<'s, str>>>,
    K: RowSink,
{
    let mut lines = strip_final_carriage_return(lines).filter(|l| match l {
        Ok(l) => !l.trim().is_empty(),
        Err(_) => true,
    });

    let split = |line: &str| -> Vec<String> {
        line.split(options.delimiter)
            .map(|f| {
                if options.trim {
                    f.trim().to_owned()
                } else {
                    f.to_owned()
                }
            })
            .collect()
    };

    let Some(first) = lines.next().transpose()? else {
        // No lines at all: nothing declares a schema, so the well-formed
        // result is the empty relation over the empty schema.
        sink.init(Vec::new())?;
        return Ok((Catalog::new(), sink.finish()?));
    };
    let first_fields = split(&first);
    if first_fields.iter().any(String::is_empty) {
        return Err(RelationError::EmptyInput("empty field in first row"));
    }

    let (mut catalog, mut pending_first_row): (Catalog, Option<Vec<String>>) = if options.has_header
    {
        (
            Catalog::with_attributes(first_fields.iter().map(String::as_str))?,
            None,
        )
    } else {
        let names: Vec<String> = (0..first_fields.len()).map(|i| format!("X{i}")).collect();
        (
            Catalog::with_attributes(names.iter().map(String::as_str))?,
            Some(first_fields),
        )
    };

    let arity = catalog.arity();
    let schema: Vec<crate::AttrId> = (0..arity).map(crate::AttrId::from).collect();
    sink.init(schema)?;
    let push = |catalog: &mut Catalog, sink: &mut K, fields: &[String]| -> Result<()> {
        if fields.len() != arity {
            return Err(RelationError::ArityMismatch {
                expected: arity,
                got: fields.len(),
            });
        }
        let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        let row = catalog.encode_row(&refs)?;
        sink.push(&row)
    };

    if let Some(fields) = pending_first_row.take() {
        push(&mut catalog, &mut sink, &fields)?;
    }
    for line in lines {
        let fields = split(&line?);
        push(&mut catalog, &mut sink, &fields)?;
    }

    Ok((catalog, sink.finish()?))
}

/// Parses delimited text into a catalog and a dictionary-encoded relation.
///
/// Empty lines are skipped.  Every data row must have exactly as many fields
/// as the header (or as the first data row when there is no header).  A
/// header-only input yields the empty relation over the header's schema; an
/// entirely empty input yields the empty relation over the empty schema.
pub fn read_delimited(text: &str, options: ReadOptions) -> Result<(Catalog, Relation)> {
    read_lines(
        text.lines().map(|l| Ok(Cow::Borrowed(l))),
        options,
        FlatSink::new(options.distinct),
    )
}

/// Reads a delimited file into a catalog and a dictionary-encoded relation,
/// streaming line by line through a `BufReader` (the file is never held in
/// memory as a whole).
///
/// I/O failures surface as [`RelationError::Io`]; parse failures are the
/// same errors [`read_delimited`] produces, and degenerate inputs (empty
/// file, header-only file) yield the same well-formed empty relations.
pub fn read_delimited_from<P: AsRef<Path>>(
    path: P,
    options: ReadOptions,
) -> Result<(Catalog, Relation)> {
    let path = path.as_ref();
    let file = File::open(path).map_err(|e| io_error(path, e))?;
    let reader = BufReader::new(file);
    read_lines(
        reader
            .lines()
            .map(|l| l.map(Cow::Owned).map_err(|e| io_error(path, e))),
        options,
        FlatSink::new(options.distinct),
    )
}

/// Reads a delimited file straight into a [`ShardedRelation`], streaming
/// line by line and cutting shards under the given [`ShardPolicy`] — the
/// ingestion path for inputs that should never be materialised as one flat
/// buffer.
///
/// The result is row-for-row (and dictionary-for-dictionary) equivalent to
/// [`read_delimited_from`] followed by [`Relation::into_shards`]: collecting
/// the shards reproduces the flat read exactly, and every grouping over the
/// sharded relation is bit-identical to the flat one.
///
/// `options.distinct` dedups during the stream (first occurrence kept), so
/// only kept rows count towards the shard quota.  Global dedup is
/// inherently global state: the reader keeps one in-memory set of the
/// distinct rows seen so far (O(distinct rows × arity)).  For streams whose
/// *distinct* tuples exceed memory, read with `distinct: false` and dedup
/// analytically instead ([`crate::ShardedRelation::distinct`], or grouping,
/// which never materialises duplicate rows).
pub fn read_delimited_sharded<P: AsRef<Path>>(
    path: P,
    options: ReadOptions,
    policy: ShardPolicy,
) -> Result<(Catalog, ShardedRelation)> {
    let path = path.as_ref();
    let file = File::open(path).map_err(|e| io_error(path, e))?;
    let reader = BufReader::new(file);
    read_lines(
        reader
            .lines()
            .map(|l| l.map(Cow::Owned).map_err(|e| io_error(path, e))),
        options,
        ShardedSink::new(options.distinct, policy),
    )
}

/// Renders one row through the catalog, falling back to numeric codes for
/// values without a label.
fn render_row(catalog: &Catalog, relation: &Relation, row: &[u32], delimiter: char) -> String {
    let rendered: Vec<String> = relation
        .schema()
        .iter()
        .zip(row)
        .map(|(&a, &v)| {
            catalog
                .value_label(a, v)
                .map(str::to_owned)
                .unwrap_or_else(|| v.to_string())
        })
        .collect();
    rendered.join(&delimiter.to_string())
}

/// Renders a relation back to delimited text using the catalog's labels.
///
/// Values without a label (codes produced outside the catalog) are rendered
/// as their numeric code.
pub fn write_delimited(catalog: &Catalog, relation: &Relation, delimiter: char) -> Result<String> {
    let mut out = String::new();
    let names: Vec<&str> = relation
        .schema()
        .iter()
        .map(|&a| catalog.name(a))
        .collect::<Result<_>>()?;
    let _ = writeln!(out, "{}", names.join(&delimiter.to_string()));
    for row in relation.iter_rows() {
        let _ = writeln!(out, "{}", render_row(catalog, relation, &row, delimiter));
    }
    Ok(out)
}

/// Streams a relation to a delimited file through a `BufWriter`, row by row
/// (the counterpart of [`read_delimited_from`]).
///
/// I/O failures surface as [`RelationError::Io`].
pub fn write_delimited_to<P: AsRef<Path>>(
    path: P,
    catalog: &Catalog,
    relation: &Relation,
    delimiter: char,
) -> Result<()> {
    let path = path.as_ref();
    let file = File::create(path).map_err(|e| io_error(path, e))?;
    let mut writer = BufWriter::new(file);
    let names: Vec<&str> = relation
        .schema()
        .iter()
        .map(|&a| catalog.name(a))
        .collect::<Result<_>>()?;
    writeln!(writer, "{}", names.join(&delimiter.to_string())).map_err(|e| io_error(path, e))?;
    for row in relation.iter_rows() {
        writeln!(writer, "{}", render_row(catalog, relation, &row, delimiter))
            .map_err(|e| io_error(path, e))?;
    }
    writer.flush().map_err(|e| io_error(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrId;

    const SAMPLE: &str = "\
city,country,continent
haifa,israel,asia
seattle,usa,america
haifa,israel,asia
paris,france,europe
";

    /// A scratch file path unique to this process and test.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ajd_io_test_{}_{tag}.csv", std::process::id()))
    }

    #[test]
    fn read_with_header_builds_catalog_and_relation() {
        let (catalog, r) = read_delimited(SAMPLE, ReadOptions::default()).unwrap();
        assert_eq!(catalog.arity(), 3);
        assert_eq!(catalog.attr("country").unwrap(), AttrId(1));
        assert_eq!(r.len(), 4);
        assert_eq!(r.arity(), 3);
        // haifa row appears twice (no dedup by default).
        assert!(!r.is_set());
        assert_eq!(catalog.value_label(AttrId(0), 0), Some("haifa"));
    }

    #[test]
    fn read_distinct_drops_duplicates() {
        let (_c, r) = read_delimited(
            SAMPLE,
            ReadOptions {
                distinct: true,
                ..ReadOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.is_set());
    }

    #[test]
    fn read_without_header_names_attributes_positionally() {
        let text = "1\t2\n3\t4\n";
        let (catalog, r) = read_delimited(
            text,
            ReadOptions {
                delimiter: '\t',
                has_header: false,
                ..ReadOptions::default()
            },
        )
        .unwrap();
        assert_eq!(catalog.name(AttrId(0)).unwrap(), "X0");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let text = "a,b\n1,2\n3\n";
        assert!(read_delimited(text, ReadOptions::default()).is_err());
    }

    /// Regression (degenerate inputs): an entirely empty input — no header,
    /// no rows — is a well-formed empty relation over the empty schema, not
    /// an error, for the in-memory, file and sharded readers alike.
    #[test]
    fn empty_input_yields_empty_relation() {
        for text in ["", "\n\n", "   \n"] {
            let (catalog, r) = read_delimited(text, ReadOptions::default()).unwrap();
            assert_eq!(catalog.arity(), 0);
            assert_eq!(r.arity(), 0);
            assert!(r.is_empty());

            let path = temp_path("empty_input");
            std::fs::write(&path, text).unwrap();
            let (catalog_f, r_f) = read_delimited_from(&path, ReadOptions::default()).unwrap();
            assert_eq!(catalog_f.arity(), 0);
            assert!(r_f.is_empty());
            let (catalog_s, s) =
                read_delimited_sharded(&path, ReadOptions::default(), ShardPolicy::RowCount(2))
                    .unwrap();
            assert_eq!(catalog_s.arity(), 0);
            assert!(s.is_empty());
            assert_eq!(s.num_shards(), 0);
            assert!(s.collect().unwrap().is_empty());
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Regression (degenerate inputs): a header-only input declares a schema
    /// and yields the empty relation **over that schema** — again for all
    /// three readers, with or without `distinct`.
    #[test]
    fn header_only_input_yields_empty_relation_over_the_declared_schema() {
        for text in ["city,country\n", "city,country", "city,country\r\n\n"] {
            for distinct in [false, true] {
                let options = ReadOptions {
                    distinct,
                    ..ReadOptions::default()
                };
                let (catalog, r) = read_delimited(text, options).unwrap();
                assert_eq!(catalog.arity(), 2);
                assert_eq!(catalog.attr("country").unwrap(), AttrId(1));
                assert_eq!(r.arity(), 2);
                assert!(r.is_empty());

                let path = temp_path("header_only");
                std::fs::write(&path, text).unwrap();
                let (catalog_f, r_f) = read_delimited_from(&path, options).unwrap();
                assert_eq!(catalog_f.arity(), 2);
                assert!(r_f.is_empty());
                assert_eq!(r_f.arity(), 2);
                let (catalog_s, s) =
                    read_delimited_sharded(&path, options, ShardPolicy::RowCount(3)).unwrap();
                assert_eq!(catalog_s.arity(), 2);
                assert!(s.is_empty());
                assert_eq!(s.arity(), 2);
                assert_eq!(s.num_shards(), 0);
                let back = s.collect().unwrap();
                assert!(back.is_empty());
                assert_eq!(back.schema(), r_f.schema());
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// The sharded reader is equivalent to the flat reader: collecting the
    /// shards reproduces the flat read byte for byte (rows, schema and
    /// dictionary code columns), at every shard size.
    #[test]
    fn sharded_reader_matches_flat_reader() {
        let path = temp_path("sharded_reader");
        std::fs::write(&path, SAMPLE).unwrap();
        let (flat_catalog, flat) = read_delimited_from(&path, ReadOptions::default()).unwrap();
        for rows_per_shard in [1usize, 2, 3, 100] {
            let (catalog, sharded) = read_delimited_sharded(
                &path,
                ReadOptions::default(),
                ShardPolicy::RowCount(rows_per_shard),
            )
            .unwrap();
            assert_eq!(catalog.arity(), flat_catalog.arity());
            assert_eq!(sharded.len(), flat.len());
            assert_eq!(sharded.num_shards(), flat.len().div_ceil(rows_per_shard));
            let back = sharded.collect().unwrap();
            assert_eq!(back.schema(), flat.schema());
            for (a, b) in back.iter_rows().zip(flat.iter_rows()) {
                assert_eq!(a, b);
            }
            for &attr in flat.schema() {
                assert_eq!(
                    back.column_codes(attr).unwrap(),
                    flat.column_codes(attr).unwrap()
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// `distinct` reads dedup identically in the flat and sharded readers
    /// (first occurrence kept), and only kept rows fill shard quotas.
    #[test]
    fn sharded_distinct_read_matches_flat_distinct_read() {
        let path = temp_path("sharded_distinct");
        std::fs::write(&path, SAMPLE).unwrap();
        let options = ReadOptions {
            distinct: true,
            ..ReadOptions::default()
        };
        let (_c, flat) = read_delimited_from(&path, options).unwrap();
        assert_eq!(flat.len(), 3);
        let (_c2, sharded) =
            read_delimited_sharded(&path, options, ShardPolicy::RowCount(2)).unwrap();
        assert_eq!(sharded.len(), 3);
        assert!(sharded.is_set());
        // 3 kept rows at 2 rows/shard → 2 shards, not 2 full ones.
        assert_eq!(sharded.num_shards(), 2);
        let back = sharded.collect().unwrap();
        for (a, b) in back.iter_rows().zip(flat.iter_rows()) {
            assert_eq!(a, b);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A zero-row shard quota is clamped to one row per shard instead of
    /// looping forever or panicking.
    #[test]
    fn zero_row_shard_policy_is_clamped() {
        let path = temp_path("zero_policy");
        std::fs::write(&path, SAMPLE).unwrap();
        let (_c, sharded) =
            read_delimited_sharded(&path, ReadOptions::default(), ShardPolicy::RowCount(0))
                .unwrap();
        assert_eq!(sharded.len(), 4);
        assert_eq!(sharded.num_shards(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn whitespace_is_trimmed_when_requested() {
        let text = "a,b\n x , y \n";
        let (catalog, _r) = read_delimited(text, ReadOptions::default()).unwrap();
        assert_eq!(catalog.value_label(AttrId(0), 0), Some("x"));
        let (catalog2, _r2) = read_delimited(
            text,
            ReadOptions {
                trim: false,
                ..ReadOptions::default()
            },
        )
        .unwrap();
        assert_eq!(catalog2.value_label(AttrId(0), 0), Some(" x "));
    }

    #[test]
    fn roundtrip_through_write_delimited() {
        let (catalog, r) = read_delimited(SAMPLE, ReadOptions::default()).unwrap();
        let text = write_delimited(&catalog, &r, ',').unwrap();
        let (_c2, r2) = read_delimited(&text, ReadOptions::default()).unwrap();
        assert_eq!(r2.len(), r.len());
        assert!(r2.canonicalize().set_eq(&r.canonicalize()));
    }

    #[test]
    fn write_falls_back_to_codes_for_unlabelled_values() {
        let catalog = Catalog::with_attributes(["a"]).unwrap();
        let r = Relation::from_rows(vec![AttrId(0)], &[&[9u32][..]]).unwrap();
        let text = write_delimited(&catalog, &r, ',').unwrap();
        assert!(text.contains('9'));
    }

    #[test]
    fn file_roundtrip_streams_both_ways() {
        let path = temp_path("roundtrip");
        std::fs::write(&path, SAMPLE).unwrap();
        let (catalog, r) = read_delimited_from(&path, ReadOptions::default()).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(catalog.arity(), 3);
        // Streamed read matches the in-memory read exactly.
        let (_c2, r2) = read_delimited(SAMPLE, ReadOptions::default()).unwrap();
        assert!(r.canonicalize().set_eq(&r2.canonicalize()));

        // Write back out and re-read.
        let out_path = temp_path("roundtrip_out");
        write_delimited_to(&out_path, &catalog, &r, ',').unwrap();
        let (_c3, r3) = read_delimited_from(&out_path, ReadOptions::default()).unwrap();
        assert_eq!(r3.len(), r.len());
        assert!(r3.canonicalize().set_eq(&r.canonicalize()));
        // Streamed write matches the in-memory renderer byte for byte.
        assert_eq!(
            std::fs::read_to_string(&out_path).unwrap(),
            write_delimited(&catalog, &r, ',').unwrap()
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&out_path);
    }

    #[test]
    fn file_read_honours_options() {
        let path = temp_path("options");
        std::fs::write(&path, "1\t2\n3\t4\n1\t2\n").unwrap();
        let (catalog, r) = read_delimited_from(
            &path,
            ReadOptions {
                delimiter: '\t',
                has_header: false,
                distinct: true,
                ..ReadOptions::default()
            },
        )
        .unwrap();
        assert_eq!(catalog.name(AttrId(0)).unwrap(), "X0");
        assert_eq!(r.len(), 2);
        assert!(r.is_set());
        let _ = std::fs::remove_file(&path);
    }

    /// Regression (CRLF handling): a file with `\r\n` line endings — and a
    /// final line terminated by a bare `\r` at EOF — parses identically to
    /// its `\n`-only counterpart; no field ever carries a stray `\r`.
    #[test]
    fn crlf_input_parses_like_lf_input() {
        let crlf = "city,country\r\nhaifa,israel\r\nseattle,usa\r";
        let lf = "city,country\nhaifa,israel\nseattle,usa\n";

        // In-memory reader.
        let (cat_a, r_a) = read_delimited(crlf, ReadOptions::default()).unwrap();
        let (cat_b, r_b) = read_delimited(lf, ReadOptions::default()).unwrap();
        assert_eq!(r_a.len(), 2);
        assert!(r_a.canonicalize().set_eq(&r_b.canonicalize()));
        assert_eq!(cat_a.value_label(AttrId(1), 1), Some("usa"));
        assert_eq!(cat_b.value_label(AttrId(1), 1), Some("usa"));

        // Streaming file reader, with trimming off so a stray `\r` would be
        // visible in the label (it must not be).
        let path = temp_path("crlf");
        std::fs::write(&path, crlf).unwrap();
        let (cat_f, r_f) = read_delimited_from(
            &path,
            ReadOptions {
                trim: false,
                ..ReadOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r_f.len(), 2);
        assert_eq!(cat_f.value_label(AttrId(1), 1), Some("usa"));
        assert!(r_f.canonicalize().set_eq(&r_a.canonicalize()));
        let _ = std::fs::remove_file(&path);
    }

    /// A lone trailing `\r` on the **final** line is a line ending;
    /// additional `\r`s are data (the seed's `trim_end_matches('\r')`
    /// silently ate all of them).
    #[test]
    fn only_one_trailing_carriage_return_is_stripped() {
        // Final line ends `\r\r` at EOF: one `\r` is the (half) line
        // ending, the other belongs to the field.
        let text = "a\nx\r\r";
        let (catalog, r) = read_delimited(
            text,
            ReadOptions {
                trim: false,
                ..ReadOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(catalog.value_label(AttrId(0), 0), Some("x\r"));
    }

    /// An **interior** CRLF line whose field data ends in `\r` (bytes
    /// `x\r\r\n`) keeps that `\r`: the line splitter already consumed the
    /// `\r\n` terminator, so what remains is data and must not be stripped.
    #[test]
    fn interior_carriage_return_data_is_preserved() {
        let text = "a\nx\r\r\ny\n";
        let (catalog, r) = read_delimited(
            text,
            ReadOptions {
                trim: false,
                ..ReadOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(catalog.value_label(AttrId(0), 0), Some("x\r"));
        assert_eq!(catalog.value_label(AttrId(0), 1), Some("y"));
    }

    /// Regression (trailing newline): presence or absence of a final
    /// newline must not change the parse — no phantom empty row, no lost
    /// last row.
    #[test]
    fn trailing_final_newline_is_ignored() {
        for (with_nl, without_nl) in [
            ("a,b\n1,2\n3,4\n", "a,b\n1,2\n3,4"),
            ("a,b\r\n1,2\r\n", "a,b\r\n1,2"),
        ] {
            let (_c1, r1) = read_delimited(with_nl, ReadOptions::default()).unwrap();
            let (_c2, r2) = read_delimited(without_nl, ReadOptions::default()).unwrap();
            assert_eq!(r1.len(), r2.len());
            assert!(r1.canonicalize().set_eq(&r2.canonicalize()));

            let path = temp_path("trailing_nl");
            std::fs::write(&path, without_nl).unwrap();
            let (_c3, r3) = read_delimited_from(&path, ReadOptions::default()).unwrap();
            assert_eq!(r3.len(), r1.len());
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Regression (ragged rows): both too-few and too-many fields surface
    /// as [`RelationError::ArityMismatch`] from the streaming reader — never
    /// a silently truncated or padded tuple.
    #[test]
    fn ragged_file_rows_error_instead_of_misparsing() {
        for (tag, body) in [
            ("short", "a,b\n1,2\n3\n"),
            ("long", "a,b\n1,2\n3,4,5\n"),
            ("crlf_short", "a,b\r\n1,2\r\n3\r\n"),
        ] {
            let path = temp_path(&format!("ragged_{tag}"));
            std::fs::write(&path, body).unwrap();
            let err = read_delimited_from(&path, ReadOptions::default()).unwrap_err();
            assert!(
                matches!(err, RelationError::ArityMismatch { .. }),
                "{tag}: expected ArityMismatch, got {err}"
            );
            let _ = std::fs::remove_file(&path);
            // The in-memory reader agrees.
            assert!(matches!(
                read_delimited(body, ReadOptions::default()).unwrap_err(),
                RelationError::ArityMismatch { .. }
            ));
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err =
            read_delimited_from("/nonexistent/ajd/input.csv", ReadOptions::default()).unwrap_err();
        assert!(matches!(err, RelationError::Io { .. }), "{err}");
        let catalog = Catalog::with_attributes(["a"]).unwrap();
        let r = Relation::from_rows(vec![AttrId(0)], &[&[1u32][..]]).unwrap();
        let err = write_delimited_to("/nonexistent/ajd/output.csv", &catalog, &r, ',').unwrap_err();
        assert!(matches!(err, RelationError::Io { .. }), "{err}");
    }
}
