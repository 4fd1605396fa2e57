//! Durable, versioned, checksummed on-disk checkpoints.
//!
//! [`CheckpointStore`](crate::checkpoint::CheckpointStore) snapshots live
//! only as long as the process; this module is where they go to survive a
//! `kill -9`. The format is dependency-free binary framing over
//! [`Scalar::bit_pattern`] words, so a restored grid is bit-identical to
//! the one that was spilled — signed zeros, NaN payloads and all.
//!
//! # Frame layout
//!
//! One *epoch file* (`epoch_<e>.ckpt`, little-endian throughout) holds
//! every registered `(rank, slot)` key's snapshot of one consistent epoch:
//!
//! ```text
//! header   magic "GPWD" (4) · schema u32 · epoch u64 · record_count u32
//!          · header_crc u32 (CRC-32 over the 20 bytes before it)
//! records  payload_len u64 · payload_crc u32 · payload bytes
//! payload  rank u64 · slot u64 · n_grids u64, then per grid:
//!          n0 n1 n2 halo words data_words (u64 each) · data_words × u64
//!          bit-pattern words (the grid's full padded storage, halos
//!          included, `words` words per point: 1 for f64, 2 for C64)
//! ```
//!
//! # Manifest protocol and crash consistency
//!
//! Every file — epoch files and the `MANIFEST` (magic · schema · epoch u64
//! · crc u32) — is written to a `.tmp` sibling and atomically renamed into
//! place, in this order: epoch file first, then the manifest. A reader can
//! therefore never observe a half-written *named* file after a process
//! kill; the worst cases are a leftover `.tmp` (never read, and reclaimed:
//! a failed write removes its own, and the next [`DurableStore::create`]
//! or [`DurableStore::open`] of the directory sweeps a killed writer's)
//! or a manifest one epoch behind the newest complete file. Recovery ([`DurableStore::recover`])
//! treats the manifest as the newest-complete-epoch pointer but trusts
//! only checksums: it tries every on-disk epoch newest-first, skipping any
//! file that fails validation (torn, truncated, bit-flipped, wrong
//! schema), and falls back as far as epoch 0 — the synthetic fill, always
//! re-derivable from the seed — rather than ever panicking. Durability is
//! against process death (the page cache survives a SIGKILL); powering
//! off the machine mid-spill would additionally need `fsync`, which this
//! simulation-scale store deliberately skips.
//!
//! # The write path
//!
//! An epoch is tens of MB, so [`DurableStore::spill_records`] never holds
//! it in memory a second time: header and records stream through one
//! 64 KiB chunk buffer straight into the `.tmp` file — grid storage is
//! converted to little-endian words a chunk at a time, the chunk feeds the
//! incremental [`Crc32`] while it is still in cache, and goes to the file.
//! `payload_crc` precedes its payload in the frame, so it is written as a
//! placeholder and back-patched by seek once the record has streamed
//! past — all before the rename, so no reader can see the placeholder.

use crate::checkpoint::Epoch;
use crate::integrity::Crc32;
use gpaw_grid::grid3::Grid3;
use gpaw_grid::scalar::Scalar;
use std::fmt;
use std::fs;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// First four bytes of every durable file.
pub const MAGIC: [u8; 4] = *b"GPWD";

/// On-disk schema version; files from a different version are rejected
/// (forward compat is an explicit re-encode, never a silent misparse).
pub const SCHEMA_VERSION: u32 = 1;

/// magic + schema + epoch + record_count + header crc.
const HEADER_LEN: usize = 4 + 4 + 8 + 4 + 4;
/// magic + schema + epoch + crc.
const MANIFEST_LEN: usize = 4 + 4 + 8 + 4;
const MANIFEST: &str = "MANIFEST";
/// Suffix of the write-then-rename staging sibling of every durable file.
const TMP_SUFFIX: &str = ".tmp";
/// Bytes converted, checksummed and written per step of the streaming
/// writer: L2-resident, and a whole number of both scalar widths.
const CHUNK_BYTES: usize = 64 << 10;
/// A record's frame header: payload_len u64 · payload_crc u32.
const FRAME_LEN: usize = 8 + 4;
/// A record payload's leading fields: rank · slot · n_grids.
const RECORD_FIELDS_LEN: usize = 3 * 8;
/// A grid's leading fields: n0 n1 n2 · halo · words · data_words.
const GRID_FIELDS_LEN: usize = 6 * 8;

/// The on-disk checksum, re-exported from the shared integrity module so
/// the frame format and its callers are unchanged.
pub use crate::integrity::crc32;

/// Why a durable read or write failed. Every corruption mode is a value,
/// not a panic: callers degrade to an older epoch (or the synthetic
/// fill) and keep running.
#[derive(Debug)]
pub enum DurableError {
    /// Filesystem error reading or writing `path`.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// `--restore` pointed at a directory that does not exist.
    MissingDir(PathBuf),
    /// The file does not start with [`MAGIC`] — not a checkpoint at all.
    BadMagic(PathBuf),
    /// The file's schema version is not [`SCHEMA_VERSION`]. A newer
    /// writer's files are rejected loudly instead of misparsed.
    SchemaMismatch {
        /// The offending file.
        path: PathBuf,
        /// Version found in the file header.
        found: u32,
        /// The only version this reader supports.
        supported: u32,
    },
    /// Structurally invalid or checksum-failing content: truncation, a
    /// torn frame, a bit flip, or fields that contradict each other.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What exactly failed to validate.
        detail: String,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io { path, source } => {
                write!(f, "checkpoint I/O error at {}: {source}", path.display())
            }
            DurableError::MissingDir(dir) => {
                write!(f, "checkpoint directory {} does not exist", dir.display())
            }
            DurableError::BadMagic(path) => write!(
                f,
                "{} is not a durable checkpoint (bad magic)",
                path.display()
            ),
            DurableError::SchemaMismatch {
                path,
                found,
                supported,
            } => write!(
                f,
                "{}: schema version {found} is not supported (this build reads version \
                 {supported}); re-encode the checkpoint or upgrade",
                path.display()
            ),
            DurableError::Corrupt { path, detail } => {
                write!(f, "{} is corrupt: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One `(rank, slot)` key's grids at some epoch — the unit a
/// [`CheckpointStore`](crate::checkpoint::CheckpointStore) deposits and
/// an epoch file frames.
#[derive(Clone, Debug)]
pub struct SnapshotRecord<T> {
    /// Depositing rank.
    pub rank: usize,
    /// Depositing thread slot within the rank.
    pub slot: usize,
    /// The thread's input grids in its own local order.
    pub grids: Vec<Grid3<T>>,
}

impl<T> SnapshotRecord<T> {
    /// This record's borrowed form — what the writer consumes.
    pub fn as_record_ref(&self) -> RecordRef<'_, T> {
        RecordRef {
            rank: self.rank,
            slot: self.slot,
            grids: &self.grids,
        }
    }
}

/// A borrowed [`SnapshotRecord`]: the same key over grids that stay
/// where they are (a checkpoint store's shared snapshot, a caller's own
/// vector), so spilling an epoch never copies it first.
#[derive(Debug)]
pub struct RecordRef<'a, T> {
    /// Depositing rank.
    pub rank: usize,
    /// Depositing thread slot within the rank.
    pub slot: usize,
    /// The thread's input grids in its own local order.
    pub grids: &'a [Grid3<T>],
}

/// What [`DurableStore::recover`] salvaged from a directory.
pub struct Recovered<T> {
    /// The newest epoch that validated end-to-end; 0 means nothing did
    /// (or nothing was ever spilled) and the run restarts from the
    /// synthetic fill.
    pub epoch: Epoch,
    /// Every registered key's snapshot at that epoch (empty at epoch 0).
    pub records: Vec<SnapshotRecord<T>>,
    /// Typed errors for every newer epoch that was tried and rejected —
    /// surfaced so callers can report the degradation, never a panic.
    pub skipped: Vec<DurableError>,
}

/// A directory of epoch files plus a manifest — the durable face of a
/// checkpoint store.
pub struct DurableStore {
    dir: PathBuf,
}

impl DurableStore {
    /// Open-or-create: makes the directory (and parents) if missing.
    /// This is the spill-side constructor.
    pub fn create(dir: &Path) -> Result<DurableStore, DurableError> {
        fs::create_dir_all(dir).map_err(|source| DurableError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        Ok(DurableStore::adopt(dir))
    }

    /// Open an existing directory; a missing one is a typed error. This
    /// is the `--restore` constructor — restoring from a directory that
    /// was never written is a caller mistake worth naming.
    pub fn open(dir: &Path) -> Result<DurableStore, DurableError> {
        if !dir.is_dir() {
            return Err(DurableError::MissingDir(dir.to_path_buf()));
        }
        Ok(DurableStore::adopt(dir))
    }

    /// Take over an existing directory: reclaim the staging files a
    /// killed writer left behind. One writer per directory is the
    /// contract, so any `.tmp` sibling of a durable file found here is an
    /// orphan no rename will ever complete — and at tens of MB each,
    /// repeated kills would otherwise fill the disk. Best effort: an
    /// orphan that cannot be deleted is as harmless as it was before.
    fn adopt(dir: &Path) -> DurableStore {
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let staged = name.strip_suffix(TMP_SUFFIX);
                if staged.is_some_and(|n| n == MANIFEST || epoch_of_file_name(n).is_some()) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        DurableStore {
            dir: dir.to_path_buf(),
        }
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `epoch`'s frame lives (or would live) on disk — public so
    /// corruption harnesses can vandalize exactly the right file.
    pub fn epoch_path(&self, epoch: Epoch) -> PathBuf {
        self.dir.join(format!("epoch_{epoch:08}.ckpt"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST)
    }

    /// Produce `path` atomically: `fill` writes a `.tmp` sibling, which
    /// is then renamed into place, so a reader never sees a torn named
    /// file. A failed write or rename removes the sibling again.
    fn write_atomic(
        &self,
        path: &Path,
        fill: impl FnOnce(&mut fs::File) -> io::Result<()>,
    ) -> Result<(), DurableError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(TMP_SUFFIX);
        let tmp = PathBuf::from(tmp);
        let io = |p: &Path, source| DurableError::Io {
            path: p.to_path_buf(),
            source,
        };
        let staged = fs::File::create(&tmp)
            .and_then(|mut file| fill(&mut file))
            .map_err(|e| io(&tmp, e))
            .and_then(|()| fs::rename(&tmp, path).map_err(|e| io(path, e)));
        if staged.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        staged
    }

    /// Spill one complete consistent epoch: every registered key's
    /// snapshot, framed and checksummed, atomically renamed into place,
    /// then the manifest advanced to point at it. The owned-record form
    /// of [`DurableStore::spill_records`].
    pub fn spill_epoch<T: Scalar>(
        &self,
        epoch: Epoch,
        records: &[SnapshotRecord<T>],
    ) -> Result<PathBuf, DurableError> {
        let refs: Vec<RecordRef<'_, T>> =
            records.iter().map(SnapshotRecord::as_record_ref).collect();
        self.spill_records(epoch, &refs)
    }

    /// Spill one complete consistent epoch from borrowed grids, streaming
    /// (see the module docs): the epoch is read once, where it lies, and
    /// never staged in memory.
    pub fn spill_records<T: Scalar>(
        &self,
        epoch: Epoch,
        records: &[RecordRef<'_, T>],
    ) -> Result<PathBuf, DurableError> {
        let path = self.epoch_path(epoch);
        self.write_atomic(&path, |file| stream_epoch(file, epoch, records))?;
        self.write_manifest(epoch)?;
        Ok(path)
    }

    fn write_manifest(&self, epoch: Epoch) -> Result<(), DurableError> {
        let mut bytes = Vec::with_capacity(MANIFEST_LEN);
        bytes.extend_from_slice(&MAGIC);
        push_u32(&mut bytes, SCHEMA_VERSION);
        push_u64(&mut bytes, epoch as u64);
        let crc = crc32(&bytes);
        push_u32(&mut bytes, crc);
        self.write_atomic(&self.manifest_path(), |file| file.write_all(&bytes))
    }

    /// The epoch the manifest points at; `Ok(None)` when no manifest has
    /// been written yet, a typed error when one exists but is invalid.
    pub fn manifest_epoch(&self) -> Result<Option<Epoch>, DurableError> {
        let path = self.manifest_path();
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(source) => return Err(DurableError::Io { path, source }),
        };
        if bytes.len() != MANIFEST_LEN {
            return Err(DurableError::Corrupt {
                path,
                detail: format!("manifest is {} bytes, expected {MANIFEST_LEN}", bytes.len()),
            });
        }
        if bytes[..4] != MAGIC {
            return Err(DurableError::BadMagic(path));
        }
        let schema = read_u32(&bytes, 4);
        if schema != SCHEMA_VERSION {
            return Err(DurableError::SchemaMismatch {
                path,
                found: schema,
                supported: SCHEMA_VERSION,
            });
        }
        let stored = read_u32(&bytes, 16);
        if crc32(&bytes[..16]) != stored {
            return Err(DurableError::Corrupt {
                path,
                detail: "manifest checksum mismatch".to_string(),
            });
        }
        Ok(Some(read_u64(&bytes, 8) as Epoch))
    }

    /// Epochs with a (named, hence completely renamed) file on disk,
    /// ascending. Leftover `.tmp` files and foreign names are ignored.
    pub fn epochs_on_disk(&self) -> Result<Vec<Epoch>, DurableError> {
        let entries = fs::read_dir(&self.dir).map_err(|source| DurableError::Io {
            path: self.dir.clone(),
            source,
        })?;
        let mut epochs: Vec<Epoch> = entries
            .flatten()
            .filter_map(|entry| epoch_of_file_name(&entry.file_name().to_string_lossy()))
            .collect();
        epochs.sort_unstable();
        Ok(epochs)
    }

    /// Load and fully validate one epoch file. Every failure mode —
    /// truncation, bad magic, bumped schema, checksum mismatch,
    /// self-contradictory geometry — is a typed error.
    pub fn load_epoch<T: Scalar>(
        &self,
        epoch: Epoch,
    ) -> Result<Vec<SnapshotRecord<T>>, DurableError> {
        let path = self.epoch_path(epoch);
        let bytes = fs::read(&path).map_err(|source| DurableError::Io {
            path: path.clone(),
            source,
        })?;
        let corrupt = |detail: String| DurableError::Corrupt {
            path: path.clone(),
            detail,
        };
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "truncated header: {} bytes, need {HEADER_LEN}",
                bytes.len()
            )));
        }
        if bytes[..4] != MAGIC {
            return Err(DurableError::BadMagic(path));
        }
        let schema = read_u32(&bytes, 4);
        if schema != SCHEMA_VERSION {
            return Err(DurableError::SchemaMismatch {
                path,
                found: schema,
                supported: SCHEMA_VERSION,
            });
        }
        if crc32(&bytes[..20]) != read_u32(&bytes, 20) {
            return Err(corrupt("header checksum mismatch".to_string()));
        }
        let file_epoch = read_u64(&bytes, 8) as Epoch;
        if file_epoch != epoch {
            return Err(corrupt(format!(
                "file claims epoch {file_epoch}, name says {epoch}"
            )));
        }
        // Every size read from the file is checked against the bytes that
        // remain before anything is allocated by it: a frame with valid
        // checksums can still claim anything.
        let count = read_u32(&bytes, 16) as usize;
        let mut rest = Reader(&bytes[HEADER_LEN..]);
        let room = rest.0.len() / (FRAME_LEN + RECORD_FIELDS_LEN);
        if count > room {
            return Err(corrupt(format!(
                "header claims {count} records, the file has room for {room}"
            )));
        }
        let words = T::BYTES / 8;
        let mut records = Vec::with_capacity(count);
        for i in 0..count {
            let frame = rest
                .take(FRAME_LEN)
                .ok_or_else(|| corrupt(format!("truncated frame header for record {i}")))?;
            let len = read_u64(frame, 0);
            let stored_crc = read_u32(frame, 8);
            let have = rest.0.len();
            let payload = rest.take_u64(len).ok_or_else(|| {
                corrupt(format!(
                    "truncated payload for record {i}: need {len} bytes, have {have}"
                ))
            })?;
            if crc32(payload) != stored_crc {
                return Err(corrupt(format!("checksum mismatch on record {i}")));
            }
            records.push(parse_record::<T>(payload, words, i, &corrupt)?);
        }
        Ok(records)
    }

    /// Salvage the newest valid epoch: manifest as a hint, checksums as
    /// the truth. Tries every on-disk epoch newest-first; each rejected
    /// file's typed error lands in [`Recovered::skipped`]. Never panics —
    /// a directory with nothing valid recovers to epoch 0, the synthetic
    /// fill.
    pub fn recover<T: Scalar>(&self) -> Result<Recovered<T>, DurableError> {
        let mut skipped = Vec::new();
        let mut candidates = self.epochs_on_disk()?;
        match self.manifest_epoch() {
            Ok(Some(m)) if !candidates.contains(&m) => skipped.push(DurableError::Corrupt {
                path: self.manifest_path(),
                detail: format!("manifest points at epoch {m} but no such file exists"),
            }),
            Ok(_) => {}
            Err(e) => skipped.push(e),
        }
        candidates.reverse();
        for e in candidates {
            match self.load_epoch::<T>(e) {
                Ok(records) => {
                    return Ok(Recovered {
                        epoch: e,
                        records,
                        skipped,
                    })
                }
                Err(err) => skipped.push(err),
            }
        }
        Ok(Recovered {
            epoch: 0,
            records: Vec::new(),
            skipped,
        })
    }

    /// The record count a file's header claims — the number of
    /// `(rank, slot)` keys it frames, which is this store's geometry
    /// discriminator: shrinking onto fewer ranks always changes it.
    /// `None` when the header is unreadable or fails validation.
    fn header_record_count(&self, epoch: Epoch) -> Option<u32> {
        let path = self.epoch_path(epoch);
        let mut header = [0u8; HEADER_LEN];
        let mut f = fs::File::open(&path).ok()?;
        std::io::Read::read_exact(&mut f, &mut header).ok()?;
        if header[..4] != MAGIC
            || read_u32(&header, 4) != SCHEMA_VERSION
            || crc32(&header[..20]) != read_u32(&header, 20)
        {
            return None;
        }
        Some(read_u32(&header, 16))
    }

    /// Keep only the newest `keep` epoch files **per geometry** (the
    /// fallback chain); delete the rest. Files are grouped by the
    /// geometry that wrote them — a degrade-restore spills a different
    /// record count per epoch, and pruning newest-*global* would delete
    /// the previous geometry's newest epoch while the cross-geometry
    /// restore still needs it as a fallback. Files whose headers cannot
    /// be classified are left alone (recovery will skip them with a
    /// typed error; pruning never guesses). Best-effort per file: a
    /// delete failure is returned but the newer files are already safe.
    pub fn retain_newest(&self, keep: usize) -> Result<(), DurableError> {
        let epochs = self.epochs_on_disk()?;
        let mut by_geometry: std::collections::BTreeMap<u32, Vec<Epoch>> =
            std::collections::BTreeMap::new();
        for &e in &epochs {
            if let Some(count) = self.header_record_count(e) {
                by_geometry.entry(count).or_default().push(e);
            }
        }
        for group in by_geometry.values() {
            if group.len() <= keep {
                continue;
            }
            for &e in &group[..group.len() - keep] {
                let path = self.epoch_path(e);
                fs::remove_file(&path).map_err(|source| DurableError::Io { path, source })?;
            }
        }
        Ok(())
    }
}

/// The epoch a directory entry named `name` frames, if it is an epoch
/// file's name at all.
fn epoch_of_file_name(name: &str) -> Option<Epoch> {
    name.strip_prefix("epoch_")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

/// Stream one epoch's frame into `file` (see the module docs for the
/// layout and the write path).
fn stream_epoch<T: Scalar>(
    file: &mut fs::File,
    epoch: Epoch,
    records: &[RecordRef<'_, T>],
) -> io::Result<()> {
    let words = T::BYTES / 8;
    let mut out = BufWriter::with_capacity(CHUNK_BYTES, &mut *file);
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    push_u32(&mut header, SCHEMA_VERSION);
    push_u64(&mut header, epoch as u64);
    push_u32(&mut header, records.len() as u32);
    let hcrc = crc32(&header);
    push_u32(&mut header, hcrc);
    out.write_all(&header)?;

    // Where each record's `payload_crc` placeholder sits, and what
    // belongs there once the payload has streamed past.
    let mut patches: Vec<(u64, u32)> = Vec::with_capacity(records.len());
    let mut at = HEADER_LEN as u64;
    let mut chunk = vec![0u8; CHUNK_BYTES];
    let mut fields = Vec::with_capacity(GRID_FIELDS_LEN);
    for rec in records {
        let payload_len: usize = RECORD_FIELDS_LEN
            + rec
                .grids
                .iter()
                .map(|g| GRID_FIELDS_LEN + g.data().len() * T::BYTES)
                .sum::<usize>();
        out.write_all(&(payload_len as u64).to_le_bytes())?;
        out.write_all(&[0u8; 4])?;
        let mut crc = Crc32::new();
        fields.clear();
        push_u64(&mut fields, rec.rank as u64);
        push_u64(&mut fields, rec.slot as u64);
        push_u64(&mut fields, rec.grids.len() as u64);
        crc.update(&fields);
        out.write_all(&fields)?;
        for g in rec.grids {
            fields.clear();
            for d in g.n() {
                push_u64(&mut fields, d as u64);
            }
            push_u64(&mut fields, g.halo() as u64);
            push_u64(&mut fields, words as u64);
            push_u64(&mut fields, (g.data().len() * words) as u64);
            crc.update(&fields);
            out.write_all(&fields)?;
            for values in g.data().chunks(CHUNK_BYTES / T::BYTES) {
                let bytes = &mut chunk[..values.len() * T::BYTES];
                for (v, cell) in values.iter().zip(bytes.chunks_exact_mut(T::BYTES)) {
                    let pattern = v.bit_pattern();
                    for (word, le) in pattern.iter().zip(cell.chunks_exact_mut(8)) {
                        le.copy_from_slice(&word.to_le_bytes());
                    }
                }
                crc.update(bytes);
                out.write_all(bytes)?;
            }
        }
        patches.push((at + 8, crc.finish()));
        at += (FRAME_LEN + payload_len) as u64;
    }
    out.flush()?;
    drop(out);
    for (crc_at, crc) in patches {
        file.seek(SeekFrom::Start(crc_at))?;
        file.write_all(&crc.to_le_bytes())?;
    }
    Ok(())
}

/// A bounds-checked cursor over a frame: every read either fits in the
/// bytes that remain or fails, whatever size the file claims.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// The next `n` bytes, if that many remain.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.0.split_at_checked(n)?;
        self.0 = tail;
        Some(head)
    }

    /// [`take`](Reader::take) of a length read from the file.
    fn take_u64(&mut self, n: u64) -> Option<&'a [u8]> {
        self.take(usize::try_from(n).ok()?)
    }
}

fn parse_record<T: Scalar>(
    payload: &[u8],
    words: usize,
    index: usize,
    corrupt: &dyn Fn(String) -> DurableError,
) -> Result<SnapshotRecord<T>, DurableError> {
    let mut rest = Reader(payload);
    let fields = rest
        .take(RECORD_FIELDS_LEN)
        .ok_or_else(|| corrupt(format!("record {index} payload ends mid-field")))?;
    let [rank, slot, n_grids] = std::array::from_fn(|k| read_u64(fields, 8 * k));
    let room = (rest.0.len() / GRID_FIELDS_LEN) as u64;
    if n_grids > room {
        return Err(corrupt(format!(
            "record {index} claims {n_grids} grids, its payload has room for {room}"
        )));
    }
    let mut grids = Vec::with_capacity(n_grids as usize);
    for gi in 0..n_grids {
        let fields = rest
            .take(GRID_FIELDS_LEN)
            .ok_or_else(|| corrupt(format!("record {index} payload ends mid-field")))?;
        let [n0, n1, n2, halo, file_words, data_words] =
            std::array::from_fn(|k| read_u64(fields, 8 * k));
        let n = [n0, n1, n2];
        if file_words != words as u64 {
            return Err(corrupt(format!(
                "record {index} grid {gi}: {file_words} words per point on disk, this scalar \
                 type has {words}"
            )));
        }
        if n.iter().any(|&d| d == 0 || d > 1 << 20) || halo > 8 {
            return Err(corrupt(format!(
                "record {index} grid {gi}: implausible geometry {n:?} halo {halo}"
            )));
        }
        // The padded storage size, from the header alone: no grid is
        // allocated until its data is known to be in the payload.
        let expected = n
            .iter()
            .try_fold(words as u64, |acc, &d| acc.checked_mul(d + 2 * halo));
        if expected != Some(data_words) {
            return Err(corrupt(format!(
                "record {index} grid {gi}: {data_words} data words for geometry {n:?} halo \
                 {halo}, expected {}",
                expected.map_or("more than 2^64".into(), |e| e.to_string())
            )));
        }
        let stored = data_words
            .checked_mul(8)
            .and_then(|bytes| rest.take_u64(bytes))
            .ok_or_else(|| {
                corrupt(format!(
                    "record {index} grid {gi}: payload truncated inside grid data"
                ))
            })?;
        let mut g = Grid3::<T>::zeros(n.map(|d| d as usize), halo as usize);
        for (v, cell) in g.data_mut().iter_mut().zip(stored.chunks_exact(T::BYTES)) {
            let mut w = [0u64; 2];
            for (word, le) in w.iter_mut().zip(cell.chunks_exact(8)) {
                *word = read_u64(le, 0);
            }
            *v = T::from_bit_pattern(w);
        }
        grids.push(g);
    }
    if !rest.0.is_empty() {
        return Err(corrupt(format!(
            "record {index}: {} trailing bytes after the last grid",
            rest.0.len()
        )));
    }
    let (rank, slot) = (rank as usize, slot as usize);
    Ok(SnapshotRecord { rank, slot, grids })
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(b)
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpaw_grid::scalar::C64;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "gpwd_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// A deterministic pseudo-random grid with adversarial bit patterns
    /// sprinkled in (NaN, -0.0) — the values a lossy codec would destroy.
    fn filled_grid(n: [usize; 3], halo: usize, seed: u64) -> Grid3<f64> {
        let mut g = Grid3::<f64>::zeros(n, halo);
        let mut s = seed;
        for (i, v) in g.data_mut().iter_mut().enumerate() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = match i % 97 {
                0 => f64::NAN,
                1 => -0.0,
                _ => f64::from_bits((s >> 2) | 0x3ff0_0000_0000_0000),
            };
        }
        g
    }

    fn bitwise_eq<T: Scalar>(a: &Grid3<T>, b: &Grid3<T>) -> bool {
        a.n() == b.n()
            && a.halo() == b.halo()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.bit_pattern() == y.bit_pattern())
    }

    fn sample_records(seed: u64) -> Vec<SnapshotRecord<f64>> {
        vec![
            SnapshotRecord {
                rank: 0,
                slot: 0,
                grids: vec![
                    filled_grid([4, 3, 5], 1, seed),
                    filled_grid([4, 3, 5], 1, seed ^ 7),
                ],
            },
            SnapshotRecord {
                rank: 1,
                slot: 2,
                grids: vec![filled_grid([2, 6, 3], 2, seed ^ 99)],
            },
        ]
    }

    /// The in-memory serialiser the streaming writer replaced — kept as
    /// the format's reference: build every payload, then the whole file.
    fn reference_frame<T: Scalar>(epoch: Epoch, records: &[SnapshotRecord<T>]) -> Vec<u8> {
        let words = T::BYTES / 8;
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        push_u32(&mut file, SCHEMA_VERSION);
        push_u64(&mut file, epoch as u64);
        push_u32(&mut file, records.len() as u32);
        let hcrc = crc32(&file);
        push_u32(&mut file, hcrc);
        for rec in records {
            let mut payload = Vec::new();
            push_u64(&mut payload, rec.rank as u64);
            push_u64(&mut payload, rec.slot as u64);
            push_u64(&mut payload, rec.grids.len() as u64);
            for g in &rec.grids {
                let n = g.n();
                push_u64(&mut payload, n[0] as u64);
                push_u64(&mut payload, n[1] as u64);
                push_u64(&mut payload, n[2] as u64);
                push_u64(&mut payload, g.halo() as u64);
                push_u64(&mut payload, words as u64);
                push_u64(&mut payload, (g.data().len() * words) as u64);
                for &v in g.data() {
                    let w = v.bit_pattern();
                    for &word in w.iter().take(words) {
                        push_u64(&mut payload, word);
                    }
                }
            }
            push_u64(&mut file, payload.len() as u64);
            push_u32(&mut file, crc32(&payload));
            file.extend_from_slice(&payload);
        }
        file
    }

    fn complex_grid(n: [usize; 3], halo: usize) -> Grid3<C64> {
        let mut g = Grid3::<C64>::zeros(n, halo);
        for (i, v) in g.data_mut().iter_mut().enumerate() {
            *v = C64::new(
                i as f64 * 0.1 - 1.0,
                if i % 31 == 0 { f64::NAN } else { -0.0 },
            );
        }
        g
    }

    #[test]
    fn streamed_file_is_byte_identical_to_the_reference_serialiser() {
        assert_eq!(
            SCHEMA_VERSION, 1,
            "the streaming writer is not a format change"
        );
        let dir = tmpdir("stream");
        let store = DurableStore::create(&dir).unwrap();
        // Mixed shapes, one grid larger than a streaming chunk, one
        // record with no grids at all.
        let mut recs = sample_records(31);
        recs[0].grids.push(filled_grid([29, 28, 27], 2, 5));
        assert!(recs[0].grids[2].data().len() * 8 > 2 * CHUNK_BYTES);
        recs.push(SnapshotRecord {
            rank: 2,
            slot: 0,
            grids: Vec::new(),
        });
        let path = store.spill_epoch(6, &recs).unwrap();
        assert_eq!(fs::read(&path).unwrap(), reference_frame(6, &recs));

        let recs = vec![
            SnapshotRecord {
                rank: 0,
                slot: 1,
                grids: vec![complex_grid([3, 4, 2], 1), complex_grid([17, 16, 15], 2)],
            },
            SnapshotRecord {
                rank: 3,
                slot: 0,
                grids: vec![complex_grid([1, 1, 1], 0)],
            },
        ];
        assert!(recs[0].grids[1].data().len() * 16 > CHUNK_BYTES);
        let path = store.spill_epoch(7, &recs).unwrap();
        assert_eq!(fs::read(&path).unwrap(), reference_frame(7, &recs));
        // Borrowed records write the same bytes as owned ones.
        let refs: Vec<_> = recs.iter().map(SnapshotRecord::as_record_ref).collect();
        let path = store.spill_records(8, &refs).unwrap();
        assert_eq!(fs::read(&path).unwrap(), reference_frame(8, &recs));
        assert_eq!(store.load_epoch::<C64>(8).unwrap().len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tmp_orphans_are_reclaimed_and_recovery_is_unaffected() {
        let dir = tmpdir("orphan");
        let store = DurableStore::create(&dir).unwrap();
        let p1 = store.spill_epoch(1, &sample_records(3)).unwrap();
        // A writer SIGKILLed mid-spill of epoch 2 (and once mid-manifest):
        // torn staging files nothing will ever rename.
        let full = fs::read(&p1).unwrap();
        let torn_epoch = dir.join("epoch_00000002.ckpt.tmp");
        let torn_manifest = dir.join("MANIFEST.tmp");
        fs::write(&torn_epoch, &full[..full.len() / 2]).unwrap();
        fs::write(&torn_manifest, b"GPW").unwrap();
        // Somebody else's file is not ours to delete.
        let foreign = dir.join("notes.tmp");
        fs::write(&foreign, b"keep me").unwrap();
        drop(store);

        let store = DurableStore::open(&dir).unwrap();
        assert!(
            !torn_epoch.exists(),
            "open must reclaim the torn epoch .tmp"
        );
        assert!(
            !torn_manifest.exists(),
            "open must reclaim the torn manifest .tmp"
        );
        assert!(foreign.exists());
        let rec = store.recover::<f64>().unwrap();
        assert_eq!(rec.epoch, 1);
        assert!(rec.skipped.is_empty());

        // `create` reclaims too, and spilling over the reclaimed name works.
        fs::write(&torn_epoch, &full[..7]).unwrap();
        let store = DurableStore::create(&dir).unwrap();
        assert!(!torn_epoch.exists());
        store.spill_epoch(2, &sample_records(4)).unwrap();
        assert!(!torn_epoch.exists());
        assert_eq!(store.recover::<f64>().unwrap().epoch, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_spill_removes_its_own_tmp() {
        let dir = tmpdir("failed");
        let store = DurableStore::create(&dir).unwrap();
        store.spill_epoch(1, &sample_records(3)).unwrap();
        // A non-empty directory squatting on epoch 2's name: the frame
        // streams into the .tmp fine, then the rename fails.
        let squatter = store.epoch_path(2);
        fs::create_dir_all(squatter.join("x")).unwrap();
        let err = store.spill_epoch(2, &sample_records(4)).unwrap_err();
        assert!(matches!(err, DurableError::Io { .. }), "got {err}");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(TMP_SUFFIX))
            .collect();
        assert!(
            leftovers.is_empty(),
            "orphaned staging files: {leftovers:?}"
        );
        // The manifest did not advance past the failed frame.
        assert_eq!(store.manifest_epoch().unwrap(), Some(1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_is_bit_identical_across_shapes_and_scalars() {
        let dir = tmpdir("roundtrip");
        let store = DurableStore::create(&dir).unwrap();
        for seed in [1u64, 42, 1234567] {
            let recs = sample_records(seed);
            store.spill_epoch(3, &recs).unwrap();
            let back = store.load_epoch::<f64>(3).unwrap();
            assert_eq!(back.len(), recs.len());
            for (a, b) in recs.iter().zip(&back) {
                assert_eq!((a.rank, a.slot), (b.rank, b.slot));
                assert_eq!(a.grids.len(), b.grids.len());
                for (ga, gb) in a.grids.iter().zip(&b.grids) {
                    assert!(bitwise_eq(ga, gb), "seed {seed}: payload not bit-identical");
                }
            }
        }
        // Complex scalars: two words per point, same guarantee.
        let g = complex_grid([3, 4, 2], 1);
        let recs = vec![SnapshotRecord {
            rank: 0,
            slot: 1,
            grids: vec![g.clone()],
        }];
        store.spill_epoch(9, &recs).unwrap();
        let back = store.load_epoch::<C64>(9).unwrap();
        assert!(bitwise_eq(&g, &back[0].grids[0]));
        // Manifest tracks the newest spill.
        assert_eq!(store.manifest_epoch().unwrap(), Some(9));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scalar_width_mismatch_is_rejected() {
        let dir = tmpdir("width");
        let store = DurableStore::create(&dir).unwrap();
        store.spill_epoch(1, &sample_records(5)).unwrap();
        // Reading an f64 checkpoint as C64 must fail typed, not misparse.
        let err = store.load_epoch::<C64>(1).unwrap_err();
        assert!(matches!(err, DurableError::Corrupt { .. }), "got {err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_files_fail_typed_at_every_cut_point() {
        let dir = tmpdir("trunc");
        let store = DurableStore::create(&dir).unwrap();
        let path = store.spill_epoch(2, &sample_records(11)).unwrap();
        let full = fs::read(&path).unwrap();
        // Cut the file at a spread of offsets: inside the header, inside
        // a frame header, inside a payload, just short of the end.
        for cut in [
            0,
            3,
            HEADER_LEN - 1,
            HEADER_LEN + 5,
            full.len() / 2,
            full.len() - 1,
        ] {
            fs::write(&path, &full[..cut]).unwrap();
            let err = store.load_epoch::<f64>(2).unwrap_err();
            assert!(
                matches!(
                    err,
                    DurableError::Corrupt { .. } | DurableError::BadMagic(_)
                ),
                "cut at {cut}: got {err}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flips_anywhere_fail_the_crc() {
        let dir = tmpdir("flip");
        let store = DurableStore::create(&dir).unwrap();
        let path = store.spill_epoch(4, &sample_records(13)).unwrap();
        let full = fs::read(&path).unwrap();
        for at in [6, 9, 17, HEADER_LEN + 2, HEADER_LEN + 40, full.len() - 3] {
            let mut bad = full.clone();
            bad[at] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert!(
                store.load_epoch::<f64>(4).is_err(),
                "flip at byte {at} went undetected"
            );
        }
        // Restore the pristine bytes: it must load again.
        fs::write(&path, &full).unwrap();
        assert!(store.load_epoch::<f64>(4).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bumped_schema_version_is_rejected_with_a_clear_error() {
        let dir = tmpdir("schema");
        let store = DurableStore::create(&dir).unwrap();
        let path = store.spill_epoch(1, &sample_records(17)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // A future writer: schema bumped, header checksum recomputed so
        // only the version check can reject it.
        let future = SCHEMA_VERSION + 1;
        bytes[4..8].copy_from_slice(&future.to_le_bytes());
        let hcrc = crc32(&bytes[..20]);
        bytes[20..24].copy_from_slice(&hcrc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        match store.load_epoch::<f64>(1).unwrap_err() {
            DurableError::SchemaMismatch {
                found, supported, ..
            } => {
                assert_eq!(found, future);
                assert_eq!(supported, SCHEMA_VERSION);
            }
            other => panic!("expected SchemaMismatch, got {other}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_falls_back_to_the_previous_durable_epoch() {
        let dir = tmpdir("fallback");
        let store = DurableStore::create(&dir).unwrap();
        store.spill_epoch(1, &sample_records(1)).unwrap();
        store.spill_epoch(2, &sample_records(2)).unwrap();
        let p3 = store.spill_epoch(3, &sample_records(3)).unwrap();
        // Corrupt the newest epoch: recovery must degrade to epoch 2 and
        // report the rejection, not crash and not silently succeed.
        let mut bytes = fs::read(&p3).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&p3, &bytes).unwrap();
        let rec = store.recover::<f64>().unwrap();
        assert_eq!(rec.epoch, 2);
        assert_eq!(
            rec.skipped.len(),
            1,
            "the rejected epoch 3 must be reported"
        );
        assert!(!rec.records.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_survives_a_garbled_manifest_and_an_empty_dir() {
        let dir = tmpdir("manifest");
        let store = DurableStore::create(&dir).unwrap();
        // Empty directory: epoch 0, nothing skipped, no error.
        let rec = store.recover::<f64>().unwrap();
        assert_eq!(rec.epoch, 0);
        assert!(rec.records.is_empty());
        assert!(rec.skipped.is_empty());
        // Garbage manifest + one good epoch: the epoch file wins.
        store.spill_epoch(5, &sample_records(23)).unwrap();
        fs::write(dir.join(MANIFEST), b"not a manifest at all").unwrap();
        let rec = store.recover::<f64>().unwrap();
        assert_eq!(rec.epoch, 5);
        assert_eq!(rec.skipped.len(), 1, "the bad manifest is reported");
        // Everything garbled: degrade all the way to the synthetic fill.
        for e in store.epochs_on_disk().unwrap() {
            fs::write(store.epoch_path(e), b"zzzz").unwrap();
        }
        let rec = store.recover::<f64>().unwrap();
        assert_eq!(rec.epoch, 0);
        assert!(!rec.skipped.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_requires_an_existing_directory() {
        let ghost = std::env::temp_dir().join("gpwd_definitely_missing_xyz");
        match DurableStore::open(&ghost) {
            Err(DurableError::MissingDir(d)) => assert_eq!(d, ghost),
            other => panic!("expected MissingDir, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn retain_newest_prunes_the_oldest_epoch_files() {
        let dir = tmpdir("retain");
        let store = DurableStore::create(&dir).unwrap();
        for e in 1..=5 {
            store.spill_epoch(e, &sample_records(e as u64)).unwrap();
        }
        store.retain_newest(2).unwrap();
        assert_eq!(store.epochs_on_disk().unwrap(), vec![4, 5]);
        // The survivors still validate.
        assert!(store.load_epoch::<f64>(5).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retain_newest_keeps_the_newest_epoch_of_each_geometry() {
        let dir = tmpdir("retain_geo");
        let store = DurableStore::create(&dir).unwrap();
        // Epochs 1..=3 from the original geometry (two records), then a
        // degrade-restore spills 4..=5 from a smaller one (one record).
        for e in 1..=3 {
            store.spill_epoch(e, &sample_records(e as u64)).unwrap();
        }
        let shrunk = vec![SnapshotRecord {
            rank: 0,
            slot: 0,
            grids: vec![filled_grid([4, 3, 5], 1, 77)],
        }];
        for e in 4..=5 {
            store.spill_epoch(e, &shrunk).unwrap();
        }
        // Newest-global pruning would delete epoch 3 — the previous
        // geometry's newest, still the cross-geometry fallback. Per-
        // geometry pruning keeps the newest of *each* group.
        store.retain_newest(1).unwrap();
        assert_eq!(store.epochs_on_disk().unwrap(), vec![3, 5]);
        assert_eq!(store.load_epoch::<f64>(3).unwrap().len(), 2);
        assert_eq!(store.load_epoch::<f64>(5).unwrap().len(), 1);
        // An unclassifiable file is never pruned.
        fs::write(store.epoch_path(2), b"zzzz").unwrap();
        store.retain_newest(1).unwrap();
        assert_eq!(store.epochs_on_disk().unwrap(), vec![2, 3, 5]);
        fs::remove_dir_all(&dir).ok();
    }

    /// An epoch file whose every checksum is valid but whose one record
    /// claims `n_grids = u64::MAX` (rank 0, slot 0).
    fn endless_record_frame() -> Vec<u8> {
        let mut payload = Vec::new();
        for field in [0, 0, u64::MAX] {
            push_u64(&mut payload, field);
        }
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        push_u32(&mut file, SCHEMA_VERSION);
        push_u64(&mut file, 1);
        push_u32(&mut file, 1);
        let hcrc = crc32(&file);
        push_u32(&mut file, hcrc);
        push_u64(&mut file, payload.len() as u64);
        push_u32(&mut file, crc32(&payload));
        file.extend_from_slice(&payload);
        file
    }

    #[test]
    fn a_hostile_grid_count_with_valid_checksums_is_corrupt_not_a_panic() {
        let dir = tmpdir("hostile");
        let store = DurableStore::create(&dir).unwrap();
        fs::write(store.epoch_path(1), endless_record_frame()).unwrap();
        let err = store.load_epoch::<f64>(1).unwrap_err();
        assert!(matches!(err, DurableError::Corrupt { .. }), "got {err}");
        let rec = store.recover::<f64>().unwrap();
        assert_eq!(rec.epoch, 0);
        assert!(rec
            .skipped
            .iter()
            .any(|e| matches!(e, DurableError::Corrupt { .. })));
        fs::remove_dir_all(&dir).ok();
    }

    /// Re-stamp the header checksum and every record checksum the frame
    /// structure still reaches, so a mutation is judged by the parser
    /// rather than stopped at a checksum.
    fn restamp(bytes: &mut [u8]) {
        if bytes.len() < HEADER_LEN {
            return;
        }
        let hcrc = crc32(&bytes[..20]);
        bytes[20..24].copy_from_slice(&hcrc.to_le_bytes());
        let mut at = HEADER_LEN;
        for _ in 0..read_u32(bytes, 16) {
            let Some(start) = at.checked_add(FRAME_LEN).filter(|&e| e <= bytes.len()) else {
                return;
            };
            let end = usize::try_from(read_u64(bytes, at))
                .ok()
                .and_then(|len| start.checked_add(len))
                .filter(|&e| e <= bytes.len());
            let Some(end) = end else {
                return;
            };
            let crc = crc32(&bytes[start..end]);
            bytes[at + 8..start].copy_from_slice(&crc.to_le_bytes());
            at = end;
        }
    }

    /// One seeded mutation: flip a bit, overwrite a word with a hostile
    /// size, overwrite a run of bytes, truncate, or extend.
    fn mutate(bytes: &mut Vec<u8>, rng: &mut gpaw_des::SplitMix64) {
        const HOSTILE: [u64; 7] = [
            0,
            1,
            u64::MAX,
            1 << 20,
            (1 << 20) + 1,
            1 << 40,
            u32::MAX as u64,
        ];
        let at =
            |rng: &mut gpaw_des::SplitMix64, len: usize| rng.next_below(len.max(1) as u64) as usize;
        match rng.next_below(5) {
            0 if !bytes.is_empty() => {
                let i = at(rng, bytes.len());
                bytes[i] ^= 1 << rng.next_below(8);
            }
            1 if bytes.len() >= 8 => {
                let i = at(rng, bytes.len() - 7);
                let v = match rng.next_below(HOSTILE.len() as u64 + 1) as usize {
                    k if k < HOSTILE.len() => HOSTILE[k],
                    _ => rng.next_u64(),
                };
                bytes[i..i + 8].copy_from_slice(&v.to_le_bytes());
            }
            2 => {
                let i = at(rng, bytes.len());
                let end = (i + 1 + at(rng, 16)).min(bytes.len());
                for b in &mut bytes[i..end] {
                    *b = rng.next_u64() as u8;
                }
            }
            3 => bytes.truncate(at(rng, bytes.len() + 1)),
            _ => {
                for _ in 0..1 + at(rng, 64) {
                    bytes.push(rng.next_u64() as u8);
                }
            }
        }
    }

    #[test]
    fn mutated_epoch_files_recover_typed_and_never_panic() {
        let dir = tmpdir("fuzz");
        let store = DurableStore::create(&dir).unwrap();
        let real = vec![
            SnapshotRecord {
                rank: 0,
                slot: 0,
                grids: vec![filled_grid([2, 3, 2], 1, 5), filled_grid([2, 3, 2], 1, 6)],
            },
            SnapshotRecord {
                rank: 1,
                slot: 0,
                grids: vec![filled_grid([1, 2, 2], 2, 7)],
            },
        ];
        let complex = vec![SnapshotRecord {
            rank: 0,
            slot: 1,
            grids: vec![complex_grid([2, 2, 1], 1)],
        }];
        let bases = [
            (store.spill_epoch(1, &real).unwrap(), 1),
            (store.spill_epoch(2, &complex).unwrap(), 2),
        ]
        .map(|(path, epoch)| (fs::read(&path).unwrap(), epoch));
        for (_, epoch) in &bases {
            fs::remove_file(store.epoch_path(*epoch)).unwrap();
        }
        let mut rng = gpaw_des::SplitMix64::new(0xD0_5EED);
        let mut loaded = 0;
        for case in 0..10_000u64 {
            let (base, epoch) = &bases[(case % 2) as usize];
            let mut bytes = base.clone();
            for _ in 0..1 + rng.next_below(3) {
                mutate(&mut bytes, &mut rng);
            }
            restamp(&mut bytes);
            let path = store.epoch_path(*epoch);
            fs::write(&path, &bytes).unwrap();
            // Read as the spilled scalar and as the other one.
            let outcome =
                std::panic::catch_unwind(|| (store.recover::<f64>(), store.recover::<C64>()));
            let Ok((real, complex)) = outcome else {
                panic!(
                    "case {case}: recover panicked on {} mutated bytes",
                    bytes.len()
                );
            };
            for rec in [real.map(|r| r.epoch), complex.map(|r| r.epoch)] {
                loaded += usize::from(rec.unwrap_or_else(|e| panic!("case {case}: {e}")) > 0);
            }
            fs::remove_file(&path).unwrap();
        }
        // Some mutations (a flipped data bit, extended trailing bytes) leave
        // a file that still parses: the fuzz reached past the checksums.
        assert!(loaded > 0, "no mutated file ever parsed");
        fs::remove_dir_all(&dir).ok();
    }
}
