//! Write-ahead op log for the serving layer.
//!
//! Every operation a WAL-backed [`RmsService`](crate::RmsService)
//! acknowledges is first framed into an append-only log, so an unclean
//! death (kill −9, power cut with the fsync knob on) between
//! acknowledgement and apply loses nothing: the next
//! [`RmsService::start_with_wal`](crate::RmsService::start_with_wal)
//! replays the log on top of the base dataset before going live.
//!
//! The format is std-only binary framing in the style of
//! `rms-data::cache`:
//!
//! ```text
//! header   magic u32 = 0x4B57414C ("KWAL"), version u32
//! record   tag u8 | len u32 | payload (len bytes) | fnv1a-64 of tag+payload
//!
//! tag 1  INSERT      payload: id u64, d u32, d × f64
//! tag 2  DELETE      payload: id u64
//! tag 3  UPDATE      payload: id u64, d u32, d × f64
//! tag 4  CHECKPOINT  payload: an rms-data::cache dataset buffer
//! ```
//!
//! All integers and floats are little-endian. A `CHECKPOINT` record
//! resets replay state: everything before it is superseded by the
//! embedded dataset, ops after it apply on top. Graceful shutdown
//! compacts the log to a single checkpoint of the final live tuples
//! (atomically, via a temp-file rename), so the log never grows beyond
//! one unclean run's worth of ops.
//!
//! A service with one shard logs to the path it is given; with `S > 1`
//! shards, shard `i` logs to `<path>.<i>` and `<path>.meta` records `S`
//! (see `shard_log_paths`).
//!
//! Torn tails are expected, not fatal: a crash mid-append leaves a
//! truncated or checksum-failing final record; [`Wal::open`] stops
//! replay at the last intact record and truncates the file there before
//! new appends, so the log never accumulates unreachable garbage.

use fdrms::Op;
use rms_geom::Point;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: u32 = 0x4B57_414C;
const VERSION: u32 = 1;
const HEADER_LEN: usize = 8;

/// A record's tag byte. [`encode_op`] matches exhaustively over [`Op`]
/// and [`parse_record`] over this enum, so an op without a tag, or a tag
/// without a replay arm, does not compile.
#[repr(u8)]
#[derive(Debug, Clone, Copy)]
enum WalTag {
    Insert = 1,
    Delete = 2,
    Update = 3,
    Checkpoint = 4,
}

impl TryFrom<u8> for WalTag {
    type Error = u8;

    fn try_from(byte: u8) -> Result<Self, u8> {
        match byte {
            1 => Ok(Self::Insert),
            2 => Ok(Self::Delete),
            3 => Ok(Self::Update),
            4 => Ok(Self::Checkpoint),
            unknown => Err(unknown),
        }
    }
}

/// Frame overhead around a payload: tag (1) + length (4) + hash (8).
const FRAME_OVERHEAD: usize = 13;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One FNV-1a 64-bit folding step over `bytes` — enough to tell a torn
/// or bit-rotted record from an intact one; this is corruption
/// detection, not authentication. Streaming (seed in, hash out) so a
/// record's `tag + payload` hashes without concatenating them.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The checksum of one record: FNV-1a over the tag byte then the payload.
fn record_hash(tag: u8, payload: &[u8]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, &[tag]), payload)
}

/// What [`Wal::open`] recovered from an existing log.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// The dataset of the most recent `CHECKPOINT` record, if any — the
    /// replay base that supersedes the caller's initial dataset.
    pub checkpoint: Option<Vec<Point>>,
    /// Operations logged after that checkpoint (or since the header when
    /// no checkpoint exists), in append order.
    pub ops: Vec<Op>,
    /// Bytes of torn/corrupt tail dropped during recovery (0 on a clean
    /// log).
    pub torn_bytes: u64,
}

/// An open write-ahead log positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes of intact log, maintained across appends. A failed append
    /// truncates back here so a torn record never strands the records
    /// appended after it; if even the truncation fails the log is
    /// poisoned and refuses further appends (claiming durability over a
    /// wedged log would silently lose everything past the tear).
    end: u64,
    poisoned: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, first scanning what
    /// is already there. The scan tolerates a torn tail — the file is
    /// truncated to its last intact record so appends resume cleanly — but
    /// refuses a non-empty file that is not a KWAL log, so a mistaken
    /// `--wal` path never clobbers foreign data.
    pub fn open(path: &Path) -> io::Result<(Self, WalReplay)> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let raw = match std::fs::read(path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (replay, valid_len) = scan(&raw)?;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        let end = if raw.is_empty() {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&MAGIC.to_le_bytes());
            header.extend_from_slice(&VERSION.to_le_bytes());
            file.write_all(&header)?;
            HEADER_LEN as u64
        } else {
            // Drop the torn tail (if any) so fresh appends are reachable.
            file.set_len(valid_len)?;
            valid_len
        };
        file.seek(SeekFrom::End(0))?;
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
                end,
                poisoned: false,
            },
            replay,
        ))
    }

    /// Appends one operation record. The record reaches the OS (a plain
    /// `write`, no userspace buffering) before this returns, so it
    /// survives a process kill; call [`Wal::sync`] for power-failure
    /// durability.
    pub fn append(&mut self, op: &Op) -> io::Result<()> {
        self.append_frame(&Self::frame_op(op))
    }

    /// Encodes one operation into its on-disk record, for callers that
    /// must build the frame before the op is moved elsewhere (the
    /// serving layer frames before enqueueing, then appends after the
    /// enqueue succeeds).
    pub fn frame_op(op: &Op) -> Vec<u8> {
        let (tag, payload) = encode_op(op);
        frame(tag, &payload)
    }

    /// Appends a record previously produced by [`Wal::frame_op`]. On an
    /// IO failure the log is truncated back to its last intact record —
    /// a partially written frame must not strand everything appended
    /// after it behind a checksum failure. If that recovery truncation
    /// itself fails, the log is poisoned: every further append returns
    /// an error instead of pretending to be durable.
    pub fn append_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "write-ahead log is poisoned by an unrecoverable append failure",
            ));
        }
        match self.file.write_all(frame) {
            Ok(()) => {
                self.end += frame.len() as u64;
                Ok(())
            }
            Err(e) => {
                if self.file.set_len(self.end).is_err() || self.file.seek(SeekFrom::End(0)).is_err()
                {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Flushes appended records to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// An independent fsync handle over the same log file (a duplicated
    /// descriptor), so the applier's group-commit `fdatasync` never
    /// contends with — let alone deadlocks against — the append mutex
    /// the submitters serialize enqueue+append under. After a
    /// [`Wal::checkpoint`] the handle points at the unlinked pre-compaction
    /// file; syncing that is harmless, and compaction only happens at
    /// shutdown, after the last group commit.
    pub fn sync_handle(&self) -> io::Result<WalSyncHandle> {
        Ok(WalSyncHandle {
            file: self.file.try_clone()?,
        })
    }

    /// Compacts the log to a single checkpoint of `points`, written with
    /// [`write_durably`]: a crash mid-compaction leaves either the old
    /// log or the new one — never a mix.
    pub fn checkpoint(&mut self, points: &[Point]) -> io::Result<()> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&frame(WalTag::Checkpoint, &rms_data::cache::encode(points)));
        write_durably(&self.path, &buf)?;
        // Re-open so subsequent appends land after the checkpoint record
        // of the *new* file, not in the unlinked old one.
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.end = self.file.seek(SeekFrom::End(0))?;
        self.poisoned = false;
        Ok(())
    }
}

/// Replaces the file at `path` with `bytes` so that a crash or power
/// loss leaves either the old content or the complete new one: the bytes
/// go to a sibling `<path>.tmp`, are synced, and the temp file is
/// renamed over `path`. The rename itself is only power-failure durable
/// once the parent directory entry is flushed, so the directory is
/// synced too (best-effort: a directory that cannot be opened or synced
/// leaves process-kill durability intact).
pub(crate) fn write_durably(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp_path = with_suffix(path, ".tmp");
    {
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(bytes)?;
        tmp.sync_data()?;
    }
    std::fs::rename(&tmp_path, path)?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(dir) = File::open(parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// `<path><suffix>`, e.g. `rms.wal` + `.meta` → `rms.wal.meta`.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut p = path.as_os_str().to_os_string();
    p.push(suffix);
    PathBuf::from(p)
}

/// The log file of each shard of an `S`-shard service whose write-ahead
/// log lives at `base`, indexed by shard. One shard logs to `<base>`
/// itself; `S > 1` shards log to `<base>.<i>` and record `S` in a
/// `<base>.meta` sidecar ([`record_shard_count`]).
///
/// The partition key `id % S` is baked into that layout, so a layout
/// written under another shard count is refused: a single shard refuses
/// a group's logs (opening `<base>` would start a fresh empty log beside
/// them), a group refuses a bare single-shard log, and a group refuses a
/// recorded count other than `S` (silently opening 2 of 3 logs, or
/// re-partitioning recovered tuples under a different modulus, would
/// lose or duplicate acknowledged ops). Read-only: the count is recorded
/// only after every shard has started, so a failed start pins no count.
pub(crate) fn shard_log_paths(base: &Path, shards: usize) -> io::Result<Vec<PathBuf>> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let meta = with_suffix(base, ".meta");
    if shards == 1 {
        if meta.exists() {
            return Err(invalid(format!(
                "{} belongs to a sharded group (see {}); start with the matching shard \
                 count, or move the old logs aside",
                base.display(),
                meta.display()
            )));
        }
        return Ok(vec![base.to_path_buf()]);
    }
    if base.is_file() {
        return Err(invalid(format!(
            "{} is a single-service write-ahead log; a shard group logs to {}.<i> \
             (restart without --shards, or move the old log aside)",
            base.display(),
            base.display()
        )));
    }
    match std::fs::read_to_string(&meta) {
        Ok(raw) => {
            let recorded: Option<usize> = raw
                .trim()
                .strip_prefix("shards=")
                .and_then(|v| v.parse().ok());
            match recorded {
                Some(n) if n == shards => {}
                Some(n) => {
                    return Err(invalid(format!(
                        "write-ahead logs at {} were written by a {n}-shard group; \
                         refusing to start with {shards} shards (acknowledged ops would be \
                         lost or mis-partitioned)",
                        base.display()
                    )))
                }
                None => {
                    return Err(invalid(format!(
                        "unreadable shard metadata in {}",
                        meta.display()
                    )))
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok((0..shards)
        .map(|i| with_suffix(base, &format!(".{i}")))
        .collect())
}

/// Records a group's shard count in the `<base>.meta` sidecar (see
/// [`shard_log_paths`]); a no-op for a single shard. Written with
/// [`write_durably`], so with `wal_fsync` on a power loss cannot keep
/// the shard logs and lose the count that guards them.
pub(crate) fn record_shard_count(base: &Path, shards: usize) -> io::Result<()> {
    if shards == 1 {
        return Ok(());
    }
    write_durably(
        &with_suffix(base, ".meta"),
        format!("shards={shards}\n").as_bytes(),
    )
}

/// A duplicated descriptor of an open [`Wal`], used only for
/// `fdatasync` — see [`Wal::sync_handle`].
#[derive(Debug)]
pub struct WalSyncHandle {
    file: File,
}

impl WalSyncHandle {
    /// Flushes everything appended to the log so far to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Frames one record: `tag | len | payload | fnv1a(tag + payload)`.
fn frame(tag: WalTag, payload: &[u8]) -> Vec<u8> {
    let tag = tag as u8;
    let mut rec = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    rec.push(tag);
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(payload);
    rec.extend_from_slice(&record_hash(tag, payload).to_le_bytes());
    rec
}

fn encode_op(op: &Op) -> (WalTag, Vec<u8>) {
    match op {
        Op::Insert(p) => (WalTag::Insert, encode_point(p)),
        Op::Update(p) => (WalTag::Update, encode_point(p)),
        Op::Delete(id) => (WalTag::Delete, id.to_le_bytes().to_vec()),
    }
}

fn encode_point(p: &Point) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + p.dim() * 8);
    buf.extend_from_slice(&p.id().to_le_bytes());
    buf.extend_from_slice(&(p.dim() as u32).to_le_bytes());
    for &c in p.coords() {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    buf
}

/// Reads a little-endian `u32` at `at`, `None` past the end — the
/// fallible primitive all decode paths are built on, so a torn or
/// corrupt record can never panic the replay.
fn le_u32(buf: &[u8], at: usize) -> Option<u32> {
    buf.get(at..)?
        .first_chunk::<4>()
        .map(|b| u32::from_le_bytes(*b))
}

/// Reads a little-endian `u64` at `at`, `None` past the end.
fn le_u64(buf: &[u8], at: usize) -> Option<u64> {
    buf.get(at..)?
        .first_chunk::<8>()
        .map(|b| u64::from_le_bytes(*b))
}

fn decode_point(payload: &[u8]) -> Option<Point> {
    let id = le_u64(payload, 0)?;
    let d = le_u32(payload, 8)? as usize;
    let mut rest = payload.get(12..)?;
    if rest.len() != d.checked_mul(8)? {
        return None;
    }
    let mut coords = Vec::with_capacity(d);
    while let Some((c, tail)) = rest.split_first_chunk::<8>() {
        coords.push(f64::from_le_bytes(*c));
        rest = tail;
    }
    Some(Point::new_unchecked(id, coords))
}

/// Scans a log buffer: returns the replay state and the byte length of
/// the intact prefix. A torn or corrupt record ends the scan (its bytes
/// count as torn); a non-KWAL prefix is an error.
fn scan(raw: &[u8]) -> io::Result<(WalReplay, u64)> {
    if raw.is_empty() {
        return Ok((WalReplay::default(), 0));
    }
    if raw.len() < HEADER_LEN || le_u32(raw, 0) != Some(MAGIC) || le_u32(raw, 4) != Some(VERSION) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a KRMS write-ahead log (refusing to overwrite)",
        ));
    }
    let mut replay = WalReplay::default();
    let mut pos = HEADER_LEN;
    while let Some(next) = parse_record(&raw[pos..], &mut replay) {
        pos += next;
    }
    replay.torn_bytes = (raw.len() - pos) as u64;
    Ok((replay, pos as u64))
}

/// Parses one record at the front of `buf` into `replay`; returns the
/// record's total length, or `None` when the record is torn, corrupt,
/// carries a tag byte outside [`WalTag`], or `buf` is exhausted.
fn parse_record(buf: &[u8], replay: &mut WalReplay) -> Option<usize> {
    if buf.len() < FRAME_OVERHEAD {
        return None;
    }
    let tag = *buf.first()?;
    let len = le_u32(buf, 1)? as usize;
    let total = FRAME_OVERHEAD.checked_add(len)?;
    if buf.len() < total {
        return None;
    }
    let payload = buf.get(5..5 + len)?;
    let stored = le_u64(buf, 5 + len)?;
    if record_hash(tag, payload) != stored {
        return None;
    }
    match WalTag::try_from(tag).ok()? {
        WalTag::Insert => replay.ops.push(Op::Insert(decode_point(payload)?)),
        WalTag::Update => replay.ops.push(Op::Update(decode_point(payload)?)),
        WalTag::Delete => {
            if payload.len() != 8 {
                return None;
            }
            replay.ops.push(Op::Delete(le_u64(payload, 0)?));
        }
        WalTag::Checkpoint => {
            let points = rms_data::cache::decode(payload).ok()?;
            // The checkpoint supersedes everything before it.
            replay.checkpoint = Some(points);
            replay.ops.clear();
        }
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("krms-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.wal", std::process::id()))
    }

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Insert(Point::new_unchecked(7, vec![0.5, 0.25])),
            Op::Delete(3),
            Op::Update(Point::new_unchecked(9, vec![1.0, 0.0])),
        ]
    }

    /// Every `Op` variant replays as appended; the second input adds a
    /// checkpoint record mid-log (framed in place, not compacted), so
    /// every `WalTag` goes through its encode and replay arm.
    #[test]
    fn roundtrip_append_replay() {
        let live = vec![Point::new_unchecked(1, vec![0.1, 0.2])];
        for checkpoint in [None, Some(live)] {
            let path = temp_path("roundtrip");
            let _ = std::fs::remove_file(&path);
            let (mut wal, replay) = Wal::open(&path).unwrap();
            assert!(replay.checkpoint.is_none() && replay.ops.is_empty());
            if let Some(points) = &checkpoint {
                wal.append(&Op::Delete(5)).unwrap();
                let rec = frame(WalTag::Checkpoint, &rms_data::cache::encode(points));
                wal.append_frame(&rec).unwrap();
            }
            for op in &sample_ops() {
                wal.append(op).unwrap();
            }
            wal.sync().unwrap();
            drop(wal);
            let (_, replay) = Wal::open(&path).unwrap();
            assert_eq!(replay.checkpoint, checkpoint);
            assert_eq!(replay.ops, sample_ops());
            assert_eq!(replay.torn_bytes, 0);
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// The tag bytes are the KWAL v1 on-disk values, and only they
    /// convert back to a `WalTag`.
    #[test]
    fn tag_bytes_match_the_v1_format() {
        let tags: Vec<u8> = sample_ops()
            .iter()
            .map(|op| encode_op(op).0 as u8)
            .collect();
        assert_eq!(tags, [1, 2, 3]);
        assert_eq!(WalTag::Checkpoint as u8, 4);
        for byte in 0..=u8::MAX {
            match WalTag::try_from(byte) {
                Ok(tag) => assert_eq!(tag as u8, byte),
                Err(unknown) => {
                    assert_eq!(unknown, byte);
                    assert!(byte == 0 || byte > 4, "byte {byte} must be a tag");
                }
            }
        }
    }

    /// A record whose checksum is valid but whose tag byte is not a
    /// `WalTag` ends replay there, and its bytes count as torn.
    #[test]
    fn unknown_tag_ends_replay() {
        let path = temp_path("unknown-tag");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        for op in &sample_ops() {
            wal.append(op).unwrap();
        }
        let payload = 42u64.to_le_bytes();
        let mut rec = vec![9];
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&payload);
        rec.extend_from_slice(&record_hash(9, &payload).to_le_bytes());
        wal.append_frame(&rec).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.ops, sample_ops());
        assert_eq!(replay.torn_bytes, rec.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_appends_resume() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        for op in &sample_ops() {
            wal.append(op).unwrap();
        }
        drop(wal);
        // Tear the last record mid-frame, as a crash during append would.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();
        let (mut wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.ops, sample_ops()[..2].to_vec());
        assert!(replay.torn_bytes > 0);
        // The torn bytes were truncated: a fresh append is reachable.
        wal.append(&Op::Delete(42)).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.ops.len(), 3);
        assert_eq!(replay.ops[2], Op::Delete(42));
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_ends_replay() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        for op in &sample_ops() {
            wal.append(op).unwrap();
        }
        drop(wal);
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a payload byte of the second record (header is 8 bytes,
        // first record is 13 + 20 = 33 bytes; the second starts at 41).
        let idx = raw.len() - 15;
        raw[idx] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let (_, replay) = Wal::open(&path).unwrap();
        assert!(replay.ops.len() < 3);
        assert!(replay.torn_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_supersedes() {
        let path = temp_path("checkpoint");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        for op in &sample_ops() {
            wal.append(op).unwrap();
        }
        let live = vec![
            Point::new_unchecked(1, vec![0.1, 0.2]),
            Point::new_unchecked(2, vec![0.3, 0.4]),
        ];
        wal.checkpoint(&live).unwrap();
        // Ops appended after the checkpoint replay on top of it.
        wal.append(&Op::Delete(1)).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.checkpoint, Some(live));
        assert_eq!(replay.ops, vec![Op::Delete(1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn refuses_foreign_files() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(Wal::open(&path).is_err());
        // The foreign file is untouched.
        assert_eq!(std::fs::read(&path).unwrap(), b"definitely not a wal");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_durably_replaces_in_place_without_leftovers() {
        let path = temp_path("durable");
        let tmp = with_suffix(&path, ".tmp");
        let _ = std::fs::remove_file(&path);
        write_durably(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        assert!(!tmp.exists(), "no temp file is left behind");
        // An existing file is replaced wholesale, not appended to or
        // partially overwritten.
        write_durably(&path, b"2nd").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"2nd");
        assert!(!tmp.exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_ops_and_checkpoints() {
        let path = temp_path("empty");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.checkpoint(&[]).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.checkpoint, Some(Vec::new()));
        assert!(replay.ops.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
