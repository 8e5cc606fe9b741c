// The disk store: a segmented append-only WAL plus an atomically replaced
// snapshot file, both living in one per-process directory.
//
// Segment layout: wal-%016x.log (hex first record index), an 8-byte magic
// header, then frames of [4-byte LE body length][4-byte LE CRC-32C][body].
// The CRC covers the body only; a frame whose length is implausible or
// whose CRC mismatches ends replay — the standard torn-tail contract.
//
// Snapshot layout: snap-%016x.snap (hex WAL index it covers), an 8-byte
// magic, the covered index as a uvarint, a 4-byte LE CRC-32C of the
// payload, then the payload. Snapshots are written to a temp file, synced,
// and renamed into place, so a crash mid-save leaves the previous snapshot
// intact.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

var (
	segMagic  = []byte("WANWAL01")
	snapMagic = []byte("WANSNP01")
	crcTable  = crc32.MakeTable(crc32.Castagnoli)
)

const (
	frameHeader = 8 // 4-byte length + 4-byte CRC
	// maxRecord bounds one WAL frame; anything larger in a header is
	// corruption, not an allocation request.
	maxRecord = 64 << 20
)

// DiskOptions tunes OpenDisk.
type DiskOptions struct {
	// SegmentSize is the rotation threshold in bytes (default 8 MiB).
	SegmentSize int64
	// NoFsync makes Sync a no-op, so a barrier only flushes to the OS:
	// crash recovery of the OS process is then best-effort, but an
	// in-process restart still sees every record. The "fsync=off"
	// benchmark knob.
	NoFsync bool
}

// Disk is the file-backed Store. Under group commit it is shared
// between its owning lane (Append/Flush/Maintain) and the syncer
// goroutine (Sync): fmu serializes the Syncs and keeps a rotation or Close
// from racing an in-flight fsync; the dirty flag and fsync counter are
// atomic. All other methods stay lane-confined.
type Disk struct {
	dir     string
	opts    DiskOptions
	fmu     sync.Mutex // guards f (and closed) against Sync vs Sync/rotate/Close
	f       *os.File
	wbuf    []byte // pending (unflushed) encoded frames
	scratch []byte // per-record encode scratch
	next    uint64 // index of the next record to append
	segLen  int64  // bytes written to the current segment
	dirty   atomic.Bool
	fsyncs  atomic.Uint64
	closed  bool
}

var _ Store = (*Disk)(nil)

// OpenDisk opens (creating if needed) the store in dir. Existing segments
// are scanned to find the next record index; appends continue in a fresh
// segment so a torn tail from a previous incarnation can never be
// mid-segment ahead of new records.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = 8 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	d := &Disk{dir: dir, opts: opts}
	segs, err := d.segments()
	if err != nil {
		return nil, err
	}
	d.next = 0
	if len(segs) > 0 {
		// A torn tail in the last incarnation's segment would otherwise
		// stop every future replay before the records this incarnation
		// appends: truncate the tear away now, while nothing depends on it.
		last := segs[len(segs)-1]
		path := filepath.Join(dir, segName(last))
		n, goodLen, err := scanSegment(path)
		if err != nil {
			return nil, err
		}
		if goodLen < int64(len(segMagic)) {
			// Not even an intact header: the file would stop every replay.
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("storage: %w", err)
			}
		} else if err := os.Truncate(path, goodLen); err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		d.next = last + n
	}
	if err := d.openSegment(); err != nil {
		return nil, err
	}
	return d, nil
}

func segName(first uint64) string { return fmt.Sprintf("wal-%016x.log", first) }

// segments returns the first indices of existing segments, ascending.
func (d *Disk) segments() ([]uint64, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var firsts []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		n, err := strconv.ParseUint(name[4:len(name)-4], 16, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		firsts = append(firsts, n)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	return firsts, nil
}

func (d *Disk) openSegment() error {
	f, err := os.OpenFile(filepath.Join(d.dir, segName(d.next)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if _, err := f.Write(segMagic); err != nil {
		_ = f.Close()
		return fmt.Errorf("storage: %w", err)
	}
	// The directory entry must be durable too, or a power loss can drop
	// the whole segment no matter how often its CONTENT was fsynced.
	if err := d.syncDir(); err != nil {
		_ = f.Close()
		return err
	}
	d.f = f
	d.segLen = int64(len(segMagic))
	d.dirty.Store(true)
	return nil
}

// syncDir fsyncs the store directory (new files, renames). No-op under
// NoFsync.
func (d *Disk) syncDir() error {
	if d.opts.NoFsync {
		return nil
	}
	dir, err := os.Open(d.dir)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// Append implements Store. The encode path reuses the store's scratch
// buffer and the record's wire codecs, so it allocates nothing in steady
// state.
func (d *Disk) Append(rec Record) error {
	if d.closed {
		return fmt.Errorf("storage: append to closed store")
	}
	body := rec.AppendTo(d.scratch[:0])
	d.scratch = body[:0]
	if len(body) > maxRecord {
		return fmt.Errorf("storage: record of %d bytes exceeds limit", len(body))
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(body, crcTable))
	d.wbuf = append(d.wbuf, hdr[:]...)
	d.wbuf = append(d.wbuf, body...)
	d.next++
	// Flush opportunistically so wbuf stays small; durability still waits
	// for the next Sync.
	if len(d.wbuf) >= 256<<10 {
		if err := d.flush(); err != nil {
			return err
		}
	}
	return nil
}

func (d *Disk) flush() error {
	if len(d.wbuf) == 0 {
		return nil
	}
	if _, err := d.f.Write(d.wbuf); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	d.segLen += int64(len(d.wbuf))
	d.wbuf = d.wbuf[:0]
	d.dirty.Store(true)
	return nil
}

// Flush implements Store: push buffered appends to the OS without a
// durability barrier. Lane-side (same goroutine as Append).
func (d *Disk) Flush() error {
	if d.closed {
		return fmt.Errorf("storage: flush on closed store")
	}
	return d.flush()
}

// Sync implements Store: fsync everything flushed so far. Every barrier's
// fsync is this one, inline or from the group-commit syncer's goroutine
// (rotate seals a full segment with its own). It holds the file-handle
// lock: a rotation or Close cannot pull the file out from under the fsync,
// and a second Sync, finding nothing dirty, returns after it. Flushes that complete before a barrier is staged are
// covered by construction (flush happens-before stage happens-before the
// syncer's read of it happens-before this call).
func (d *Disk) Sync() error {
	d.fmu.Lock()
	defer d.fmu.Unlock()
	if d.closed || !d.dirty.Swap(false) {
		return nil
	}
	if d.opts.NoFsync {
		return nil
	}
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	d.fsyncs.Add(1)
	return nil
}

// Maintain implements Store: rotate the segment if it outgrew the
// threshold. Lane-side, so rotation cannot race the lane's appends.
func (d *Disk) Maintain() error {
	if d.closed || d.segLen < d.opts.SegmentSize {
		return nil
	}
	return d.rotate()
}

// Fsyncs implements Store.
func (d *Disk) Fsyncs() uint64 { return d.fsyncs.Load() }

func (d *Disk) rotate() error {
	// The whole swap runs under the file-handle lock: a group-commit Sync
	// in flight must finish against the old segment before it closes, and
	// must see the new handle afterwards.
	d.fmu.Lock()
	defer d.fmu.Unlock()
	if !d.opts.NoFsync {
		if err := d.f.Sync(); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		d.fsyncs.Add(1)
	}
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return d.openSegment()
}

// SaveSnapshot implements Store.
func (d *Disk) SaveSnapshot(data []byte) error {
	if d.closed {
		return fmt.Errorf("storage: snapshot on closed store")
	}
	// The snapshot covers every record appended so far; make sure they are
	// all in their segments before pruning anything.
	if err := Barrier(d); err != nil {
		return err
	}
	upTo := d.next
	var buf []byte
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, upTo)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(data, crcTable))
	buf = append(buf, crc[:]...)
	buf = append(buf, data...)

	final := filepath.Join(d.dir, fmt.Sprintf("snap-%016x.snap", upTo))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := d.syncDir(); err != nil {
		return err
	}
	d.prune(upTo)
	return nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// prune removes segments and snapshots a snapshot covering upTo makes
// obsolete: segments whose successor starts at or below upTo (their every
// record is below it) and all but the newest snapshot. Prune errors are
// ignored — stale files cost disk, not correctness.
func (d *Disk) prune(upTo uint64) {
	segs, err := d.segments()
	if err != nil {
		return
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= upTo {
			_ = os.Remove(filepath.Join(d.dir, segName(segs[i])))
		}
	}
	snaps, _ := d.snapshots()
	for i := 0; i+1 < len(snaps); i++ {
		_ = os.Remove(filepath.Join(d.dir, snaps[i]))
	}
}

// snapshots returns snapshot file names, oldest first.
func (d *Disk) snapshots() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Load implements Store: newest intact snapshot wins; corrupt ones are
// skipped (an older snapshot plus a longer replay is still correct).
func (d *Disk) Load() ([]byte, uint64, error) {
	snaps, err := d.snapshots()
	if err != nil {
		return nil, 0, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		data, upTo, ok := readSnapshot(filepath.Join(d.dir, snaps[i]))
		if ok {
			return data, upTo, nil
		}
	}
	return nil, 0, nil
}

func readSnapshot(path string) (data []byte, upTo uint64, ok bool) {
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) < len(snapMagic)+5 {
		return nil, 0, false
	}
	if string(raw[:len(snapMagic)]) != string(snapMagic) {
		return nil, 0, false
	}
	raw = raw[len(snapMagic):]
	upTo, n := binary.Uvarint(raw)
	if n <= 0 || len(raw[n:]) < 4 {
		return nil, 0, false
	}
	raw = raw[n:]
	want := binary.LittleEndian.Uint32(raw[:4])
	payload := raw[4:]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, 0, false
	}
	return payload, upTo, true
}

// Replay implements Store. Buffered appends are flushed first so an
// in-process restart replays everything it logged; a torn or corrupt tail
// ends the walk without error.
func (d *Disk) Replay(from uint64, fn func(rec Record) error) error {
	if !d.closed {
		if err := d.flush(); err != nil {
			return err
		}
	}
	segs, err := d.segments()
	if err != nil {
		return err
	}
	for _, first := range segs {
		stop, err := replaySegment(filepath.Join(d.dir, segName(first)), first, from, fn)
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// replaySegment walks one segment; it reports whether replay should stop
// (torn tail found — later segments, if any, predate the tear only when
// rotation raced a crash, and skipping them keeps the replayed prefix
// consistent).
func replaySegment(path string, first, from uint64, fn func(rec Record) error) (stop bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("storage: %w", err)
	}
	idx := first - 1
	_, whole := walkFrames(raw, func(body []byte) bool {
		if idx++; idx < from {
			return true
		}
		rec, rest, derr := DecodeRecord(body)
		if derr != nil || len(rest) != 0 {
			return false // framed but unparseable: corrupt tail
		}
		err = fn(rec)
		return err == nil
	})
	return !whole && err == nil, err
}

// walkFrames calls fn with the body of each intact frame of raw, a segment's
// bytes, in order, until fn returns false. A bad magic (an unreadable
// segment) or a short, oversized or CRC-failing frame (a torn tail) ends the
// walk. It returns the byte length of the intact prefix walked and whether
// that is all of raw.
func walkFrames(raw []byte, fn func(body []byte) bool) (goodLen int, whole bool) {
	if len(raw) < len(segMagic) || string(raw[:len(segMagic)]) != string(segMagic) {
		return 0, false
	}
	off := len(segMagic)
	for rest := raw[off:]; len(rest) > 0; rest = raw[off:] {
		if len(rest) < frameHeader {
			return off, false
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > maxRecord || int(n) > len(rest)-frameHeader {
			return off, false
		}
		body := rest[frameHeader : frameHeader+int(n)]
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(rest[4:8]) || !fn(body) {
			return off, false
		}
		off += frameHeader + int(n)
	}
	return off, true
}

// Close implements Store.
func (d *Disk) Close() error {
	if d.closed {
		return nil
	}
	err := Barrier(d)
	d.fmu.Lock()
	d.closed = true
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	d.fmu.Unlock()
	return err
}

// scanSegment returns how many intact records a segment holds and the
// byte length of that intact prefix (used on reopen to continue the index
// sequence and truncate any torn tail).
func scanSegment(path string) (n uint64, goodLen int64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("storage: %w", err)
	}
	off, _ := walkFrames(raw, func([]byte) bool { n++; return true })
	return n, int64(off), nil
}

var _ io.Closer = (*Disk)(nil)
