package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"spatialhist/internal/check/failpoint"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
)

// Failpoint sites of the durability path (see internal/check/failpoint):
// record bytes reaching the journal file, the journal fsync, and the
// checkpoint temp-file write. Crash-recovery tests arm them to kill the
// store at any byte boundary instead of waiting for a lucky torn tail.
const (
	FailpointWALWrite        = "live/wal/write"
	FailpointWALSync         = "live/wal/fsync"
	FailpointCheckpointWrite = "live/checkpoint/write"
)

// Write-ahead log format. The header pins the store configuration so a log
// can never be replayed into a store with a different grid, algorithm or
// area partitioning (which would silently corrupt every bucket):
//
//	magic   [8]byte "SPWAL001"
//	algo    uint8   (1 = S-EulerApprox, 2 = EulerApprox, 3 = M-EulerApprox)
//	extent  4 × float64
//	nx, ny  uint32
//	m       uint32  (number of area thresholds; 0 unless M-EulerApprox)
//	areas   m × float64
//
// followed by fixed-size records, each independently checksummed:
//
//	op      uint8   (1 = insert, 2 = delete, 3 = update)
//	rects   4 × float64 (insert/delete) or 8 × float64 (update: old, new)
//	crc     uint32  CRC-32 (IEEE) of the op byte and the rect payload
//
// Little-endian throughout. Records are journaled before they are applied,
// so after a crash the builders are reconstructed exactly by replaying the
// log over the seed objects (or over the latest checkpoint). A torn or
// corrupt tail — the expected shape of a crash mid-append — is detected by
// the per-record CRC and truncated on open; everything after the first bad
// byte is untrusted by design.

var walMagic = [8]byte{'S', 'P', 'W', 'A', 'L', '0', '0', '1'}

// Mutation opcodes, the Record.Op values. Update is one record so a
// delete+insert pair that re-routes an object between area partitions is
// atomic in the journal.
const (
	OpInsert byte = 1
	OpDelete byte = 2
	OpUpdate byte = 3
)

const (
	rectBytes         = 4 * 8
	recordBytes       = 1 + rectBytes + 4   // op + one rect + crc
	updateRecordBytes = 1 + 2*rectBytes + 4 // op + two rects + crc
)

// replayBufBytes is the one buffer Open reads the journal through.
const replayBufBytes = 1 << 16

// Record is one journal mutation: what a store appends to its WAL and
// replay at Open decodes.
type Record struct {
	// Op is OpInsert, OpDelete or OpUpdate.
	Op byte
	// Rect is the object MBR (the post-image for updates).
	Rect geom.Rect
	// Old is the update pre-image; zero otherwise.
	Old geom.Rect
}

// encodedLen is the record's journal wire size in bytes.
func (r Record) encodedLen() int64 {
	if r.Op == OpUpdate {
		return updateRecordBytes
	}
	return recordBytes
}

// encodeHeader renders the config-pinning header; openWAL compares it
// byte-for-byte, so configuration equality is exactly header equality.
func encodeHeader(algo uint8, g *grid.Grid, areas []float64) []byte {
	var b bytes.Buffer
	b.Write(walMagic[:])
	b.WriteByte(algo)
	ext := g.Extent()
	for _, v := range [4]float64{ext.XMin, ext.YMin, ext.XMax, ext.YMax} {
		binary.Write(&b, binary.LittleEndian, v)
	}
	binary.Write(&b, binary.LittleEndian, uint32(g.NX()))
	binary.Write(&b, binary.LittleEndian, uint32(g.NY()))
	binary.Write(&b, binary.LittleEndian, uint32(len(areas)))
	for _, a := range areas {
		binary.Write(&b, binary.LittleEndian, a)
	}
	return b.Bytes()
}

// decodeHeader parses a config-pinning header from r — the inverse of
// encodeHeader, used to reconstruct a store configuration from a
// checkpoint. Re-encoding the result reproduces the input bytes exactly
// (the fields are raw float64/uint32 little-endian), so a config derived
// this way passes the byte-for-byte header checks of openWAL and
// loadCheckpoint.
func decodeHeader(r io.Reader) (algo uint8, g *grid.Grid, areas []float64, err error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, nil, nil, fmt.Errorf("live: reading header magic: %w", err)
	}
	if magic != walMagic {
		return 0, nil, nil, fmt.Errorf("live: bad header magic %q", magic)
	}
	var a [1]byte
	if _, err := io.ReadFull(r, a[:]); err != nil {
		return 0, nil, nil, fmt.Errorf("live: reading header algorithm: %w", err)
	}
	var ext [4]float64
	for i := range ext {
		if err := binary.Read(r, binary.LittleEndian, &ext[i]); err != nil {
			return 0, nil, nil, fmt.Errorf("live: reading header extent: %w", err)
		}
	}
	var nx, ny, m uint32
	for _, p := range []*uint32{&nx, &ny, &m} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return 0, nil, nil, fmt.Errorf("live: reading header grid: %w", err)
		}
	}
	extent := geom.Rect{XMin: ext[0], YMin: ext[1], XMax: ext[2], YMax: ext[3]}
	if nx == 0 || ny == 0 || nx > 1<<20 || ny > 1<<20 || m > 64 || !extent.Valid() || extent.Degenerate() {
		return 0, nil, nil, fmt.Errorf("live: implausible header (grid %dx%d over %v, %d areas)", nx, ny, extent, m)
	}
	if m > 0 {
		areas = make([]float64, m)
		for i := range areas {
			if err := binary.Read(r, binary.LittleEndian, &areas[i]); err != nil {
				return 0, nil, nil, fmt.Errorf("live: reading header areas: %w", err)
			}
		}
	}
	return a[0], grid.New(extent, int(nx), int(ny)), areas, nil
}

func putRect(buf []byte, r geom.Rect) {
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(r.XMin))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.YMin))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.XMax))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(r.YMax))
}

func getRect(buf []byte) geom.Rect {
	return geom.Rect{
		XMin: math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])),
		YMin: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
		XMax: math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
		YMax: math.Float64frombits(binary.LittleEndian.Uint64(buf[24:])),
	}
}

// encodeRecord appends the wire form of rec to dst and returns it.
func encodeRecord(dst []byte, rec Record) []byte {
	start := len(dst)
	dst = append(dst, rec.Op)
	var payload [2 * rectBytes]byte
	n := rectBytes
	if rec.Op == OpUpdate {
		putRect(payload[:], rec.Old)
		putRect(payload[rectBytes:], rec.Rect)
		n = 2 * rectBytes
	} else {
		putRect(payload[:], rec.Rect)
	}
	dst = append(dst, payload[:n]...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(dst[start:]))
	return append(dst, crc[:]...)
}

// decodeRecords is the one parser of journal record bytes, for replay at
// Open. It decodes the whole records at the front of seg and hands each to
// fn as it is decoded, allocating nothing per record. A segment may end
// mid-record — a journal cut short by a crash, or a read buffer that ends
// inside a record — and that partial tail is left unconsumed without
// error. A complete record that fails its CRC, or an unknown opcode, is
// corruption and errors. consumed spans the records fn accepted; an error
// from fn stops decoding and is returned as it is.
func decodeRecords(seg []byte, fn func(Record) error) (consumed int, err error) {
	for consumed < len(seg) {
		b := seg[consumed:]
		op := b[0]
		var plen int
		switch op {
		case OpInsert, OpDelete:
			plen = rectBytes
		case OpUpdate:
			plen = 2 * rectBytes
		default:
			return consumed, fmt.Errorf("live: unknown opcode %d at segment offset %d", op, consumed)
		}
		total := 1 + plen + 4
		if len(b) < total {
			return consumed, nil // partial tail: the rest has not arrived
		}
		if crc32.ChecksumIEEE(b[:1+plen]) != binary.LittleEndian.Uint32(b[1+plen:]) {
			return consumed, fmt.Errorf("live: record CRC mismatch at segment offset %d", consumed)
		}
		rec := Record{Op: op, Rect: getRect(b[1:])}
		if op == OpUpdate {
			rec.Old, rec.Rect = rec.Rect, getRect(b[1+rectBytes:])
		}
		if err := fn(rec); err != nil {
			return consumed, err
		}
		consumed += total
	}
	return consumed, nil
}

// replay feeds the record stream of r through decodeRecords, reading into
// buf (at least one update record long) and carrying each read's partial
// tail to the front of the next, so memory stays one buffer however long
// the journal. It returns the bytes the valid records span and whether a
// torn tail follows them: bytes left over at EOF, or a corrupt record.
// Only a read error is an error.
func replay(r io.Reader, buf []byte, apply func(Record)) (consumed int64, torn bool, err error) {
	fn := func(rec Record) error {
		apply(rec)
		return nil
	}
	n := 0 // undecoded bytes at the front of buf
	for {
		m, rerr := io.ReadFull(r, buf[n:])
		n += m
		used, derr := decodeRecords(buf[:n], fn)
		consumed += int64(used)
		if derr != nil {
			return consumed, true, nil
		}
		n = copy(buf, buf[used:n])
		switch rerr {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return consumed, n > 0, nil
		default:
			return consumed, false, rerr
		}
	}
}

// wal is the append side of an open journal. All methods are called with
// the store mutex held, so the type itself is not concurrency-safe.
type wal struct {
	f         *os.File
	w         *bufio.Writer
	size      int64 // logical length: header plus every appended record
	syncEvery int   // fsync after this many records; <=0 defers to sync()
	unsynced  int
	buf       []byte // scratch encoding buffer
}

// openWAL opens (or creates) the journal at path, validates its header
// against the expected one, replays the records from byte offset `from`
// (0 means just past the header) into apply as they are decoded, truncates
// any torn or corrupt tail, and returns the handle positioned for append
// together with whether a tail had to be dropped.
func openWAL(path string, header []byte, from int64, syncEvery int, apply func(Record)) (w *wal, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	headerLen := int64(len(header))
	if from == 0 {
		from = headerLen
	}
	if st.Size() == 0 {
		if from != headerLen {
			return nil, false, fmt.Errorf("live: checkpoint expects %d bytes of WAL but %s is empty", from, path)
		}
		if _, err := f.Write(header); err != nil {
			return nil, false, fmt.Errorf("live: writing WAL header: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, false, err
		}
		return newWAL(f, headerLen, syncEvery), false, nil
	}
	got := make([]byte, headerLen)
	if _, err := io.ReadFull(f, got); err != nil {
		return nil, false, fmt.Errorf("live: WAL %s shorter than its header: %w", path, err)
	}
	if !bytes.Equal(got, header) {
		return nil, false, fmt.Errorf("live: WAL %s was written for a different store configuration (grid, algorithm or area partitioning)", path)
	}
	if from < headerLen || from > st.Size() {
		return nil, false, fmt.Errorf("live: checkpoint expects %d bytes of WAL but %s has %d", from, path, st.Size())
	}
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return nil, false, err
	}
	consumed, torn, err := replay(f, make([]byte, replayBufBytes), apply)
	if err != nil {
		return nil, false, fmt.Errorf("live: replaying WAL %s: %w", path, err)
	}
	valid := from + consumed
	if torn {
		if err := f.Truncate(valid); err != nil {
			return nil, false, fmt.Errorf("live: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return nil, false, err
	}
	return newWAL(f, valid, syncEvery), torn, nil
}

// newWAL assembles the append side over f. Record bytes flow through the
// FailpointWALWrite site, so crash tests can cut the stream at any byte.
func newWAL(f *os.File, size int64, syncEvery int) *wal {
	return &wal{
		f:         f,
		w:         bufio.NewWriterSize(failpoint.Wrap(FailpointWALWrite, f), 1<<16),
		size:      size,
		syncEvery: syncEvery,
	}
}

// append journals one record. Durability follows the sync policy: with
// syncEvery <= 0 the record is buffered until sync() (a Flush, checkpoint
// or Close); with syncEvery N every Nth append fsyncs.
func (w *wal) append(rec Record) (int64, error) {
	w.buf = encodeRecord(w.buf[:0], rec)
	if _, err := w.w.Write(w.buf); err != nil {
		return 0, err
	}
	n := int64(len(w.buf))
	w.size += n
	w.unsynced++
	if w.syncEvery > 0 && w.unsynced >= w.syncEvery {
		return n, w.sync()
	}
	return n, nil
}

// sync flushes buffered records and fsyncs the file.
func (w *wal) sync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := failpoint.Check(FailpointWALSync); err != nil {
		return err
	}
	w.unsynced = 0
	return w.f.Sync()
}

// close syncs and closes the journal.
func (w *wal) close() error {
	serr := w.sync()
	cerr := w.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
