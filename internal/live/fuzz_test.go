package live

import (
	"bytes"
	"testing"
	"testing/iotest"

	"spatialhist/internal/geom"
)

// FuzzWALScan throws arbitrary bytes at journal replay — DecodeRecords fed
// through replay's one buffer, the code that parses whatever a crash left
// on disk — and checks its contract: never panic, never consume more than
// it read, accept exactly a prefix that re-encodes to the same bytes
// (decode ∘ encode is the identity on the valid prefix, so recovery can
// trust it), and count the tail as torn exactly when bytes remain. A
// buffer of one update record, filled by half reads, must replay the same
// records: where the reads cut the stream changes nothing.
func FuzzWALScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{OpInsert})
	var valid []byte
	valid = encodeRecord(valid, Record{Op: OpInsert, Rect: geom.NewRect(1, 2, 3, 4)})
	valid = encodeRecord(valid, Record{Op: OpUpdate, Old: geom.NewRect(1, 2, 3, 4), Rect: geom.NewRect(0, 0, 9, 9)})
	valid = encodeRecord(valid, Record{Op: OpDelete, Rect: geom.NewRect(1, 2, 3, 4)})
	f.Add(valid)
	f.Add(append(valid[:len(valid)-3], 0xff, 0x00))

	f.Fuzz(func(t *testing.T, data []byte) {
		var enc []byte
		consumed, torn, err := replay(bytes.NewReader(data), make([]byte, replayBufBytes), func(rec Record) {
			enc = encodeRecord(enc, rec)
		})
		if err != nil {
			t.Fatalf("replay from memory failed: %v", err)
		}
		if consumed < 0 || consumed > int64(len(data)) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if torn != (consumed < int64(len(data))) {
			t.Fatalf("torn=%v with %d of %d bytes consumed", torn, consumed, len(data))
		}
		if int64(len(enc)) != consumed || !bytes.Equal(enc, data[:consumed]) {
			t.Fatalf("valid prefix does not round-trip: %d replayed bytes vs %d re-encoded", consumed, len(enc))
		}

		var small []byte
		c2, torn2, err := replay(iotest.HalfReader(bytes.NewReader(data)), make([]byte, updateRecordBytes), func(rec Record) {
			small = encodeRecord(small, rec)
		})
		if err != nil || c2 != consumed || torn2 != torn || !bytes.Equal(small, enc) {
			t.Fatalf("one-record buffer replayed %d bytes (torn %v, err %v), full buffer %d (torn %v)", c2, torn2, err, consumed, torn)
		}
	})
}
