package live

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// journalRecords plays n generated mutations into a journaled store and
// returns them with the record bytes of its journal, header stripped.
func journalRecords(t *testing.T, n int) ([]Record, []byte) {
	t.Helper()
	cfg := Config{Grid: testGrid(), Algo: AlgoEuler, Seed: seedRects(20),
		WALPath: filepath.Join(t.TempDir(), "store.wal"), RebuildEvery: -1}
	recs := mutationScript(cfg.Seed, n)
	s := openTestStore(t, cfg)
	play(t, s, recs)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	return recs, raw[len(s.header):]
}

// decodeAll collects what decodeRecords decodes from seg.
func decodeAll(seg []byte) (recs []Record, consumed int, err error) {
	consumed, err = decodeRecords(seg, func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, consumed, err
}

func TestDecodeRecordsRoundTrip(t *testing.T) {
	want, data := journalRecords(t, 40)
	recs, consumed, err := decodeAll(data)
	if err != nil {
		t.Fatalf("decodeRecords: %v", err)
	}
	if consumed != len(data) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(data))
	}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, journaled %d", len(recs), len(want))
	}
	var total int64
	for i, r := range recs {
		if r != want[i] {
			t.Fatalf("record %d decoded as %+v, journaled %+v", i, r, want[i])
		}
		total += r.encodedLen()
	}
	if total != int64(consumed) {
		t.Fatalf("encodedLen sum %d, consumed %d", total, consumed)
	}

	// An error from fn stops decoding before that record and comes back as
	// it is: consumed spans only the records fn accepted.
	stop := errors.New("stop")
	seen := 0
	n, err := decodeRecords(data, func(Record) error {
		if seen == 3 {
			return stop
		}
		seen++
		return nil
	})
	if err != stop || int64(n) != recs[0].encodedLen()+recs[1].encodedLen()+recs[2].encodedLen() {
		t.Fatalf("stopped decode consumed %d with %v", n, err)
	}
}

func TestDecodeRecordsPartialTail(t *testing.T) {
	_, data := journalRecords(t, 10)
	// Every truncation point must decode the whole-record prefix cleanly
	// and stop before the torn tail — that is what lets replay carry a
	// record cut by its read buffer over to the next read.
	for cut := 0; cut <= len(data); cut++ {
		recs, consumed, err := decodeAll(data[:cut])
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if consumed > cut {
			t.Fatalf("cut=%d: consumed %d", cut, consumed)
		}
		var sum int64
		for _, r := range recs {
			sum += r.encodedLen()
		}
		if sum != int64(consumed) {
			t.Fatalf("cut=%d: records sum to %d, consumed %d", cut, sum, consumed)
		}
	}
}

func TestDecodeRecordsCorruption(t *testing.T) {
	_, data := journalRecords(t, 5)
	// Flip a payload byte of the first record: its CRC must fail, loudly.
	bad := bytes.Clone(data)
	bad[5] ^= 0xff
	if _, _, err := decodeAll(bad); err == nil {
		t.Fatal("corrupt record decoded cleanly")
	}
	// An unknown opcode is corruption, not a torn tail.
	bad = bytes.Clone(data)
	bad[0] = 0x7f
	if _, _, err := decodeAll(bad); err == nil {
		t.Fatal("unknown opcode decoded cleanly")
	}
	// Corruption after a valid prefix: the prefix decodes, the error names
	// the bad record.
	bad = bytes.Clone(data)
	bad[len(bad)-1] ^= 0xff // last record's CRC
	recs, _, err := decodeAll(bad)
	if err == nil {
		t.Fatal("corrupt last record decoded cleanly")
	}
	if len(recs) == 0 {
		t.Fatal("valid prefix discarded on a later record's corruption")
	}
}
