package live

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"spatialhist/internal/core"
	"spatialhist/internal/geom"
	"spatialhist/internal/grid"
	"spatialhist/internal/telemetry"
)

func replicaTestGrid() *grid.Grid {
	return grid.New(geom.Rect{XMin: 0, YMin: 0, XMax: 32, YMax: 32}, 16, 16)
}

func openReplicaLeader(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Config{
		Grid:         replicaTestGrid(),
		Algo:         AlgoEuler,
		WALPath:      filepath.Join(dir, "leader.wal"),
		RebuildEvery: 1,
		Telemetry:    telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func randReplicaRect(rng *rand.Rand) geom.Rect {
	x, y := rng.Float64()*28, rng.Float64()*28
	return geom.NewRect(x, y, x+rng.Float64()*4, y+rng.Float64()*4)
}

func leaderWithRecords(t *testing.T, n int) (*Store, []byte) {
	t.Helper()
	s := openReplicaLeader(t, t.TempDir())
	rng := rand.New(rand.NewSource(int64(n)))
	for k := 0; k < n; k++ {
		r := randReplicaRect(rng)
		s.Insert(r)
		if k%5 == 0 {
			s.Delete(r)
		}
	}
	s.Flush()
	data, size, err := s.WALSegment(0, 1<<30)
	if err != nil {
		t.Fatalf("WALSegment: %v", err)
	}
	if int64(len(data)) != size-int64(len(s.header)) {
		t.Fatalf("segment %d bytes, journal size %d", len(data), size)
	}
	return s, data
}

// decodeAll collects what DecodeRecords decodes from seg.
func decodeAll(seg []byte) (recs []Record, consumed int, err error) {
	consumed, err = DecodeRecords(seg, func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, consumed, err
}

func TestDecodeRecordsRoundTrip(t *testing.T) {
	s, data := leaderWithRecords(t, 40)
	recs, consumed, err := decodeAll(data)
	if err != nil {
		t.Fatalf("DecodeRecords: %v", err)
	}
	if consumed != len(data) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(data))
	}
	var total int64
	inserts, deletes := 0, 0
	for _, r := range recs {
		total += r.EncodedLen()
		switch r.Op {
		case OpInsert:
			inserts++
		case OpDelete:
			deletes++
		}
	}
	if total != int64(consumed) {
		t.Fatalf("EncodedLen sum %d, consumed %d", total, consumed)
	}
	st := s.Status()
	if int64(inserts+deletes) != st.Mutations {
		t.Fatalf("decoded %d+%d records, store applied %d", inserts, deletes, st.Mutations)
	}

	// An error from fn stops decoding before that record and comes back as
	// it is: consumed spans only the records fn accepted.
	stop := errors.New("stop")
	seen := 0
	n, err := DecodeRecords(data, func(Record) error {
		if seen == 3 {
			return stop
		}
		seen++
		return nil
	})
	if err != stop || int64(n) != recs[0].EncodedLen()+recs[1].EncodedLen()+recs[2].EncodedLen() {
		t.Fatalf("stopped decode consumed %d with %v", n, err)
	}
}

func TestDecodeRecordsPartialTail(t *testing.T) {
	_, data := leaderWithRecords(t, 10)
	// Every truncation point must decode the whole-record prefix cleanly
	// and stop before the torn tail — that is what lets a tailer re-fetch
	// from a record boundary after a mid-record disconnect.
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
			sum += r.EncodedLen()
		}
		if sum != int64(consumed) {
			t.Fatalf("cut=%d: records sum to %d, consumed %d", cut, sum, consumed)
		}
	}
}

func TestDecodeRecordsCorruption(t *testing.T) {
	_, data := leaderWithRecords(t, 5)
	// Flip a payload byte of the first record: its CRC must fail, loudly.
	bad := bytes.Clone(data)
	bad[5] ^= 0xff
	if _, _, err := decodeAll(bad); err == nil {
		t.Fatal("corrupt record decoded cleanly")
	}
	// An unknown opcode is a protocol error, not a torn tail.
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

func TestWALSegmentBounds(t *testing.T) {
	s, data := leaderWithRecords(t, 8)
	_, size, err := s.WALSegment(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// from=0 means "the first record" (the header is not shipped).
	header := size - int64(len(data))
	if header <= 0 {
		t.Fatalf("journal size %d with %d record bytes", size, len(data))
	}
	// A mid-journal offset returns exactly the tail.
	from := header + 37
	tail, size2, err := s.WALSegment(from, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if size2 != size || !bytes.Equal(tail, data[37:]) {
		t.Fatal("mid-journal segment differs from the journal's bytes")
	}
	// max caps the fetch.
	capped, _, err := s.WALSegment(0, 37)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 37 {
		t.Fatalf("capped fetch returned %d bytes", len(capped))
	}
	// Offsets inside the header or past the end are errors.
	if _, _, err := s.WALSegment(header-1, 10); err == nil {
		t.Fatal("offset inside the header accepted")
	}
	if _, _, err := s.WALSegment(size+1, 10); err == nil {
		t.Fatal("offset past the journal accepted")
	}
	// At the end: an empty segment, not an error (the caught-up poll).
	empty, _, err := s.WALSegment(size, 10)
	if err != nil || len(empty) != 0 {
		t.Fatalf("caught-up fetch: %d bytes, err %v", len(empty), err)
	}
}

func TestWALSegmentRequiresJournal(t *testing.T) {
	s, err := Open(Config{Grid: replicaTestGrid(), Algo: AlgoEuler, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.WALSegment(0, 10); err == nil {
		t.Fatal("WALSegment on a journal-less store succeeded")
	}
}

func TestStreamCheckpointPeekRoundTrip(t *testing.T) {
	s, _ := leaderWithRecords(t, 30)
	dir := t.TempDir()
	path := filepath.Join(dir, "streamed.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StreamCheckpoint(f); err != nil {
		t.Fatalf("StreamCheckpoint: %v", err)
	}
	f.Close()

	cfg, err := PeekCheckpoint(path)
	if err != nil {
		t.Fatalf("PeekCheckpoint: %v", err)
	}
	if cfg.Grid.NX() != 16 || cfg.Grid.NY() != 16 || cfg.Algo != AlgoEuler {
		t.Fatalf("peeked config %+v", cfg)
	}
	if cfg.Grid.Extent() != replicaTestGrid().Extent() {
		t.Fatalf("peeked extent %v, want %v", cfg.Grid.Extent(), replicaTestGrid().Extent())
	}

	// Opening from the streamed checkpoint yields a bit-identical store.
	cfg.CheckpointPath = path
	cfg.Telemetry = telemetry.NewRegistry()
	r, err := Open(cfg)
	if err != nil {
		t.Fatalf("open from streamed checkpoint: %v", err)
	}
	defer r.Close()
	if r.Seq() != s.Seq() {
		t.Fatalf("restored seq %d, leader %d", r.Seq(), s.Seq())
	}
	assertSameEstimates(t, s, r)
}

func assertSameEstimates(t *testing.T, a, b *Store) {
	t.Helper()
	g := a.Grid()
	full := grid.Span{I1: 0, J1: 0, I2: g.NX() - 1, J2: g.NY() - 1}
	ea, _, ra := a.AcquireEstimator()
	defer ra()
	eb, _, rb := b.AcquireEstimator()
	defer rb()
	va, err := core.EstimateGrid(ea, full, g.NX(), g.NY())
	if err != nil {
		t.Fatal(err)
	}
	vb, err := core.EstimateGrid(eb, full, g.NX(), g.NY())
	if err != nil {
		t.Fatal(err)
	}
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("tile %d: %+v vs %+v", i, va[i], vb[i])
		}
	}
}

func TestApplyReplicatedMirrorsLeader(t *testing.T) {
	leader, data := leaderWithRecords(t, 50)
	replica, err := Open(Config{
		Grid:         replicaTestGrid(),
		Algo:         AlgoEuler,
		RebuildEvery: 1,
		Telemetry:    telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	recs, _, err := decodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	seq := int64(0)
	for _, rec := range recs {
		seq += rec.EncodedLen()
		if _, err := replica.ApplyReplicated(rec, seq); err != nil {
			t.Fatalf("apply at %d: %v", seq, err)
		}
	}
	replica.Flush()
	if replica.Seq() != seq {
		t.Fatalf("replica seq %d, want %d", replica.Seq(), seq)
	}
	if replica.VisibleSeq() != seq {
		t.Fatalf("replica visible %d, want %d", replica.VisibleSeq(), seq)
	}
	assertSameEstimates(t, leader, replica)

	// A sequence regression is a protocol bug and must refuse.
	if _, err := replica.ApplyReplicated(recs[0], seq-1); err == nil {
		t.Fatal("sequence regression accepted")
	}
}

func TestApplyReplicatedRefusesJournaledStore(t *testing.T) {
	s := openReplicaLeader(t, t.TempDir())
	rec := Record{Op: OpInsert, Rect: geom.NewRect(1, 1, 2, 2)}
	if _, err := s.ApplyReplicated(rec, 37); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("journaled store accepted a replicated record: %v", err)
	}
}

func TestReplicaCheckpointWithoutJournal(t *testing.T) {
	// A journal-less replica's checkpoint must persist its applied leader
	// sequence so a restart resumes tailing from it.
	dir := t.TempDir()
	leader, data := leaderWithRecords(t, 20)
	recs, _, err := decodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "replica.ckpt")
	replica, err := Open(Config{
		Grid:           replicaTestGrid(),
		Algo:           AlgoEuler,
		CheckpointPath: path,
		RebuildEvery:   1,
		Telemetry:      telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := int64(0)
	for _, rec := range recs {
		seq += rec.EncodedLen()
		replica.ApplyReplicated(rec, seq)
	}
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(Config{
		Grid:           replicaTestGrid(),
		Algo:           AlgoEuler,
		CheckpointPath: path,
		Telemetry:      telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Seq() != seq {
		t.Fatalf("reopened replica seq %d, want %d", reopened.Seq(), seq)
	}
	assertSameEstimates(t, leader, reopened)
}
